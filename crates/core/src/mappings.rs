//! Enumeration of the mappings `h : C → C` that respect the uniqueness
//! axioms — the quantification domain of Theorem 1.
//!
//! Two enumerators are provided:
//!
//! * [`for_each_respecting_mapping`] — every respecting `h`, all
//!   `≤ |C|^|C|` of them, by backtracking over the NE constraint graph.
//!   Faithful to the statement of Theorem 1; sequential only, it feeds the
//!   raw-mapping reference [`crate::oracle::answers_by_raw_mappings`].
//! * [`for_each_kernel_mapping`] — one canonical representative per
//!   *kernel partition*. Certain-answer membership `h(c) ∈ Q(h(Ph₁(LB)))`
//!   is invariant under post-composition of `h` with any bijection
//!   `σ : C → C` (such a `σ` is an `L`-isomorphism from `h(Ph₁)` to
//!   `σ(h(Ph₁))` that also maps `h(c)` to `σ(h(c))`), and two mappings are
//!   related that way exactly when they have the same kernel. So it
//!   suffices to enumerate NE-separating set partitions of `C` —
//!   Bell(|C|) of them instead of `|C|^|C|` — and take as representative
//!   the map sending each constant to the least constant of its block.
//!   The two enumerators are property-tested to yield identical certain
//!   answers.
//!
//! Both use callbacks (`visit` returns `false` to stop early) because the
//! exact evaluator wants early exit on an emptied candidate set.
//!
//! # Parallel enumeration
//!
//! The kernel tree is embarrassingly parallel over subtrees:
//! [`for_each_kernel_mapping_over_parallel`] partitions it by the branch
//! choices of the first few levels into independent *prefix jobs*, and a
//! scoped pool of `std::thread` workers drains the job list through an
//! atomic counter. Each worker owns private per-worker state (created by
//! `init`), visits every mapping of its subtrees, and a shared atomic stop
//! flag propagates early exit across workers: the first `visit` returning
//! `false` halts the whole enumeration. Every mapping is visited by exactly
//! one worker, so order-independent merges of the worker states
//! (intersection, union, sums) are bit-identical to the sequential
//! enumerator regardless of thread count.

use crate::theory::CwDatabase;
use qld_physical::Elem;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many prefix jobs to aim for per worker thread. More jobs than
/// workers lets the atomic job counter balance skewed subtree sizes
/// (subtrees of the kernel tree vary by orders of magnitude).
const JOBS_PER_WORKER: usize = 8;

/// Thread-count configuration for the parallel enumerators (and for
/// everything layered on them: the exact evaluator, possible answers,
/// possible-world enumeration, the `Engine` parallelism knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads. `1` runs the sequential enumerator on the
    /// calling thread (no spawn); `0` means one worker per available CPU.
    pub threads: usize,
    /// Clamp explicit thread counts to the host's available parallelism.
    /// On by default: an oversubscribed pool only adds scheduling overhead
    /// (the E10 bench showed threads > cores running *slower* than
    /// sequential on a small host). Turn off to force a pool wider than
    /// the host, e.g. to exercise the worker machinery in tests.
    pub clamp_to_host: bool,
}

impl ParallelConfig {
    /// An explicit thread count (`0` = one worker per available CPU),
    /// clamped to the host's available parallelism.
    pub fn new(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            clamp_to_host: true,
        }
    }

    /// An explicit thread count that is *not* clamped to the host CPU
    /// count. Only useful to exercise the worker pool itself; answers are
    /// bit-identical either way.
    pub fn unclamped(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            clamp_to_host: false,
        }
    }

    /// Single-threaded enumeration on the calling thread.
    pub fn sequential() -> ParallelConfig {
        ParallelConfig::new(1)
    }

    /// Reads the `QLD_THREADS` environment variable (`0` = auto-detect),
    /// falling back to sequential when unset or unparsable. This is the
    /// [`Default`], so the whole stack — including the test suite — can be
    /// switched to parallel enumeration from the environment (CI runs the
    /// suite under both `QLD_THREADS=1` and `QLD_THREADS=4`).
    pub fn from_env() -> ParallelConfig {
        match std::env::var("QLD_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            Some(threads) => ParallelConfig::new(threads),
            None => ParallelConfig::sequential(),
        }
    }

    /// The actual worker count: `threads`, with `0` resolved to the number
    /// of available CPUs and explicit counts clamped to the host (unless
    /// [`ParallelConfig::unclamped`]) so the pool never oversubscribes.
    pub fn resolved_threads(self) -> usize {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        match self.threads {
            0 => host,
            n if self.clamp_to_host => n.min(host),
            n => n,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig::from_env()
    }
}

/// Smaller-indexed NE neighbours of each constant, for forward checking.
fn smaller_neighbors(db: &CwDatabase) -> Vec<Vec<u32>> {
    let n = db.num_consts();
    let mut nbrs = vec![Vec::new(); n];
    for &(a, b) in db.ne_pairs() {
        // normalized a < b
        nbrs[b as usize].push(a);
    }
    nbrs
}

/// Smaller-*position* NE neighbours restricted to a sorted subset of the
/// constants: `nbrs[p]` lists the positions `q < p` (indices into
/// `members`) with an NE edge between `members[q]` and `members[p]`. With
/// `members = 0..n` this is exactly [`smaller_neighbors`].
fn subset_neighbors(db: &CwDatabase, members: &[u32]) -> Vec<Vec<u32>> {
    let mut nbrs = vec![Vec::new(); members.len()];
    for &(a, b) in db.ne_pairs() {
        // normalized a < b, members sorted ascending
        if let (Ok(pa), Ok(pb)) = (members.binary_search(&a), members.binary_search(&b)) {
            nbrs[pb].push(pa as u32);
        }
    }
    nbrs
}

/// The NE forward check shared by the sequential recursions and the
/// prefix builders: may the next position take `value` (a block id or a
/// mapped element), given the values already `assigned` to earlier
/// positions and the position's smaller-indexed NE neighbours?
fn ne_separated(assigned: &[u32], nbrs: &[u32], value: u32) -> bool {
    nbrs.iter().all(|&j| assigned[j as usize] != value)
}

/// The raw-mapping backtracking recursion from position `pos`: all earlier
/// positions of `h` are already assigned. Returns `false` iff `visit`
/// stopped the enumeration.
fn raw_rec(
    pos: usize,
    n: usize,
    h: &mut [Elem],
    nbrs: &[Vec<u32>],
    visit: &mut dyn FnMut(&[Elem]) -> bool,
) -> bool {
    if pos == n {
        return visit(h);
    }
    for v in 0..n as Elem {
        if !ne_separated(h, &nbrs[pos], v) {
            continue;
        }
        h[pos] = v;
        if !raw_rec(pos + 1, n, h, nbrs, visit) {
            return false;
        }
    }
    true
}

/// The kernel-partition recursion from position `pos` over the constants
/// `members` (positions index into it; `members[p] = p` for the full-set
/// enumerators): `block[..pos]` is a valid restricted-growth prefix, `rep`
/// holds the canonical representative of each block placed so far (the
/// *constant id* of its first member — its least member, since `members`
/// is ascending), and `h[..pos]` is the induced mapping prefix. Returns
/// `false` iff `visit` stopped the enumeration.
fn kernel_rec(
    pos: usize,
    members: &[Elem],
    block: &mut [u32],
    rep: &mut Vec<Elem>,
    h: &mut [Elem],
    nbrs: &[Vec<u32>],
    visit: &mut dyn FnMut(&[Elem]) -> bool,
) -> bool {
    if pos == members.len() {
        return visit(h);
    }
    let num_blocks = rep.len() as u32;
    for b in 0..=num_blocks {
        if !ne_separated(block, &nbrs[pos], b) {
            continue;
        }
        block[pos] = b;
        let new_block = b == num_blocks;
        if new_block {
            rep.push(members[pos]);
        }
        h[pos] = rep[b as usize];
        let keep_going = kernel_rec(pos + 1, members, block, rep, h, nbrs, visit);
        if new_block {
            rep.pop();
        }
        if !keep_going {
            return false;
        }
    }
    true
}

/// Enumerates every mapping `h : C → C` respecting the uniqueness axioms,
/// invoking `visit(h)` on each (as a slice `h[i] = h(ConstId(i))`).
/// Returns `false` iff `visit` stopped the enumeration early.
pub fn for_each_respecting_mapping(
    db: &CwDatabase,
    mut visit: impl FnMut(&[Elem]) -> bool,
) -> bool {
    let n = db.num_consts();
    let nbrs = smaller_neighbors(db);
    let mut h: Vec<Elem> = vec![0; n];
    raw_rec(0, n, &mut h, &nbrs, &mut visit)
}

/// Enumerates one canonical respecting mapping per kernel partition (see
/// module docs), invoking `visit(h)` on each. Returns `false` iff `visit`
/// stopped the enumeration early.
pub fn for_each_kernel_mapping(db: &CwDatabase, mut visit: impl FnMut(&[Elem]) -> bool) -> bool {
    let n = db.num_consts();
    let members: Vec<Elem> = (0..n as Elem).collect();
    let nbrs = smaller_neighbors(db);
    // Restricted growth string `block[i] ∈ 0..=max(block[..i])+1`, with the
    // NE constraint that neighbours get distinct blocks. The canonical
    // representative of block `b` is the first constant placed in it, so
    // the mapping is h[i] = rep[block[i]].
    let mut block: Vec<u32> = vec![0; n];
    let mut rep: Vec<Elem> = Vec::with_capacity(n);
    let mut h: Vec<Elem> = vec![0; n];
    kernel_rec(0, &members, &mut block, &mut rep, &mut h, &nbrs, &mut visit)
}

/// Enumerates one canonical kernel mapping per NE-separating partition of
/// the *subset* `members` (sorted ascending constant ids): `visit` receives
/// a slice indexed by position, whose value at position `p` is the
/// representative (least) constant of `members[p]`'s block. NE edges with
/// both endpoints outside `members` are irrelevant; edges with one endpoint
/// outside are ignored (the subset partition never merges across them
/// anyway when `members` is closed under NE components). Returns `false`
/// iff `visit` stopped the enumeration early.
pub fn for_each_kernel_mapping_over(
    db: &CwDatabase,
    members: &[u32],
    mut visit: impl FnMut(&[Elem]) -> bool,
) -> bool {
    let len = members.len();
    let nbrs = subset_neighbors(db, members);
    let mut block: Vec<u32> = vec![0; len];
    let mut rep: Vec<Elem> = Vec::with_capacity(len);
    let mut h: Vec<Elem> = vec![0; len];
    kernel_rec(0, members, &mut block, &mut rep, &mut h, &nbrs, &mut visit)
}

/// All valid restricted-growth prefixes of the kernel tree, extended level
/// by level until there are at least `target` of them (or the tree is
/// exhausted). Returns the prefix depth alongside the prefixes.
fn kernel_prefixes(nbrs: &[Vec<u32>], n: usize, target: usize) -> (usize, Vec<Vec<u32>>) {
    let mut depth = 0;
    let mut prefixes: Vec<Vec<u32>> = vec![Vec::new()];
    while depth < n && prefixes.len() < target {
        let mut next = Vec::with_capacity(prefixes.len() * 2);
        for p in &prefixes {
            let num_blocks = p.iter().copied().max().map_or(0, |m| m + 1);
            for b in 0..=num_blocks {
                if !ne_separated(p, &nbrs[depth], b) {
                    continue;
                }
                let mut q = Vec::with_capacity(depth + 1);
                q.extend_from_slice(p);
                q.push(b);
                next.push(q);
            }
        }
        prefixes = next;
        depth += 1;
    }
    (depth, prefixes)
}

/// The scoped worker pool of the parallel enumerator: workers
/// claim jobs through an atomic counter (dynamic load balancing for skewed
/// subtrees) and observe a shared stop flag. `work` returns `false` to
/// stop the whole pool. Returns every worker's final state (in worker
/// order) and whether the enumeration ran to completion.
fn worker_pool<S: Send, J: Sync>(
    threads: usize,
    jobs: &[J],
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, &J, &AtomicBool) -> bool + Sync,
) -> (Vec<S>, bool) {
    let workers = threads.min(jobs.len()).max(1);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (init, work, next, stop) = (&init, &work, &next, &stop);
                scope.spawn(move || {
                    let mut state = init(w);
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs.len() {
                            break;
                        }
                        if !work(&mut state, &jobs[j], stop) {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enumeration worker panicked"))
            .collect::<Vec<S>>()
    });
    let completed = !stop.load(Ordering::Relaxed);
    (states, completed)
}

/// Parallel [`for_each_kernel_mapping_over`]: visits exactly the same
/// partitions of `members` (pass `0..|C|` for the full kernel set), split
/// across a worker pool (see the module docs for the scheme). `init`
/// creates one private state per worker; `visit` returning `false` stops
/// every worker. Returns the worker states (merge them order-independently)
/// and `false` in the second slot iff the enumeration was stopped early.
///
/// With `config.threads == 1` this runs the sequential enumerator on the
/// calling thread — no threads are spawned, and the single returned state
/// saw every mapping in sequential order.
pub fn for_each_kernel_mapping_over_parallel<S: Send>(
    db: &CwDatabase,
    members: &[u32],
    config: ParallelConfig,
    init: impl Fn(usize) -> S + Sync,
    visit: impl Fn(&mut S, &[Elem]) -> bool + Sync,
) -> (Vec<S>, bool) {
    let threads = config.resolved_threads();
    if threads <= 1 {
        let mut state = init(0);
        let completed = for_each_kernel_mapping_over(db, members, |h| visit(&mut state, h));
        return (vec![state], completed);
    }
    let len = members.len();
    let nbrs = subset_neighbors(db, members);
    let (depth, prefixes) = kernel_prefixes(&nbrs, len, threads * JOBS_PER_WORKER);
    struct Scratch<S> {
        state: S,
        block: Vec<u32>,
        rep: Vec<Elem>,
        h: Vec<Elem>,
    }
    let (scratches, completed) = worker_pool(
        threads,
        &prefixes,
        |w| Scratch {
            state: init(w),
            block: vec![0; len],
            rep: Vec::with_capacity(len),
            h: vec![0; len],
        },
        |sc, prefix: &Vec<u32>, stop| {
            sc.rep.clear();
            for (i, &b) in prefix.iter().enumerate() {
                sc.block[i] = b;
                if b as usize == sc.rep.len() {
                    sc.rep.push(members[i]);
                }
                sc.h[i] = sc.rep[b as usize];
            }
            let state = &mut sc.state;
            kernel_rec(
                depth,
                members,
                &mut sc.block,
                &mut sc.rep,
                &mut sc.h,
                &nbrs,
                &mut |h| !stop.load(Ordering::Relaxed) && visit(state, h),
            )
        },
    );
    (
        scratches.into_iter().map(|sc| sc.state).collect(),
        completed,
    )
}

/// Counts the respecting mappings (`|C|^|C|` when there are no uniqueness
/// axioms).
pub fn count_respecting_mappings(db: &CwDatabase) -> u64 {
    let mut count = 0u64;
    for_each_respecting_mapping(db, |_| {
        count += 1;
        true
    });
    count
}

/// The connected components of the NE-constraint graph over the constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeComponents {
    /// Members of each multi-constant component, each sorted ascending.
    /// Ordered by least member.
    pub groups: Vec<Vec<u32>>,
    /// Constants with no NE edge at all, sorted ascending. Each is its own
    /// component.
    pub singletons: Vec<u32>,
}

impl NeComponents {
    /// Total number of connected components (isolated constants included).
    pub fn total(&self) -> usize {
        self.groups.len() + self.singletons.len()
    }
}

/// Computes the connected components of the NE graph (union-find over the
/// NE pairs).
pub fn ne_components(db: &CwDatabase) -> NeComponents {
    let n = db.num_consts();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while parent[r as usize] != r {
            r = parent[r as usize];
        }
        // path compression
        let mut c = x;
        while parent[c as usize] != r {
            let next = parent[c as usize];
            parent[c as usize] = r;
            c = next;
        }
        r
    }
    for &(a, b) in db.ne_pairs() {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
    let degrees = db.ne_degrees();
    let mut by_root: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    let mut singletons = Vec::new();
    for c in 0..n as u32 {
        if degrees[c as usize] == 0 {
            singletons.push(c);
        } else {
            by_root.entry(find(&mut parent, c)).or_default().push(c);
        }
    }
    NeComponents {
        groups: by_root.into_values().collect(),
        singletons,
    }
}

/// The query-independent decomposition summary of a database, computed by
/// [`analyze_decomposition`] and cached by the engine across deltas (an
/// insert that touches neither the NE graph nor a free constant leaves it
/// valid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbDecomposition {
    /// *Free* constants — no NE edge and occurring in no fact — sorted
    /// ascending. A query that doesn't mention them cannot tell them apart
    /// beyond "how many are merged where", which is what the decomposed
    /// evaluator in `exact` exploits.
    pub free: Vec<u32>,
    /// Number of connected components of the NE graph (isolated constants
    /// count as their own component).
    pub components: u32,
}

impl DbDecomposition {
    /// True iff `c` is a free constant (no NE edge, no fact occurrence).
    pub fn is_free(&self, c: u32) -> bool {
        self.free.binary_search(&c).is_ok()
    }
}

/// Computes the [`DbDecomposition`]: NE components plus the free-constant
/// set (isolated in the NE graph *and* absent from every fact relation).
pub fn analyze_decomposition(db: &CwDatabase) -> DbDecomposition {
    let n = db.num_consts();
    let mut in_fact = vec![false; n];
    for p in db.voc().preds() {
        for tuple in db.facts(p).iter() {
            for &c in tuple {
                in_fact[c as usize] = true;
            }
        }
    }
    let degrees = db.ne_degrees();
    let free: Vec<u32> = (0..n as u32)
        .filter(|&c| degrees[c as usize] == 0 && !in_fact[c as usize])
        .collect();
    DbDecomposition {
        free,
        components: ne_components(db).total() as u32,
    }
}

/// Counts the NE-separating kernel partitions (Bell(|C|) when there are no
/// uniqueness axioms), **saturating at `u64::MAX`**. Computed in closed
/// form per NE component (see [`count_kernel_mappings_up_to`]) — no
/// enumeration of the Bell-sized tree.
pub fn count_kernel_mappings(db: &CwDatabase) -> u64 {
    count_kernel_mappings_up_to(db, u64::MAX)
}

/// Reference implementation of [`count_kernel_mappings`] by walking the
/// full kernel tree. Exists for differential testing of the closed-form
/// count; everything else should use the closed form.
pub fn count_kernel_mappings_by_enumeration(db: &CwDatabase) -> u64 {
    let mut count = 0u64;
    for_each_kernel_mapping(db, |_| {
        count = count.saturating_add(1);
        true
    });
    count
}

/// Like [`count_kernel_mappings`], but returns `min(count, limit)`. This is
/// the cost-model probe the engine's `Auto` budget uses: "is the Theorem 1
/// enumeration within budget?" must not itself pay a Bell-number walk.
///
/// The count is closed-form over the NE components: a partition of `C`
/// restricts to one NE-separating partition per component, and gluing them
/// back is a partial matching of blocks across components (members of
/// *different* components have no NE edge, so any cross-component merge of
/// blocks is legal, which is exactly what the matching counts). Per
/// component we track σ(k) = #partitions into exactly `k`
/// blocks: all unconstrained singletons at once via the Stirling recurrence
/// S(s,k) = S(s−1,k−1) + k·S(s−1,k), each constrained component by a local
/// kernel walk (component-sized, not database-sized), and two σ vectors
/// merge by σ(j+k−m) += σ₁(j)·σ₂(k)·C(j,m)·C(k,m)·m! over the matching
/// size `m`. All arithmetic saturates at `u64::MAX`; since every partition
/// of a constant subset extends to one of the full set, any intermediate
/// running total that reaches `limit` lets the probe return `limit`
/// immediately.
pub fn count_kernel_mappings_up_to(db: &CwDatabase, limit: u64) -> u64 {
    if limit == 0 {
        return 0;
    }
    let comps = ne_components(db);
    let s = comps.singletons.len();
    // Bell(26) > u64::MAX: the singletons alone already saturate any limit.
    if s >= 26 {
        return limit;
    }
    let mut sigma = stirling_sigma(s);
    for group in &comps.groups {
        let Some(group_sigma) = component_sigma(db, group, limit) else {
            return limit; // the component alone reached the limit
        };
        sigma = merge_sigma(&sigma, &group_sigma);
        if sigma_total(&sigma) >= limit {
            return limit;
        }
    }
    sigma_total(&sigma).min(limit)
}

/// σ vector of `s` unconstrained singletons: `σ[k] = S(s, k)` (Stirling
/// numbers of the second kind), saturating.
fn stirling_sigma(s: usize) -> Vec<u64> {
    let mut row = vec![1u64]; // S(0, 0) = 1
    for _ in 0..s {
        let mut next = vec![0u64; row.len() + 1];
        for (k, &v) in row.iter().enumerate() {
            // S(s, k+1) += S(s-1, k); S(s, k) += k · S(s-1, k)
            next[k + 1] = next[k + 1].saturating_add(v);
            next[k] = next[k].saturating_add(v.saturating_mul(k as u64));
        }
        row = next;
    }
    row
}

/// σ vector of one constrained NE component by a component-local kernel
/// walk; `None` the moment the component's own partition count reaches
/// `limit`.
fn component_sigma(db: &CwDatabase, members: &[u32], limit: u64) -> Option<Vec<u64>> {
    let nbrs = subset_neighbors(db, members);
    let mut block = vec![0u32; members.len()];
    let mut sigma = vec![0u64; members.len() + 1];
    let mut total = 0u64;
    #[allow(clippy::too_many_arguments)]
    fn rec(
        pos: usize,
        len: usize,
        num_blocks: u32,
        block: &mut [u32],
        nbrs: &[Vec<u32>],
        sigma: &mut [u64],
        total: &mut u64,
        limit: u64,
    ) -> bool {
        if pos == len {
            sigma[num_blocks as usize] = sigma[num_blocks as usize].saturating_add(1);
            *total += 1;
            return *total < limit;
        }
        for b in 0..=num_blocks {
            if !ne_separated(block, &nbrs[pos], b) {
                continue;
            }
            block[pos] = b;
            let next_blocks = num_blocks.max(b + 1);
            if !rec(pos + 1, len, next_blocks, block, nbrs, sigma, total, limit) {
                return false;
            }
        }
        true
    }
    let completed = rec(
        0,
        members.len(),
        0,
        &mut block,
        &nbrs,
        &mut sigma,
        &mut total,
        limit,
    );
    completed.then_some(sigma)
}

/// Glues two σ vectors over disjoint constant sets (see
/// [`count_kernel_mappings_up_to`]): a partition of the union restricts to
/// one partition on each side, and each union block holds at most one block
/// from each side, so gluing a `j`-block and a `k`-block partition is a
/// size-`m` partial matching: `C(j,m)·C(k,m)·m!` ways, yielding `j+k−m`
/// blocks.
fn merge_sigma(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len() - 1];
    // Binomials via Pascal addition and factorials via saturating
    // multiplication: both keep every entry exactly `min(true value,
    // u64::MAX)`, so a merged σ entry below u64::MAX is exact and a
    // saturated one certifies the true count exceeds u64::MAX.
    let max_x = a.len().max(b.len()) - 1;
    let max_m = a.len().min(b.len()) - 1;
    let mut binom = vec![vec![0u64; max_m + 1]; max_x + 1];
    for row in binom.iter_mut() {
        row[0] = 1;
    }
    for x in 1..=max_x {
        for m in 1..=max_m {
            let prev = binom[x - 1][m];
            let diag = binom[x - 1][m - 1];
            binom[x][m] = prev.saturating_add(diag);
        }
    }
    let mut fact = vec![1u64; max_m + 1];
    for m in 1..=max_m {
        fact[m] = fact[m - 1].saturating_mul(m as u64);
    }
    for (j, &sa) in a.iter().enumerate() {
        if sa == 0 {
            continue;
        }
        for (k, &sb) in b.iter().enumerate() {
            if sb == 0 {
                continue;
            }
            let pair = sa.saturating_mul(sb);
            for m in 0..=j.min(k) {
                let matchings = binom[j][m]
                    .saturating_mul(binom[k][m])
                    .saturating_mul(fact[m]);
                out[j + k - m] = out[j + k - m].saturating_add(pair.saturating_mul(matchings));
            }
        }
    }
    out
}

/// Saturating sum of a σ vector — the component-glued partition count.
fn sigma_total(sigma: &[u64]) -> u64 {
    sigma.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
}

/// True iff `h` (as a slice) respects the database's uniqueness axioms.
pub fn respects(db: &CwDatabase, h: &[Elem]) -> bool {
    db.ne_pairs()
        .iter()
        .all(|&(a, b)| h[a as usize] != h[b as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::Vocabulary;

    fn db_with(n: usize, ne: &[(u32, u32)]) -> CwDatabase {
        let mut voc = Vocabulary::new();
        for i in 0..n {
            voc.add_const(&format!("c{i}")).unwrap();
        }
        let mut b = CwDatabase::builder(voc);
        for &(x, y) in ne {
            b = b.unique(qld_logic::ConstId(x), qld_logic::ConstId(y));
        }
        b.build().unwrap()
    }

    #[test]
    fn unconstrained_counts() {
        // n^n mappings, Bell(n) kernels.
        let expectations = [(1, 1u64, 1u64), (2, 4, 2), (3, 27, 5), (4, 256, 15)];
        for (n, raw, bell) in expectations {
            let db = db_with(n, &[]);
            assert_eq!(count_respecting_mappings(&db), raw, "n={n}");
            assert_eq!(count_kernel_mappings(&db), bell, "n={n}");
        }
    }

    #[test]
    fn fully_specified_counts() {
        // All pairs distinct: respecting mappings are the n! injections;
        // only one kernel (the discrete partition).
        let db = db_with(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(count_respecting_mappings(&db), 6);
        assert_eq!(count_kernel_mappings(&db), 1);
    }

    #[test]
    fn single_constraint() {
        // n=3, NE(0,1): raw = 27 − |h(0)=h(1)| = 27 − 9 = 18.
        // Kernels: partitions of {0,1,2} separating 0 and 1:
        // {0}{1}{2}, {0,2}{1}, {0}{1,2} → 3.
        let db = db_with(3, &[(0, 1)]);
        assert_eq!(count_respecting_mappings(&db), 18);
        assert_eq!(count_kernel_mappings(&db), 3);
    }

    #[test]
    fn every_raw_mapping_respects() {
        let db = db_with(4, &[(0, 1), (2, 3)]);
        let complete = for_each_respecting_mapping(&db, |h| {
            assert!(respects(&db, h));
            true
        });
        assert!(complete);
    }

    #[test]
    fn every_kernel_mapping_respects_and_is_idempotent() {
        let db = db_with(4, &[(0, 1), (2, 3)]);
        for_each_kernel_mapping(&db, |h| {
            assert!(respects(&db, h));
            // Canonical representatives are idempotent: h(h(c)) = h(c).
            for &v in h {
                assert_eq!(h[v as usize], v);
            }
            true
        });
    }

    #[test]
    fn kernels_are_distinct() {
        let db = db_with(4, &[(1, 2)]);
        let mut seen = std::collections::HashSet::new();
        for_each_kernel_mapping(&db, |h| {
            assert!(seen.insert(h.to_vec()), "kernel visited twice: {h:?}");
            true
        });
        // Bell(4)=15 minus partitions merging 1 and 2. Partitions of a
        // 4-set where two fixed elements share a block = Bell(3) = 5.
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn bounded_count_stops_at_limit() {
        let db = db_with(4, &[]);
        assert_eq!(count_kernel_mappings(&db), 15);
        assert_eq!(count_kernel_mappings_up_to(&db, 0), 0);
        assert_eq!(count_kernel_mappings_up_to(&db, 1), 1);
        assert_eq!(count_kernel_mappings_up_to(&db, 5), 5);
        assert_eq!(count_kernel_mappings_up_to(&db, 15), 15);
        // A limit above the true count returns the true count.
        assert_eq!(count_kernel_mappings_up_to(&db, 1000), 15);
    }

    #[test]
    fn early_exit_works() {
        let db = db_with(3, &[]);
        let mut n = 0;
        let completed = for_each_respecting_mapping(&db, |_| {
            n += 1;
            n < 5
        });
        assert!(!completed);
        assert_eq!(n, 5);

        let mut k = 0;
        let completed = for_each_kernel_mapping(&db, |_| {
            k += 1;
            k < 2
        });
        assert!(!completed);
        assert_eq!(k, 2);
    }

    #[test]
    fn kernel_set_equals_raw_kernel_set() {
        // The set of kernels of raw respecting mappings equals the set of
        // enumerated kernel partitions.
        let db = db_with(4, &[(0, 3), (1, 3)]);
        let kernel_of = |h: &[Elem]| -> Vec<u32> {
            // canonical kernel encoding: block id = first occurrence index
            let mut ids: Vec<u32> = Vec::new();
            let mut seen: Vec<(Elem, u32)> = Vec::new();
            for &v in h {
                match seen.iter().find(|(e, _)| *e == v) {
                    Some((_, id)) => ids.push(*id),
                    None => {
                        let id = seen.len() as u32;
                        seen.push((v, id));
                        ids.push(id);
                    }
                }
            }
            ids
        };
        let mut raw_kernels = std::collections::HashSet::new();
        for_each_respecting_mapping(&db, |h| {
            raw_kernels.insert(kernel_of(h));
            true
        });
        let mut canon_kernels = std::collections::HashSet::new();
        for_each_kernel_mapping(&db, |h| {
            canon_kernels.insert(kernel_of(h));
            true
        });
        assert_eq!(raw_kernels, canon_kernels);
    }

    /// Collects the kernel set seen by a parallel enumeration (union over
    /// the per-worker sets, asserting no worker saw a mapping twice).
    fn parallel_kernel_set(
        db: &CwDatabase,
        threads: usize,
    ) -> std::collections::HashSet<Vec<Elem>> {
        let members: Vec<u32> = (0..db.num_consts() as u32).collect();
        let (states, completed) = for_each_kernel_mapping_over_parallel(
            db,
            &members,
            // Unclamped so the pool machinery is exercised even on small hosts.
            ParallelConfig::unclamped(threads),
            |_w| std::collections::HashSet::new(),
            |set: &mut std::collections::HashSet<Vec<Elem>>, h| {
                assert!(set.insert(h.to_vec()), "worker revisited {h:?}");
                true
            },
        );
        assert!(completed);
        let mut union = std::collections::HashSet::new();
        for s in states {
            for h in s {
                assert!(union.insert(h.clone()), "two workers visited {h:?}");
            }
        }
        union
    }

    #[test]
    fn parallel_visits_exactly_the_sequential_mappings() {
        for (n, ne) in [
            (1usize, vec![]),
            (4, vec![]),
            (4, vec![(0u32, 1u32), (2, 3)]),
            (5, vec![(0, 1), (0, 2), (1, 2)]),
            (5, vec![(1, 4)]),
        ] {
            let db = db_with(n, &ne);
            let mut seq_kernels = std::collections::HashSet::new();
            for_each_kernel_mapping(&db, |h| {
                seq_kernels.insert(h.to_vec());
                true
            });
            for threads in [1usize, 2, 3, 4, 8] {
                assert_eq!(
                    parallel_kernel_set(&db, threads),
                    seq_kernels,
                    "n={n}, ne={ne:?}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_early_exit_stops_all_workers() {
        let db = db_with(6, &[]);
        for threads in [2usize, 4] {
            let (states, completed) = for_each_kernel_mapping_over_parallel(
                &db,
                &[0, 1, 2, 3, 4, 5],
                ParallelConfig::unclamped(threads),
                |_| 0u64,
                |count, _h| {
                    *count += 1;
                    false // stop immediately
                },
            );
            assert!(!completed);
            let total: u64 = states.iter().sum();
            // At most one visit per worker slipped in before the stop flag
            // propagated.
            assert!(total >= 1 && total <= threads as u64, "total={total}");
        }
    }

    #[test]
    fn parallel_config_resolution() {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(ParallelConfig::sequential().resolved_threads(), 1);
        // Explicit counts are clamped to the host so the pool never
        // oversubscribes; `unclamped` keeps the raw count.
        assert_eq!(ParallelConfig::new(3).resolved_threads(), 3.min(host));
        assert_eq!(ParallelConfig::new(host + 7).resolved_threads(), host);
        assert_eq!(
            ParallelConfig::unclamped(host + 7).resolved_threads(),
            host + 7
        );
        assert!(ParallelConfig::new(0).resolved_threads() >= 1);
        assert!(ParallelConfig::new(0).resolved_threads() <= host);
    }

    #[test]
    fn closed_form_count_matches_enumeration() {
        for (n, ne) in [
            (1usize, vec![]),
            (4, vec![]),
            (3, vec![(0u32, 1u32)]),
            (4, vec![(0, 1), (2, 3)]),
            (4, vec![(0, 1), (1, 2)]),
            (5, vec![(0, 1), (0, 2), (1, 2)]),
            (6, vec![(0, 3), (1, 4), (1, 3)]),
            (6, vec![(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
        ] {
            let db = db_with(n, &ne);
            assert_eq!(
                count_kernel_mappings(&db),
                count_kernel_mappings_by_enumeration(&db),
                "n={n}, ne={ne:?}"
            );
        }
    }

    #[test]
    fn closed_form_bounded_count_matches_enumeration() {
        let db = db_with(5, &[(0, 1)]);
        let total = count_kernel_mappings_by_enumeration(&db);
        for limit in [0u64, 1, 2, total - 1, total, total + 1, u64::MAX] {
            assert_eq!(
                count_kernel_mappings_up_to(&db, limit),
                total.min(limit),
                "limit={limit}"
            );
        }
    }

    #[test]
    fn components_split_by_ne_edges() {
        let db = db_with(6, &[(0, 2), (2, 4), (1, 5)]);
        let comps = ne_components(&db);
        assert_eq!(comps.groups, vec![vec![0, 2, 4], vec![1, 5]]);
        assert_eq!(comps.singletons, vec![3]);
        assert_eq!(comps.total(), 3);
    }

    #[test]
    fn subset_enumeration_matches_component_local_db() {
        // Kernel partitions of the subset {1, 3} with NE(1, 3) in a 5-const
        // db: only the discrete partition; reps are the member ids.
        let db = db_with(5, &[(1, 3), (0, 2)]);
        let mut seen = Vec::new();
        for_each_kernel_mapping_over(&db, &[1, 3], |h| {
            seen.push(h.to_vec());
            true
        });
        assert_eq!(seen, vec![vec![1, 3]]);

        // Unconstrained pair {2, 4}: merged (rep 2) or split.
        let mut seen = Vec::new();
        for_each_kernel_mapping_over(&db, &[2, 4], |h| {
            seen.push(h.to_vec());
            true
        });
        assert_eq!(seen, vec![vec![2, 2], vec![2, 4]]);
    }

    #[test]
    fn subset_parallel_matches_sequential() {
        let db = db_with(6, &[(1, 3), (3, 5)]);
        let members = [1u32, 3, 5];
        let mut seq = std::collections::HashSet::new();
        for_each_kernel_mapping_over(&db, &members, |h| {
            seq.insert(h.to_vec());
            true
        });
        for threads in [2usize, 4] {
            let (states, completed) = for_each_kernel_mapping_over_parallel(
                &db,
                &members,
                ParallelConfig::unclamped(threads),
                |_| std::collections::HashSet::new(),
                |set, h| {
                    set.insert(h.to_vec());
                    true
                },
            );
            assert!(completed);
            let mut union = std::collections::HashSet::new();
            for s in states {
                for h in s {
                    assert!(union.insert(h), "two workers visited the same partition");
                }
            }
            assert_eq!(union, seq, "threads={threads}");
        }
    }

    #[test]
    fn decomposition_finds_free_constants() {
        use qld_logic::Vocabulary;
        let mut voc = Vocabulary::new();
        for i in 0..5 {
            voc.add_const(&format!("c{i}")).unwrap();
        }
        let p = voc.add_pred("P", 2).unwrap();
        let db = CwDatabase::builder(voc)
            .fact(p, &[qld_logic::ConstId(0), qld_logic::ConstId(1)])
            .unique(qld_logic::ConstId(1), qld_logic::ConstId(2))
            .build()
            .unwrap();
        let d = analyze_decomposition(&db);
        // c0/c1 occur in the fact, c2 has an NE edge; c3/c4 are free.
        assert_eq!(d.free, vec![3, 4]);
        assert!(d.is_free(3) && d.is_free(4));
        assert!(!d.is_free(0) && !d.is_free(2));
        // Components: {1,2} plus the isolated 0, 3, 4.
        assert_eq!(d.components, 4);
    }

    #[test]
    fn saturating_count_on_huge_unconstrained_domain() {
        // Bell(26) exceeds u64: the closed form must saturate (and any
        // bounded probe must clamp), not walk a 10^20-leaf tree.
        let db = db_with(30, &[]);
        assert_eq!(count_kernel_mappings(&db), u64::MAX);
        assert_eq!(count_kernel_mappings_up_to(&db, 1000), 1000);
    }

    #[test]
    fn prefix_generation_respects_constraints() {
        let db = db_with(4, &[(0, 1), (1, 2)]);
        let nbrs = smaller_neighbors(&db);
        let (depth, prefixes) = kernel_prefixes(&nbrs, 4, 6);
        assert!(depth <= 4);
        assert!(!prefixes.is_empty());
        for p in &prefixes {
            assert_eq!(p.len(), depth);
            // Restricted growth + NE separation.
            let mut max_seen = 0u32;
            for (i, &b) in p.iter().enumerate() {
                assert!(b <= max_seen + 1 || (b == 0 && i == 0));
                max_seen = max_seen.max(b);
                for &j in &nbrs[i] {
                    assert_ne!(p[j as usize], b, "prefix {p:?} merges NE pair");
                }
            }
        }
    }
}
