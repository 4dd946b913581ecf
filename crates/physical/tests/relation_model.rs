//! Model-based property test of [`Relation`]: random operation sequences
//! run against the flat row-major relation and against the obvious model,
//! a `BTreeSet<Vec<Elem>>`, for every arity from 0 (where `{}` ≠ `{()}`
//! and the buffer is empty either way) through 6 (past the arities whose
//! rows sort as fixed-size arrays). After every step every observer —
//! `len`, `iter`, `contains`, `active_elems`, `is_subset_of`, `==`,
//! `Hash`, `Debug` — must agree with the model; a second test walks the
//! row search across its arity and length dispatch boundaries, a third
//! the prefix range against a linear filter. Relations are built the
//! one way there is, through a [`RowWriter`]: rows pushed out of order and
//! repeated, rows assembled from parts, a writer finished empty, a writer
//! inside another relation's buffer.

use qld_physical::{Elem, Relation, RowWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

type Model = BTreeSet<Vec<Elem>>;

/// Elements come from a domain this small so that rows collide often.
const DOMAIN: Elem = 4;
const MAX_ARITY: usize = 6;

fn random_rows(rng: &mut StdRng, arity: usize) -> Vec<Vec<Elem>> {
    let n = rng.gen_range(0usize..14);
    (0..n)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..DOMAIN)).collect())
        .collect()
}

/// A random element map: a lookup table over the domain, drawn from a
/// codomain of random size so that some maps collapse most rows (the
/// image dedups down) and some are close to a permutation.
fn random_map(rng: &mut StdRng) -> Vec<Elem> {
    let codomain = rng.gen_range(1..=DOMAIN);
    (0..DOMAIN).map(|_| rng.gen_range(0..codomain)).collect()
}

fn hash_of(rel: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    rel.hash(&mut h);
    h.finish()
}

/// Every observer of `rel` against `model`.
fn check(rel: &Relation, arity: usize, model: &Model, rng: &mut StdRng, step: &str) {
    assert_eq!(rel.arity(), arity, "{step}: arity");
    assert_eq!(rel.len(), model.len(), "{step}: len");
    assert_eq!(rel.is_empty(), model.is_empty(), "{step}: is_empty");

    // Iteration: the model's rows, in the model's (lexicographic) order,
    // through `iter()` and through `IntoIterator`, with an exact length.
    let rows = rel.iter();
    assert_eq!(rows.len(), model.len(), "{step}: ExactSizeIterator::len");
    let expected: Vec<&[Elem]> = model.iter().map(Vec::as_slice).collect();
    assert_eq!(rows.collect::<Vec<_>>(), expected, "{step}: iter");
    assert_eq!(
        rel.into_iter().collect::<Vec<_>>(),
        expected,
        "{step}: IntoIterator"
    );

    // Membership: every row, and random probes.
    for row in model {
        assert!(rel.contains(row), "{step}: {row:?} missing");
    }
    for _ in 0..8 {
        let probe: Vec<Elem> = (0..arity).map(|_| rng.gen_range(0..=DOMAIN)).collect();
        assert_eq!(
            rel.contains(&probe),
            model.contains(&probe),
            "{step}: contains {probe:?}"
        );
    }

    let active: BTreeSet<Elem> = model.iter().flatten().copied().collect();
    assert_eq!(
        rel.active_elems(),
        active.into_iter().collect::<Vec<_>>(),
        "{step}: active_elems"
    );

    // The representation is canonical: the same set built by another route
    // (rows reversed and repeated, through a writer) is `==` and hashes
    // alike; a set one row apart is not equal.
    let mut noisy = RowWriter::new(arity);
    for row in model.iter().rev().chain(model.iter().take(3)) {
        noisy.push(row);
    }
    assert_eq!(
        noisy.len(),
        model.len() + model.len().min(3),
        "{step}: writer len"
    );
    let rebuilt = noisy.finish();
    assert_eq!(*rel, rebuilt, "{step}: == a rebuild");
    assert_eq!(hash_of(rel), hash_of(&rebuilt), "{step}: Hash of a rebuild");
    let mut other = model.clone();
    let extra: Vec<Elem> = vec![DOMAIN; arity];
    if !other.remove(&extra) {
        other.insert(extra);
    }
    let other_rel = Relation::from_rows(arity, &other);
    assert_ne!(*rel, other_rel, "{step}: != a different set");

    // Subset, both ways, against the one-row-apart set and a random one.
    let random: Model = random_rows(rng, arity).into_iter().collect();
    for (set, set_rel) in [
        (&other, other_rel),
        (&random, Relation::from_rows(arity, &random)),
    ] {
        assert_eq!(
            rel.is_subset_of(&set_rel),
            model.is_subset(set),
            "{step}: ⊆ {set:?}"
        );
        assert_eq!(
            set_rel.is_subset_of(rel),
            set.is_subset(model),
            "{step}: ⊇ {set:?}"
        );
    }
    assert!(rel.is_subset_of(rel), "{step}: ⊆ itself");

    // `Debug` is the rendering test output and golden files carry.
    let body: Vec<String> = model.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(
        format!("{rel:?}"),
        format!("Relation/{arity}{{{}}}", body.join(", ")),
        "{step}: Debug"
    );
}

fn mapped(model: &Model, f: &[Elem]) -> Model {
    model
        .iter()
        .map(|r| r.iter().map(|&e| f[e as usize]).collect())
        .collect()
}

fn run_sequence(seed: u64, arity: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::empty(arity);
    let mut arity = arity;
    let mut model = Model::new();
    check(&rel, arity, &model, &mut rng, "empty");
    for i in 0..60 {
        let op = rng.gen_range(0..9u32);
        let step = format!("seed {seed} arity {arity} step {i} op {op}");
        match op {
            0 => {
                // Rows in any order, repeats included; the writer counts
                // every push (at arity 0 that is all there is to count) and
                // one that nothing was pushed into finishes empty.
                let rows = random_rows(&mut rng, arity);
                model = rows.iter().cloned().collect();
                let mut writer = RowWriter::new(arity);
                assert!(writer.is_empty(), "{step}: fresh writer");
                for row in &rows {
                    writer.push(row);
                }
                assert_eq!(writer.len(), rows.len(), "{step}: pushes counted");
                assert_eq!(writer.is_empty(), rows.is_empty(), "{step}: is_empty");
                rel = writer.finish();
            }
            1 => {
                // Rows assembled from parts — a left half chained with a
                // right half, or columns gathered one by one — inside the
                // old relation's buffer, at any arity.
                arity = rng.gen_range(0..=MAX_ARITY);
                let rows = random_rows(&mut rng, arity);
                model = rows.iter().cloned().collect();
                let mut writer = RowWriter::reusing(rel, arity);
                assert_eq!(writer.len(), 0, "{step}: a reused buffer starts empty");
                for row in &rows {
                    if rng.gen_range(0..2u32) == 0 {
                        let (l, r) = row.split_at(rng.gen_range(0..=arity));
                        writer.push_with(l.iter().chain(r).copied());
                    } else {
                        writer.push_with((0..arity).map(|i| row[i]));
                    }
                }
                assert_eq!(writer.len(), rows.len(), "{step}: pushes counted");
                rel = writer.finish();
            }
            2 => {
                // Rows that arrive sorted take `from_rows`' no-sort path.
                model = random_rows(&mut rng, arity).into_iter().collect();
                rel = Relation::from_rows(arity, &model);
            }
            3 | 4 => {
                let row: Vec<Elem> = (0..arity).map(|_| rng.gen_range(0..DOMAIN)).collect();
                assert_eq!(
                    rel.insert(&row),
                    model.insert(row.clone()),
                    "{step}: insert {row:?}"
                );
            }
            5 => {
                let (m, r) = (rng.gen_range(1..4u32), rng.gen_range(0..3u32));
                let keep = |t: &[Elem]| (t.iter().sum::<Elem>() + t.len() as Elem) % m != r % m;
                let before = model.len();
                model.retain(|t| keep(t));
                assert_eq!(
                    rel.retain(keep),
                    before - model.len(),
                    "{step}: retain count"
                );
            }
            6 => {
                let f = random_map(&mut rng);
                model = mapped(&model, &f);
                rel = rel.map_elems(|e| f[e as usize]);
            }
            7 => {
                // Overwrite in place with the image of a source of any
                // arity, the way the Theorem 1 walk reuses one buffer.
                arity = rng.gen_range(0..=MAX_ARITY);
                let src: Model = random_rows(&mut rng, arity).into_iter().collect();
                let f = random_map(&mut rng);
                model = mapped(&src, &f);
                rel.assign_mapped(&Relation::from_rows(arity, &src), |e| f[e as usize]);
            }
            _ => {
                // One source, one buffer: an image that dedups down to a
                // single row, then the identity image growing back.
                let src = rel.clone();
                rel.assign_mapped(&src, |_| 0);
                let collapsed: Model = mapped(&model, &[0; DOMAIN as usize]);
                check(
                    &rel,
                    arity,
                    &collapsed,
                    &mut rng,
                    &format!("{step} (collapsed)"),
                );
                rel.assign_mapped(&src, |e| e);
            }
        }
        check(&rel, arity, &model, &mut rng, &step);
    }
}

#[test]
fn random_operation_sequences_match_the_btreeset_model() {
    for arity in 0..=MAX_ARITY {
        for seed in 0..24 {
            run_sequence(seed * 7 + arity as u64, arity);
        }
    }
}

/// `Relation`'s row search dispatches on the arity (nullary, scalar, one
/// `u64` key, `[Elem; 3]`, `[Elem; 4]`, slices) and on nothing else — it
/// bisects at every length. Both sides of every boundary: arities 0–6,
/// lengths 0, 1, 2 and either side of a power of two, probes below the
/// first row, above the last, one off a row in the last column only, and
/// components up to `u32::MAX` — a packed key that overflowed would order
/// `[0, MAX]` and `[1, 0]` wrongly.
#[test]
fn search_agrees_with_the_model_on_both_sides_of_every_dispatch_boundary() {
    const MAX: Elem = Elem::MAX;
    let mut values: Vec<Elem> = (0..20).collect();
    values.extend([MAX - 2, MAX - 1, MAX]);
    for arity in 0..=MAX_ARITY {
        for len in [0usize, 1, 2, 15, 16, 17, 18, 23] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 131 + (arity * 29 + len) as u64);
                let random_row = |rng: &mut StdRng| -> Vec<Elem> {
                    (0..arity)
                        .map(|_| values[rng.gen_range(0..values.len())])
                        .collect()
                };
                let len = if arity == 0 { len.min(1) } else { len };
                let mut model = Model::new();
                while model.len() < len {
                    model.insert(random_row(&mut rng));
                }
                let rel = Relation::from_rows(arity, &model);

                let mut probes: Vec<Vec<Elem>> = model.iter().cloned().collect();
                for row in &model {
                    // One off in the last column only.
                    if let Some((&last, prefix)) = row.split_last() {
                        for near in [last.checked_sub(1), last.checked_add(1)] {
                            probes.extend(near.map(|e| [prefix, &[e]].concat()));
                        }
                    }
                }
                probes.push(vec![0; arity]);
                probes.push(vec![MAX; arity]);
                probes.extend((0..64).map(|_| random_row(&mut rng)));

                for probe in &probes {
                    let context = format!("arity {arity}, {len} rows, seed {seed}, {probe:?}");
                    let expected = model.contains(probe);
                    assert_eq!(rel.contains(probe), expected, "contains: {context}");
                    // The same probe, reached through an element map.
                    let shifted: Vec<Elem> = probe.iter().map(|e| e.wrapping_add(7)).collect();
                    assert_eq!(
                        rel.contains_mapped(&shifted, |e| e.wrapping_sub(7)),
                        expected,
                        "contains_mapped: {context}"
                    );
                    // `insert` finds the same position `contains` looked at.
                    let (mut grown, mut grown_model) = (rel.clone(), model.clone());
                    assert_eq!(
                        grown.insert(probe),
                        grown_model.insert(probe.clone()),
                        "insert: {context}"
                    );
                    let rows: Vec<&[Elem]> = grown_model.iter().map(Vec::as_slice).collect();
                    assert_eq!(grown.iter().collect::<Vec<_>>(), rows, "order: {context}");
                }
            }
        }
    }
}

/// `Relation::rows_with_prefix_mapped` ≡ a linear filter of the model's
/// rows, in order: arities 0–6, every prefix length from 0 (every row) to
/// the arity (at most the one equal row), the empty relation, prefixes
/// below the first row and above the last, and rows over three values so
/// that leading columns repeat in runs the two bisections must bracket.
#[test]
fn prefix_rows_agree_with_a_linear_filter() {
    for arity in 0..=MAX_ARITY {
        for len in [0usize, 1, 2, 7, 16, 33] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 977 + (arity * 41 + len) as u64);
                let len = len.min(3usize.pow(arity as u32));
                let mut model = Model::new();
                while model.len() < len {
                    model.insert((0..arity).map(|_| rng.gen_range(1..=3)).collect());
                }
                let rel = Relation::from_rows(arity, &model);
                for m in 0..=arity {
                    let mut prefixes: Vec<Vec<Elem>> =
                        model.iter().map(|r| r[..m].to_vec()).collect();
                    prefixes.push(vec![0; m]);
                    prefixes.push(vec![Elem::MAX; m]);
                    prefixes
                        .extend((0..16).map(|_| (0..m).map(|_| rng.gen_range(0..=4)).collect()));
                    for prefix in &prefixes {
                        let expected: Vec<&[Elem]> = model
                            .iter()
                            .filter(|r| r.starts_with(prefix))
                            .map(Vec::as_slice)
                            .collect();
                        let shifted: Vec<Elem> = prefix.iter().map(|e| e.wrapping_add(7)).collect();
                        let rows = rel.rows_with_prefix_mapped(&shifted, |e| e.wrapping_sub(7));
                        let context =
                            format!("arity {arity}, {len} rows, seed {seed}, prefix {prefix:?}");
                        assert_eq!(rows.len(), expected.len(), "len: {context}");
                        assert_eq!(rows.collect::<Vec<_>>(), expected, "rows: {context}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "prefix longer than the arity")]
fn prefix_rows_check_the_prefix_length() {
    Relation::from_rows(2, [[1, 2]]).rows_with_prefix_mapped(&[1, 2, 3], |e| e);
}

#[test]
#[should_panic(expected = "tuple arity mismatch")]
fn contains_checks_the_probe_length() {
    Relation::from_rows(2, [[1, 2]]).contains(&[1]);
}

#[test]
#[should_panic(expected = "tuple arity mismatch")]
fn from_rows_checks_every_row() {
    Relation::from_rows(2, [&[1, 2][..], &[3][..]]);
}

#[test]
#[should_panic(expected = "tuple arity mismatch")]
fn push_with_checks_the_assembled_row() {
    RowWriter::new(2).push_with([1, 2, 3]);
}
