//! What a repeated request costs, measured without a clock.
//!
//! A connection keeps the query lines it has seen prepared, the answer
//! cache hands a hit out as a reference-count bump, and the rendered
//! `answer:` block lives beside the cached tuples — so sending a line
//! again parses, prepares and renders nothing, and the work left is a
//! copy of the reply's bytes into a buffer the connection already owns.
//! Wall clocks on a shared host cannot pin that; counts can:
//!
//! * `N` sends of one line are `N − 1` statement reuses (`:stats`);
//! * the allocations a warm request makes on the server's side do not
//!   depend on the size of the answer it carries, and neither do those of
//!   a solo or shared cache hit — the same numbers for the join over a
//!   24-constant database and over a 96-constant one, whose answer is
//!   several times longer.
//!
//! The allocator counts only while the test thread asks it to, and this
//! is the one test of its binary, so nothing else allocates meanwhile.

use qld_workloads::{random_cw_db, DbGenConfig};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::prelude::{Client, Engine, Server, ServerConfig, SharedEngine};
use std::io::{Read, Write};
use std::net::TcpStream;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{measured, measured_everywhere, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `wire_read`'s longest reply: an open query whose answer grows with
/// the database.
const JOIN: &str = "(x, z) . exists y. P0(x, y) & P0(y, z)";

/// The serving-shaped database `qld_bench` reads from: binary `P0`, unary
/// `P1`, `2·n` generated facts each, 70 % of the constants pairwise
/// unique.
fn generated_db(num_consts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: 2 * num_consts,
        known_fraction: 0.7,
        extra_ne_pairs: 0,
        seed,
    })
}

fn n_sends_of_one_line_are_n_minus_one_reuses() {
    const SENDS: usize = 9;
    let shared = SharedEngine::new(Engine::new(generated_db(24, 5)));
    let server = Server::bind(shared, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let running = server.spawn().unwrap();
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..SENDS {
        // Spelled with stray blanks: the statement's key is the trimmed
        // line.
        assert!(client.request(&format!("  {JOIN} ")).unwrap().is_ok());
    }
    // Lines that are not queries are never kept, however often sent.
    for _ in 0..3 {
        assert!(client.request("# a comment").unwrap().is_ok());
        assert!(client.request(":stats").unwrap().is_ok());
    }
    let reply = client.request(":stats").unwrap();
    let connection = reply
        .stats
        .iter()
        .find(|s| s.starts_with("connection: "))
        .unwrap();
    assert_eq!(
        connection,
        &format!(
            "connection: {SENDS} query(s) ({} cache hit(s), {} statement(s) reused), \
             0 delta(s), 0 rejection(s)",
            SENDS - 1,
            SENDS - 1
        )
    );
    client.quit().unwrap();
    running.shutdown().unwrap();
}

/// Allocations the server makes to answer a request it has answered
/// before: the `Vec` of one answer `script::Database::execute_batch` returns.
/// Parsing, preparing or rendering the line again would be dozens, and a
/// copy of the answer would grow with it.
const ALLOCATIONS_PER_WARM_REQUEST: usize = 1;

/// Sends `line` down `stream` and reads the whole reply into `buf`,
/// allocating nothing; returns the reply's length.
fn round_trip(stream: &mut TcpStream, line: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(line).unwrap();
    let mut filled = 0;
    loop {
        let read = stream.read(&mut buf[filled..]).unwrap();
        assert!(read > 0, "the server hung up mid-reply");
        filled += read;
        let reply = &buf[..filled];
        let last_line = match reply[..filled - 1].iter().rposition(|&b| b == b'\n') {
            Some(newline) => &reply[newline + 1..],
            None => reply,
        };
        if reply.ends_with(b"\n") && last_line.starts_with(b"done:") {
            return filled;
        }
        assert!(!last_line.starts_with(b"error:"), "the server refused");
    }
}

/// Allocations the whole process makes while the server answers one warm
/// `JOIN` (the least of several sends: a rare extra — a map node, a
/// number a digit longer — is not the path's), and the reply's length.
fn warm_request_cost(num_consts: usize) -> (usize, usize) {
    let shared = SharedEngine::new(Engine::new(generated_db(num_consts, 5)));
    let server = Server::bind(shared, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let running = server.spawn().unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf = vec![0u8; 1 << 20];
    let greeting = stream.read(&mut buf).unwrap();
    assert!(buf[..greeting].starts_with(b"hello: qld"));
    let line = format!("{JOIN}\n");
    // A miss, then hits: the statement, the cache entry, the block memo
    // and the connection's buffers are all warm after these.
    for _ in 0..4 {
        round_trip(&mut stream, line.as_bytes(), &mut buf);
    }
    let mut least = usize::MAX;
    let mut length = 0;
    for _ in 0..16 {
        let (reply, allocations, _) =
            measured_everywhere(|| round_trip(&mut stream, line.as_bytes(), &mut buf));
        assert!(
            buf[..reply].windows(8).any(|w| w == b"(cached)"),
            "a warm request is a cache hit"
        );
        least = least.min(allocations);
        length = reply;
    }
    stream.write_all(b":quit\n").unwrap();
    running.shutdown().unwrap();
    (least, length)
}

fn a_warm_request_allocates_the_same_whatever_its_answer_holds() {
    let (small_allocations, small_reply) = warm_request_cost(24);
    let (large_allocations, large_reply) = warm_request_cost(96);
    assert!(
        large_reply >= 3 * small_reply,
        "the second measurement needs a longer answer: {small_reply} and {large_reply} bytes"
    );
    assert_eq!(
        (small_allocations, large_allocations),
        (ALLOCATIONS_PER_WARM_REQUEST, ALLOCATIONS_PER_WARM_REQUEST),
        "allocations per warm request moved, or depend on the answer's size"
    );
}

/// Allocations and bytes of one cache hit on a solo engine and of one on
/// a shared session, and the answer's length in tuples.
fn cache_hit_cost(num_consts: usize) -> ([(usize, usize); 2], usize) {
    let solo = Engine::new(generated_db(num_consts, 5));
    let prepared = solo.prepare_text(JOIN).unwrap();
    let tuples = solo.execute(&prepared).unwrap().len();
    let (hit, allocations, bytes) = measured(|| solo.execute(&prepared).unwrap());
    assert!(hit.evidence().cache_hit);
    let solo_cost = (allocations, bytes);

    let shared = SharedEngine::new(Engine::new(generated_db(num_consts, 5)));
    let mut session = shared.session();
    let prepared = session.prepare_text(JOIN).unwrap();
    assert_eq!(session.execute(&prepared).unwrap().len(), tuples);
    let (hit, allocations, bytes) = measured(|| session.execute(&prepared).unwrap());
    assert!(hit.evidence().cache_hit);
    assert_eq!(hit.len(), tuples);
    ([solo_cost, (allocations, bytes)], tuples)
}

fn a_cache_hit_allocates_nothing_whatever_the_answer_holds() {
    let (small, small_tuples) = cache_hit_cost(24);
    let (large, large_tuples) = cache_hit_cost(96);
    assert!(
        large_tuples >= 3 * small_tuples,
        "the second measurement needs a longer answer: {small_tuples} and {large_tuples} tuples"
    );
    assert_eq!(small, large, "a cache hit's cost depends on the answer");
    assert_eq!(small, [(0, 0); 2], "a cache hit copies something");
}

#[test]
fn a_repeated_request_costs_its_reply_bytes_and_nothing_else() {
    n_sends_of_one_line_are_n_minus_one_reuses();
    a_cache_hit_allocates_nothing_whatever_the_answer_holds();
    a_warm_request_allocates_the_same_whatever_its_answer_holds();
}
