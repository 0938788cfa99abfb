//! Parse time of the shared JSON codec is linear in the body.
//!
//! A request body is untrusted input, and the serving layer accepts
//! bodies up to 1 MiB by default, so one body must not hold a worker
//! lane for longer than its size warrants. These are timing tests:
//! meaningful only in an optimized build, so they are `#[ignore]`d in
//! the default test pass and CI runs them with
//! `cargo test --release -- --ignored`.

use std::time::{Duration, Instant};

use approxrank_store::json::{parse, Json};

/// Fastest of a few parses: the least-disturbed measurement of `body`.
fn parse_time(body: &str) -> Duration {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let parsed = parse(body).expect("valid body");
            let elapsed = t0.elapsed();
            std::hint::black_box(parsed);
            elapsed
        })
        .min()
        .expect("five runs")
}

/// A JSON document holding one string of `len` plain characters.
fn long_string(len: usize) -> String {
    format!("\"{}\"", "a".repeat(len))
}

/// A JSON document holding one string of `count` escapes, mixed so
/// every escape branch and a multi-byte character appear.
fn escape_run(count: usize) -> String {
    const ESCAPES: [&str; 6] = ["\\n", "\\\"", "\\\\", "\\u00e9", "λ", "\\t"];
    let mut body = String::from("\"");
    for i in 0..count {
        body.push_str(ESCAPES[i % ESCAPES.len()]);
    }
    body.push('"');
    body
}

fn assert_doubling_is_linear(shape: &str, make: fn(usize) -> String, n: usize) {
    let (small, large) = (make(n), make(2 * n));
    let t_small = parse_time(&small);
    let t_large = parse_time(&large);
    assert!(
        t_large <= t_small * 3,
        "{shape}: parse(2n) = {t_large:?} exceeds 3 x parse(n) = {t_small:?}"
    );
}

#[test]
#[ignore = "release timing; CI runs with --ignored"]
fn one_mebibyte_string_parses_in_under_ten_ms() {
    let body = long_string((1 << 20) - 2);
    assert_eq!(body.len(), 1 << 20);
    let parsed = parse(&body).unwrap();
    assert!(matches!(&parsed, Json::Str(s) if s.len() == (1 << 20) - 2));
    let t = parse_time(&body);
    assert!(t < Duration::from_millis(10), "1 MiB string took {t:?}");
}

#[test]
#[ignore = "release timing; CI runs with --ignored"]
fn doubling_a_long_string_at_most_triples_parse_time() {
    assert_doubling_is_linear("long string", long_string, 256 << 10);
}

#[test]
#[ignore = "release timing; CI runs with --ignored"]
fn doubling_an_escape_run_at_most_triples_parse_time() {
    assert_doubling_is_linear("escape run", escape_run, 64 << 10);
}
