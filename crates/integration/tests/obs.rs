//! End-to-end observability tests: the differential guarantee that an
//! observed parse returns exactly what the unobserved parse returns
//! (all six grammars, valid and corrupted inputs), profiler
//! accounting against ground truth, pinned profiler totals on one
//! document per grammar, Chrome-trace export from a traced
//! worker pool — validated with the harness's dependency-free mini
//! JSON parser — and the periodic metrics emitter.

// FusedParseError inlines its expected-token set (allocation-free
// error paths, a deliberate workspace-wide tradeoff).
#![allow(clippy::result_large_err)]

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flap::obs::{MetricsEmitter, NoopObserver, ParseProfiler, TraceRecorder};
use flap::{Cfe, LexerBuilder, Parser};
use flap_bench::json::Json;
use flap_grammars::GrammarDef;
use flap_serve::{FeedStatus, PoolConfig};

/// One grammar's differential check: the observed entry point must
/// return byte-for-byte what the unobserved one returns, on valid
/// input and on two corruptions (a mid-document illegal byte and a
/// truncation), with both the no-op observer and a live profiler.
fn traced_equals_untraced<V: 'static>(def: &GrammarDef<V>) {
    let parser = def.flap_parser();
    let mut session = parser.session();
    let mut prof = ParseProfiler::new();

    let valid = (def.generate)(23, 4 * 1024);
    let mut corrupt = valid.clone();
    corrupt[valid.len() / 2] = 0x01; // byte no grammar's lexer accepts
    let truncated = &valid[..valid.len() * 2 / 3];

    for input in [valid.as_slice(), corrupt.as_slice(), truncated] {
        let plain = parser.parse_with(&mut session, input).map(def.finish);
        let noop = parser
            .parse_with_obs(&mut session, input, &mut NoopObserver)
            .map(def.finish);
        assert_eq!(
            plain, noop,
            "[{}] NoopObserver changed the result",
            def.name
        );
        prof.reset();
        let profiled = parser
            .parse_with_obs(&mut session, input, &mut prof)
            .map(def.finish);
        assert_eq!(
            plain, profiled,
            "[{}] profiling changed the result",
            def.name
        );
    }
}

#[test]
fn observed_parses_agree_with_unobserved_on_all_grammars() {
    traced_equals_untraced(&flap_grammars::json::def());
    traced_equals_untraced(&flap_grammars::sexp::def());
    traced_equals_untraced(&flap_grammars::arith::def());
    traced_equals_untraced(&flap_grammars::csv::def());
    traced_equals_untraced(&flap_grammars::pgn::def());
    traced_equals_untraced(&flap_grammars::ppm::def());
}

#[test]
fn profiler_accounts_for_every_input_byte() {
    // On a successful parse every byte is consumed exactly once,
    // either inside a committed token or in a skip run between
    // tokens — the profiler's phase split must add back up to the
    // document, and the one-shot and streaming paths must agree.
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let input = (def.generate)(42, 8 * 1024);

    let mut session = parser.session();
    let mut prof = ParseProfiler::new();
    parser
        .parse_with_obs(&mut session, &input, &mut prof)
        .expect("generated input parses");
    assert_eq!(
        prof.bytes_lexed + prof.bytes_skipped,
        input.len() as u64,
        "phase split must cover the whole document"
    );
    assert!(prof.tokens() > 0 && prof.reduction_count() > 0);
    assert!(!prof.hottest_rows(1).is_empty(), "rows were dispatched");
    let one_shot = (prof.bytes_lexed, prof.tokens(), prof.reduction_count());

    prof.reset();
    let mut stream = parser.stream(&mut session);
    for piece in input.chunks(512) {
        match stream.feed_obs(piece, &mut prof) {
            flap::Step::NeedMore => {}
            other => panic!("unexpected mid-stream step: {other:?}"),
        }
    }
    match stream.finish_obs(&mut prof) {
        flap::Step::Done(_) => {}
        other => panic!("unexpected final step: {other:?}"),
    }
    assert_eq!(
        (prof.bytes_lexed, prof.tokens(), prof.reduction_count()),
        one_shot,
        "streaming must observe the same work as the one-shot parse"
    );
    assert_eq!(prof.feeds, input.len().div_ceil(512) as u64);
    assert_eq!(prof.feed_bytes, input.len() as u64);
}

/// A word-counting pool whose semantic action sleeps on the lexeme
/// `slow`, pinning a worker so both lanes reliably receive work.
fn slow_pool(config: PoolConfig) -> flap_serve::ParsePool<i64> {
    let mut b = LexerBuilder::new();
    let word = b.token("word", "[a-z]+").unwrap();
    b.skip(" ").unwrap();
    let lexer = b.build().unwrap();
    let g: Cfe<i64> = Cfe::fix(|x| {
        Cfe::eps_with(|| 0).or(Cfe::tok_with(word, |lexeme| {
            if lexeme == b"slow" {
                std::thread::sleep(Duration::from_millis(120));
            }
            1
        })
        .then(x, |a, b| a + b))
    });
    Parser::compile(lexer, &g).unwrap().serve(config)
}

#[test]
fn pool_trace_exports_valid_chrome_json_with_spans_per_worker() {
    let recorder = Arc::new(TraceRecorder::new());
    let pool = slow_pool(
        PoolConfig::default()
            .workers(2)
            .label("traced")
            .trace(Arc::clone(&recorder)),
    );

    // Two sleeping jobs submitted back-to-back: the first pins one
    // worker for 120ms, so the other worker takes the second — both
    // lanes are guaranteed at least one parse span.
    let h1 = pool.submit(&b"slow one"[..]).unwrap();
    let h2 = pool.submit(&b"slow two"[..]).unwrap();
    assert_eq!(h1.wait(), Ok(2));
    assert_eq!(h2.wait(), Ok(2));

    // A pooled stream contributes feed and finish spans.
    let mut stream = pool.open_stream();
    assert_eq!(
        stream.feed(&b"a b c "[..]).unwrap().wait(),
        Ok(FeedStatus::NeedMore)
    );
    match stream.finish().unwrap().wait() {
        Ok(FeedStatus::Done(v)) => assert_eq!(v, 3),
        other => panic!("unexpected final {other:?}"),
    }
    pool.shutdown();
    assert!(!recorder.is_empty());

    let mut out = Vec::new();
    recorder.write_chrome_json(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let doc = Json::parse(&text).expect("trace output must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let mut metadata = 0usize;
    let mut queue_waits = 0usize;
    let mut by_name: Vec<(String, u64)> = Vec::new(); // (exec name, tid)
    for ev in events {
        match ev.get("ph").and_then(Json::as_str) {
            Some("M") => {
                metadata += 1;
                continue;
            }
            Some("X") => {}
            other => panic!("unexpected event phase {other:?}"),
        }
        let name = ev.get("name").and_then(Json::as_str).expect("span name");
        let tid = ev.get("tid").and_then(Json::as_num).expect("span tid") as u64;
        assert!(ev.get("ts").and_then(Json::as_num).is_some(), "span has ts");
        assert!(
            ev.get("dur").and_then(Json::as_num).is_some(),
            "span has dur"
        );
        assert!(
            ev.get("args").and_then(|a| a.get("bytes")).is_some(),
            "span records its payload size"
        );
        match name {
            "queue-wait" => queue_waits += 1,
            "parse" | "feed" | "finish" => by_name.push((name.to_string(), tid)),
            other => panic!("unexpected span name {other:?}"),
        }
    }

    let execs = |n: &str| by_name.iter().filter(|(name, _)| name == n).count();
    assert_eq!(execs("parse"), 2, "one parse span per submitted job");
    assert_eq!(execs("feed"), 1);
    assert_eq!(execs("finish"), 1);
    assert_eq!(
        queue_waits,
        by_name.len(),
        "every execution span is paired with its queue-wait"
    );
    for lane in 0..2u64 {
        assert!(
            by_name.iter().any(|&(_, tid)| tid == lane),
            "worker lane {lane} has no execution span"
        );
    }
    assert_eq!(metadata, 2, "one thread_name metadata event per lane");
}

/// A `Write` handle into shared memory, so the emitter thread's
/// output can be inspected after it stops.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn metrics_emitter_writes_parseable_snapshot_lines() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let pool = parser.serve(PoolConfig::default().workers(2).label("emit\"ter"));
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let emitter = MetricsEmitter::start(
        pool.metrics_arc(),
        Duration::from_secs(3600), // only the terminal snapshot fires
        buf.clone(),
    );

    let doc = (def.generate)(9, 2048);
    let expected = parser.parse(&doc).unwrap();
    for _ in 0..8 {
        assert_eq!(pool.submit(doc.as_slice()).unwrap().wait(), Ok(expected));
    }
    pool.shutdown();
    emitter.stop();

    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert!(!lines.is_empty(), "stop must flush a terminal snapshot");
    for line in &lines {
        let snap = Json::parse(line).expect("each metrics line is valid JSON");
        assert_eq!(
            snap.get("label").and_then(Json::as_str),
            Some("emit\"ter"),
            "label round-trips through escaping"
        );
        assert_eq!(snap.get("workers").and_then(Json::as_num), Some(2.0));
        let latency = snap.get("latency").expect("latency object");
        assert!(latency.get("p50_us").and_then(Json::as_num).is_some());
        assert_eq!(
            latency
                .get("buckets")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(32)
        );
    }
    let last = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("submitted").and_then(Json::as_num), Some(8.0));
    assert_eq!(last.get("completed").and_then(Json::as_num), Some(8.0));
    assert_eq!(
        last.get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Json::as_num),
        Some(8.0)
    );
}

/// Every exact `ParseProfiler` total of one parse, with the per-rule
/// and per-row tables as their nonzero `(index, count)` pairs.
#[derive(Debug, PartialEq, Eq)]
struct Totals {
    bytes_lexed: u64,
    bytes_skipped: u64,
    tokens: u64,
    reductions: Vec<(usize, u64)>,
    eps_reductions: u64,
    row_hits: Vec<(usize, u64)>,
}

fn nonzero(table: &[u64]) -> Vec<(usize, u64)> {
    table
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i, c))
        .collect()
}

fn totals_of(prof: &ParseProfiler) -> Totals {
    Totals {
        bytes_lexed: prof.bytes_lexed,
        bytes_skipped: prof.bytes_skipped,
        tokens: prof.tokens(),
        reductions: nonzero(&prof.reductions),
        eps_reductions: prof.eps_reductions,
        row_hits: nonzero(&prof.row_hits),
    }
}

/// The pinned document: one seeded 2 KiB document, except arith,
/// whose generator caps depth and yields a few dozen bytes, so its
/// document is a `+` chain of eight parenthesized generated terms.
fn pinned_document<V>(def: &GrammarDef<V>) -> Vec<u8> {
    if def.name != "arith" {
        return (def.generate)(7, 2 * 1024);
    }
    let terms: Vec<Vec<u8>> = (0..8)
        .map(|seed| {
            let mut t = b"(".to_vec();
            t.extend((def.generate)(seed, 512));
            t.push(b')');
            t
        })
        .collect();
    terms.join(&b" + "[..])
}

/// Parses the pinned document one-shot and in 64-byte chunks with a
/// live profiler; both must report exactly `want`.
fn pin<V: 'static>(def: &GrammarDef<V>, len: usize, want: Totals) {
    let parser = def.flap_parser();
    let mut session = parser.session();
    let input = pinned_document(def);
    assert_eq!(
        input.len(),
        len,
        "[{}] the pinned document changed",
        def.name
    );
    let mut prof = ParseProfiler::new();
    parser
        .parse_with_obs(&mut session, &input, &mut prof)
        .expect("generated input parses");
    assert_eq!(
        totals_of(&prof),
        want,
        "[{}] one-shot totals moved",
        def.name
    );
    prof.reset();
    let mut stream = parser.stream(&mut session);
    for piece in input.chunks(64) {
        let step = stream.feed_obs(piece, &mut prof);
        assert!(
            matches!(step, flap::Step::NeedMore),
            "[{}] mid-stream",
            def.name
        );
    }
    let step = stream.finish_obs(&mut prof);
    assert!(
        matches!(step, flap::Step::Done(_)),
        "[{}] at finish",
        def.name
    );
    assert_eq!(
        totals_of(&prof),
        want,
        "[{}] streamed totals moved",
        def.name
    );
}

#[test]
fn profiler_totals_are_pinned_on_all_grammars() {
    // The exact event counts behind the benchmark's tokens_per_kb and
    // reductions_per_kb figures. Dispatch shortcuts in the VM (tail
    // jumps, eager reductions) must keep every observer hook, so
    // these numbers may only change with the grammars or generators.
    pin(
        &flap_grammars::json::def(),
        3487,
        Totals {
            bytes_lexed: 3264,
            bytes_skipped: 223,
            tokens: 803,
            reductions: vec![
                (0, 43),
                (1, 18),
                (10, 114),
                (14, 114),
                (16, 41),
                (20, 68),
                (22, 7),
                (23, 2),
                (24, 3),
                (25, 5),
            ],
            eps_reductions: 70,
            row_hits: vec![
                (0, 447),
                (26, 41),
                (52, 155),
                (78, 114),
                (104, 114),
                (130, 50),
                (156, 50),
                (182, 85),
                (208, 20),
                (234, 20),
            ],
        },
    );
    pin(
        &flap_grammars::sexp::def(),
        2091,
        Totals {
            bytes_lexed: 1727,
            bytes_skipped: 364,
            tokens: 480,
            reductions: vec![(0, 1), (3, 76), (4, 326)],
            eps_reductions: 77,
            row_hits: vec![(0, 1), (7, 843), (14, 77)],
        },
    );
    pin(
        &flap_grammars::arith::def(),
        760,
        Totals {
            bytes_lexed: 543,
            bytes_skipped: 217,
            tokens: 260,
            reductions: vec![
                (0, 8),
                (1, 5),
                (2, 27),
                (3, 5),
                (4, 8),
                (18, 11),
                (19, 6),
                (25, 1),
                (27, 13),
                (28, 11),
                (32, 7),
                (33, 3),
                (41, 16),
                (43, 8),
                (47, 5),
                (54, 2),
                (56, 5),
                (57, 6),
                (61, 4),
                (62, 1),
                (70, 7),
                (71, 4),
                (74, 2),
                (76, 2),
                (78, 2),
                (79, 1),
                (80, 1),
            ],
            eps_reductions: 159,
            row_hits: vec![
                (0, 84),
                (22, 16),
                (44, 16),
                (66, 8),
                (88, 5),
                (110, 5),
                (132, 8),
                (154, 101),
                (176, 1),
                (198, 34),
                (220, 64),
                (242, 8),
                (264, 61),
                (308, 20),
                (330, 48),
                (352, 2),
                (374, 18),
                (396, 2),
                (418, 10),
                (440, 15),
                (484, 30),
                (528, 10),
                (550, 22),
                (572, 8),
                (594, 40),
            ],
        },
    );
    pin(
        &flap_grammars::pgn::def(),
        2965,
        Totals {
            bytes_lexed: 2167,
            bytes_skipped: 798,
            tokens: 675,
            reductions: vec![
                (0, 1),
                (9, 24),
                (10, 5),
                (24, 176),
                (25, 362),
                (26, 11),
                (32, 4),
            ],
            eps_reductions: 1,
            row_hits: vec![
                (0, 1),
                (22, 58),
                (44, 29),
                (66, 58),
                (88, 29),
                (110, 1154),
                (132, 15),
            ],
        },
    );
    pin(
        &flap_grammars::ppm::def(),
        2022,
        Totals {
            bytes_lexed: 1406,
            bytes_skipped: 616,
            tokens: 550,
            reductions: vec![(6, 546), (8, 1)],
            eps_reductions: 1,
            row_hits: vec![(0, 3), (8, 2), (16, 2), (24, 1131), (32, 1)],
        },
    );
    pin(
        &flap_grammars::csv::def(),
        2065,
        Totals {
            bytes_lexed: 2065,
            bytes_skipped: 0,
            tokens: 629,
            reductions: vec![
                (0, 1),
                (4, 193),
                (5, 49),
                (6, 20),
                (8, 235),
                (10, 48),
                (11, 8),
                (12, 9),
            ],
            eps_reductions: 1,
            row_hits: vec![(0, 1), (6, 264), (12, 299), (18, 66)],
        },
    );
}
