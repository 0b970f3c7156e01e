//! Incremental re-parse latency: a 1-byte edit in a multi-MB document
//! vs a full from-scratch parse.
//!
//! Usage: `cargo run -p flap-bench --release --bin incr --
//! [doc_mb] [--json] [--smoke [snapshot]]` (default 2 MB per
//! grammar).
//!
//! * `--json` prints the results as a JSON document (the schema of
//!   the checked-in `BENCH_incremental.json`) instead of the table.
//! * `--smoke [snapshot]` runs a fast small-input pass and compares
//!   the resulting document's *schema* (grammars, intervals, stat
//!   rows — not the machine-dependent numbers) against the checked-in
//!   snapshot (default `BENCH_incremental.json`), exiting non-zero on
//!   drift. It also fails if a validation re-parse scanned more than
//!   [`MAX_VALIDATE_PARSED`] bytes, a count that does not depend on
//!   the host. CI runs this so neither the snapshot nor the checkpoint
//!   spacing can silently drift.
//!
//! Two workloads per grammar, both applying single-byte digit edits
//! and re-parsing:
//!
//! * **validate** — `validate_incremental` at the default config
//!   after an edit at the middle of the document: prefix reuse *plus*
//!   suffix convergence, so the work is about one checkpoint spacing
//!   regardless of document size. Validation spaces checkpoints by
//!   their size and uses the interval only as a cap, so shallow
//!   grammars give the same row at any interval; one row is measured.
//!   This is the headline row; the speedup column is against a full
//!   `recognize` of the same document.
//! * **value** — `parse_incremental` after edits at the 10th, 50th
//!   and 90th percentile offsets, at three checkpoint intervals:
//!   prefix reuse only (semantic actions must re-run downstream of the
//!   edit), so the saving tracks the edit position. Speedups are
//!   against a full `parse`.
//!
//! Every timed re-parse is also checked against the from-scratch
//! result, and the run aborts if reuse never happened — the bench
//! doubles as an end-to-end correctness check, which is what CI's
//! smoke invocation relies on.

// Parse errors inline their expected-token set so error construction
// never allocates (see flap-fuse); the larger Err variant is a
// deliberate tradeoff, constructed once per failed parse.
#![allow(clippy::result_large_err)]

use std::process::ExitCode;
use std::time::Instant;

use flap::{IncrementalConfig, IncrementalSession, Parser};
use flap_bench::json::{obj, Json};
use flap_grammars::GrammarDef;

/// Value-mode checkpoint intervals.
const INTERVALS: [usize; 3] = [16 * 1024, 64 * 1024, 256 * 1024];
/// Most bytes a default-config validation may re-scan after a 1-byte
/// edit: two of the 4 KiB spacings shallow checkpoints get.
const MAX_VALIDATE_PARSED: usize = 8 * 1024;
/// Value-mode edit positions, as fractions of the document.
const EDIT_FRACTIONS: [f64; 3] = [0.1, 0.5, 0.9];

struct ValidateRow {
    /// The default config's interval, which caps validation spacing.
    interval: usize,
    reparse_us: f64,
    /// `full_recognize / reparse`.
    speedup: f64,
    parsed: usize,
    suffix_reused: usize,
    checkpoints: usize,
    retained_bytes: usize,
    /// The final re-parse's full reuse accounting, shown (via its
    /// `Display`) in the human table.
    stats: flap::ReuseStats,
}

struct ValueRow {
    interval: usize,
    /// Best-of re-parse time per entry of [`EDIT_FRACTIONS`], µs.
    reparse_us: Vec<f64>,
    /// `full_parse / reparse` per entry of [`EDIT_FRACTIONS`].
    speedup: Vec<f64>,
}

struct GrammarResult {
    name: &'static str,
    doc_bytes: usize,
    full_parse_us: f64,
    full_recognize_us: f64,
    validate: ValidateRow,
    value: Vec<ValueRow>,
}

/// The offset of a digit at roughly `frac` of the way into `doc`.
fn digit_at(doc: &[u8], frac: f64) -> usize {
    let start = (doc.len() as f64 * frac) as usize;
    (start..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .or_else(|| (0..start).rfind(|&i| doc[i].is_ascii_digit()))
        .expect("generated documents contain digits")
}

/// Applies a 1-byte digit swap at `at` (alternating so every edit is
/// a real change) and re-parses with `run`, returning the latency.
fn timed_edit<V, R: PartialEq + std::fmt::Debug>(
    inc: &mut IncrementalSession<V>,
    at: usize,
    flip: &mut bool,
    run: impl Fn(&mut IncrementalSession<V>) -> R,
) -> (f64, R) {
    let b = if *flip { b"7" } else { b"8" };
    *flip = !*flip;
    inc.splice(at..at + 1, b);
    let t0 = Instant::now();
    let r = run(inc);
    (t0.elapsed().as_secs_f64() * 1e6, r)
}

fn bench_one(def: &GrammarDef<i64>, doc_bytes: usize, iters: usize) -> GrammarResult {
    let parser: Parser<i64> = def.flap_parser();
    let doc = (def.generate)(42, doc_bytes);
    let expected = (def.reference)(&doc).expect("generated input is valid");
    let mut session = parser.session();

    let mut full_parse_us = f64::INFINITY;
    let mut full_recognize_us = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = parser.parse_with(&mut session, &doc).expect("parses");
        full_parse_us = full_parse_us.min(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            (def.finish)(v),
            expected,
            "full parse disagrees with oracle"
        );
        let t0 = Instant::now();
        parser.recognize(&doc).expect("recognizes");
        full_recognize_us = full_recognize_us.min(t0.elapsed().as_secs_f64() * 1e6);
    }

    // -- validate: 1-byte edit mid-document, suffix convergence --
    let config = IncrementalConfig::default();
    let mut inc = parser.incremental_with(config);
    inc.splice(0..0, &doc);
    parser.validate_incremental(&mut inc).expect("validates");
    let at = digit_at(&doc, 0.5);
    let mut flip = true;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let (us, r) = timed_edit(&mut inc, at, &mut flip, |i| parser.validate_incremental(i));
        r.expect("edited document stays valid");
        best = best.min(us);
        let st = inc.stats();
        assert!(
            st.converged && st.suffix_reused > 0 && st.prefix_reused > 0,
            "{} validate: no prefix or suffix reuse ({st:?})",
            def.name
        );
    }
    // the timed runs above only flip a digit; the final document
    // must still agree with a from-scratch recognize
    assert_eq!(parser.recognize(inc.doc()), Ok(()));
    let st = inc.stats();
    let validate = ValidateRow {
        interval: config.interval,
        reparse_us: best,
        speedup: full_recognize_us / best,
        parsed: st.parsed,
        suffix_reused: st.suffix_reused,
        checkpoints: st.checkpoints,
        retained_bytes: st.retained_bytes,
        stats: st,
    };

    let mut value = Vec::new();
    for interval in INTERVALS {
        let config = IncrementalConfig { interval };

        // -- value: 1-byte edits at p10/p50/p90, prefix reuse only --
        let mut inc = parser.incremental_with(config);
        inc.splice(0..0, &doc);
        parser.parse_incremental(&mut inc).expect("parses");
        let mut reparse_us = Vec::new();
        let mut speedup = Vec::new();
        for frac in EDIT_FRACTIONS {
            let at = digit_at(&doc, frac);
            let mut flip = true;
            let mut best = f64::INFINITY;
            let mut got = 0;
            for _ in 0..iters {
                let (us, r) = timed_edit(&mut inc, at, &mut flip, |i| parser.parse_incremental(i));
                got = r.expect("edited document stays valid");
                best = best.min(us);
                assert!(
                    inc.stats().prefix_reused > 0 || at < interval,
                    "{} value at interval {interval}, frac {frac}: no prefix reuse",
                    def.name
                );
            }
            let scratch = parser.parse(inc.doc()).expect("parses");
            assert_eq!(
                (def.finish)(got),
                (def.finish)(scratch),
                "{} value re-parse disagrees with from-scratch",
                def.name
            );
            reparse_us.push(best);
            speedup.push(full_parse_us / best);
        }
        value.push(ValueRow {
            interval,
            reparse_us,
            speedup,
        });
    }

    GrammarResult {
        name: def.name,
        doc_bytes: doc.len(),
        full_parse_us,
        full_recognize_us,
        validate,
        value,
    }
}

fn report(results: &[GrammarResult], doc_mb: f64, iters: usize) -> Json {
    let round1 = |v: f64| Json::Num((v * 10.0).round() / 10.0);
    // headline: the validate speedup for the json grammar
    let headline = results
        .iter()
        .find(|r| r.name == "json")
        .map_or(0.0, |r| r.validate.speedup);
    obj(vec![
        ("bench", Json::Str("incremental".to_string())),
        ("doc_mb", Json::Num(doc_mb)),
        ("iters", Json::Num(iters as f64)),
        (
            "intervals",
            Json::Arr(INTERVALS.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
        (
            "edit_fractions",
            Json::Arr(EDIT_FRACTIONS.iter().map(|&f| Json::Num(f)).collect()),
        ),
        ("headline_validate_speedup", round1(headline)),
        (
            "grammars",
            Json::Obj(
                results
                    .iter()
                    .map(|r| {
                        (
                            r.name.to_string(),
                            obj(vec![
                                ("doc_bytes", Json::Num(r.doc_bytes as f64)),
                                ("full_parse_us", round1(r.full_parse_us)),
                                ("full_recognize_us", round1(r.full_recognize_us)),
                                ("validate", {
                                    let v = &r.validate;
                                    obj(vec![
                                        ("interval", Json::Num(v.interval as f64)),
                                        ("reparse_us", round1(v.reparse_us)),
                                        ("speedup", round1(v.speedup)),
                                        ("parsed", Json::Num(v.parsed as f64)),
                                        ("suffix_reused", Json::Num(v.suffix_reused as f64)),
                                        ("checkpoints", Json::Num(v.checkpoints as f64)),
                                        ("retained_bytes", Json::Num(v.retained_bytes as f64)),
                                    ])
                                }),
                                (
                                    "value",
                                    Json::Arr(
                                        r.value
                                            .iter()
                                            .map(|v| {
                                                obj(vec![
                                                    ("interval", Json::Num(v.interval as f64)),
                                                    (
                                                        "reparse_us",
                                                        Json::Arr(
                                                            v.reparse_us
                                                                .iter()
                                                                .map(|&u| round1(u))
                                                                .collect(),
                                                        ),
                                                    ),
                                                    (
                                                        "speedup",
                                                        Json::Arr(
                                                            v.speedup
                                                                .iter()
                                                                .map(|&s| round1(s))
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(results: &[GrammarResult], doc_mb: f64, iters: usize) {
    println!(
        "incremental re-parse after a 1-byte edit ({} MB documents, best of {iters})",
        doc_mb
    );
    for r in results {
        println!(
            "\n{}: full parse {:.0} µs, full recognize {:.0} µs",
            r.name, r.full_parse_us, r.full_recognize_us
        );
        println!(
            "  {:<12}{:>14}{:>10}{:>12}{:>12}{:>12}",
            "validate", "reparse µs", "speedup", "parsed", "ckpts", "retained"
        );
        let v = &r.validate;
        println!(
            "  {:<12}{:>14.1}{:>9.1}x{:>12}{:>12}{:>12}",
            format!("≤{}K", v.interval / 1024),
            v.reparse_us,
            v.speedup,
            v.parsed,
            v.checkpoints,
            v.retained_bytes
        );
        println!("               {}", v.stats);
        println!("  {:<12}{:>16}{:>16}{:>16}", "value", "p10", "p50", "p90");
        for v in &r.value {
            let cols: Vec<String> = v
                .reparse_us
                .iter()
                .zip(&v.speedup)
                .map(|(us, s)| format!("{us:.0}µs ({s:.1}x)"))
                .collect();
            println!(
                "  {:<12}{:>16}{:>16}{:>16}",
                format!("{}K", v.interval / 1024),
                cols[0],
                cols[1],
                cols[2]
            );
        }
    }
}

struct Options {
    doc_mb: f64,
    json: bool,
    /// `Some(snapshot_path)` when running as a CI smoke check.
    smoke: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        doc_mb: 2.0,
        json: false,
        smoke: None,
    };
    let mut explicit_target = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--smoke" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") && p.parse::<f64>().is_err() => {
                        args.next().unwrap()
                    }
                    _ => "BENCH_incremental.json".to_string(),
                };
                opts.smoke = Some(path);
            }
            _ => {
                if let Ok(v) = a.parse() {
                    opts.doc_mb = v;
                    explicit_target = true;
                }
            }
        }
    }
    if opts.smoke.is_some() && !explicit_target {
        // fast CI pass — but the document must span the largest
        // value-mode interval or the reuse asserts have nothing to do
        opts.doc_mb = 1.0;
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let doc_bytes = (opts.doc_mb * 1e6) as usize;
    let iters = if opts.smoke.is_some() { 2 } else { 7 };

    let results: Vec<GrammarResult> = [flap_grammars::json::def(), flap_grammars::sexp::def()]
        .iter()
        .map(|def| bench_one(def, doc_bytes, iters))
        .collect();
    let doc = report(&results, opts.doc_mb, iters);

    if let Some(snapshot) = &opts.smoke {
        let text = match std::fs::read_to_string(snapshot) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("incremental --smoke: cannot read snapshot {snapshot}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snap = match Json::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("incremental --smoke: snapshot {snapshot} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut ok = true;
        for r in &results {
            if r.validate.parsed > MAX_VALIDATE_PARSED {
                eprintln!(
                    "incremental --smoke: {} validation re-scanned {} B after a 1-byte edit \
                     (limit {MAX_VALIDATE_PARSED} B): {}",
                    r.name, r.validate.parsed, r.validate.stats
                );
                ok = false;
            }
        }
        if !ok {
            return ExitCode::FAILURE;
        }
        if !snap.same_schema(&doc) {
            eprintln!(
                "incremental --smoke: schema drift between {snapshot} and the harness.\n\
                 Regenerate with: cargo run --release -p flap-bench --bin incr -- --json \
                 > BENCH_incremental.json\ncurrent harness output:\n{doc}"
            );
            return ExitCode::FAILURE;
        }
        println!("incremental --smoke: snapshot {snapshot} schema matches the harness");
    } else if opts.json {
        println!("{doc}");
    } else {
        print_table(&results, opts.doc_mb, iters);
    }
    ExitCode::SUCCESS
}
