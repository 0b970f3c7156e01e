//! Per-layer figures for the traced run: compile-stage times, exact IR
//! and table sizes, the six-grammar runtime ledger with its same-run
//! reference rows, pool and incremental figures, and the determinism
//! check on every exact count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::grammars::{spec, IrSizes};
use crate::inputs::{document_set, EditStream};
use crate::stats::{median, tail, Tally};
use crate::trace::Tracer;
use crate::workload::{Metric, Workload};

/// Every grammar, in the paper's Fig 11 order: the ledger covers all of
/// them in every traced run, whatever the workload's own grammars.
pub const ALL_GRAMMARS: [&str; 6] = ["json", "sexp", "arith", "pgn", "ppm", "csv"];

/// Timed repetitions of each ledger row; rows report the median.
const LEDGER_REPS: usize = 5;
/// Timed repetitions of the slower `asp` baseline row.
const ASP_REPS: usize = 3;
/// Edits replayed per grammar for the exact incremental counts.
const COUNT_EDITS: usize = 256;

/// One grammar's runtime row.
pub struct LedgerRow {
    /// Grammar name.
    pub grammar: &'static str,
    /// VM `recognize` throughput, MB/s.
    pub validate_mbps: f64,
    /// Share of parse time spent beyond recognizing: 1 − validate/parse.
    pub actions_share: f64,
    /// Parse throughput over the `asp` baseline's, same documents.
    pub flap_over_asp: f64,
    /// VM recognize throughput over the generated recognizer's.
    pub vm_over_codegen: f64,
}

/// Times the VM, the `asp` baseline and the build-time generated
/// recognizer on each grammar's documents; every parse is checked
/// against the oracle.
pub fn ledger(seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Vec<LedgerRow> {
    let mut op = 1u64 << 40;
    ALL_GRAMMARS
        .iter()
        .map(|&name| {
            let s = spec(name).expect("ledger grammars are known");
            let docs = document_set(name, s.generate(), seed);
            let want: Vec<i64> = docs
                .iter()
                .map(|d| s.reference(d).expect("generated documents are valid"))
                .collect();
            let bytes: usize = docs.iter().map(Vec::len).sum();
            let mut t = s.compile();
            let asp = t.asp();
            let codegen = flap_bench::generated_recognizer(name);
            let (mut parse, mut validate, mut asp_s, mut gen_s) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            // one untimed warm-up pass, then the timed repetitions
            for rep in 0..=LEDGER_REPS {
                let (mut p, mut v, mut a, mut c) = (0.0, 0.0, 0.0, 0.0);
                for (doc, &w) in docs.iter().zip(&want) {
                    op += 1;
                    let (d, r) = t.parse(doc, tr, op);
                    p += d.as_secs_f64();
                    check(tally, r.ok() == Some(w), name, "parse");
                    let (d, r) = t.recognize(doc, tr, op);
                    v += d.as_secs_f64();
                    check(tally, r.is_ok(), name, "recognize");
                    if rep <= ASP_REPS {
                        let (d, r) = asp(doc);
                        a += d.as_secs_f64();
                        check(tally, r.ok() == Some(w), name, "asp");
                    }
                    let (d, r) = tr.time("codegen::recognize", op, || codegen(doc));
                    c += d.as_secs_f64();
                    check(tally, r.is_ok(), name, "generated recognizer");
                }
                if rep > 0 {
                    parse.push(p);
                    validate.push(v);
                    gen_s.push(c);
                    if rep <= ASP_REPS {
                        asp_s.push(a);
                    }
                }
            }
            let (p, v) = (median(&parse), median(&validate));
            LedgerRow {
                grammar: name,
                validate_mbps: bytes as f64 / v / 1e6,
                actions_share: 1.0 - v / p,
                flap_over_asp: median(&asp_s) / p,
                vm_over_codegen: median(&gen_s) / v,
            }
        })
        .collect()
}

fn check(tally: &mut Tally, ok: bool, grammar: &str, what: &str) {
    if ok {
        tally.ok += 1;
    } else {
        eprintln!("MISMATCH: ledger {grammar}: {what} disagrees with the oracle");
        tally.failed += 1;
    }
}

/// Every exact count the traced run reports: equal inputs must give
/// equal counts, run after run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// IR and table sizes, summed over the workload's grammars.
    pub sizes: IrSizes,
    /// Per grammar: document bytes, tokens and reductions of one parse.
    pub profile: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Edits replayed for the incremental counts.
    pub edits: u64,
    /// Bytes those edits' validations fed through the automaton.
    pub parsed_bytes: u64,
    /// Those validations that stopped early by converging.
    pub converged: u64,
    /// Checkpoint bytes retained after the last of them, summed over
    /// the workload's grammars.
    pub retained_bytes: u64,
}

impl Counts {
    /// Computes every count from scratch: fresh inputs from `seed`,
    /// freshly compiled parsers, fresh sessions.
    pub fn measure(w: &Workload, seed: u64) -> Counts {
        let mut counts = Counts::default();
        let mut tr = Tracer::new(false);
        for name in ALL_GRAMMARS {
            let s = spec(name).expect("known grammar");
            let docs = document_set(name, s.generate(), seed);
            let mut t = s.compile();
            let mut row = (0, 0, 0);
            for doc in &docs {
                let (tokens, reductions) = t.profile(doc);
                row = (row.0 + doc.len() as u64, row.1 + tokens, row.2 + reductions);
            }
            counts.profile.insert(name, row);
            if !w.grammars.contains(&name) {
                continue;
            }
            counts.sizes.add(s.build_artifact().1);
            let mut session = t.edit_session();
            session.splice(0..0, &docs[0], &mut tr, 0);
            let _ = session.validate(&mut tr, 0);
            let mut stream = EditStream::new(seed, name);
            for _ in 0..COUNT_EDITS {
                let e = stream.next_edit(session.doc());
                session.splice(e.range, &e.bytes, &mut tr, 0);
                let _ = session.validate(&mut tr, 0);
                let st = session.stats();
                counts.edits += 1;
                counts.parsed_bytes += st.parsed as u64;
                counts.converged += u64::from(st.converged);
            }
            counts.retained_bytes += session.stats().retained_bytes as u64;
        }
        counts
    }

    /// A canonical text form, one count per line.
    pub fn render(&self) -> String {
        let mut s = format!("{:?}\n", self.sizes);
        for (g, (b, t, r)) in &self.profile {
            writeln!(s, "{g} bytes={b} tokens={t} reductions={r}").expect("String write");
        }
        writeln!(
            s,
            "edits={} parsed={} converged={} retained={}",
            self.edits, self.parsed_bytes, self.converged, self.retained_bytes
        )
        .expect("String write");
        s
    }
}

/// Median over set-up repetitions of a stage's time summed over the
/// workload's grammars, in µs.
fn stage_us(tr: &Tracer, span: &str, grammars: usize) -> f64 {
    let per_rep: Vec<f64> = tr
        .durations_us(span)
        .chunks(grammars)
        .map(|c| c.iter().sum())
        .collect();
    median(&per_rep)
}

fn p50(samples: &[f64]) -> f64 {
    tail(samples, 50).map_or(f64::NAN, |p| p.value)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(
    w: &Workload,
    counts: &Counts,
    tr: &Tracer,
    pool: &crate::grammars::PoolReport,
    rows: &[LedgerRow],
    overhead: Vec<Metric>,
) -> Vec<Metric> {
    let n = w.grammars.len();
    let note = |s: &str| s.to_string();
    let mut m = vec![
        Metric::new(
            "flap-cfe.type_check_us",
            stage_us(tr, "type_check", n),
            "us",
            note("set-up span"),
        ),
        Metric::new(
            "flap-dgnf.normalize_us",
            stage_us(tr, "normalize", n),
            "us",
            note("set-up span"),
        ),
        Metric::new(
            "flap-fuse.fuse_us",
            stage_us(tr, "fuse", n),
            "us",
            note("set-up span"),
        ),
        Metric::new(
            "flap-staged.stage_us",
            stage_us(tr, "CompiledParser::compile", n),
            "us",
            note("set-up span"),
        ),
        Metric::new(
            "flap-artifact.attach_us",
            stage_us(tr, "artifact::attach", n),
            "us",
            note("set-up span"),
        ),
        Metric::new(
            "flap-dgnf.prods",
            counts.sizes.prods as f64,
            "count",
            note("exact"),
        ),
        Metric::new(
            "flap-fuse.fused_prods",
            counts.sizes.fused_prods as f64,
            "count",
            note("exact"),
        ),
        Metric::new(
            "flap-staged.states",
            counts.sizes.states as f64,
            "count",
            note("exact"),
        ),
        Metric::new(
            "flap-staged.table_bytes",
            counts.sizes.table_bytes as f64,
            "B",
            note("exact"),
        ),
        Metric::new(
            "flap-artifact.bytes",
            counts.sizes.artifact_bytes as f64,
            "B",
            note("exact"),
        ),
    ];
    for r in rows {
        let (bytes, tokens, reductions) = counts.profile[r.grammar];
        let kib = bytes as f64 / 1024.0;
        let g = r.grammar;
        m.push(Metric::new(
            format!("flap-staged.vm.validate_mbps.{g}"),
            r.validate_mbps,
            "MB/s",
            note("ledger median"),
        ));
        m.push(Metric::new(
            format!("flap-staged.vm.actions_share.{g}"),
            r.actions_share,
            "share",
            note("1 - validate/parse time"),
        ));
        m.push(Metric::new(
            format!("flap-staged.vm.tokens_per_kb.{g}"),
            tokens as f64 / kib,
            "1/KiB",
            note("exact"),
        ));
        m.push(Metric::new(
            format!("flap-staged.vm.reductions_per_kb.{g}"),
            reductions as f64 / kib,
            "1/KiB",
            note("exact"),
        ));
        m.push(Metric::new(
            format!("ref.flap_over_asp.{g}"),
            r.flap_over_asp,
            "ratio",
            note("same-run parse throughput ratio"),
        ));
        m.push(Metric::new(
            format!("ref.vm_over_codegen_validate.{g}"),
            r.vm_over_codegen,
            "ratio",
            note("same-run recognize throughput ratio"),
        ));
    }
    let (wait_p99, wait_note) = match tail(&pool.queue_wait_us, 99) {
        Some(p) => (p.value, format!("p{} of {} jobs", p.pct, p.n)),
        None => (f64::NAN, note("too few jobs")),
    };
    let edits = counts.edits.max(1) as f64;
    m.extend([
        Metric::new(
            "serve.exec_us.p50",
            p50(&pool.exec_us),
            "us",
            note("pool trace"),
        ),
        Metric::new(
            "serve.queue_wait_us.p50",
            p50(&pool.queue_wait_us),
            "us",
            note("pool trace"),
        ),
        Metric::new("serve.queue_wait_us.p99", wait_p99, "us", wait_note),
        Metric::new(
            "serve.queue_high_water",
            pool.high_water as f64,
            "count",
            note("pool metrics"),
        ),
        Metric::new(
            "incr.splice_us.p50",
            p50(&tr.durations_us("splice")),
            "us",
            note("span"),
        ),
        Metric::new(
            "incr.validate_us.p50",
            p50(&tr.durations_us("validate_incremental")),
            "us",
            note("span"),
        ),
        Metric::new(
            "incr.parsed_bytes_per_edit",
            counts.parsed_bytes as f64 / edits,
            "B",
            format!("exact, {} replayed edits", counts.edits),
        ),
        Metric::new(
            "incr.converged_share",
            counts.converged as f64 / edits,
            "share",
            format!("exact, {} replayed edits", counts.edits),
        ),
        Metric::new(
            "incr.retained_bytes",
            counts.retained_bytes as f64,
            "B",
            note("exact"),
        ),
    ]);
    m.extend(overhead);
    m
}

/// Tracing overhead: how much worse each traced figure read than the
/// untraced one of the same run, as a share (negative when noise won).
pub fn overhead(untraced: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    let pick = |ms: &[Metric], name: &str| {
        ms.iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let throughput = |name: &str| pick(untraced, name) / pick(traced, name) - 1.0;
    let latency = |name: &str| pick(traced, name) / pick(untraced, name) - 1.0;
    let why = |name: &str| format!("traced vs untraced {name}, same run");
    vec![
        Metric::new(
            "trace.overhead.parse_mbps",
            throughput("parse_mbps"),
            "share",
            why("parse_mbps"),
        ),
        Metric::new(
            "trace.overhead.validate_mbps",
            throughput("validate_mbps"),
            "share",
            why("validate_mbps"),
        ),
        Metric::new(
            "trace.overhead.serve_rps",
            throughput("serve_rps"),
            "share",
            why("serve_rps"),
        ),
        Metric::new(
            "trace.overhead.latency_p50_us",
            latency("latency_p50_us"),
            "share",
            why("latency_p50_us"),
        ),
        Metric::new(
            "trace.overhead.edit_p50_us",
            latency("edit_p50_us"),
            "share",
            why("edit_p50_us"),
        ),
    ]
}
