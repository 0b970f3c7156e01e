//! The four workloads, the set-up each measures, and the three phases
//! they share.
//!
//! Every workload runs all three phases over its own grammars, so that
//! every end-to-end metric is measured on every workload: whole
//! documents (parse and validate), a served request stream, and an edit
//! stream. The workload's focus phase gets [`FOCUS_SHARE`] of the
//! measured time and the other two split the rest.

use std::time::{Duration, Instant};

use flap::ParseError;

use crate::calib::Calibration;
use crate::grammars::{spec, EditSession, IrSizes, PoolReport, Server, Spec, Target};
use crate::inputs::{document_set, request_mix, EditStream, RequestMix};
use crate::stats::{geomean, median, quietest, tail, windows, Pick, Tally, TAIL_MIN_BEYOND};
use crate::trace::Tracer;

/// The phase a workload is built around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Whole documents, parsed and validated in turn.
    Docs,
    /// Requests through a `ParsePool`, closed loop.
    Serve,
    /// Edits to an incremental session, each validated.
    Edit,
}

/// What the workload's `setup_s` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetupKind {
    /// A cold `Parser::compile` of every grammar.
    Compile,
    /// `Parser::from_artifact` on a saved artifact plus starting the pool.
    Artifact,
    /// `Parser::compile`, loading the document into an incremental
    /// session and its first full validate.
    Session,
}

/// One workload.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Grammars it runs, by name.
    pub grammars: &'static [&'static str],
    /// The phase it is built around.
    pub focus: Phase,
    /// What its set-up time covers.
    pub setup: SetupKind,
}

/// The workloads, as listed in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "docs-lexical",
        grammars: &["json", "sexp", "csv", "pgn"],
        focus: Phase::Docs,
        setup: SetupKind::Compile,
    },
    Workload {
        name: "docs-actions",
        grammars: &["arith", "ppm"],
        focus: Phase::Docs,
        setup: SetupKind::Compile,
    },
    Workload {
        name: "serve",
        grammars: &["json"],
        focus: Phase::Serve,
        setup: SetupKind::Artifact,
    },
    Workload {
        name: "edit",
        grammars: &["json"],
        focus: Phase::Edit,
        setup: SetupKind::Session,
    },
];

/// Share of the measured time given to the focus phase.
pub const FOCUS_SHARE: f64 = 0.6;
/// Set-ups in a traced run, for the compile-stage spans. An untraced
/// run sets up once more at the start of each slice, and `setup_s` is
/// the median of all its set-ups, so that it samples the whole run.
pub const SETUP_REPS: usize = 15;
/// Requests each client keeps outstanding.
pub const WINDOW: usize = 4;
/// Completions per pool before measuring starts.
const WARMUP_REQUESTS: u64 = 200;
/// Edits per session before measuring starts.
const WARMUP_EDITS: usize = 8;
/// Edits per grammar before the loop moves to the next grammar.
const EDIT_BLOCK: usize = 16;
/// Cycles through the three phases per run.
pub const SLICES: usize = 10;

/// Pool workers: one per core, less the client's.
pub fn pool_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).max(1)
}

/// A workload's generated inputs and the oracle's answers for them.
pub struct Inputs {
    /// The grammars, in workload order.
    pub specs: Vec<Box<dyn Spec>>,
    /// Whole documents per grammar.
    pub docs: Vec<Vec<Vec<u8>>>,
    /// The oracle's value for each document.
    pub doc_values: Vec<Vec<i64>>,
    /// The serve mix per grammar.
    pub mixes: Vec<RequestMix>,
    /// The oracle's value for each request body.
    pub mix_values: Vec<Vec<i64>>,
    /// Saved artifacts per grammar (artifact set-up only).
    pub artifacts: Vec<Vec<u8>>,
    /// The workload seed.
    pub seed: u64,
}

impl Inputs {
    /// Generates every input of `w` from `seed` and asks the oracle
    /// for each value.
    pub fn new(w: &Workload, seed: u64) -> Inputs {
        let specs: Vec<Box<dyn Spec>> = w
            .grammars
            .iter()
            .map(|g| spec(g).expect("workloads name known grammars"))
            .collect();
        let oracle = |s: &dyn Spec, doc: &[u8]| {
            s.reference(doc)
                .unwrap_or_else(|e| panic!("{}: a generated input is invalid: {e}", s.name()))
        };
        let docs: Vec<Vec<Vec<u8>>> = specs
            .iter()
            .map(|s| document_set(s.name(), s.generate(), seed))
            .collect();
        let doc_values = specs
            .iter()
            .zip(&docs)
            .map(|(s, set)| set.iter().map(|d| oracle(s.as_ref(), d)).collect())
            .collect();
        let mixes: Vec<RequestMix> = specs
            .iter()
            .map(|s| request_mix(s.name(), s.generate(), seed))
            .collect();
        let mix_values = specs
            .iter()
            .zip(&mixes)
            .map(|(s, m)| m.bodies.iter().map(|b| oracle(s.as_ref(), b)).collect())
            .collect();
        let artifacts = match w.setup {
            SetupKind::Artifact => specs.iter().map(|s| s.build_artifact().0).collect(),
            _ => Vec::new(),
        };
        Inputs {
            specs,
            docs,
            doc_values,
            mixes,
            mix_values,
            artifacts,
            seed,
        }
    }
}

/// Ready parsers, with the sizes of what the layered set-up built.
pub struct Setup {
    /// One parser per grammar.
    pub targets: Vec<Box<dyn Target>>,
    /// Median set-up time over the repetitions.
    pub seconds: f64,
    /// Exact sizes summed over the grammars (layered set-up only).
    pub sizes: IrSizes,
    /// Outcomes of the set-ups' own checks.
    pub tally: Tally,
}

/// Sets the workload up `reps` times and keeps the last parsers.
/// Untraced set-up goes through `Parser`; `layered` set-up calls each
/// pipeline layer itself, in its own span.
pub fn setup(w: &Workload, inputs: &Inputs, tr: &mut Tracer, layered: bool, reps: usize) -> Setup {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut tally = Tally::default();
    for rep in 0..reps {
        let mut sizes = IrSizes::default();
        let t = tr.start("setup", rep as u64);
        let targets: Vec<Box<dyn Target>> = inputs
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if layered {
                    let (target, size) =
                        s.compile_layers(tr, rep as u64, w.setup == SetupKind::Artifact);
                    sizes.add(size);
                    target
                } else if w.setup == SetupKind::Artifact {
                    s.load_artifact(&inputs.artifacts[i])
                } else {
                    s.compile()
                }
            })
            .collect();
        let mut pools = Vec::new();
        let mut sessions = Vec::new();
        match w.setup {
            SetupKind::Compile => {}
            SetupKind::Artifact => {
                for target in &targets {
                    pools.push(target.start_pool(pool_workers(), WINDOW, false));
                }
            }
            SetupKind::Session => {
                for (g, target) in targets.iter().enumerate() {
                    let mut s = target.edit_session();
                    s.splice(0..0, &inputs.docs[g][0], tr, rep as u64);
                    let (_, verdict) = s.validate(tr, rep as u64);
                    sessions.push((s, verdict));
                }
            }
        }
        times.push(tr.stop(t).as_secs_f64());
        for pool in pools {
            pool.finish();
        }
        for (_, verdict) in sessions {
            count(
                &mut tally,
                verdict.is_ok(),
                "edit set-up: the generated document is valid",
            );
        }
        last = Some((targets, sizes));
    }
    let (targets, sizes) = last.expect("at least one set-up");
    Setup {
        targets,
        seconds: median(&times),
        sizes,
        tally,
    }
}

/// What one pass of the phases measured on one grammar.
#[derive(Clone, Default)]
pub struct GrammarOut {
    /// MB/s of each measured round of whole-document parses.
    pub parse_mbps: Vec<f64>,
    /// MB/s of each measured round of whole-document validates.
    pub validate_mbps: Vec<f64>,
    /// Per slice, submit-to-result time of each measured request, µs.
    pub latency_us: Vec<Vec<f64>>,
    /// Per slice, requests completed while measuring and the time
    /// spent measuring.
    pub served: Vec<(u64, Duration)>,
    /// Per slice, edit-to-verdict time of each measured edit, µs.
    pub edit_us: Vec<Vec<f64>>,
}

/// Everything one pass of the phases measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Per grammar, in workload order.
    pub grammars: Vec<GrammarOut>,
    /// Pool queue and trace figures, all grammars.
    pub pool: PoolReport,
    /// Calibration kernel throughput at the start of each slice, MB/s.
    pub host_mbps: Vec<f64>,
    /// Outcomes of every operation.
    pub tally: Tally,
}

impl PhaseOut {
    /// Adds another pass's samples and counts to this one's.
    pub fn absorb(&mut self, other: PhaseOut) {
        for (mine, theirs) in self.grammars.iter_mut().zip(other.grammars) {
            mine.parse_mbps.extend(theirs.parse_mbps);
            mine.validate_mbps.extend(theirs.validate_mbps);
            mine.latency_us.extend(theirs.latency_us);
            mine.served.extend(theirs.served);
            mine.edit_us.extend(theirs.edit_us);
        }
        self.pool.high_water = self.pool.high_water.max(other.pool.high_water);
        self.pool.queue_wait_us.extend(other.pool.queue_wait_us);
        self.pool.exec_us.extend(other.pool.exec_us);
        self.host_mbps.extend(other.host_mbps);
        self.tally.add(other.tally);
    }
}

/// Counts one checked outcome, reporting the first few failures.
fn count(tally: &mut Tally, ok: bool, what: &str) {
    if ok {
        tally.ok += 1;
    } else {
        if tally.failed < 5 {
            eprintln!("MISMATCH: {what}");
        }
        tally.failed += 1;
    }
}

/// Runs the three phases for `budget` in total, interleaved in
/// [`SLICES`] cycles so that every phase samples the whole run rather
/// than one stretch of it: the host's speed drifts over seconds. Each
/// slice starts with a calibration sample and a call to `on_slice`.
pub fn run_phases(
    w: &Workload,
    inputs: &Inputs,
    targets: &mut [Box<dyn Target>],
    budget: Duration,
    tr: &mut Tracer,
    on_slice: &mut dyn FnMut(&mut Tracer),
) -> PhaseOut {
    let slice = |p: Phase| {
        let share = if p == w.focus {
            FOCUS_SHARE
        } else {
            (1.0 - FOCUS_SHARE) / 2.0
        };
        budget.mul_f64(share / SLICES as f64)
    };
    let mut out = PhaseOut {
        grammars: vec![GrammarOut::default(); targets.len()],
        ..PhaseOut::default()
    };
    let mut op = 0u64;
    let calibration = Calibration::new();
    let mut sessions = open_sessions(inputs, targets, tr, &mut out);
    let mut servers: Vec<_> = targets
        .iter()
        .map(|t| t.start_pool(pool_workers(), WINDOW, tr.is_on()))
        .collect();
    for cycle in 0..SLICES {
        out.host_mbps.push(calibration.sample());
        on_slice(tr);
        for g in &mut out.grammars {
            g.edit_us.push(Vec::new());
            g.latency_us.push(Vec::new());
            g.served.push((0, Duration::ZERO));
        }
        docs_slice(
            inputs,
            targets,
            cycle == 0,
            slice(Phase::Docs),
            tr,
            &mut op,
            &mut out,
        );
        edit_slice(
            targets,
            &mut sessions,
            cycle == 0,
            slice(Phase::Edit),
            tr,
            &mut op,
            &mut out,
        );
        serve_slice(
            inputs,
            &mut servers,
            cycle == 0,
            slice(Phase::Serve),
            tr,
            &mut out,
        );
    }
    for server in servers {
        let report = server.finish();
        out.pool.high_water = out.pool.high_water.max(report.high_water);
        out.pool.queue_wait_us.extend(report.queue_wait_us);
        out.pool.exec_us.extend(report.exec_us);
    }
    out
}

/// Whole documents: per grammar, parse then validate each document, at
/// least one round per slice. The run's first round warms up and is
/// not measured.
fn docs_slice(
    inputs: &Inputs,
    targets: &mut [Box<dyn Target>],
    warm_up: bool,
    budget: Duration,
    tr: &mut Tracer,
    op: &mut u64,
    out: &mut PhaseOut,
) {
    let until = Instant::now() + budget;
    let mut round = 0;
    while round == 0 || Instant::now() < until {
        for (g, t) in targets.iter_mut().enumerate() {
            let (mut parse_s, mut validate_s, mut bytes) = (0.0, 0.0, 0usize);
            for (doc, &want) in inputs.docs[g].iter().zip(&inputs.doc_values[g]) {
                *op += 1;
                let (d, v) = t.parse(doc, tr, *op);
                parse_s += d.as_secs_f64();
                count(
                    &mut out.tally,
                    v.as_ref().ok() == Some(&want),
                    &format!("{}: parse gave {v:?}, the oracle {want}", t.name()),
                );
                *op += 1;
                let (d, v) = t.recognize(doc, tr, *op);
                validate_s += d.as_secs_f64();
                count(
                    &mut out.tally,
                    v.is_ok(),
                    &format!("{}: recognize rejected a valid document: {v:?}", t.name()),
                );
                bytes += doc.len();
            }
            if !(warm_up && round == 0) {
                let measured = &mut out.grammars[g];
                measured.parse_mbps.push(bytes as f64 / parse_s / 1e6);
                measured.validate_mbps.push(bytes as f64 / validate_s / 1e6);
            }
        }
        round += 1;
    }
}

/// Whether two verdicts agree: both accept, or both reject at the same
/// byte, line and column.
pub fn same_verdict(a: &Result<(), ParseError>, b: &Result<(), ParseError>) -> bool {
    match (a, b) {
        (Ok(()), Ok(())) => true,
        (Err(x), Err(y)) => x.pos() == y.pos() && x.line_col() == y.line_col(),
        _ => false,
    }
}

type Session = (Box<dyn EditSession>, EditStream);

/// One incremental session per grammar over its first document, with
/// its seeded edit stream.
fn open_sessions(
    inputs: &Inputs,
    targets: &[Box<dyn Target>],
    tr: &mut Tracer,
    out: &mut PhaseOut,
) -> Vec<Session> {
    targets
        .iter()
        .enumerate()
        .map(|(g, t)| {
            let mut s = t.edit_session();
            s.splice(0..0, &inputs.docs[g][0], tr, 0);
            let (_, verdict) = s.validate(tr, 0);
            count(
                &mut out.tally,
                verdict.is_ok(),
                "edit: the loaded document is valid",
            );
            (s, EditStream::new(inputs.seed, t.name()))
        })
        .collect()
}

/// Edits, in blocks, grammar after grammar, at least one block per
/// slice. Each edit is a `splice` and a `validate_incremental`; flagged
/// verdicts are checked against a from-scratch `recognize`. The run's
/// first block per grammar warms up and is not measured.
fn edit_slice(
    targets: &[Box<dyn Target>],
    sessions: &mut [Session],
    warm_up: bool,
    budget: Duration,
    tr: &mut Tracer,
    op: &mut u64,
    out: &mut PhaseOut,
) {
    let until = Instant::now() + budget;
    let mut round = 0;
    while round == 0 || Instant::now() < until {
        let warming = warm_up && round == 0;
        for (g, ((s, stream), t)) in sessions.iter_mut().zip(targets).enumerate() {
            let block = if warming { WARMUP_EDITS } else { EDIT_BLOCK };
            for _ in 0..block {
                let e = stream.next_edit(s.doc());
                *op += 1;
                let timing = tr.start("edit", *op);
                s.splice(e.range, &e.bytes, tr, *op);
                let (_, verdict) = s.validate(tr, *op);
                let took = tr.stop(timing);
                if !warming {
                    let slice = out.grammars[g].edit_us.last_mut().expect("a slice is open");
                    slice.push(took.as_secs_f64() * 1e6);
                }
                let ok = !e.check || {
                    let (_, fresh) = t.recognize(s.doc(), tr, *op);
                    same_verdict(&verdict, &fresh)
                };
                count(
                    &mut out.tally,
                    ok,
                    &format!("{}: incremental verdict differs from scratch", t.name()),
                );
            }
        }
        round += 1;
    }
}

/// Serving: each grammar's pool in turn, its client keeping [`WINDOW`]
/// requests outstanding for an equal part of the slice.
fn serve_slice(
    inputs: &Inputs,
    servers: &mut [Box<dyn Server>],
    warm_up: bool,
    budget: Duration,
    tr: &mut Tracer,
    out: &mut PhaseOut,
) {
    let each = budget / servers.len() as u32;
    let warmup = if warm_up {
        WARMUP_REQUESTS
    } else {
        WINDOW as u64
    };
    for (g, server) in servers.iter_mut().enumerate() {
        let run = server.run(
            &inputs.mixes[g],
            &inputs.mix_values[g],
            warmup,
            Instant::now() + each,
            tr,
        );
        let measured = &mut out.grammars[g];
        let slice = measured.latency_us.last_mut().expect("a slice is open");
        slice.extend(run.latency_us);
        let (served, time) = measured.served.last_mut().expect("a slice is open");
        *served += run.completed;
        *time += run.elapsed;
        if run.tally.failures() > 0 {
            eprintln!(
                "MISMATCH: {}: {} failed and {} refused requests",
                inputs.specs[g].name(),
                run.tally.failed,
                run.tally.refused
            );
        }
        out.tally.add(run.tally);
    }
}

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How it was summarized, for the human-readable lines.
    pub note: String,
}

impl Metric {
    /// A metric with its summary note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note,
        }
    }
}

/// The value of a pick, `NaN` when there were too few samples.
fn value(p: Option<Pick>) -> f64 {
    p.map_or(f64::NAN, |p| p.value)
}

/// Samples a p99 needs: [`TAIL_MIN_BEYOND`] beyond it.
const TAIL_WINDOW: usize = 100 * TAIL_MIN_BEYOND;

/// Per slice, every grammar's samples together, merged into windows
/// large enough for a p99.
fn tail_windows(gs: &[GrammarOut], field: fn(&GrammarOut) -> &Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let slices = gs.iter().map(|g| field(g).len()).max().unwrap_or(0);
    let pooled: Vec<Vec<f64>> = (0..slices)
        .map(|i| {
            gs.iter()
                .flat_map(|g| field(g)[i].iter().copied())
                .collect()
        })
        .collect();
    windows(&pooled, TAIL_WINDOW)
}

/// How a tail was picked, e.g. `p99 of 1520 requests, quietest window`.
fn window_note(p: Option<Pick>, what: &str) -> String {
    p.map_or(format!("too few {what}"), |p| {
        format!("p{} of {} {what} in the quietest window", p.pct, p.n)
    })
}

/// The end-to-end metrics of one pass, except set-up time and memory.
/// Each is taken per grammar and combined by geometric mean, so that a
/// workload's grammars weigh equally whatever their speed:
///
/// - throughputs are medians over rounds (documents) or slices (serving);
/// - p50s are over all of a grammar's requests or edits;
/// - p99s pool the grammars: consecutive slices are merged into windows
///   of at least [`TAIL_WINDOW`] samples, and the quietest window's p99
///   is reported (see [`quietest`]).
pub fn phase_metrics(out: &PhaseOut) -> Vec<Metric> {
    let gs = &out.grammars;
    let col = |f: &dyn Fn(&GrammarOut) -> f64| geomean(&gs.iter().map(f).collect::<Vec<_>>());
    let rates = |g: &GrammarOut| -> Vec<f64> {
        g.served
            .iter()
            .filter(|(_, t)| !t.is_zero())
            .map(|&(n, t)| n as f64 / t.as_secs_f64())
            .collect()
    };
    let lat99 = quietest(&tail_windows(gs, |g| &g.latency_us), 99);
    let edit99 = quietest(&tail_windows(gs, |g| &g.edit_us), 99);
    let rounds = gs.iter().map(|g| g.parse_mbps.len()).min().unwrap_or(0);
    let requests: usize = gs.iter().map(|g| g.latency_us.concat().len()).sum();
    let edits: usize = gs.iter().map(|g| g.edit_us.concat().len()).sum();
    let over = format!("geomean over {} grammars", gs.len());
    vec![
        Metric::new(
            "parse_mbps",
            col(&|g| median(&g.parse_mbps)),
            "MB/s",
            format!("{over}, median of >= {rounds} rounds"),
        ),
        Metric::new(
            "validate_mbps",
            col(&|g| median(&g.validate_mbps)),
            "MB/s",
            format!("{over}, median of >= {rounds} rounds"),
        ),
        Metric::new(
            "serve_rps",
            col(&|g| median(&rates(g))),
            "1/s",
            format!("{over}, median of {SLICES} slices"),
        ),
        Metric::new(
            "latency_p50_us",
            col(&|g| value(tail(&g.latency_us.concat(), 50))),
            "us",
            format!("{over}, {requests} requests"),
        ),
        Metric::new(
            "latency_p99_us",
            value(lat99),
            "us",
            window_note(lat99, "requests"),
        ),
        Metric::new(
            "edit_p50_us",
            col(&|g| value(tail(&g.edit_us.concat(), 50))),
            "us",
            format!("{over}, {edits} edits"),
        ),
        Metric::new(
            "edit_p99_us",
            value(edit99),
            "us",
            window_note(edit99, "edits"),
        ),
    ]
}
