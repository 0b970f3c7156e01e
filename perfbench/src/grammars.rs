//! The grammars under test, each wrapping one `GrammarDef<V>` behind
//! object-safe traits so a workload can mix value types.
//!
//! Every method calls one layer's public functions and times that call
//! through the [`Tracer`]; nothing here reaches inside a crate.

use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use flap::artifact::AlignedBuf;
use flap::flap_staged::{artifact, CompiledParser};
use flap::obs::{ParseProfiler, TraceRecorder};
use flap::serve::{JobError, JobInput, ParsePool, PoolConfig};
use flap::{IncrementalSession, ParseError, ParseSession, Parser, ReuseStats};
use flap_baselines::AspParser;
use flap_grammars::GrammarDef;

use crate::inputs::{Generate, RequestMix};
use crate::stats::Tally;
use crate::trace::Tracer;

/// Exact sizes of one grammar's intermediate forms and tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrSizes {
    /// DGNF productions after normalization.
    pub prods: u64,
    /// Productions after fusion.
    pub fused_prods: u64,
    /// Compiled automaton states (parser and skip DFA).
    pub states: u64,
    /// Bytes of the flat transition tables the VM executes.
    pub table_bytes: u64,
    /// Bytes of the serialized artifact.
    pub artifact_bytes: u64,
}

impl IrSizes {
    /// Adds another grammar's sizes.
    pub fn add(&mut self, o: IrSizes) {
        self.prods += o.prods;
        self.fused_prods += o.fused_prods;
        self.states += o.states;
        self.table_bytes += o.table_bytes;
        self.artifact_bytes += o.artifact_bytes;
    }
}

/// The `asp` baseline's parse of one document: its time and value.
pub type AspRun = Box<dyn Fn(&[u8]) -> (Duration, Result<i64, String>)>;

/// A grammar definition, before any parser exists.
pub trait Spec: Sync {
    /// Grammar name, e.g. `json`.
    fn name(&self) -> &'static str;
    /// The grammar's seeded input generator.
    fn generate(&self) -> Generate;
    /// The independent oracle's value for `doc`.
    fn reference(&self, doc: &[u8]) -> Result<i64, String>;
    /// `Parser::compile`: grammar definition to ready parser.
    fn compile(&self) -> Box<dyn Target>;
    /// `Parser::to_artifact` of a freshly compiled parser, with the
    /// parser's exact sizes.
    fn build_artifact(&self) -> (Vec<u8>, IrSizes);
    /// `Parser::from_artifact`: the deployment boot path.
    fn load_artifact(&self, bytes: &[u8]) -> Box<dyn Target>;
    /// The compile pipeline one layer call at a time, each in its own
    /// span: type check, normalize, fuse, stage, serialize, attach.
    /// The returned parser runs the attached tables if `attached`.
    fn compile_layers(
        &self,
        tr: &mut Tracer,
        op: u64,
        attached: bool,
    ) -> (Box<dyn Target>, IrSizes);
}

/// A ready parser for one grammar.
pub trait Target {
    /// Grammar name.
    fn name(&self) -> &'static str;
    /// Bytes to value with a reused session (`parse_with`); the time
    /// excludes converting the value to the oracle's `i64`.
    fn parse(
        &mut self,
        doc: &[u8],
        tr: &mut Tracer,
        op: u64,
    ) -> (Duration, Result<i64, ParseError>);
    /// `recognize`: the verdict without running semantic actions.
    fn recognize(&self, doc: &[u8], tr: &mut Tracer, op: u64)
        -> (Duration, Result<(), ParseError>);
    /// Exact token and reduction counts of one parse, from the
    /// `ParseProfiler` observer.
    fn profile(&mut self, doc: &[u8]) -> (u64, u64);
    /// The `asp` baseline for the same grammar: times one parse.
    fn asp(&self) -> AspRun;
    /// A fresh incremental session over this parser.
    fn edit_session(&self) -> Box<dyn EditSession>;
    /// Starts a `ParsePool` over this parser.
    fn start_pool(&self, workers: usize, window: usize, trace: bool) -> Box<dyn Server>;
}

/// An `IncrementalSession` bound to its parser.
pub trait EditSession {
    /// `splice`: applies one edit to the document.
    fn splice(&mut self, range: Range<usize>, bytes: &[u8], tr: &mut Tracer, op: u64) -> Duration;
    /// `validate_incremental`: the verdict on the current document.
    fn validate(&mut self, tr: &mut Tracer, op: u64) -> (Duration, Result<(), ParseError>);
    /// The current document.
    fn doc(&self) -> &[u8];
    /// Reuse accounting of the last validation.
    fn stats(&self) -> ReuseStats;
}

/// One closed-loop serve run.
#[derive(Default)]
pub struct ServeRun {
    /// Submit-to-result time of each measured request, in µs.
    pub latency_us: Vec<f64>,
    /// Measured requests completed by the deadline.
    pub completed: u64,
    /// From the end of the warm-up to the deadline.
    pub elapsed: Duration,
    /// Outcomes of every request sent, warm-up included.
    pub tally: Tally,
}

/// What a pool reports once shut down.
#[derive(Default)]
pub struct PoolReport {
    /// Deepest the submission queue got.
    pub high_water: u64,
    /// Queue-wait span lengths from the pool's trace recorder, in µs.
    pub queue_wait_us: Vec<f64>,
    /// Execution span lengths from the pool's trace recorder, in µs.
    pub exec_us: Vec<f64>,
}

/// A running pool with one client.
pub trait Server {
    /// Keeps `window` requests outstanding, cycling through `mix` in its
    /// order from where the previous run stopped, until `until`; then
    /// waits for the rest. Requests sent before the first `warmup`
    /// completions are not measured. Every result is checked against
    /// `expected`, and so is the sum of all values.
    fn run(
        &mut self,
        mix: &RequestMix,
        expected: &[i64],
        warmup: u64,
        until: Instant,
        tr: &mut Tracer,
    ) -> ServeRun;
    /// Shuts the pool down and reports its queue and trace figures.
    fn finish(self: Box<Self>) -> PoolReport;
}

/// Spec of a grammar, by name.
pub fn spec(name: &str) -> Option<Box<dyn Spec>> {
    Some(match name {
        "json" => Box::new(Def(flap_grammars::json::def)),
        "sexp" => Box::new(Def(flap_grammars::sexp::def)),
        "csv" => Box::new(Def(flap_grammars::csv::def)),
        "pgn" => Box::new(Def(flap_grammars::pgn::def)),
        "arith" => Box::new(Def(flap_grammars::arith::def)),
        "ppm" => Box::new(Def(flap_grammars::ppm::def)),
        _ => return None,
    })
}

struct Def<V: 'static>(fn() -> GrammarDef<V>);

impl<V: Send + 'static> Def<V> {
    fn target(&self, parser: Arc<CompiledParser<V>>) -> Box<dyn Target> {
        Box::new(Grammar {
            def: (self.0)(),
            parser,
            session: ParseSession::new(),
        })
    }
}

impl<V: Send + 'static> Spec for Def<V> {
    fn name(&self) -> &'static str {
        (self.0)().name
    }

    fn generate(&self) -> Generate {
        (self.0)().generate
    }

    fn reference(&self, doc: &[u8]) -> Result<i64, String> {
        ((self.0)().reference)(doc)
    }

    fn compile(&self) -> Box<dyn Target> {
        let def = (self.0)();
        let parser =
            Parser::compile((def.lexer)(), &(def.cfe)()).expect("the benchmark grammars compile");
        self.target(parser.compiled_arc())
    }

    fn build_artifact(&self) -> (Vec<u8>, IrSizes) {
        let def = (self.0)();
        let parser =
            Parser::compile((def.lexer)(), &(def.cfe)()).expect("the benchmark grammars compile");
        let bytes = parser.to_artifact();
        let tables = parser.compiled().table_footprint();
        let sizes = IrSizes {
            prods: parser.sizes().prods as u64,
            fused_prods: parser.sizes().fused_prods as u64,
            states: tables.states as u64,
            table_bytes: tables.table_bytes as u64,
            artifact_bytes: bytes.len() as u64,
        };
        (bytes, sizes)
    }

    fn load_artifact(&self, bytes: &[u8]) -> Box<dyn Target> {
        let def = (self.0)();
        let parser = Parser::from_artifact(bytes, (def.lexer)(), &(def.cfe)())
            .expect("the artifact was saved from the same grammar");
        self.target(parser.compiled_arc())
    }

    fn compile_layers(
        &self,
        tr: &mut Tracer,
        op: u64,
        attached: bool,
    ) -> (Box<dyn Target>, IrSizes) {
        let def = (self.0)();
        let mut lexer = (def.lexer)();
        let cfe = (def.cfe)();
        let (_, checked) = tr.time("type_check", op, || flap::type_check(&cfe));
        checked.expect("the benchmark grammars are well-typed");
        let (_, dgnf) = tr.time("normalize", op, || {
            let g = flap::flap_dgnf::normalize(&cfe).expect("well-typed grammars normalize");
            g.check_dgnf().expect("normalization yields DGNF");
            g
        });
        let (_, fused) = tr.time("fuse", op, || {
            flap::flap_fuse::fuse(&mut lexer, &dgnf).expect("DGNF grammars fuse")
        });
        let (_, compiled) = tr.time("CompiledParser::compile", op, || {
            CompiledParser::compile(&mut lexer, &fused)
        });
        let (_, bytes) = tr.time("to_artifact", op, || compiled.to_artifact());
        let (_, loaded) = tr.time("artifact::attach", op, || {
            let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
            artifact::attach(&buf, &fused).expect("fresh artifacts attach")
        });
        let tables = compiled.table_footprint();
        let sizes = IrSizes {
            prods: dgnf.prod_count() as u64,
            fused_prods: fused.prod_count() as u64,
            states: tables.states as u64,
            table_bytes: tables.table_bytes as u64,
            artifact_bytes: bytes.len() as u64,
        };
        let parser = if attached { loaded } else { compiled };
        (self.target(Arc::new(parser)), sizes)
    }
}

struct Grammar<V: 'static> {
    def: GrammarDef<V>,
    parser: Arc<CompiledParser<V>>,
    session: ParseSession<V>,
}

impl<V: Send + 'static> Target for Grammar<V> {
    fn name(&self) -> &'static str {
        self.def.name
    }

    fn parse(
        &mut self,
        doc: &[u8],
        tr: &mut Tracer,
        op: u64,
    ) -> (Duration, Result<i64, ParseError>) {
        let (parser, session) = (&self.parser, &mut self.session);
        let (d, v) = tr.time("parse_with", op, || parser.parse_with(session, doc));
        (d, v.map(self.def.finish))
    }

    fn recognize(
        &self,
        doc: &[u8],
        tr: &mut Tracer,
        op: u64,
    ) -> (Duration, Result<(), ParseError>) {
        tr.time("recognize", op, || self.parser.recognize(doc))
    }

    fn profile(&mut self, doc: &[u8]) -> (u64, u64) {
        let mut prof = ParseProfiler::new();
        self.parser
            .parse_with_obs(&mut self.session, doc, &mut prof)
            .expect("profiled documents are valid");
        (prof.tokens(), prof.reduction_count() + prof.eps_reductions)
    }

    fn asp(&self) -> AspRun {
        let p = AspParser::build((self.def.lexer)(), &(self.def.cfe)())
            .expect("the asp baseline builds for every benchmark grammar");
        let finish = self.def.finish;
        Box::new(move |doc| {
            let t0 = Instant::now();
            let v = p.parse(doc);
            let d = t0.elapsed();
            (d, v.map(finish).map_err(|e| e.to_string()))
        })
    }

    fn edit_session(&self) -> Box<dyn EditSession> {
        Box::new(Edits {
            parser: Arc::clone(&self.parser),
            inc: IncrementalSession::new(),
        })
    }

    fn start_pool(&self, workers: usize, window: usize, trace: bool) -> Box<dyn Server> {
        let recorder = trace.then(|| Arc::new(TraceRecorder::new()));
        let mut config = PoolConfig::default()
            .workers(workers)
            .queue_capacity(window)
            .label(self.def.name);
        if let Some(r) = &recorder {
            config = config.trace(Arc::clone(r));
        }
        Box::new(Pool {
            pool: ParsePool::new(Arc::clone(&self.parser), config),
            recorder,
            window,
            cursor: 0,
            finish: self.def.finish,
        })
    }
}

struct Edits<V> {
    parser: Arc<CompiledParser<V>>,
    inc: IncrementalSession<V>,
}

impl<V> EditSession for Edits<V> {
    fn splice(&mut self, range: Range<usize>, bytes: &[u8], tr: &mut Tracer, op: u64) -> Duration {
        tr.time("splice", op, || self.inc.splice(range, bytes)).0
    }

    fn validate(&mut self, tr: &mut Tracer, op: u64) -> (Duration, Result<(), ParseError>) {
        let (parser, inc) = (&self.parser, &mut self.inc);
        tr.time("validate_incremental", op, || {
            parser.validate_incremental(inc)
        })
    }

    fn doc(&self) -> &[u8] {
        self.inc.doc()
    }

    fn stats(&self) -> ReuseStats {
        self.inc.stats()
    }
}

/// A finished request: its number, when it was sent, its result.
type Completion<V> = (usize, Instant, Result<V, JobError>);

struct Pool<V: 'static> {
    pool: ParsePool<V>,
    recorder: Option<Arc<TraceRecorder>>,
    window: usize,
    /// Number of the next request, over all runs.
    cursor: usize,
    finish: fn(V) -> i64,
}

impl<V: Send + 'static> Server for Pool<V> {
    fn run(
        &mut self,
        mix: &RequestMix,
        expected: &[i64],
        warmup: u64,
        until: Instant,
        tr: &mut Tracer,
    ) -> ServeRun {
        let (tx, rx) = mpsc::channel::<Completion<V>>();
        let mut out = ServeRun::default();
        let body_of = |k: usize| mix.order[k % mix.order.len()];
        // requests are numbered on from where the previous run stopped
        let send = |k: usize, out: &mut ServeRun| {
            let tx = tx.clone();
            let sent = Instant::now();
            let callback = Box::new(move |r: Result<V, JobError>| {
                // the receiver outlives every accepted job
                let _ = tx.send((k, sent, r));
            });
            let body = JobInput::Shared(Arc::clone(&mix.bodies[body_of(k)]));
            match self.pool.submit_with_callback(body, callback) {
                Ok(()) => true,
                Err(_) => {
                    out.tally.refused += 1;
                    false
                }
            }
        };
        let (mut next, mut outstanding, mut done) = (self.cursor, 0usize, 0u64);
        let mut measured_from: Option<(usize, Instant)> = None;
        let (mut sum, mut sum_expected) = (0i64, 0i64);
        while next < self.cursor + self.window {
            outstanding += usize::from(send(next, &mut out));
            next += 1;
        }
        while outstanding > 0 {
            let (k, sent, r) = rx.recv().expect("the pool completes every accepted job");
            let now = Instant::now();
            outstanding -= 1;
            done += 1;
            let want = expected[body_of(k)];
            match r.map(self.finish) {
                Ok(v) if v == want => {
                    out.tally.ok += 1;
                    sum = sum.wrapping_add(v);
                    sum_expected = sum_expected.wrapping_add(want);
                }
                _ => out.tally.failed += 1,
            }
            match measured_from {
                Some((first, _)) if k >= first => {
                    out.latency_us.push((now - sent).as_secs_f64() * 1e6);
                    out.completed += u64::from(now <= until);
                    tr.record("submit_wait", k as u64, sent, now);
                }
                Some(_) => {}
                None if done >= warmup => measured_from = Some((next, now)),
                None => {}
            }
            if now < until || measured_from.is_none() {
                outstanding += usize::from(send(next, &mut out));
                next += 1;
            }
        }
        self.cursor = next;
        if sum != sum_expected {
            out.tally.failed += 1;
        }
        // the rate counts only the full pipeline, not the final drain
        out.elapsed = measured_from.map_or(Duration::ZERO, |(_, t0)| {
            until.saturating_duration_since(t0)
        });
        out
    }

    fn finish(self: Box<Self>) -> PoolReport {
        let high_water = self.pool.metrics().snapshot().queue_high_water;
        self.pool.shutdown();
        let mut report = PoolReport {
            high_water,
            ..PoolReport::default()
        };
        if let Some(r) = &self.recorder {
            let mut json = Vec::new();
            r.write_chrome_json(&mut json)
                .expect("writing to memory cannot fail");
            let json = String::from_utf8(json).expect("trace JSON is UTF-8");
            for (name, dur) in chrome_spans(&json) {
                match name {
                    "queue-wait" => report.queue_wait_us.push(dur),
                    "parse" => report.exec_us.push(dur),
                    _ => {}
                }
            }
        }
        report
    }
}

/// `(name, dur)` of every complete event in Chrome trace JSON as the
/// pool's recorder writes it (metadata events carry no `dur`).
fn chrome_spans(json: &str) -> Vec<(&str, f64)> {
    json.split("{\"name\":\"")
        .skip(1)
        .filter_map(|ev| {
            let name = &ev[..ev.find('"')?];
            let rest = &ev[ev.find("\"dur\":")? + 6..];
            let end = rest.find(|c: char| !c.is_ascii_digit() && c != '.')?;
            Some((name, rest[..end].parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_spans_reads_complete_events_only() {
        let json = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker-0"}},{"name":"queue-wait","cat":"serve","ph":"X","pid":1,"tid":0,"ts":5,"dur":12,"args":{"bytes":0}},{"name":"parse","cat":"serve","ph":"X","pid":1,"tid":0,"ts":17,"dur":40,"args":{"bytes":900}}]}"#;
        assert_eq!(
            chrome_spans(json),
            vec![("queue-wait", 12.0), ("parse", 40.0)]
        );
    }
}
