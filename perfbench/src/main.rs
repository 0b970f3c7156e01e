//! flap-perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <docs-lexical|docs-actions|serve|edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output against the grammars'
//! independent oracles, and prints one metric per line followed by a
//! last line of JSON: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

// `flap::ParseError` is large by design (its expected-token set is
// inline so error paths stay allocation-free), as in the crates.
#![allow(clippy::result_large_err)]

mod calib;
mod grammars;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use layers::{ledger, overhead, per_layer, Counts};
use stats::Tally;
use trace::Tracer;
use workload::{phase_metrics, pool_workers, run_phases, setup, Inputs, Metric, Workload};

/// Stack for the client thread: the oracles and the generated
/// recognizers recurse once per nesting level or list element.
const CLIENT_STACK: usize = 512 << 20;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = workload::WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Outcome of one run.
struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    /// Failures that are not single operations, e.g. counts that differ
    /// between two computations from the same seed.
    broken: Vec<String>,
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let inputs = Inputs::new(w, args.seed);
    let mut tr = Tracer::new(false);
    let mut s = setup(w, &inputs, &mut tr, false, 1);
    let mut setups = vec![s.seconds];
    let mut tally = s.tally;
    let mut more_setups = |tr: &mut Tracer| {
        let again = setup(w, &inputs, tr, false, 1);
        setups.push(again.seconds);
        tally.add(again.tally);
    };
    let out = run_phases(
        w,
        &inputs,
        &mut s.targets,
        Duration::from_secs(args.seconds),
        &mut tr,
        &mut more_setups,
    );
    let mut metrics = vec![Metric::new(
        "setup_s",
        stats::median(&setups),
        "s",
        format!("median of {} set-ups across the run", setups.len()),
    )];
    metrics.extend(phase_metrics(&out));
    metrics.push(Metric::new(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "VmHWM".into(),
    ));
    let host_mbps = stats::median(&out.host_mbps);
    println!(
        "# calibration kernel {host_mbps:.1} MB/s (median of {} samples), reference {} MB/s",
        out.host_mbps.len(),
        calib::REFERENCE_MBPS
    );
    calib::normalize(&mut metrics, host_mbps);
    tally.add(out.tally);
    Report {
        metrics,
        tally,
        broken: Vec::new(),
    }
}

/// Where runs keep files between runs: the build directory.
fn state_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-runs")
}

/// FNV-1a of this executable, so counts kept from an earlier run are
/// only compared against the same build.
fn build_id() -> u64 {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    exe.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn traced(args: &Args) -> Report {
    let w = args.workload;
    let inputs = Inputs::new(w, args.seed);
    let mut tr = Tracer::new(true);
    let mut s = setup(w, &inputs, &mut tr, true, workload::SETUP_REPS);
    let mut tally = s.tally;
    // untraced, traced, traced, untraced: drift and warm-up over the
    // run fall equally on both sides of the overhead comparison
    let quarter = Duration::from_secs(args.seconds) / 4;
    let mut pass = |on: bool| {
        tr.set_on(on);
        run_phases(w, &inputs, &mut s.targets, quarter, &mut tr, &mut |_| {})
    };
    let mut plain = pass(false);
    let mut traced = pass(true);
    traced.absorb(pass(true));
    plain.absorb(pass(false));
    tr.set_on(true);
    let overhead = overhead(&phase_metrics(&plain), &phase_metrics(&traced));
    tally.add(plain.tally);
    tally.add(traced.tally);
    let rows = ledger(args.seed, &mut tr, &mut tally);

    let mut broken = Vec::new();
    let counts = Counts::measure(w, args.seed);
    if Counts::measure(w, args.seed) != counts {
        broken.push("exact counts differ between two computations from one seed".into());
    }
    if s.sizes != counts.sizes {
        broken.push(format!(
            "layered set-up sizes {:?} differ from Parser::compile's {:?}",
            s.sizes, counts.sizes
        ));
    }
    let dir = state_dir();
    let path = dir.join(format!(
        "counts-{}-{}-{:016x}.txt",
        w.name,
        args.seed,
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != counts.render() => broken.push(format!(
            "exact counts differ from an earlier run with the same seed ({})",
            path.display()
        )),
        Ok(_) => println!("# exact counts equal those of an earlier run with this seed"),
        Err(_) => {
            let saved =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, counts.render()));
            if let Err(e) = saved {
                eprintln!("note: could not keep counts for later runs: {e}");
            }
        }
    }
    let trace_path = dir.join(format!("trace-{}-{}.json", w.name, args.seed));
    match std::fs::write(&trace_path, tr.write_chrome_json()) {
        Ok(()) => println!("# {} spans written to {}", tr.len(), trace_path.display()),
        Err(e) => eprintln!("note: could not write the trace: {e}"),
    }

    let metrics = per_layer(w, &counts, &tr, &traced.pool, &rows, overhead);
    Report {
        metrics,
        tally,
        broken,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: flap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} pool workers {} (available parallelism {})",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool_workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = std::thread::Builder::new()
        .name("client".into())
        .stack_size(CLIENT_STACK)
        .spawn(move || {
            if args.trace {
                traced(&args)
            } else {
                untraced(&args)
            }
        })
        .expect("spawn the client thread")
        .join();
    let Ok(report) = report else {
        eprintln!("error: the run panicked");
        return ExitCode::FAILURE;
    };
    let t = report.tally;
    println!(
        "# failed_share {} ({} failed, {} refused, {} attempted)",
        t.failed_share(),
        t.failed,
        t.refused,
        t.attempted()
    );
    for b in &report.broken {
        eprintln!("BROKEN: {b}");
    }
    let mut fields = Vec::new();
    let mut finite = true;
    for m in &report.metrics {
        println!("{:<40} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        finite &= m.value.is_finite();
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    let correct = t.failures() == 0 && report.broken.is_empty() && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted(),
        t.failures(),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
