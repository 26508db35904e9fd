//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cofs-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! Runs one warm-up iteration, then repeats set-up and measurement until
//! `--seconds` of host time have passed (at least [`MIN_ITERATIONS`]
//! times), checks that every iteration passed its audit and reproduced
//! the warm-up's virtual time, and prints the metrics as text followed
//! by a one-line JSON result. With
//! `--trace 1` every iteration also runs traced, the per-layer metrics
//! are reported, and the last traced iteration's spans are written to
//! `--trace-out` as CSV. Exits 1 without a result line on any failure.

use cofs_perfbench::clock::HostClock;
use cofs_perfbench::measure::{self, Iteration, LABELS};
use cofs_perfbench::probe::Trace;
use cofs_perfbench::workload::{Testbed, Workload};
use cofs_perfbench::{
    end_to_end, host_speed, median_setup_s, per_layer, result_json, slice_ops_per_s, Metric,
};
use pfs::fs::PfsFs;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use vfs::memfs::MemFs;

/// Fewest iterations a run makes, so host-time medians have several
/// samples however long one iteration takes.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// The iterations of one run.
struct Run {
    /// The first iteration: audited and determinism-checked like the
    /// rest, but left out of the host-time metrics because it pays the
    /// process's cold start.
    warmup: Iteration,
    metered: Vec<Iteration>,
    /// With tracing on, a traced iteration after each metered one.
    traced: Vec<Iteration>,
}

fn iterate<U: Testbed>(args: &Args) -> Result<Run, String> {
    let clock = HostClock::start();
    let (w, seed) = (args.workload, args.seed);
    let warmup = measure::metered::<U>(w, seed, clock)?;
    let deadline = clock.ns() + args.seconds.saturating_mul(1_000_000_000);
    let mut run = Run {
        warmup,
        metered: Vec::new(),
        traced: Vec::new(),
    };
    while run.metered.len() < MIN_ITERATIONS || clock.ns() < deadline {
        let it = measure::metered::<U>(w, seed, clock)?;
        let probed = if args.trace {
            Some(measure::traced::<U>(w, seed, clock)?)
        } else {
            None
        };
        for r in std::iter::once(&it).chain(&probed) {
            if !r.virt.same_as(&run.warmup.virt) {
                return Err(format!(
                    "{}: virtual time differs between iterations of one seed",
                    w.name()
                ));
            }
        }
        if let Some(t) = probed {
            if let Some(orphans) = t.traces.iter().map(Trace::orphans).find(|&n| n > 0) {
                return Err(format!("{}: {orphans} spans outside their layer", w.name()));
            }
            run.traced.push(t);
        }
        run.metered.push(it);
    }
    Ok(run)
}

fn report(args: &Args) -> Result<(), String> {
    let run = match args.workload {
        Workload::MetaratesGpfs => iterate::<PfsFs>(args)?,
        _ => iterate::<MemFs>(args)?,
    };
    let metrics: Vec<Metric> = if args.trace {
        if let (Some(path), Some(last)) = (&args.trace_out, run.traced.last()) {
            let mut out = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
            for t in &last.traces {
                t.write_csv(&mut out).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        per_layer(&run.metered, &run.traced)
    } else {
        end_to_end(&run.metered)
    };
    let virt = &run.warmup.virt;
    println!(
        "workload {} seed {}: {} measured iterations after a warm-up",
        args.workload.name(),
        args.seed,
        run.metered.len(),
    );
    for label in LABELS {
        println!(
            "{label}: {} samples, p50 {:.6} ms, p99 {:.6} ms",
            virt.samples(label),
            virt.quantile_ms(label, 0.5),
            virt.quantile_ms(label, 0.99)
        );
    }
    println!(
        "host speed {:.4} of reference: unscaled sim_ops_per_s {:.1}, setup_s {:.6}",
        host_speed(&run.metered),
        slice_ops_per_s(&run.metered),
        median_setup_s(&run.metered)
    );
    for (name, value, unit) in &metrics {
        println!("{name:32} {value:>16.6} {unit}");
    }
    let all = || {
        std::iter::once(&run.warmup)
            .chain(&run.metered)
            .chain(&run.traced)
    };
    let attempted = all().map(|i| i.steps).sum();
    let failed = all().map(|i| i.failed).sum();
    println!("{}", result_json(attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| report(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cofs-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
