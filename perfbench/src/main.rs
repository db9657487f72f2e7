//! The repository benchmark: builds the release `pfe` binary, runs one
//! workload against it as a separate process, checks every answer, and
//! prints the metrics.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload file_ingest|query_hot|explore_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is the
//! separate traced run: it runs the workload untraced and traced (a third
//! of `--seconds` each; the difference is the tracing overhead), then
//! times each layer's public functions in-process on the same inputs and
//! prints a ledger per workload. Its spans are written as Chrome
//! trace-event JSON under `perfbench/.work/`. A completed run ends its
//! standard output with one JSON result object; a run that cannot finish
//! (or whose load generator fell behind) exits 2 without one.

mod client;
mod gen;
mod layers;
mod proc;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::Path;
use std::time::Instant;

use proc::Pfe;
use trace::Tracer;
use workloads::{Ctx, Metric, Run};

const USAGE: &str =
    "usage: perfbench --workload file_ingest|query_hot|explore_mixed --seed N --seconds S --trace 0|1";
/// Repetitions of the whole workload in one run (see `workloads`).
const ROUNDS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag}: not a number\n{USAGE}"))
    };
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: num("--seed")? as u64,
        seconds: num("--seconds")?.max(1.0),
        trace: num("--trace")? != 0.0,
    })
}

type Workload = fn(&Ctx, &mut Tracer) -> Result<Run, String>;

fn workload(name: &str) -> Result<Workload, String> {
    match name {
        "file_ingest" => Ok(workloads::file_ingest),
        "query_hot" => Ok(workloads::query_hot),
        "explore_mixed" => Ok(workloads::explore_mixed),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!(
                "metric {} is not a finite number ({})",
                m.name, m.value
            ));
        }
        parts.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

fn print_run(label: &str, run: &Run) {
    for (k, v) in &run.props {
        println!("workload {k}: {v}");
    }
    for note in &run.notes {
        println!("{note}");
    }
    for m in &run.e2e {
        println!("{label} {:<18} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{label} {:<18} {:>14.6} ratio",
        "error_rate",
        run.tally.error_rate()
    );
    println!(
        "{label} engine.cache.hit_ratio {:.4}, server.rejected_ratio {:.4}",
        run.hit_ratio, run.rejected_ratio
    );
    if let Some(err) = &run.tally.first_error {
        println!("{label} first error: {err}");
    }
}

fn get(v: &[Metric], name: &str) -> f64 {
    v.iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or(f64::NAN)
}

/// The traced run: untraced and traced passes, then the layer suite.
fn traced(
    ctx: &Ctx,
    wl: Workload,
    name: &str,
    seed: u64,
) -> Result<(Vec<Run>, Vec<Metric>), String> {
    let plain = wl(ctx, &mut Tracer::new(false, Instant::now(), 1))?;
    print_run("untraced", &plain);
    let mut tracer = Tracer::new(true, Instant::now(), 1);
    let run = tracer.scope(&format!("workload:{name}"), |t| wl(ctx, t))?;
    print_run("traced", &run);
    println!(
        "trace overhead = traced - untraced, one run each (read against the run-to-run spread):"
    );
    for m in &plain.e2e {
        let t = get(&run.e2e, m.name);
        println!(
            "trace overhead {:<18} {:>+12.4} {} ({:+.1}%)",
            m.name,
            t - m.value,
            m.unit,
            100.0 * (t - m.value) / m.value
        );
    }
    let cached = run.hit_ratio > 0.5;
    let suite = tracer.scope("layers", |t| layers::suite(&run.inputs, cached, seed, t))?;
    let mut per_layer = vec![
        Metric {
            name: "engine.cache.hit_ratio",
            value: run.hit_ratio,
            unit: "ratio",
        },
        Metric {
            name: "server.rejected_ratio",
            value: run.rejected_ratio,
            unit: "ratio",
        },
        Metric {
            name: "server.handoff_us",
            value: get(&plain.e2e, "query_p50_us")
                - get(&suite.metrics, "server.proto.dispatch_us")
                - get(&suite.metrics, "net.loopback_echo_us"),
            unit: "us",
        },
    ];
    for line in layers::ledgers(name, &plain.e2e, &suite, cached, &run.inputs) {
        println!("{line}");
    }
    per_layer.splice(0..0, suite.metrics);
    for m in &per_layer {
        println!("layer {:<38} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("span self-times (benchmark spans, ms total / count):");
    for (span, ms, n) in tracer.self_times_ms().iter().take(12) {
        println!("  {span:<36} {ms:>12.3} ms  x{n}");
    }
    let path = ctx.pfe.work.join(format!("trace-{name}-{seed}.json"));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| e.to_string())?;
    println!(
        "chrome trace: {} ({} spans, {} dropped)",
        path.display(),
        tracer.spans.len(),
        tracer.dropped
    );
    Ok((vec![plain, run], per_layer))
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let wl = workload(&args.workload)?;
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let bin = proc::build_pfe(root)?;
    let work = bench_dir
        .join(".work")
        .join(format!("{}-{}", args.workload, args.seed));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut ctx = Ctx {
        pfe: Pfe { bin, work },
        seed: args.seed,
        seconds: args.seconds,
        rounds: ROUNDS,
    };

    let outcome = measure(&mut ctx, wl, &args);
    // Keep only the Chrome trace; the inputs and checkpoints are megabytes.
    for entry in std::fs::read_dir(&ctx.pfe.work)
        .into_iter()
        .flatten()
        .flatten()
    {
        if !entry.file_name().to_string_lossy().starts_with("trace-") {
            std::fs::remove_file(entry.path()).ok();
        }
    }
    std::fs::remove_dir(&ctx.pfe.work).ok();
    outcome
}

fn measure(ctx: &mut Ctx, wl: Workload, args: &Args) -> Result<i32, String> {
    let (runs, metrics) = if args.trace {
        ctx.seconds = args.seconds / 3.0;
        ctx.rounds = 1;
        traced(ctx, wl, &args.workload, args.seed)?
    } else {
        let mut run = wl(ctx, &mut Tracer::new(false, Instant::now(), 1))?;
        print_run("metric", &run);
        let e2e = std::mem::take(&mut run.e2e);
        (vec![run], e2e)
    };
    if let Some(Err(why)) = runs.iter().map(|r| &r.valid).find(|v| v.is_err()) {
        return Err(format!("run invalid: {why}"));
    }
    let attempted: u64 = runs.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.tally.failed + r.tally.wrong).sum();
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&metrics)?
    );
    Ok(if correct { 0 } else { 1 })
}
