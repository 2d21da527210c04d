//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one pinned workload (or, with `all`, each in its own process),
//! checks its outputs, and prints human-readable lines followed by one
//! JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run also writes its
//! spans as Chrome trace-event JSON (`--trace-out`, default
//! `perfbench/out/<workload>.trace.json`).

mod des;
mod replay;
mod serve;
mod trace;
mod train;
mod util;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use trace::Tracer;
use util::{peak_rss_mb, Outcome, Sheet};

/// The pinned workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] =
    ["mesh-spatial", "resnet-hybrid", "des-resnet50-2048", "serve-mesh-open"];

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload never exercises reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("kernels.conv_fwd_ms", "ms"),
    ("kernels.conv_bwd_data_ms", "ms"),
    ("kernels.conv_bwd_filter_ms", "ms"),
    ("kernels.conv_fwd_gflops", "GFLOP/s"),
    ("kernels.conv_bwd_data_gflops", "GFLOP/s"),
    ("kernels.conv_bwd_filter_gflops", "GFLOP/s"),
    ("kernels.conv_flops", "FLOP"),
    ("tensor.halo_fwd_ms", "ms"),
    ("tensor.halo_bwd_ms", "ms"),
    ("tensor.halo_bytes", "bytes"),
    ("tensor.halo_msgs", "count"),
    ("tensor.shuffle_ms", "ms"),
    ("tensor.shuffle_bytes", "bytes"),
    ("comm.allreduce_ms", "ms"),
    ("comm.allreduce_bytes", "bytes"),
    ("comm.allreduce_calls", "count"),
    ("comm.wait_frac", "ratio"),
    ("comm.sim_verify_s", "s"),
    ("comm.sim_events_per_s", "1/s"),
    ("comm.sim_messages", "count"),
    ("comm.sim_compute_frac", "ratio"),
    ("comm.sim_p2p_wait_frac", "ratio"),
    ("comm.sim_allreduce_frac", "ratio"),
    ("core.fwd_ms", "ms"),
    ("core.bwd_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.coverage", "ratio"),
    ("core.compile_ms", "ms"),
    ("core.static_peak_mb", "MB"),
    ("nn.sgd_ms", "ms"),
    // Modeled by the closed form, not measured.
    ("perf.model_step_s", "model_s"),
    ("perf.des_over_model", "ratio"),
    ("serve.infer_ms_b1", "ms"),
    ("serve.infer_ms_bmax", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.dispatch_retries", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, trace_out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // The discrete-event engine sizes its worker pool from the
    // environment; keep it within the two cores the workloads target.
    if std::env::var_os("FG_SIM_WORKERS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("FG_SIM_WORKERS", cores.min(2).to_string());
    }

    let tracer = Tracer::new(args.trace);
    let mut sheet = Sheet::default();
    let outcome = match args.workload.as_str() {
        "mesh-spatial" => train::run(train::mesh_spatial(args.seed), &args, &tracer, &mut sheet),
        "resnet-hybrid" => train::run(train::resnet_hybrid(args.seed), &args, &tracer, &mut sheet),
        "des-resnet50-2048" => des::run(&args, &tracer, &mut sheet),
        "serve-mesh-open" => serve::run(&args, &tracer, &mut sheet),
        _ => unreachable!("validated in parse_args"),
    };
    if !sheet.values.contains_key("peak_rss_mb") {
        sheet.set("peak_rss_mb", peak_rss_mb());
    }

    if args.trace {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/{}.trace.json", args.workload))
        });
        if let Err(e) = tracer.write_chrome(&path, &args.workload) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        sheet.note(format!("{} spans written to {}", tracer.len(), path.display()));
    }
    report(&args, &sheet, outcome)
}

/// Print the notes, every metric by name and unit, and the result line.
/// Exits non-zero when any output was wrong (a metric that is not a
/// finite number counts as one).
fn report(args: &Args, sheet: &Sheet, mut outcome: Outcome) -> ExitCode {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "== {} (seed {}, {} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &sheet.notes {
        println!("   {n}");
    }
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let mut value = sheet.values.get(name).copied().unwrap_or(0.0);
        let shown = if sheet.values.contains_key(name) { "" } else { "  (not exercised)" };
        println!("   {name} = {value} {unit}{shown}");
        outcome.check(value.is_finite());
        if !value.is_finite() {
            eprintln!("MISMATCH {name} is not a finite number");
            value = 0.0;
        }
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "   error_rate = {error_rate} ({} of {} checks failed)",
        outcome.failed, outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: output check failed", args.workload);
        ExitCode::FAILURE
    }
}

/// Run every workload, each in its own process (so `peak_rss_mb` is the
/// workload's own), forwarding their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
