//! `des-resnet50-2048`: the Table III column (ResNet-50, N = 32768,
//! 2 GPUs/sample, 2048 ranks) executed as a discrete-event run.
//!
//! Set-up is the production pipeline `DistExecutor::new` →
//! `record_traces` (with `ModeledCompute`) → `check_traces`; the timed
//! part is `simulate_traces`. No live kernel runs here.

use std::time::Instant;

use fg_comm::{check_traces, simulate_traces, RankTrace, SimReport};
use fg_core::{analyze_strategy, sample_ranks, DistExecutor, Strategy};
use fg_models::resnet50;
use fg_nn::NetworkSpec;
use fg_perf::{network_cost, platform_link_model, CostOptions, ModeledCompute, Platform};
use fg_tensor::ProcGrid;

use crate::trace::Tracer;
use crate::util::{median, tail, Outcome, Sheet};
use crate::Args;

/// Global mini-batch of the Table III column.
const BATCH: usize = 32768;
/// Samples per group in the paper's ResNet-50 runs.
const SAMPLES_PER_GROUP: usize = 32;
/// Full set-up pipelines per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Simulations per run, at least (more if `--seconds` allows).
const MIN_SIMS: usize = 2;

fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// File the discrete-event and cost-model metrics: `verify_s` is the
/// `check_traces` time, `reports` the simulations of one trace set,
/// `model_s` the closed-form step time of the same configuration.
pub fn file_sim(sheet: &mut Sheet, verify_s: f64, reports: &[SimReport], model_s: f64) {
    let first = &reports[0];
    let clocks = sum(&first.clocks);
    let walls: Vec<f64> = reports.iter().map(|r| r.wall.as_secs_f64()).collect();
    let events: f64 = reports.iter().map(|r| r.ops_executed as f64).sum();
    sheet.set("comm.sim_verify_s", verify_s);
    sheet.set("comm.sim_events_per_s", events / sum(&walls));
    sheet.set("comm.sim_messages", first.messages as f64);
    sheet.set("comm.sim_compute_frac", sum(&first.compute) / clocks);
    sheet.set("comm.sim_p2p_wait_frac", sum(&first.p2p_wait) / clocks);
    sheet.set("comm.sim_allreduce_frac", sum(&first.allreduce) / clocks);
    // Modeled, not measured: the closed form of the platform model.
    sheet.set("perf.model_step_s", model_s);
    sheet.set("perf.des_over_model", first.makespan() / model_s);
}

/// The closed-form step time of a configuration with overlap off — the
/// analytic twin of the recorded (serialized) schedule.
pub fn model_step(
    platform: &Platform,
    spec: &NetworkSpec,
    batch: usize,
    strategy: &Strategy,
) -> f64 {
    let opts = CostOptions { overlap_halo: false, overlap_allreduce: false };
    network_cost(platform, spec, batch, strategy, &opts).total()
}

/// Record, check and simulate a live workload's own schedule under the
/// platform model, so its DES and model columns line up with the live
/// per-layer numbers.
pub fn simulate_live(exec: &DistExecutor, batch: usize, sheet: &mut Sheet, outcome: &mut Outcome) {
    let platform = Platform::lassen_like();
    let oracle = ModeledCompute::new(&platform, &exec.spec, &exec.strategy, batch);
    let traces = exec.record_traces(Some(&oracle));
    let names: Vec<String> = exec.spec.layers().iter().map(|l| l.name.clone()).collect();
    let start = Instant::now();
    let (_, violations) = check_traces(&traces, &names);
    let verify_s = start.elapsed().as_secs_f64();
    outcome.check(violations.is_empty());
    match simulate_traces(&traces, &platform_link_model(&platform)) {
        Ok(report) => {
            let model = model_step(&platform, &exec.spec, batch, &exec.strategy);
            file_sim(sheet, verify_s, &[report], model);
        }
        Err(e) => {
            eprintln!("MISMATCH simulate_traces: {e}");
            outcome.check(false);
        }
    }
}

pub fn run(args: &Args, tracer: &Tracer, sheet: &mut Sheet) -> Outcome {
    let platform = Platform::lassen_like();
    let spec = resnet50();
    // hybrid_grid(1024, 2): 1024 sample groups, each sample split 2×1.
    let grid = ProcGrid::hybrid(BATCH / SAMPLES_PER_GROUP, 2, 1);
    let strategy = Strategy::uniform(&spec, grid);
    let names: Vec<String> = spec.layers().iter().map(|l| l.name.clone()).collect();
    let mut outcome = Outcome::default();

    let mut setup = Vec::new();
    let mut compile = Vec::new();
    let mut verify = Vec::new();
    let mut traces: Vec<RankTrace> = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (exec, t_new) = tracer.span(0, rep, "executor", "new", || {
            DistExecutor::new(spec.clone(), strategy.clone(), BATCH).expect("Table III compiles")
        });
        let oracle = ModeledCompute::new(&platform, &spec, &strategy, BATCH);
        (traces, _) =
            tracer.span(0, rep, "executor", "record", || exec.record_traces(Some(&oracle)));
        let ((_, violations), t_check) =
            tracer.span(0, rep, "sim", "check", || check_traces(&traces, &names));
        setup.push(start.elapsed().as_secs_f64());
        tracer.record(0, rep, "setup", "step", start);
        compile.push(t_new);
        verify.push(t_check);
        if !violations.is_empty() {
            eprintln!(
                "MISMATCH check_traces: {} violation(s), first: {}",
                violations.len(),
                violations[0]
            );
        }
        outcome.check(violations.is_empty());
    }
    sheet.set("setup_s", median(&setup));

    let link = platform_link_model(&platform);
    let mut reports: Vec<SimReport> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let start = Instant::now();
    while reports.len() < MIN_SIMS || start.elapsed().as_secs_f64() < args.seconds {
        let k = reports.len();
        // Traced runs alternate traced and untraced simulations to
        // measure the recorder's overhead.
        let traced = tracer.enabled() && k.is_multiple_of(2);
        let t0 = Instant::now();
        let report = simulate_traces(&traces, &link);
        if traced {
            tracer.record(0, SETUP_REPS + k, "sim", "simulate", t0);
            tracer.record(0, SETUP_REPS + k, "sim", "step", t0);
        }
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("MISMATCH simulate_traces: {e}");
                outcome.check(false);
                return outcome;
            }
        };
        if traced { &mut traced_walls } else { &mut plain_walls }.push(report.wall.as_secs_f64());
        if let Some(first) = reports.first() {
            let same = first.deterministic_view() == report.deterministic_view();
            if !same {
                eprintln!("MISMATCH simulation {k}: deterministic view differs from the first run");
            }
            outcome.check(same);
        }
        reports.push(report);
    }

    let walls: Vec<f64> = reports.iter().map(|r| r.wall.as_secs_f64()).collect();
    let events: f64 = reports.iter().map(|r| r.ops_executed as f64).sum();
    let first = &reports[0];
    let makespan = first.makespan();
    let model = model_step(&platform, &spec, BATCH, &strategy);
    sheet.note(format!("des_makespan_s = {makespan:.9} s (virtual, {} ranks)", grid.size()));
    sheet.note(format!(
        "des_wall_s = {:.4} s (median of {} simulations)",
        median(&walls),
        walls.len()
    ));

    if tracer.enabled() {
        file_sim(sheet, median(&verify), &reports, model);
        sheet.set("core.compile_ms", median(&compile) * 1e3);
        let mem = analyze_strategy(&spec, &strategy, BATCH, &sample_ranks(grid.size()))
            .expect("Table III strategy validates");
        sheet.set("core.static_peak_mb", mem.max_peak() as f64 / (1024.0 * 1024.0));
        let overhead = match (traced_walls.is_empty(), plain_walls.is_empty()) {
            (false, false) => 1.0 - median(&plain_walls) / median(&traced_walls),
            _ => 0.0,
        };
        sheet.set("trace.overhead_frac", overhead);
    } else {
        let (pct, tail_s) = tail(&walls);
        sheet.set("p50_ms", median(&walls) * 1e3);
        sheet.set("tail_ms", tail_s * 1e3);
        sheet.set("throughput_per_s", events / sum(&walls));
        sheet.note(format!("simulate_traces wall tail = {tail_s:.4} s (p{pct})"));
    }
    outcome
}
