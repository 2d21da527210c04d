//! Live training workloads: `mesh-spatial` and `resnet-hybrid`.
//!
//! End-to-end numbers come from `DistExecutor::new` (set-up) and
//! `DistExecutor::train_step` on the thread-per-rank runtime
//! (`run_ranks`). The traced run splits the same step into the public
//! `forward`, `backward` and `Sgd::step` calls that `train_step` runs,
//! reads the runtime's `TrafficStats` and `busy_nanos` counters, and
//! replays every layer's geometry (see `replay.rs`).
//!
//! Every step's loss is checked against the serial `fg_nn::Network`
//! trajectory from the same initial parameters and batches.

use std::sync::Mutex;
use std::time::Instant;

use fg_comm::{run_ranks, Communicator, OpClass, TrafficStats, WorldComm};
use fg_core::{DistExecutor, Strategy};
use fg_data::{ImageDataset, MeshDataset};
use fg_kernels::loss::Labels;
use fg_models::{mesh_model_custom, resnet50_with, MeshSize, MESH_CHANNELS};
use fg_nn::{init_params, LayerParams, Network, NetworkSpec, Sgd};
use fg_tensor::{ProcGrid, Tensor};

use crate::replay::{allreduce_sizes, replay_pass, Geometry, PhaseTimes};
use crate::trace::Tracer;
use crate::util::{median, rel_diff, tail, Outcome, Sheet};
use crate::Args;

/// Set-ups timed per run: at least `MIN_SETUPS`, then more while
/// `SETUP_BUDGET_S` lasts (a cheap set-up is repeated more, so its median
/// is as steady as an expensive one's); `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;
/// Replay passes per traced run; per-layer times are their median.
const REPLAY_PASSES: usize = 3;
/// SGD hyper-parameters shared by the live worlds and the reference.
const LR: f32 = 0.02;
const MOMENTUM: f32 = 0.9;
const WEIGHT_DECAY: f32 = 1e-4;

enum Data {
    Mesh(MeshDataset),
    Image(ImageDataset),
}

impl Data {
    fn batch(&self, step: usize, batch: usize) -> (Tensor, Labels) {
        match self {
            Data::Mesh(d) => d.batch(step * batch, batch),
            Data::Image(d) => d.batch(step * batch, batch),
        }
    }
}

/// A pinned training configuration.
pub struct TrainConfig {
    spec: NetworkSpec,
    strategy: Strategy,
    batch: usize,
    /// Also run the task on one rank (the single-worker baseline).
    baseline: bool,
    data: Data,
    init_seed: u64,
}

/// `mesh_model_custom(OneK, 128, 8)`, batch 2, `spatial(2,1)` with halo
/// overlap, plus the 1-rank baseline.
pub fn mesh_spatial(seed: u64) -> TrainConfig {
    let spec = mesh_model_custom(MeshSize::OneK, 128, 8);
    let strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 1)).with_overlap(true);
    TrainConfig {
        spec,
        strategy,
        batch: 2,
        baseline: true,
        data: Data::Mesh(MeshDataset::new(128, 2, MESH_CHANNELS, seed)),
        init_seed: seed ^ 0x4D45_5348,
    }
}

/// `resnet50_with(16, 10)`, batch 2: `spatial(2,1)` through res2c,
/// `sample(2)` from res3a on.
pub fn resnet_hybrid(seed: u64) -> TrainConfig {
    let spec = resnet50_with(16, 10);
    let switch = spec
        .layers()
        .iter()
        .position(|l| l.name.starts_with("res3a"))
        .expect("ResNet-50 has a res3a block");
    let mut strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 1));
    for g in strategy.grids.iter_mut().skip(switch) {
        *g = ProcGrid::sample(2);
    }
    TrainConfig {
        spec,
        strategy,
        batch: 2,
        baseline: false,
        data: Data::Image(ImageDataset::new(16, 3, 10, seed)),
        init_seed: seed ^ 0x5245_534E,
    }
}

struct RankState {
    params: Vec<LayerParams>,
    opt: Sgd,
}

/// One live world: an executor plus each rank's replicated state.
struct World {
    exec: DistExecutor,
    states: Vec<Mutex<RankState>>,
}

/// What one rank saw during one step.
#[derive(Debug, Clone, Default)]
struct RankStep {
    secs: f64,
    loss: f64,
    busy_secs: f64,
    fwd: f64,
    bwd: f64,
    sgd: f64,
    traffic: TrafficStats,
}

impl World {
    fn new(exec: DistExecutor, init: &[LayerParams]) -> World {
        let states = (0..exec.strategy.world_size())
            .map(|_| {
                let params = init.to_vec();
                let opt = Sgd::new(LR, MOMENTUM, WEIGHT_DECAY, &params);
                Mutex::new(RankState { params, opt })
            })
            .collect();
        World { exec, states }
    }

    fn size(&self) -> usize {
        self.states.len()
    }

    /// One training step on every rank. Untraced steps call
    /// `train_step`; traced steps call its parts one by one.
    fn step(&self, x: &Tensor, labels: &Labels, tracer: Option<(&Tracer, usize)>) -> Vec<RankStep> {
        run_ranks(self.size(), |comm: &WorldComm| {
            let rank = comm.rank();
            let mut st = self.states[rank].lock().unwrap();
            let RankState { params, opt } = &mut *st;
            let before = comm.stats();
            let busy0 = comm.busy_nanos();
            let start = Instant::now();
            let mut out = RankStep::default();
            match tracer {
                None => out.loss = self.exec.train_step(comm, params, opt, x, labels),
                Some((tr, step)) => {
                    let (pass, fwd) = tr.span(rank, step, "network", "fwd", || {
                        self.exec.forward(comm, params, x, Some(labels))
                    });
                    let (grads, bwd) = tr.span(rank, step, "network", "bwd", || {
                        self.exec.backward(comm, params, &pass)
                    });
                    let (_, sgd) = tr.span(rank, step, "sgd", "sgd", || opt.step(params, &grads));
                    out.loss = pass.loss.expect("network ends in a loss layer");
                    (out.fwd, out.bwd, out.sgd) = (fwd, bwd, sgd);
                    tr.record(rank, step, "network", "step", start);
                }
            }
            out.secs = start.elapsed().as_secs_f64();
            out.busy_secs = (comm.busy_nanos() - busy0) as f64 * 1e-9;
            out.traffic = diff_stats(&comm.stats(), &before);
            out
        })
    }
}

fn diff_stats(after: &TrafficStats, before: &TrafficStats) -> TrafficStats {
    let mut d = TrafficStats::default();
    for class in OpClass::ALL {
        d.record(
            class,
            after.messages(class) - before.messages(class),
            after.bytes(class) - before.bytes(class),
        );
    }
    d
}

/// World step time: the slowest rank.
fn step_secs(r: &[RankStep]) -> f64 {
    r.iter().map(|s| s.secs).fold(0.0, f64::max)
}

/// Everything a training job builds before its first step: parameters,
/// the executor(s) (verified), and each rank's replica of the parameters
/// and optimizer state. Built several times (the previous set dropped
/// first); returns the last set and the median build and 2-rank
/// executor construction times.
fn set_up(cfg: &TrainConfig) -> (World, Option<World>, f64, f64) {
    let mut times = Vec::new();
    let mut compile = Vec::new();
    let mut built = None;
    let begin = Instant::now();
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && begin.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(built.take());
        let start = Instant::now();
        let init = init_params(&cfg.spec, cfg.init_seed);
        let t0 = Instant::now();
        let exec = DistExecutor::new(cfg.spec.clone(), cfg.strategy.clone(), cfg.batch)
            .expect("pinned strategy compiles");
        compile.push(t0.elapsed().as_secs_f64());
        let single = cfg.baseline.then(|| {
            let s = Strategy::uniform(&cfg.spec, ProcGrid::sample(1));
            let exec = DistExecutor::new(cfg.spec.clone(), s, cfg.batch)
                .expect("1-rank strategy compiles");
            World::new(exec, &init)
        });
        built = Some((World::new(exec, &init), single));
        times.push(start.elapsed().as_secs_f64());
    }
    let (world, single) = built.expect("at least one set-up");
    (world, single, median(&times), median(&compile))
}

/// The correctness gate: every live step's loss against the serial
/// `fg_nn::Network` forward pass at the same parameters and batch.
///
/// A per-step comparison is the grade DESIGN.md states (exact where the
/// arithmetic is not reordered, 1e-4 relative where an allreduce
/// reorders sums). Whole trajectories are not compared: with batch 2 and
/// batch norm, training amplifies last-bit differences from reordered
/// sums by roughly 10x per step, so trajectories part within a few steps
/// even when every step is correct.
struct Checker {
    spec: NetworkSpec,
    outcome: Outcome,
    /// Worst relative difference and step count per world.
    worst: Vec<(&'static str, f64, usize)>,
}

/// Relative loss tolerance per step (DESIGN.md section 5).
const LOSS_TOL: f64 = 1e-4;

impl Checker {
    fn new(spec: &NetworkSpec) -> Checker {
        Checker { spec: spec.clone(), outcome: Outcome::default(), worst: Vec::new() }
    }

    /// Run one step on `world` and check it. The snapshot and the serial
    /// forward happen outside the step's timer.
    fn step(
        &mut self,
        name: &'static str,
        world: &World,
        x: &Tensor,
        labels: &Labels,
        tracer: Option<(&Tracer, usize)>,
    ) -> Vec<RankStep> {
        let params = world.states[0].lock().unwrap().params.clone();
        let out = world.step(x, labels, tracer);
        let net = Network { spec: self.spec.clone(), params };
        let reference = net.forward(x, Some(labels)).loss.expect("network ends in a loss layer");
        let live = out[0].loss;
        let agree = out.iter().all(|r| r.loss.to_bits() == live.to_bits());
        let diff = rel_diff(reference, live);
        let ok = agree && live.is_finite() && diff <= LOSS_TOL;
        if !ok {
            eprintln!(
                "MISMATCH {name}: serial {reference} vs live {:?} (rel {diff:.3e}, tol {LOSS_TOL:.0e})",
                out.iter().map(|r| r.loss).collect::<Vec<_>>()
            );
        }
        self.outcome.check(ok);
        match self.worst.iter_mut().find(|w| w.0 == name) {
            Some(w) => (w.1, w.2) = (w.1.max(diff), w.2 + 1),
            None => self.worst.push((name, diff, 1)),
        }
        out
    }

    fn finish(self, sheet: &mut Sheet) -> Outcome {
        for (name, worst, steps) in self.worst {
            sheet.note(format!(
                "{name}: {steps} steps checked against the serial forward, worst rel diff \
                 {worst:.3e} (tolerance {LOSS_TOL:.0e})"
            ));
        }
        self.outcome
    }
}

/// Run a training workload for `args.seconds` of timed steps.
pub fn run(cfg: TrainConfig, args: &Args, tracer: &Tracer, sheet: &mut Sheet) -> Outcome {
    // Set-up verifies the compiled schedule and memory plans before the
    // first step (`DistExecutor::new` under `FG_VERIFY=1`), as the DES
    // workload checks its traces: an unsound plan never runs, and a
    // slower verifier shows in `setup_s`.
    std::env::set_var("FG_VERIFY", "1");
    let (world, single, setup, compile) = set_up(&cfg);
    sheet.set("setup_s", setup);
    let mut checker = Checker::new(&cfg.spec);
    if tracer.enabled() {
        sheet.set("core.compile_ms", compile * 1e3);
        let peak = world.exec.analyze_memory().max_peak() as f64 / (1024.0 * 1024.0);
        sheet.set("core.static_peak_mb", peak);
        crate::des::simulate_live(&world.exec, cfg.batch, sheet, &mut checker.outcome);
    }
    let geo = Geometry::new(&cfg.spec, &cfg.strategy, cfg.batch);
    let traces = world.exec.record_traces(None);
    // The traced run measures layers, not scaling: no baseline world.
    let single = single.filter(|_| !tracer.enabled());

    let mut dist_steps: Vec<Vec<RankStep>> = Vec::new();
    let mut single_steps: Vec<Vec<RankStep>> = Vec::new();
    // Whether each timed 2-rank step was traced.
    let mut traced_flags: Vec<bool> = Vec::new();

    // Warm-up: one untimed (still checked) step per world.
    let (x, labels) = cfg.data.batch(0, cfg.batch);
    checker.step("2-rank world", &world, &x, &labels, None);
    if let Some(s) = &single {
        checker.step("1-rank baseline", s, &x, &labels, None);
    }

    // Budget on step time only, so checking does not shorten the sample.
    let mut timed_secs = 0.0;
    let mut i = 1;
    while timed_secs < args.seconds || i < 3 {
        let (x, labels) = cfg.data.batch(i, cfg.batch);
        // Traced runs alternate untraced and traced steps so the
        // tracing overhead is measured on the same trajectory.
        let traced = tracer.enabled() && i.is_multiple_of(2);
        let mut run = |name, w: &World, t: Option<(&Tracer, usize)>| {
            let out = checker.step(name, w, &x, &labels, t);
            timed_secs += step_secs(&out);
            out
        };
        match &single {
            // Interleave the 1-rank and 2-rank steps, alternating which
            // goes first, so machine drift lands on both.
            Some(s) if i.is_multiple_of(2) => {
                single_steps.push(run("1-rank baseline", s, None));
                dist_steps.push(run("2-rank world", &world, None));
            }
            Some(s) => {
                dist_steps.push(run("2-rank world", &world, None));
                single_steps.push(run("1-rank baseline", s, None));
            }
            None => dist_steps.push(run("2-rank world", &world, traced.then_some((tracer, i)))),
        }
        traced_flags.push(traced);
        i += 1;
    }

    if tracer.enabled() {
        per_layer(
            &cfg,
            &world,
            &geo,
            &traces,
            &dist_steps,
            &traced_flags,
            tracer,
            i,
            args.seed,
            sheet,
        );
    } else {
        end_to_end(
            &cfg,
            &dist_steps,
            (!single_steps.is_empty()).then_some(&single_steps[..]),
            sheet,
        );
    }
    checker.finish(sheet)
}

fn end_to_end(
    cfg: &TrainConfig,
    timed: &[Vec<RankStep>],
    single: Option<&[Vec<RankStep>]>,
    sheet: &mut Sheet,
) {
    let secs: Vec<f64> = timed.iter().map(|r| step_secs(r)).collect();
    // Medians throughout: a steady figure on a shared host.
    let throughput = cfg.batch as f64 / median(&secs);
    let (pct, tail_s) = tail(&secs);
    sheet.set("p50_ms", median(&secs) * 1e3);
    sheet.set("tail_ms", tail_s * 1e3);
    sheet.set("throughput_per_s", throughput);
    sheet.note(format!("train_samples_per_s = {throughput:.4} 1/s (batch {})", cfg.batch));
    sheet.note(format!("step_tail_s = {tail_s:.4} s (p{pct} of {} steps)", secs.len()));
    if let Some(single) = single {
        let one: Vec<f64> = single.iter().map(|r| step_secs(r)).collect();
        let serial = cfg.batch as f64 / median(&one);
        // Per interleaved pair: 1-rank time / (2 × 2-rank time).
        let effs: Vec<f64> = one.iter().zip(&secs).map(|(t1, t2)| t1 / (2.0 * t2)).collect();
        sheet.note(format!("serial_samples_per_s = {serial:.4} 1/s (1 rank)"));
        sheet.note(format!(
            "strong_scaling_eff = {:.4} (median of {} interleaved pairs)",
            median(&effs),
            effs.len()
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    cfg: &TrainConfig,
    world: &World,
    geo: &Geometry,
    traces: &[fg_comm::RankTrace],
    timed: &[Vec<RankStep>],
    traced_flags: &[bool],
    tracer: &Tracer,
    next_step: usize,
    seed: u64,
    sheet: &mut Sheet,
) {
    let ranks = world.size();
    let traced: Vec<&Vec<RankStep>> =
        timed.iter().zip(traced_flags).filter(|(_, &t)| t).map(|(s, _)| s).collect();
    let plain: Vec<f64> =
        timed.iter().zip(traced_flags).filter(|(_, &t)| !t).map(|(s, _)| step_secs(s)).collect();
    let traced_secs: Vec<f64> = traced.iter().map(|s| step_secs(s)).collect();
    sheet.set("trace.overhead_frac", 1.0 - median(&plain) / median(&traced_secs));

    // Phase split of the traced steps: mean over ranks of the median
    // over steps.
    let phase = |f: fn(&RankStep) -> f64| -> f64 {
        (0..ranks)
            .map(|r| median(&traced.iter().map(|s| f(&s[r])).collect::<Vec<_>>()))
            .sum::<f64>()
            / ranks as f64
    };
    let fwd = phase(|s| s.fwd);
    let bwd = phase(|s| s.bwd);
    sheet.set("core.fwd_ms", fwd * 1e3);
    sheet.set("core.bwd_ms", bwd * 1e3);
    sheet.set("nn.sgd_ms", phase(|s| s.sgd) * 1e3);
    let wait = (0..ranks)
        .map(|r| {
            let busy: f64 = traced.iter().map(|s| s[r].busy_secs).sum();
            let wall: f64 = traced.iter().map(|s| s[r].secs).sum();
            1.0 - busy / wall
        })
        .fold(f64::MIN, f64::max);
    sheet.set("comm.wait_frac", wait);

    // Exact per-step traffic, summed over ranks (every step moves the
    // same bytes; take the first traced step).
    let traffic = |class: OpClass| -> (f64, f64) {
        traced[0].iter().fold((0.0, 0.0), |(m, b), s| {
            (m + s.traffic.messages(class) as f64, b + s.traffic.bytes(class) as f64)
        })
    };
    let (halo_msgs, halo_bytes) = traffic(OpClass::Halo);
    sheet.set("tensor.halo_bytes", halo_bytes);
    sheet.set("tensor.halo_msgs", halo_msgs);
    // A shuffle's payload moves inside its all-to-all, which counts
    // under its own class; these models issue no other all-to-all.
    let shuffle_bytes = traffic(OpClass::Shuffle).1 + traffic(OpClass::AllToAll).1;
    sheet.set("tensor.shuffle_bytes", shuffle_bytes);
    sheet.set("comm.allreduce_bytes", traffic(OpClass::Allreduce).1);

    // Replays, all passes in one world.
    let passes: Vec<Vec<PhaseTimes>> = run_ranks(ranks, |comm: &WorldComm| {
        let rank = comm.rank();
        let params = &world.states[rank].lock().unwrap().params;
        let sizes = allreduce_sizes(&traces[rank]);
        (0..REPLAY_PASSES)
            .map(|k| {
                let step = next_step + k;
                let start = Instant::now();
                let t = replay_pass(comm, geo, params, &sizes, true, tracer, step, seed ^ k as u64);
                tracer.record(rank, step, "replay", "step", start);
                t
            })
            .collect()
    });
    let sizes = allreduce_sizes(&traces[0]);
    sheet.set("comm.allreduce_calls", sizes.len() as f64);
    let flops: Vec<f64> = (0..ranks).map(|r| geo.conv_flops(r)).collect();
    let replayed = report_phases(&passes, &flops, sheet);
    sheet.set("core.other_ms", (fwd + bwd - replayed) * 1e3);
    sheet.set("core.coverage", replayed / (fwd + bwd));
    sheet.note(format!(
        "{} conv layers and {} grid switches replayed {REPLAY_PASSES}× (batch {})",
        geo.convs.len(),
        geo.shuffles.len(),
        cfg.batch
    ));
}

/// File the replayed phase times (`passes[rank][pass]`) on the sheet;
/// returns the rank-mean seconds the replayed phases explain.
pub fn report_phases(passes: &[Vec<PhaseTimes>], flops: &[f64], sheet: &mut Sheet) -> f64 {
    let ranks = passes.len() as f64;
    // Mean over ranks of each rank's median pass.
    let mean_median = |f: fn(&PhaseTimes) -> f64| -> f64 {
        passes.iter().map(|p| median(&p.iter().map(f).collect::<Vec<_>>())).sum::<f64>() / ranks
    };
    let total_flops: f64 = flops.iter().sum();
    let rate = |secs: f64| if secs > 0.0 { total_flops / (secs * ranks) / 1e9 } else { 0.0 };
    let fwd = mean_median(|t| t.conv_fwd);
    let bwd_data = mean_median(|t| t.conv_bwd_data);
    let bwd_filter = mean_median(|t| t.conv_bwd_filter);
    sheet.set("kernels.conv_fwd_ms", fwd * 1e3);
    sheet.set("kernels.conv_bwd_data_ms", bwd_data * 1e3);
    sheet.set("kernels.conv_bwd_filter_ms", bwd_filter * 1e3);
    sheet.set("kernels.conv_fwd_gflops", rate(fwd));
    sheet.set("kernels.conv_bwd_data_gflops", rate(bwd_data));
    sheet.set("kernels.conv_bwd_filter_gflops", rate(bwd_filter));
    sheet.set("kernels.conv_flops", total_flops);
    sheet.set("tensor.halo_fwd_ms", mean_median(|t| t.halo_fwd) * 1e3);
    sheet.set("tensor.halo_bwd_ms", mean_median(|t| t.halo_bwd) * 1e3);
    sheet.set("tensor.shuffle_ms", mean_median(|t| t.shuffle) * 1e3);
    sheet.set("comm.allreduce_ms", mean_median(|t| t.allreduce) * 1e3);
    mean_median(|t| t.total())
}
