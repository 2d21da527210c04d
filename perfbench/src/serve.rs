//! `serve-mesh-open`: the `repro -- serve` mesh model (64², widths ÷32)
//! booted through `ServableModel::from_checkpoint`, served by one
//! replica world of 2 sample-parallel ranks (`max_batch` 8) under
//! open-loop Poisson arrivals.
//!
//! The generator is the benchmark's own and runs on one thread. Each
//! request is timed from its *scheduled* send time, so a stalled
//! generator or server shows up in every later request's latency, and
//! the generator reports how late it sent (`serve.gen_lag_ms`). Every
//! reply is compared bitwise with `ServableModel::infer`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_comm::{run_ranks, Communicator, WorldComm};
use fg_core::{DistExecutor, ServableModel, Strategy};
use fg_models::{mesh_model_custom, MeshSize, MESH_CHANNELS};
use fg_nn::{init_params, GuardState, TrainState};
use fg_serve::{ReplicaSpec, Response, ServeError, Server, ServerConfig};
use fg_tensor::{ProcGrid, Shape4, Tensor};

use crate::replay::{replay_pass, Geometry, PhaseTimes};
use crate::trace::Tracer;
use crate::train::report_phases;
use crate::util::{median, peak_rss_mb, tail, Outcome, Rng, Sheet};
use crate::Args;

const INPUT_HW: usize = 64;
const WIDTH_SCALE: usize = 32;
const MAX_BATCH: usize = 8;
/// Distinct request inputs; each request draws one at random.
const POOL: usize = 16;
/// Relative deadline attached to every request.
const DEADLINE: Duration = Duration::from_secs(2);
/// Tail-latency limit a ladder rate must meet to count as sustained.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Nominal offered rate, below the knee (requests/s).
const NOMINAL_RPS: f64 = 100.0;
/// The fixed ladder `serve_max_rps` climbs (requests/s).
const LADDER_RPS: [f64; 7] = [200.0, 300.0, 400.0, 500.0, 600.0, 800.0, 1000.0];
/// Share of `--seconds` spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.6;
/// Share of `--seconds` each ladder rung lasts (at least one second).
const RUNG_SHARE: f64 = 0.1;
/// Untimed (still checked) warm-up at the nominal rate, seconds.
const WARMUP_S: f64 = 1.0;
/// Windows a phase's tail is taken over (see `windowed_tail`).
const WINDOWS: usize = 5;
/// Server boots per run: at least `MIN_SETUPS`, then more while
/// `SETUP_BUDGET_S` lasts; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;
/// `infer_logits` calls timed per batch size in the traced run.
const INFER_REPS: usize = 20;

fn sample(rng: &mut Rng) -> Tensor {
    Tensor::from_fn(Shape4::new(1, MESH_CHANNELS, INPUT_HW, INPUT_HW), |_, _, _, _| {
        2.0 * rng.sym_f32()
    })
}

fn stack(rows: &[Tensor]) -> Tensor {
    let row = MESH_CHANNELS * INPUT_HW * INPUT_HW;
    let mut t = Tensor::zeros(Shape4::new(rows.len(), MESH_CHANNELS, INPUT_HW, INPUT_HW));
    for (i, r) in rows.iter().enumerate() {
        t.as_mut_slice()[i * row..(i + 1) * row].copy_from_slice(r.as_slice());
    }
    t
}

/// Freeze a servable model through the checkpoint path: serialize a
/// `TrainState`, reload the bytes, calibrate BN statistics.
fn boot_model(seed: u64) -> Arc<ServableModel> {
    let spec = mesh_model_custom(MeshSize::OneK, INPUT_HW, WIDTH_SCALE);
    let params = init_params(&spec, seed);
    let velocity = params.iter().map(|p| p.zeros_like()).collect();
    let state = TrainState {
        step: 100,
        params,
        velocity,
        losses: vec![0.3; 100],
        guard: GuardState::default(),
        grid: None,
    };
    let mut bytes = Vec::new();
    fg_nn::save_train_state(&mut bytes, &state).expect("serialize checkpoint");
    let mut rng = Rng::new(seed ^ 0xCA11);
    let calibration: Vec<Tensor> =
        (0..2).map(|_| stack(&[sample(&mut rng), sample(&mut rng)])).collect();
    let model = ServableModel::from_checkpoint(&spec, &mut bytes.as_slice(), &calibration, 0.1)
        .expect("reload checkpoint");
    Arc::new(model)
}

fn grid() -> ProcGrid {
    ProcGrid::sample(2)
}

fn start_server(model: &Arc<ServableModel>) -> Server {
    let cfg = ServerConfig { max_batch: MAX_BATCH, ..ServerConfig::default() };
    Server::start(Arc::clone(model), vec![ReplicaSpec::healthy(grid())], cfg)
}

/// One open-loop phase at a fixed rate.
#[derive(Debug, Default)]
struct Phase {
    /// Latency of each successful request from its scheduled send, ms.
    latencies: Vec<f64>,
    /// How late each send was against its schedule, ms.
    lags: Vec<f64>,
    sent: usize,
    in_deadline: usize,
    /// Shed, failed, or wrong.
    failed: usize,
    wrong: usize,
    /// The backlog alone reached the latency limit; sending stopped.
    overloaded: bool,
}

/// Offer Poisson arrivals at `rps` for `secs`, then collect every reply.
/// Sending stops early once the admission queue holds more requests
/// than the server can clear at `rps` within the latency limit: the
/// backlog is growing and the rate has missed the limit.
#[allow(clippy::too_many_arguments)]
fn offer(
    server: &Server,
    rps: f64,
    secs: f64,
    rng: &mut Rng,
    pool: &[Tensor],
    refs: &[Tensor],
    tracer: &Tracer,
    step: usize,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut due = 0.0f64;
    let mut pending: Vec<(Instant, Instant, usize, Result<Response, ServeError>)> = Vec::new();
    loop {
        due += -(1.0 - rng.unit()).ln() / rps;
        if due >= secs {
            break;
        }
        let idx = (rng.next_u64() % pool.len() as u64) as usize;
        let sched = start + Duration::from_secs_f64(due);
        let now = Instant::now();
        if sched > now {
            std::thread::sleep(sched - now);
        }
        if server.queue_depth() as f64 > rps * LATENCY_LIMIT_MS / 1e3 {
            phase.overloaded = true;
            break;
        }
        let sent = Instant::now();
        let r = server.submit(pool[idx].clone(), sched + DEADLINE);
        pending.push((sched, sent, idx, r));
    }
    for (sched, sent, idx, r) in pending {
        phase.sent += 1;
        phase.lags.push(sent.duration_since(sched).as_secs_f64() * 1e3);
        match r.and_then(|resp| resp.wait()) {
            Ok(reply) => {
                let lat = sent.duration_since(sched) + reply.latency;
                if !same_bits(&reply.logits, &refs[idx]) {
                    phase.wrong += 1;
                    phase.failed += 1;
                    continue;
                }
                phase.latencies.push(lat.as_secs_f64() * 1e3);
                if lat <= DEADLINE {
                    phase.in_deadline += 1;
                }
                tracer.record_between(0, step, "serve", "request", sched, sched + lat);
            }
            Err(e) => {
                eprintln!("request failed at {rps} rps: {e}");
                phase.failed += 1;
            }
        }
    }
    tracer.record(0, step, "generator", "step", start);
    phase
}

pub fn run(args: &Args, tracer: &Tracer, sheet: &mut Sheet) -> Outcome {
    let mut setup = Vec::new();
    let mut booted = None;
    let begin = Instant::now();
    while setup.len() < MIN_SETUPS
        || (setup.len() < MAX_SETUPS && begin.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some((_, server)) = booted.take() {
            Server::shutdown(server);
        }
        let start = Instant::now();
        let model = boot_model(args.seed);
        let server = start_server(&model);
        setup.push(start.elapsed().as_secs_f64());
        booted = Some((model, server));
    }
    let (model, server) = booted.expect("at least one boot");
    sheet.set("setup_s", median(&setup));

    let mut rng = Rng::new(args.seed ^ 0x5E4E);
    let pool: Vec<Tensor> = (0..POOL).map(|_| sample(&mut rng)).collect();
    let refs: Vec<Tensor> = pool.iter().map(|x| model.infer(x)).collect();
    let mut outcome = Outcome::default();

    // Nominal rate. The traced run offers it in two halves, traced then
    // untraced, to measure the recorder's overhead on latency.
    let quiet = Tracer::new(false);
    let warm = offer(&server, NOMINAL_RPS, WARMUP_S, &mut rng, &pool, &refs, &quiet, 0);
    outcome.attempted += warm.sent as u64;
    outcome.failed += warm.failed as u64;
    let nominal_secs = args.seconds * NOMINAL_SHARE;
    let before = server.metrics();
    let nominal = if tracer.enabled() {
        let traced =
            offer(&server, NOMINAL_RPS, nominal_secs / 2.0, &mut rng, &pool, &refs, tracer, 0);
        let plain =
            offer(&server, NOMINAL_RPS, nominal_secs / 2.0, &mut rng, &pool, &refs, &quiet, 1);
        sheet
            .set("trace.overhead_frac", 1.0 - median(&plain.latencies) / median(&traced.latencies));
        merge(traced, plain)
    } else {
        offer(&server, NOMINAL_RPS, nominal_secs, &mut rng, &pool, &refs, tracer, 0)
    };
    let after = server.metrics();
    // The ladder deliberately overloads the server, so its queued inputs
    // would make the high-water mark depend on how far past the knee the
    // last rung landed; memory is read at the nominal rate.
    sheet.set("peak_rss_mb", peak_rss_mb());
    // At the nominal rate every request must succeed with the reference
    // logits.
    outcome.attempted += nominal.sent as u64;
    outcome.failed += nominal.failed as u64;

    // The ladder (untraced runs only): climb until a rate misses the
    // limit.
    let rung_secs = (args.seconds * RUNG_SHARE).max(1.0);
    let mut max_rps = None;
    for (k, &rps) in LADDER_RPS.iter().enumerate().filter(|_| !tracer.enabled()) {
        let p = offer(&server, rps, rung_secs, &mut rng, &pool, &refs, tracer, 2 + k);
        // Past the knee, typed refusals are the measured outcome of
        // overload; only a wrong reply is an error there.
        outcome.attempted += p.sent as u64;
        outcome.failed += p.wrong as u64;
        let tail_ms = (p.failed == 0 && !p.latencies.is_empty()).then(|| tail(&p.latencies).1);
        let meets = !p.overloaded && tail_ms.is_some_and(|t| t <= LATENCY_LIMIT_MS);
        sheet.note(format!(
            "ladder {rps} rps: {} sent, {} failed, tail {}{} -> {}",
            p.sent,
            p.failed,
            tail_ms.map_or("-".into(), |t| format!("{t:.2} ms")),
            if p.overloaded { ", backlog growing" } else { "" },
            if meets { "meets limit" } else { "misses limit" }
        ));
        if !meets {
            break;
        }
        max_rps = Some(rps);
    }
    let metrics = server.shutdown();

    let (pct, tail_ms) = windowed_tail(&nominal.latencies);
    let p50 = median(&nominal.latencies);
    let goodput = nominal.in_deadline as f64 / nominal_secs;
    sheet.note(format!("serve_p50_ms = {p50:.4} ms at {NOMINAL_RPS} rps"));
    sheet.note(format!(
        "serve_tail_ms = {tail_ms:.4} ms (median over {WINDOWS} windows of p{pct}; {} requests)",
        nominal.latencies.len()
    ));
    sheet.note(format!("serve_goodput_rps = {goodput:.4} 1/s"));
    if !tracer.enabled() {
        let max_rps = max_rps.unwrap_or(0.0);
        sheet.note(format!("serve_max_rps = {max_rps} 1/s (tail limit {LATENCY_LIMIT_MS} ms)"));
    }
    sheet.note(format!("replica recycles: {}", metrics.replica_recycles));

    if tracer.enabled() {
        let batches = (after.batches - before.batches).max(1) as f64;
        let offered = nominal.sent as f64;
        sheet.set(
            "serve.mean_batch",
            (after.batched_requests - before.batched_requests) as f64 / batches,
        );
        sheet.set("serve.shed_frac", (after.shed - before.shed) as f64 / offered);
        sheet.set(
            "serve.dispatch_retries",
            (after.dispatch_retries - before.dispatch_retries) as f64,
        );
        sheet.set("serve.gen_lag_ms", tail(&nominal.lags).1);
        per_layer(&model, &pool, tracer, args.seed, sheet);
    } else {
        sheet.set("p50_ms", p50);
        sheet.set("tail_ms", tail_ms);
        sheet.set("throughput_per_s", goodput);
    }
    outcome
}

fn same_bits(logits: &[f32], reference: &Tensor) -> bool {
    logits.len() == reference.len()
        && logits.iter().zip(reference.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The tail of a phase's latencies (in schedule order): split into
/// `WINDOWS` consecutive windows, take each window's tail (the highest
/// percentile with ten samples beyond it), report the median. One stall
/// of a shared host moves one window, not the figure.
fn windowed_tail(latencies: &[f64]) -> (f64, f64) {
    let per = latencies.len().div_ceil(WINDOWS).max(1);
    let tails: Vec<(f64, f64)> = latencies.chunks(per).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (tails[0].0, median(&values))
}

fn merge(mut a: Phase, b: Phase) -> Phase {
    a.latencies.extend(b.latencies);
    a.lags.extend(b.lags);
    a.sent += b.sent;
    a.in_deadline += b.in_deadline;
    a.failed += b.failed;
    a.wrong += b.wrong;
    a.overloaded |= b.overloaded;
    a
}

/// One rank's traced inference timings, seconds.
struct RankInfer {
    /// Median `infer_logits` time at the smallest and largest batch.
    infer: Vec<f64>,
    /// Median `forward_inference` time at the largest batch.
    fwd: f64,
    replays: Vec<PhaseTimes>,
}

/// `infer_logits` at the smallest and largest planned batch on the
/// replica grid, plus a forward-only replay of the conv layers.
fn per_layer(
    model: &ServableModel,
    pool: &[Tensor],
    tracer: &Tracer,
    seed: u64,
    sheet: &mut Sheet,
) {
    // The replica pads one request to one sample per rank.
    let sizes = [grid().n, MAX_BATCH];
    let start = Instant::now();
    let strategy = Strategy::uniform(&model.spec, grid());
    let execs: Vec<DistExecutor> = sizes
        .iter()
        .map(|&b| DistExecutor::new(model.spec.clone(), strategy.clone(), b).expect("valid"))
        .collect();
    sheet.set("core.compile_ms", start.elapsed().as_secs_f64() * 1e3);
    let peak = execs[1].analyze_memory().max_peak() as f64 / (1024.0 * 1024.0);
    sheet.set("core.static_peak_mb", peak);
    let inputs: Vec<Tensor> = sizes.iter().map(|&b| stack(&pool[..b])).collect();
    let geo = Geometry::new(&model.spec, &strategy, MAX_BATCH);
    let stats = model.stats.stats();

    // Per rank: (infer ms per size, forward ms, replayed phases).
    let per_rank = run_ranks(grid().size(), |comm: &WorldComm| {
        let rank = comm.rank();
        let infer: Vec<f64> = execs
            .iter()
            .zip(&inputs)
            .map(|(exec, x)| {
                let times: Vec<f64> = (0..INFER_REPS)
                    .map(|_| {
                        let t = Instant::now();
                        exec.infer_logits(comm, &model.params, x, stats, 0);
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                median(&times)
            })
            .collect();
        let fwd: Vec<f64> = (0..INFER_REPS)
            .map(|_| {
                let t = Instant::now();
                execs[1].forward_inference(comm, &model.params, &inputs[1], stats);
                t.elapsed().as_secs_f64()
            })
            .collect();
        let replays: Vec<_> = (0..3)
            .map(|k| {
                let step = 100 + k;
                let t0 = Instant::now();
                let t = replay_pass(
                    comm,
                    &geo,
                    &model.params,
                    &[],
                    false,
                    tracer,
                    step,
                    seed ^ k as u64,
                );
                tracer.record(rank, step, "replay", "step", t0);
                t
            })
            .collect();
        RankInfer { infer, fwd: median(&fwd), replays }
    });
    let mean =
        |f: fn(&RankInfer) -> f64| per_rank.iter().map(f).sum::<f64>() / per_rank.len() as f64;
    sheet.set("serve.infer_ms_b1", mean(|r| r.infer[0]) * 1e3);
    sheet.set("serve.infer_ms_bmax", mean(|r| r.infer[1]) * 1e3);
    let fwd = mean(|r| r.fwd);
    sheet.set("core.fwd_ms", fwd * 1e3);
    let passes: Vec<Vec<PhaseTimes>> = per_rank.into_iter().map(|r| r.replays).collect();
    let flops: Vec<f64> = (0..grid().size()).map(|r| geo.conv_flops(r)).collect();
    let replayed = report_phases(&passes, &flops, sheet);
    sheet.set("core.other_ms", (fwd - replayed) * 1e3);
    sheet.set("core.coverage", replayed / fwd);
}
