//! Outside-in per-layer timing: replay each layer's rank geometry
//! through the library's public pieces and time every call.
//!
//! * kernels — every conv layer's `DistConv2d`, rebuilt from the same
//!   `Strategy::dist_for` distributions the executor uses:
//!   `forward_from_window`, `backward_data_with_plan` minus its halo,
//!   and `backward_filter_local`;
//! * tensor — the forward window build (`build_x_window_with_plan`),
//!   the dy-plan `exchange_halo_with_plan`, and `ShufflePlan::execute`
//!   forward and adjoint at every grid switch;
//! * comm — `Collectives::allreduce` at every multi-rank allreduce the
//!   executor's recorded trace lists for this rank, in trace order.
//!
//! The replay runs inside a live world, so collective calls include the
//! time a rank waits for its peers, as they do in a training step.

use fg_comm::{Collectives, Communicator, RankTrace, ReduceOp, ScalarType, TraceOp};
use fg_core::{DistConv2d, Strategy};
use fg_kernels::conv::ConvGeometry;
use fg_nn::{LayerKind, LayerParams, NetworkSpec};
use fg_tensor::halo::exchange_halo_with_plan;
use fg_tensor::shuffle::ShufflePlan;
use fg_tensor::{DistTensor, Shape4, Tensor, TensorDist};

use crate::trace::Tracer;
use crate::util::Rng;

/// One conv layer's distributed geometry.
pub struct ConvSite {
    pub id: usize,
    pub name: String,
    pub conv: DistConv2d,
}

/// One grid switch between a parent and a consumer.
pub struct ShuffleSite {
    pub name: String,
    pub src: TensorDist,
    pub dst: TensorDist,
}

/// Every replayable site of a network under a strategy.
pub struct Geometry {
    pub convs: Vec<ConvSite>,
    pub shuffles: Vec<ShuffleSite>,
}

fn sharded(kind: &LayerKind) -> bool {
    matches!(
        kind,
        LayerKind::Input { .. }
            | LayerKind::Conv { .. }
            | LayerKind::Pool { .. }
            | LayerKind::BatchNorm
            | LayerKind::Relu
            | LayerKind::Add
    )
}

impl Geometry {
    pub fn new(spec: &NetworkSpec, strategy: &Strategy, batch: usize) -> Geometry {
        let shapes: Vec<Shape4> =
            spec.shapes().iter().map(|&(c, h, w)| Shape4::new(batch, c, h, w)).collect();
        let mut convs = Vec::new();
        let mut shuffles = Vec::new();
        for (id, l) in spec.layers().iter().enumerate() {
            let grid = strategy.grids[id];
            if let LayerKind::Conv { kernel, stride, pad, .. } = l.kind {
                let p = shapes[l.parents[0]];
                let geom = ConvGeometry::square(p.h, p.w, kernel, stride, pad);
                let conv = DistConv2d::with_dists(
                    geom,
                    strategy.dist_for(p, grid),
                    strategy.dist_for(shapes[id], grid),
                );
                convs.push(ConvSite { id, name: l.name.clone(), conv });
            }
            let consumes_shard = sharded(&l.kind) || matches!(l.kind, LayerKind::GlobalAvgPool);
            if !consumes_shard {
                continue;
            }
            for &p in &l.parents {
                let parent = &spec.layers()[p];
                if sharded(&parent.kind) && strategy.grids[p] != grid {
                    shuffles.push(ShuffleSite {
                        name: format!("{}<-{}", l.name, parent.name),
                        src: strategy.dist_for(shapes[p], strategy.grids[p]),
                        dst: strategy.dist_for(shapes[p], grid),
                    });
                }
            }
        }
        Geometry { convs, shuffles }
    }

    /// Multiply-add FLOPs (2 per MAC) of one pass of `rank`'s share of
    /// every conv layer. Forward, backward-data and backward-filter each
    /// perform this many.
    pub fn conv_flops(&self, rank: usize) -> f64 {
        self.convs
            .iter()
            .map(|s| {
                let o = s.conv.out_dist.local_shape(rank);
                let c = s.conv.in_dist.shape.c;
                let k = s.conv.geom.kh * s.conv.geom.kw;
                2.0 * (o.n * o.c * o.h * o.w * c * k) as f64
            })
            .sum()
    }
}

/// The allreduces `trace` issues over more than one rank, in order.
pub fn allreduce_sizes(trace: &RankTrace) -> Vec<(usize, ScalarType)> {
    trace
        .entries
        .iter()
        .filter_map(|e| match &e.op {
            TraceOp::Collective { members, count, ty, .. } if members.len() > 1 => {
                Some((*count, *ty))
            }
            _ => None,
        })
        .collect()
}

/// Seconds one rank spent in each replayed phase during one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    pub conv_fwd: f64,
    pub conv_bwd_data: f64,
    pub conv_bwd_filter: f64,
    pub halo_fwd: f64,
    pub halo_bwd: f64,
    pub shuffle: f64,
    pub allreduce: f64,
}

impl PhaseTimes {
    /// Everything replayed: the share of a step these phases explain.
    pub fn total(&self) -> f64 {
        self.conv_fwd
            + self.conv_bwd_data
            + self.conv_bwd_filter
            + self.halo_fwd
            + self.halo_bwd
            + self.shuffle
            + self.allreduce
    }
}

fn random_shard(dist: &TensorDist, rank: usize, rng: &mut Rng) -> DistTensor {
    let mut t = DistTensor::new_unpadded(dist.clone(), rank);
    let local = Tensor::from_fn(dist.local_shape(rank), |_, _, _, _| rng.sym_f32());
    t.set_owned(&local);
    t
}

fn conv_params(p: &LayerParams) -> (&Tensor, Option<&[f32]>) {
    match p {
        LayerParams::Conv { w, b } => (w, b.as_deref()),
        other => panic!("expected conv params, found {other:?}"),
    }
}

/// Replay one pass on this rank: every conv forward (halo + kernel) in
/// layer order; with `backward`, every conv backward in reverse order,
/// every shuffle forward and adjoint, and every allreduce in `sizes`.
/// All ranks of the world must call this together.
#[allow(clippy::too_many_arguments)]
pub fn replay_pass<C: Communicator>(
    comm: &C,
    geo: &Geometry,
    params: &[LayerParams],
    sizes: &[(usize, ScalarType)],
    backward: bool,
    tracer: &Tracer,
    step: usize,
    seed: u64,
) -> PhaseTimes {
    let rank = comm.rank();
    let mut rng = Rng::new(seed ^ rank as u64);
    let mut t = PhaseTimes::default();
    let mut windows = Vec::with_capacity(geo.convs.len());
    for s in &geo.convs {
        let (w, b) = conv_params(&params[s.id]);
        let x = random_shard(&s.conv.in_dist, rank, &mut rng);
        let plan = s.conv.x_halo_plan(rank);
        let (win, dt) = tracer.span(rank, step, &s.name, "halo_fwd", || {
            s.conv.build_x_window_with_plan(comm, &x, &plan)
        });
        t.halo_fwd += dt;
        let (_, dt) = tracer
            .span(rank, step, &s.name, "conv_fwd", || s.conv.forward_from_window(rank, &win, w, b));
        t.conv_fwd += dt;
        windows.push(win);
    }
    if !backward {
        return t;
    }
    for (s, win) in geo.convs.iter().zip(&windows).rev() {
        let (w, b) = conv_params(&params[s.id]);
        let dy = random_shard(&s.conv.out_dist, rank, &mut rng);
        let plan = s.conv.dy_halo_plan(rank);
        let mut dyw = dy.to_window(s.conv.dy_margins.0, s.conv.dy_margins.1);
        let (_, halo) = tracer.span(rank, step, &s.name, "halo_bwd", || {
            exchange_halo_with_plan(comm, &mut dyw, &plan)
        });
        t.halo_bwd += halo;
        let (_, total) = tracer.span(rank, step, &s.name, "conv_bwd_data", || {
            s.conv.backward_data_with_plan(comm, &dy, w, &plan)
        });
        t.conv_bwd_data += (total - halo).max(0.0);
        let (_, dt) = tracer.span(rank, step, &s.name, "conv_bwd_filter", || {
            s.conv.backward_filter_local(win, &dy, b.is_some())
        });
        t.conv_bwd_filter += dt;
    }
    for s in &geo.shuffles {
        let fwd = ShufflePlan::build(s.src.clone(), s.dst.clone(), rank);
        let adj = ShufflePlan::build(s.dst.clone(), s.src.clone(), rank);
        let x = random_shard(&s.src, rank, &mut rng);
        let (y, dt) =
            tracer.span(rank, step, &s.name, "shuffle", || fwd.execute(comm, &x, [0; 4], [0; 4]));
        t.shuffle += dt;
        let (_, dt) =
            tracer.span(rank, step, &s.name, "shuffle", || adj.execute(comm, &y, [0; 4], [0; 4]));
        t.shuffle += dt;
    }
    for (i, &(count, ty)) in sizes.iter().enumerate() {
        let name = format!("allreduce{i}");
        let dt = match ty {
            ScalarType::F64 => {
                let buf = vec![1.0f64; count];
                tracer
                    .span(rank, step, &name, "allreduce", || comm.allreduce(&buf, ReduceOp::Sum))
                    .1
            }
            _ => {
                let buf = vec![1.0f32; count];
                tracer
                    .span(rank, step, &name, "allreduce", || comm.allreduce(&buf, ReduceOp::Sum))
                    .1
            }
        };
        t.allreduce += dt;
    }
    t
}
