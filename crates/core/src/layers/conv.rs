//! Distributed convolution as a schedulable layer
//! ([`crate::DistConv2d`] holds the math; see `distconv.rs`).

use fg_comm::Communicator;
use fg_nn::LayerParams;
use fg_tensor::Tensor;

use crate::distconv::DistConv2d;
use crate::executor::Act;
use crate::layers::plan::{
    window_elems, BwdCx, BwdOut, FwdCx, LayerBase, LayerBufs, LayerPlan, TraceCx,
};
use crate::overlap::{
    backward_overlapped_with_plans_in, forward_overlapped_with_plans_in, InteriorPlan,
};
use fg_comm::{ScalarType, TraceRecorder};
use fg_tensor::halo::record_halo_exchange;

fn conv_params(p: &LayerParams) -> (&Tensor, Option<&[f32]>) {
    match p {
        LayerParams::Conv { w, b } => (w, b.as_deref()),
        other => panic!("expected conv params, found {other:?}"),
    }
}

/// [`DistConv2d`] as a schedulable layer (`DistLayer::Conv`).
#[derive(Debug)]
pub struct ConvLayer {
    pub(crate) base: LayerBase,
    conv: DistConv2d,
}

impl ConvLayer {
    /// Wrap a convolution layer for uniform scheduling.
    pub fn new(base: LayerBase, conv: DistConv2d) -> Self {
        ConvLayer { base, conv }
    }

    pub(crate) fn compile_plan(&self, rank: usize) -> LayerPlan {
        let mut plan = self.base.compile_io(rank);
        plan.x_halo = Some(self.conv.x_halo_plan(rank));
        plan.dy_halo = Some(self.conv.dy_halo_plan(rank));
        plan.interior = Some(InteriorPlan::build(&self.conv, rank));
        plan
    }

    pub(crate) fn forward<C: Communicator>(&self, comm: &C, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).shard_of(self.base.id, &self.base.kind);
        let (w, b) = conv_params(cx.params);
        let x_halo = cx.plan.x_halo.as_ref().expect("conv plan has an x halo");
        let store =
            cx.window_slot.as_ref().map(|s| s.alloc(self.memory_model(cx.rank).window_elems));
        // §IV-A: overlap halo exchange with interior compute
        // (bitwise-identical results either way).
        let (y, win) = if cx.overlap {
            let iplan = cx.plan.interior.as_ref().expect("conv plan has an interior plan");
            forward_overlapped_with_plans_in(&self.conv, comm, x, w, b, x_halo, iplan, store)
        } else {
            self.conv.forward_with_plan_in(comm, x, w, b, x_halo, store)
        };
        cx.window = Some(win);
        Act::Shard(y)
    }

    pub(crate) fn backward<C: Communicator>(&self, comm: &C, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_shard_of(self.base.id, &self.base.kind);
        let (w, b) = conv_params(cx.params);
        let win = cx.window(&self.base);
        let dy_halo = cx.plan.dy_halo.as_ref().expect("conv plan has a dy halo");
        let store =
            cx.dyw_slot.as_ref().map(|s| s.alloc(self.memory_model(cx.rank).dy_window_elems));
        // §IV-A: the dy halo exchange hides inside the (halo-free)
        // filter convolution when overlapping.
        let (dx, dw, db, spent) = if cx.overlap {
            backward_overlapped_with_plans_in(
                &self.conv,
                comm,
                win,
                &dy,
                w,
                b.is_some(),
                dy_halo,
                store,
            )
        } else {
            let (dx, spent) = self.conv.backward_data_with_plan_in(comm, &dy, w, dy_halo, store);
            let (dw, db) = self.conv.backward_filter(comm, win, &dy, b.is_some());
            (dx, dw, db, spent)
        };
        if let (Some(slot), Some(buf)) = (cx.dyw_slot.as_ref(), spent) {
            slot.release(buf);
        }
        BwdOut {
            // arena-exempt: one-element edge list; `dx` is moved, not allocated here.
            dparents: vec![(0, Act::Shard(dx))],
            grads: Some(LayerParams::Conv { w: dw, b: db }),
        }
    }

    pub(crate) fn memory_model(&self, rank: usize) -> LayerBufs {
        let (xlo, xhi) = self.conv.x_margins;
        let (dlo, dhi) = self.conv.dy_margins;
        LayerBufs {
            window_elems: window_elems(&self.conv.in_dist, rank, xlo, xhi),
            dy_window_elems: window_elems(&self.conv.out_dist, rank, dlo, dhi),
        }
    }

    // Overlap mode issues the same ops in the same order (the interior
    // decomposition only reschedules compute), so one recording covers
    // both modes.
    pub(crate) fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let x_halo = cx.plan.x_halo.as_ref().expect("conv plan has an x halo");
        record_halo_exchange(rec, x_halo);
    }

    pub(crate) fn record_backward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let dy_halo = cx.plan.dy_halo.as_ref().expect("conv plan has a dy halo");
        record_halo_exchange(rec, dy_halo);
        rec.world_allreduce(cx.param_elems, ScalarType::F32);
    }
}
