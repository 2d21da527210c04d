//! The input layer: intake of the externally supplied activation.

use crate::executor::Act;
use crate::layers::plan::{FwdCx, LayerBase};

/// The network's input: forwards the externally supplied activation,
/// contributes nothing in backward.
#[derive(Debug)]
pub struct InputLayer {
    pub(crate) base: LayerBase,
}

impl InputLayer {
    /// Wrap the input layer for uniform scheduling.
    pub fn new(base: LayerBase) -> Self {
        InputLayer { base }
    }

    pub(crate) fn forward(&self, cx: &mut FwdCx<'_>) -> Act {
        cx.external.take().unwrap_or_else(|| {
            panic!("layer {} ({:?}): no external activation supplied", self.base.id, self.base.kind)
        })
    }
}
