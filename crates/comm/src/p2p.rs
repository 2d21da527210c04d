//! Point-to-point messaging primitives and the [`Communicator`] trait.
//!
//! Semantics mirror MPI two-sided communication:
//!
//! * messages between a fixed (source, destination) pair are delivered in
//!   send order (per-pair FIFO, one unbounded channel per ordered pair);
//! * receives match on `(source, tag)`; non-matching messages are stashed
//!   and re-examined by later receives, so out-of-order tag consumption
//!   works exactly as with MPI message envelopes;
//! * sends never block (the channel is unbounded), which models eager /
//!   buffered MPI sends and makes `sendrecv` cycles deadlock-free.

use std::any::Any;
use std::collections::VecDeque;

use crate::stats::OpClass;

/// Message tag. User tags must be below [`Tag::RESERVED_BASE`]; the
/// collective implementations draw tags from the reserved space.
pub type Tag = u64;

/// First tag value reserved for internal (collective) protocol use.
pub const RESERVED_TAG_BASE: Tag = 1 << 62;

/// The tag a world-scope collective draws for per-rank counter value
/// `counter` — the single source of the formula `WorldComm` uses, shared
/// with the static schedule verifier's tag simulation
/// ([`crate::trace::TraceRecorder`]).
pub const fn world_collective_tag(counter: u64) -> Tag {
    RESERVED_TAG_BASE + counter
}

/// The tag a sub-communicator collective draws: salted by the group id
/// (bit 61 separates the sub-communicator tag space from the world's)
/// with a per-bind counter in the low bits. Single source of the formula
/// `SubComm` uses, shared with the verifier's tag simulation.
pub const fn sub_collective_tag(tag_salt: u64, counter: u64) -> Tag {
    RESERVED_TAG_BASE | (1 << 61) | (tag_salt << 32) | counter
}

/// Scalar element types that can travel through the communicator.
///
/// The bound is deliberately broad: payloads are moved as boxed `Vec<T>`
/// within the process, so no serialization is involved and any `'static`
/// `Copy` type qualifies. `WIDTH` is the wire width in bytes used for
/// traffic accounting (and hence for α–β time modeling).
///
/// **Adding a scalar type:** do not write an `impl` by hand — add one
/// line to [`for_each_comm_scalar!`] below (and a matching
/// [`crate::trace::ScalarType`] variant). The macro generates this impl
/// and the trace width table in one stroke; a test pins the two lists
/// together.
pub trait CommScalar: Copy + Send + 'static {
    /// Bytes per element on the modeled wire.
    const WIDTH: usize = std::mem::size_of::<Self>();

    /// Deterministically flip bits of `self` under a nonzero `mask` —
    /// the payload-corruption primitive of the fault model
    /// ([`crate::fault::FaultPlan`]). Must return a value different from
    /// `self` for every mask, so injected corruption is always
    /// observable.
    fn corrupt(self, mask: u64) -> Self;

    /// The value's bit pattern as a `u64`, fed into the end-to-end
    /// payload checksum ([`crate::integrity`]). Must be injective on the
    /// bits `corrupt` can touch, so every injected corruption changes
    /// the checksum.
    fn checksum_bits(self) -> u64;
}

/// The single authoritative list of wire scalar types. Invokes the
/// callback macro once per scalar with `(type, ScalarType variant,
/// corruption expression, checksum-bits expression)`. Everything that
/// must stay in sync with the set of [`CommScalar`] impls — the impls
/// themselves and [`crate::trace::ScalarType::width`] — is generated
/// from this list; extending it is the only supported way to add a
/// scalar.
macro_rules! for_each_comm_scalar {
    ($m:ident) => {
        $m!(f32, F32, |x: f32, m: u64| f32::from_bits(x.to_bits() ^ ((m as u32) | 1)), |x: f32| x
            .to_bits()
            as u64);
        $m!(f64, F64, |x: f64, m: u64| f64::from_bits(x.to_bits() ^ (m | 1)), |x: f64| x.to_bits());
        $m!(u8, U8, |x: u8, m: u64| x ^ ((m as u8) | 1), |x: u8| x as u64);
        $m!(u32, U32, |x: u32, m: u64| x ^ ((m as u32) | 1), |x: u32| x as u64);
        $m!(u64, U64, |x: u64, m: u64| x ^ (m | 1), |x: u64| x);
        $m!(i32, I32, |x: i32, m: u64| x ^ ((m as i32) | 1), |x: i32| x as u32 as u64);
        $m!(i64, I64, |x: i64, m: u64| x ^ ((m as i64) | 1), |x: i64| x as u64);
        $m!(usize, Usize, |x: usize, m: u64| x ^ ((m as usize) | 1), |x: usize| x as u64);
        $m!(
            (usize, usize),
            UsizePair,
            |x: (usize, usize), m: u64| (x.0 ^ ((m as usize) | 1), x.1),
            |x: (usize, usize)| (x.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x.1 as u64)
        );
    };
}
pub(crate) use for_each_comm_scalar;

macro_rules! impl_comm_scalar {
    ($t:ty, $v:ident, $corrupt:expr, $bits:expr) => {
        impl CommScalar for $t {
            fn corrupt(self, mask: u64) -> Self {
                #[allow(clippy::redundant_closure_call)]
                ($corrupt)(self, mask)
            }

            fn checksum_bits(self) -> u64 {
                #[allow(clippy::redundant_closure_call)]
                ($bits)(self)
            }
        }
    };
}
for_each_comm_scalar!(impl_comm_scalar);

/// The integrity envelope riding on a message: a per-(link, tag) stream
/// sequence number and an end-to-end payload checksum, both assigned by
/// the sender *before* anything (fault injection, a real NIC) can touch
/// the payload. See [`crate::integrity`] for the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Position of this message in its `(src, dst, tag)` stream, from 0.
    pub seq: u64,
    /// FNV-1a over `(tag, seq, len, element bits)` of the pristine
    /// payload; see [`crate::integrity::checksum_payload`].
    pub checksum: u64,
}

/// A message in flight: tag, payload (a boxed `Vec<T>`), its modeled
/// wire size in bytes, and its virtual-time arrival stamp.
pub(crate) struct Envelope {
    pub tag: Tag,
    pub payload: Box<dyn Any + Send>,
    /// Modeled wire size; accounted on the send side (MPI convention),
    /// carried for debugging.
    #[allow(dead_code)]
    pub bytes: usize,
    /// Virtual time at which the message arrives at the receiver
    /// (sender clock at send + modeled link time); 0 when the world is
    /// not running under a virtual clock.
    pub arrival: f64,
    /// Integrity envelope (sequence number + checksum); `None` when the
    /// sender did not run the integrity layer.
    pub header: Option<WireHeader>,
}

/// Per-source stash of messages received ahead of a matching `recv`.
#[derive(Default)]
pub(crate) struct Stash {
    pending: VecDeque<Envelope>,
}

impl Stash {
    /// Remove and return the first stashed envelope with `tag`, if any.
    pub fn take(&mut self, tag: Tag) -> Option<Envelope> {
        let idx = self.pending.iter().position(|e| e.tag == tag)?;
        self.pending.remove(idx)
    }

    /// Stash an envelope that did not match the current receive.
    pub fn put(&mut self, env: Envelope) {
        self.pending.push_back(env);
    }

    /// Number of stashed messages (used by shutdown assertions in tests).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.pending.len()
    }
}

/// Two-sided message passing within a group of ranks.
///
/// Implemented by [`crate::WorldComm`] (the whole world) and
/// [`crate::SubComm`] (an `MPI_Comm_split`-style subgroup). All collective
/// operations ([`crate::Collectives`]) are provided generically on top of
/// this trait, so they work identically on worlds and subgroups.
pub trait Communicator {
    /// This rank's index within the communicator, in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Send `data` to `dst` with `tag`. Never blocks.
    fn send<T: CommScalar>(&self, dst: usize, tag: Tag, data: Vec<T>);

    /// Blockingly receive a message from `src` carrying `tag`.
    ///
    /// # Panics
    /// Panics if the matching message's element type is not `T`; that is
    /// a protocol bug on the caller's side.
    fn recv<T: CommScalar>(&self, src: usize, tag: Tag) -> Vec<T>;

    /// Record a collective's contribution to this rank's traffic stats.
    fn record(&self, class: OpClass, messages: u64, bytes: u64);

    /// Record that one send to `dst` was dropped instead of delivered
    /// (the receiver is gone, or fault injection ate the message). The
    /// default is a no-op; [`crate::WorldComm`] counts it in
    /// [`crate::TrafficStats`] and surfaces it in watchdog diagnostics,
    /// and wrappers delegate.
    fn note_dropped_send(&self, dst: usize) {
        let _ = dst;
    }

    /// Record one retransmission on this rank (a dropped message resent
    /// at the link layer, or a replay-window pull after a checksum
    /// mismatch). Default no-op; [`crate::WorldComm`] counts it in
    /// [`crate::TrafficStats`] and watchdog diagnostics, wrappers
    /// delegate.
    fn note_retransmit(&self) {}

    /// Record one corrupted message that the integrity layer detected
    /// and repaired on this rank. Default no-op; [`crate::WorldComm`]
    /// counts it in [`crate::TrafficStats`] and watchdog diagnostics,
    /// wrappers delegate.
    fn note_corrupt_repaired(&self) {}

    /// Record `nanos` of wall time this rank spent stalled in
    /// receiver-side integrity repair (first checksum mismatch to
    /// accepted retransmission). Default no-op; [`crate::WorldComm`]
    /// accumulates it in [`crate::TrafficStats`], wrappers delegate —
    /// this is how a resilient driver reports rung-1 wall time without
    /// instrumenting the training loop.
    fn note_repair_time(&self, nanos: u64) {
        let _ = nanos;
    }

    /// Report that the sender-side integrity replay window holds `bytes`
    /// of staged payloads after this rank's latest send — a gauge, not a
    /// counter. Default no-op; [`crate::WorldComm`] keeps the high-water
    /// mark in [`crate::TrafficStats`] (the observable counterpart of
    /// the static memory analyzer's comm-staging term), wrappers
    /// delegate.
    fn note_replay_held(&self, bytes: u64) {
        let _ = bytes;
    }

    /// A snapshot of this rank's traffic counters, if the communicator
    /// keeps them. Default `None`; [`crate::WorldComm`] returns its
    /// stats and wrappers delegate, so generic drivers (e.g. the
    /// resilient trainer) can report repair telemetry without knowing
    /// the concrete wrapper stack.
    fn stats_snapshot(&self) -> Option<crate::stats::TrafficStats> {
        None
    }

    /// Record one straggler verdict against this rank (the detector
    /// agreed this rank is persistently slow). Default no-op;
    /// [`crate::WorldComm`] counts it in [`crate::TrafficStats`],
    /// wrappers delegate.
    fn note_straggler_flag(&self) {}

    /// Publish the straggler detector's per-rank slowness ratios
    /// (step-time EMA over world median, 1.0 = healthy) so the deadlock
    /// watchdog can annotate its wait graph — "waiting on rank 3, which
    /// is 4× slow" reads very differently from "deadlocked". Default
    /// no-op; [`crate::WorldComm`] forwards to its monitor, wrappers
    /// delegate.
    fn note_rank_slowness(&self, ratios: &[f64]) {
        let _ = ratios;
    }

    /// Nanoseconds this rank has spent *outside* the communicator —
    /// compute time between communication operations, excluding time
    /// blocked in receives. Default 0; [`crate::WorldComm`] measures it
    /// (each op entry accrues the gap since the previous op returned)
    /// and wrappers delegate. This is the per-rank step-time signal the
    /// straggler detector feeds on: a gray-failed rank's compute gaps
    /// stretch while healthy peers' stay flat.
    fn busy_nanos(&self) -> u64 {
        0
    }

    /// Send `data` carrying an integrity envelope. The default drops the
    /// envelope (plain send), which is correct for communicators that
    /// never sit under the integrity layer; [`crate::WorldComm`] carries
    /// the header through its channels, and [`crate::fault::FaultyComm`]
    /// overrides this to apply faults *after* the envelope is attached —
    /// so injected corruption is detectable and injected drops are
    /// repaired by link-layer retransmission.
    fn send_enveloped<T: CommScalar>(
        &self,
        dst: usize,
        tag: Tag,
        data: Vec<T>,
        header: WireHeader,
    ) {
        let _ = header;
        self.send(dst, tag, data);
    }

    /// Receive a message together with its integrity envelope, if the
    /// sender attached one. The default performs a plain receive and
    /// reports no envelope.
    fn recv_enveloped<T: CommScalar>(&self, src: usize, tag: Tag) -> (Vec<T>, Option<WireHeader>) {
        (self.recv(src, tag), None)
    }

    /// Combined send + receive, deadlock-free because sends are eager.
    ///
    /// Sends `data` to `dst` and receives one message from `src`, both
    /// under `tag`. This is the workhorse of halo exchanges and the ring
    /// and recursive-doubling collectives.
    fn sendrecv<T: CommScalar>(&self, dst: usize, src: usize, tag: Tag, data: Vec<T>) -> Vec<T> {
        self.send(dst, tag, data);
        self.recv(src, tag)
    }

    /// Allocate a fresh tag in the reserved space for one collective call.
    ///
    /// All ranks of a communicator must invoke collectives in the same
    /// order (the usual MPI requirement), so per-rank counters agree.
    fn next_collective_tag(&self) -> Tag;

    /// Run `f` with sends attributed to `class` in the traffic stats.
    /// The default implementation performs no attribution; the world
    /// communicator overrides it, and sub-communicators delegate to their
    /// parent.
    fn with_class<R>(&self, class: OpClass, f: impl FnOnce() -> R) -> R
    where
        Self: Sized,
    {
        let _ = class;
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_always_changes_the_value() {
        // The `| 1` in every corruption expression guarantees an
        // observable change even for mask 0.
        for mask in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_ne!(1.5f32.corrupt(mask).to_bits(), 1.5f32.to_bits());
            assert_ne!(2.5f64.corrupt(mask).to_bits(), 2.5f64.to_bits());
            assert_ne!(7u8.corrupt(mask), 7);
            assert_ne!(7u32.corrupt(mask), 7);
            assert_ne!(7u64.corrupt(mask), 7);
            assert_ne!((-7i32).corrupt(mask), -7);
            assert_ne!((-7i64).corrupt(mask), -7);
            assert_ne!(7usize.corrupt(mask), 7);
            assert_ne!((1usize, 2usize).corrupt(mask), (1, 2));
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        assert_eq!(3.25f32.corrupt(42).to_bits(), 3.25f32.corrupt(42).to_bits());
        assert_eq!(99u64.corrupt(7), 99u64.corrupt(7));
    }

    #[test]
    fn checksum_bits_differ_after_corruption() {
        // The checksum feed must see every injected corruption: for each
        // scalar, corrupting changes `checksum_bits`.
        for mask in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_ne!(1.5f32.corrupt(mask).checksum_bits(), 1.5f32.checksum_bits());
            assert_ne!(2.5f64.corrupt(mask).checksum_bits(), 2.5f64.checksum_bits());
            assert_ne!(7u8.corrupt(mask).checksum_bits(), 7u8.checksum_bits());
            assert_ne!(7u32.corrupt(mask).checksum_bits(), 7u32.checksum_bits());
            assert_ne!(7u64.corrupt(mask).checksum_bits(), 7u64.checksum_bits());
            assert_ne!((-7i32).corrupt(mask).checksum_bits(), (-7i32).checksum_bits());
            assert_ne!((-7i64).corrupt(mask).checksum_bits(), (-7i64).checksum_bits());
            assert_ne!(7usize.corrupt(mask).checksum_bits(), 7usize.checksum_bits());
            assert_ne!((1usize, 2usize).corrupt(mask).checksum_bits(), (1, 2).checksum_bits());
        }
    }

    fn plain(tag: Tag, payload: Vec<f32>) -> Envelope {
        Envelope { tag, payload: Box::new(payload), bytes: 4, arrival: 0.0, header: None }
    }

    #[test]
    fn stash_matches_by_tag_in_fifo_order() {
        let mut s = Stash::default();
        s.put(plain(7, vec![1f32]));
        s.put(plain(9, vec![2f32]));
        s.put(plain(7, vec![3f32]));
        let first = s.take(7).expect("tag 7 present");
        assert_eq!(*first.payload.downcast::<Vec<f32>>().unwrap(), vec![1f32]);
        let nine = s.take(9).expect("tag 9 present");
        assert_eq!(*nine.payload.downcast::<Vec<f32>>().unwrap(), vec![2f32]);
        let second = s.take(7).expect("second tag 7 present");
        assert_eq!(*second.payload.downcast::<Vec<f32>>().unwrap(), vec![3f32]);
        assert!(s.take(7).is_none());
        assert_eq!(s.len(), 0);
    }
}
