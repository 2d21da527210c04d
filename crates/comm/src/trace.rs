//! Symbolic communication traces for static schedule verification.
//!
//! The schedule verifier (`fg-core::verify`) walks every rank's compiled
//! plans and records what each rank *would* put on the wire — shapes,
//! element counts, and tags only, never tensor data — into a
//! [`RankTrace`]. This module owns the trace model and the trace-level
//! checks:
//!
//! * **p2p matching** ([`CheckKind::P2pMatching`]): on every
//!   `(src, dst, tag)` stream, sends and receives pair off FIFO with
//!   equal element counts and scalar types. An unmatched op is a message
//!   that would never be consumed (or a recv that would block forever) —
//!   the static shadow of a deadlock.
//! * **collective consistency** ([`CheckKind::CollectiveConsistency`]):
//!   all members of a collective's group issue the same collective
//!   sequence — same kind, count, scalar type, and simulated tag, in the
//!   same order. A rank that skips a collective (or disagrees on the
//!   payload size) would hang or corrupt the reduction at runtime.
//! * **tag discipline** ([`CheckKind::TagDiscipline`]): within one rank,
//!   a `(peer, tag, direction)` stream belongs to exactly one exchange
//!   context. Two concurrent exchanges sharing a stream would let
//!   receives match the wrong message and desync the integrity layer's
//!   per-stream sequence numbers.
//!
//! Tag simulation uses the exact formulas the live communicators use
//! ([`crate::p2p::world_collective_tag`] /
//! [`crate::p2p::sub_collective_tag`]), with one per-rank world counter.
//! Because every halo exchange, shuffle, and world collective draws a
//! world tag, a rank whose plan drops one such op desyncs its simulated
//! counter and every later tag mismatches — so omissions surface even
//! when the op itself left no unmatched partner.
//!
//! The geometric checks that need plan internals — halo symmetry and
//! shuffle/regrid conservation — live with the plan types
//! (`fg-tensor`) and the walker (`fg-core::verify`); their findings are
//! reported through the same [`Violation`] type.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::p2p::{for_each_comm_scalar, sub_collective_tag, world_collective_tag, CommScalar, Tag};

/// The closed set of wire scalar types a trace records — exactly the
/// [`CommScalar`] impls generated by `for_each_comm_scalar!` in `p2p`.
/// A test pins the two lists to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    F32,
    F64,
    U8,
    U32,
    U64,
    I32,
    I64,
    Usize,
    UsizePair,
}

impl ScalarType {
    /// Every wire type, in declaration order.
    pub const ALL: [ScalarType; 9] = [
        ScalarType::F32,
        ScalarType::F64,
        ScalarType::U8,
        ScalarType::U32,
        ScalarType::U64,
        ScalarType::I32,
        ScalarType::I64,
        ScalarType::Usize,
        ScalarType::UsizePair,
    ];

    /// Wire width of one element in bytes — the same accounting as
    /// [`CommScalar::WIDTH`], generated from the same scalar list so the
    /// two can never diverge. The schedule verifier uses it to total the
    /// bytes a traced plan moves.
    pub fn width(self) -> usize {
        macro_rules! width_arm {
            ($t:ty, $v:ident, $c:expr, $b:expr) => {
                if let ScalarType::$v = self {
                    return <$t as CommScalar>::WIDTH;
                }
            };
        }
        for_each_comm_scalar!(width_arm);
        unreachable!("for_each_comm_scalar! covers every ScalarType variant")
    }
}

/// Which verifier check produced a [`Violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// An unpaired or mismatched point-to-point op (check 1).
    P2pMatching,
    /// Group members disagree on the collective sequence (check 2).
    CollectiveConsistency,
    /// A halo send is not the region the peer expects (check 3).
    HaloSymmetry,
    /// A shuffle/regrid does not partition its target (check 4).
    Conservation,
    /// A `(src, dst, tag)` stream shared by two exchanges (check 5).
    TagDiscipline,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::P2pMatching => "p2p-matching",
            CheckKind::CollectiveConsistency => "collective-consistency",
            CheckKind::HaloSymmetry => "halo-symmetry",
            CheckKind::Conservation => "conservation",
            CheckKind::TagDiscipline => "tag-discipline",
        };
        f.write_str(s)
    }
}

/// One verifier finding: which check failed, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check that failed.
    pub check: CheckKind,
    /// The offending rank.
    pub rank: usize,
    /// The offending layer (index into the network spec).
    pub layer: usize,
    /// The offending layer's name.
    pub layer_name: String,
    /// Human-readable specifics (tags, counts, peers).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] rank {} layer {} ({}): {}",
            self.check, self.rank, self.layer, self.layer_name, self.detail
        )
    }
}

/// Aggregate counters from a verification pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Total trace ops recorded across all ranks.
    pub ops_traced: usize,
    /// Distinct `(src, dst, tag)` p2p streams checked.
    pub links_checked: usize,
    /// Collective instances checked (per group, not per member).
    pub collectives_checked: usize,
    /// Payload bytes accounted: every send plus every member's
    /// collective contribution.
    pub bytes_accounted: usize,
}

/// Whether an op was recorded during the forward or backward walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
        })
    }
}

/// The collective operations the executor's plans issue. All layer
/// collectives are sum-allreduces (world or subgroup); the enum leaves
/// room for rooted collectives should a layer ever plan one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// `allreduce(_, ReduceOp::Sum)`.
    AllreduceSum,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Modeled local compute time, seconds. A newtype so [`TraceOp`] can
/// stay `Eq`: comparison is on the `f64` bit pattern, which is the right
/// notion here because recorded costs come from deterministic models.
#[derive(Debug, Clone, Copy, PartialOrd)]
pub struct SimSeconds(pub f64);

impl PartialEq for SimSeconds {
    fn eq(&self, other: &SimSeconds) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for SimSeconds {}

/// One symbolic wire operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// A point-to-point send of `count` elements of `ty` to `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: Tag,
        /// Element count.
        count: usize,
        /// Element type.
        ty: ScalarType,
    },
    /// A point-to-point receive from `from`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: Tag,
        /// Element count the plan expects.
        count: usize,
        /// Element type.
        ty: ScalarType,
    },
    /// A collective, recorded atomically on each member (one collective
    /// = one tag draw, so member agreement on the tuple is exactly what
    /// the runtime needs to pair the underlying messages).
    Collective {
        /// Operation kind.
        kind: CollectiveKind,
        /// Ordered member ranks (world ranks). Shared, not owned: a
        /// 2048-rank world records ~2048 references to *one* member
        /// list per group, not 2048² rank copies.
        members: Arc<[usize]>,
        /// Per-member payload element count.
        count: usize,
        /// Element type.
        ty: ScalarType,
        /// Simulated collective tag.
        tag: Tag,
    },
    /// Modeled local compute: the rank's virtual clock advances by
    /// `secs` without touching the wire (mirrors `WorldComm::advance`).
    Advance {
        /// Modeled duration, seconds.
        secs: SimSeconds,
    },
}

/// A [`TraceOp`] plus where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Layer the op belongs to.
    pub layer: usize,
    /// Forward or backward walk.
    pub phase: Phase,
    /// Exchange context: one logical exchange (one halo exchange, one
    /// shuffle, one collective) per id. Streams may not span contexts.
    pub ctx: u64,
    /// The op itself.
    pub op: TraceOp,
}

/// Everything one rank would put on the wire in one training step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The rank the trace belongs to.
    pub rank: usize,
    /// Ops in program order.
    pub entries: Vec<TraceEntry>,
}

/// Records one rank's symbolic trace while the verifier walks its plans,
/// simulating the rank's world-collective tag counter along the way.
#[derive(Debug)]
pub struct TraceRecorder {
    rank: usize,
    world: usize,
    /// The full-world member list, built once and shared by every
    /// world-collective entry this recorder emits.
    world_members: Arc<[usize]>,
    world_counter: u64,
    ctx: u64,
    layer: usize,
    phase: Phase,
    entries: Vec<TraceEntry>,
}

impl TraceRecorder {
    /// A fresh recorder for `rank` of `world` ranks; counters at zero,
    /// exactly like a freshly constructed communicator.
    pub fn new(rank: usize, world: usize) -> TraceRecorder {
        TraceRecorder {
            rank,
            world,
            world_members: (0..world).collect(),
            world_counter: 0,
            ctx: 0,
            layer: 0,
            phase: Phase::Forward,
            entries: Vec::new(),
        }
    }

    /// The rank being traced.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The world size being traced.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Attribute subsequent ops to `layer` in `phase`.
    pub fn scope(&mut self, layer: usize, phase: Phase) {
        self.layer = layer;
        self.phase = phase;
    }

    /// Open a new exchange context (one halo exchange, one shuffle).
    pub fn begin_exchange(&mut self) {
        self.ctx += 1;
    }

    /// Draw the next world-collective tag, advancing this rank's
    /// simulated counter — mirrors `WorldComm::next_collective_tag`.
    pub fn next_world_tag(&mut self) -> Tag {
        let tag = world_collective_tag(self.world_counter);
        self.world_counter += 1;
        tag
    }

    /// Record a point-to-point send in the current context.
    pub fn send(&mut self, to: usize, tag: Tag, count: usize, ty: ScalarType) {
        self.push(TraceOp::Send { to, tag, count, ty });
    }

    /// Record a point-to-point receive in the current context.
    pub fn recv(&mut self, from: usize, tag: Tag, count: usize, ty: ScalarType) {
        self.push(TraceOp::Recv { from, tag, count, ty });
    }

    /// Record `secs` of modeled local compute (a kernel time from a
    /// device model). Zero-cost advances are skipped — they cannot move
    /// any clock.
    pub fn advance(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0, "time moves forward");
        if secs > 0.0 {
            self.push(TraceOp::Advance { secs: SimSeconds(secs) });
        }
    }

    /// Record a world-scope sum-allreduce. Mirrors the runtime exactly:
    /// a singleton world or an empty payload returns locally without
    /// drawing a tag, so neither advances the simulated counter.
    pub fn world_allreduce(&mut self, count: usize, ty: ScalarType) {
        if self.world <= 1 || count == 0 {
            return;
        }
        self.begin_exchange();
        let tag = self.next_world_tag();
        let members = Arc::clone(&self.world_members);
        self.push(TraceOp::Collective {
            kind: CollectiveKind::AllreduceSum,
            members,
            count,
            ty,
            tag,
        });
    }

    /// Record a subgroup sum-allreduce on a bound layout. Every plan
    /// bind starts the subgroup counter at zero, so the first (and only)
    /// collective of a bind always draws counter value 0 — and, like the
    /// runtime, singleton groups and empty payloads are local no-ops.
    pub fn sub_allreduce(
        &mut self,
        members: &[usize],
        group_id: u64,
        count: usize,
        ty: ScalarType,
    ) {
        if members.len() <= 1 || count == 0 {
            return;
        }
        self.begin_exchange();
        let tag = sub_collective_tag(group_id, 0);
        self.push(TraceOp::Collective {
            kind: CollectiveKind::AllreduceSum,
            members: members.into(),
            count,
            ty,
            tag,
        });
    }

    /// Finish recording.
    pub fn finish(self) -> RankTrace {
        RankTrace { rank: self.rank, entries: self.entries }
    }

    fn push(&mut self, op: TraceOp) {
        self.entries.push(TraceEntry { layer: self.layer, phase: self.phase, ctx: self.ctx, op });
    }
}

/// A p2p op's identity for matching and discipline checks.
#[derive(Debug, Clone, Copy)]
struct P2pRef {
    layer: usize,
    phase: Phase,
    count: usize,
    ty: ScalarType,
}

/// Run the trace-level checks (p2p matching, collective consistency,
/// tag discipline) over all ranks' traces. `layer_names` maps layer
/// indices to names for diagnostics. Returns the aggregate stats and
/// every violation found — an empty violation list means the traced
/// schedule cannot deadlock or mismatch at the message level.
pub fn check_traces(traces: &[RankTrace], layer_names: &[String]) -> (VerifyStats, Vec<Violation>) {
    let mut stats = VerifyStats::default();
    let mut violations = Vec::new();
    let name = |layer: usize| layer_names.get(layer).cloned().unwrap_or_else(|| "?".into());

    // ---- Check 1: p2p matching, FIFO per (src, dst, tag) stream. ----
    let mut sends: BTreeMap<(usize, usize, Tag), VecDeque<P2pRef>> = BTreeMap::new();
    let mut recvs: BTreeMap<(usize, usize, Tag), VecDeque<P2pRef>> = BTreeMap::new();
    for t in traces {
        for e in &t.entries {
            stats.ops_traced += 1;
            let r = |count, ty| P2pRef { layer: e.layer, phase: e.phase, count, ty };
            match &e.op {
                TraceOp::Send { to, tag, count, ty } => {
                    stats.bytes_accounted += count * ty.width();
                    sends.entry((t.rank, *to, *tag)).or_default().push_back(r(*count, *ty));
                }
                TraceOp::Recv { from, tag, count, ty } => {
                    recvs.entry((*from, t.rank, *tag)).or_default().push_back(r(*count, *ty));
                }
                TraceOp::Collective { count, ty, .. } => {
                    stats.bytes_accounted += count * ty.width();
                }
                TraceOp::Advance { .. } => {}
            }
        }
    }
    let mut streams: Vec<(usize, usize, Tag)> = sends.keys().chain(recvs.keys()).copied().collect();
    streams.sort_unstable();
    streams.dedup();
    stats.links_checked = streams.len();
    for key in streams {
        let (src, dst, tag) = key;
        let mut s = sends.remove(&key).unwrap_or_default();
        let mut r = recvs.remove(&key).unwrap_or_default();
        loop {
            match (s.pop_front(), r.pop_front()) {
                (Some(sr), Some(rr)) => {
                    if sr.count != rr.count || sr.ty != rr.ty {
                        violations.push(Violation {
                            check: CheckKind::P2pMatching,
                            rank: src,
                            layer: sr.layer,
                            layer_name: name(sr.layer),
                            detail: format!(
                                "{} send of {} {:?} to rank {dst} (tag {tag:#x}) meets a recv \
                                 expecting {} {:?} (recv at layer {} {})",
                                sr.phase, sr.count, sr.ty, rr.count, rr.ty, rr.layer, rr.phase
                            ),
                        });
                    }
                }
                (Some(sr), None) => violations.push(Violation {
                    check: CheckKind::P2pMatching,
                    rank: src,
                    layer: sr.layer,
                    layer_name: name(sr.layer),
                    detail: format!(
                        "{} send of {} {:?} to rank {dst} (tag {tag:#x}) has no matching recv \
                         — the message would never be consumed",
                        sr.phase, sr.count, sr.ty
                    ),
                }),
                (None, Some(rr)) => violations.push(Violation {
                    check: CheckKind::P2pMatching,
                    rank: dst,
                    layer: rr.layer,
                    layer_name: name(rr.layer),
                    detail: format!(
                        "{} recv of {} {:?} from rank {src} (tag {tag:#x}) has no matching send \
                         — the rank would block forever",
                        rr.phase, rr.count, rr.ty
                    ),
                }),
                (None, None) => break,
            }
        }
    }

    // ---- Check 2: collective consistency per member set. ----
    // For each distinct (sorted) member set, every member's subsequence
    // of collectives on that set must be identical — kind, count, type,
    // and simulated tag, in the same order.
    type CollSeq = Vec<(CollectiveKind, usize, ScalarType, Tag, usize, Phase)>;
    let mut groups: BTreeMap<Vec<usize>, BTreeMap<usize, CollSeq>> = BTreeMap::new();
    for t in traces {
        for e in &t.entries {
            if let TraceOp::Collective { kind, members, count, ty, tag } = &e.op {
                // Member lists are recorded sorted (world ranges, group
                // layouts); look them up by slice to avoid cloning a
                // world-sized key per op — at 2048 ranks the naive
                // clone-per-op is gigabytes of transient allocation.
                let per_rank = if members.windows(2).all(|w| w[0] <= w[1]) {
                    if !groups.contains_key(&members[..]) {
                        groups.insert(members.to_vec(), BTreeMap::new());
                    }
                    groups.get_mut(&members[..]).expect("present or just inserted")
                } else {
                    let mut key = members.to_vec();
                    key.sort_unstable();
                    groups.entry(key).or_default()
                };
                per_rank
                    .entry(t.rank)
                    .or_default()
                    .push((*kind, *count, *ty, *tag, e.layer, e.phase));
            }
        }
    }
    for (members, per_rank) in &groups {
        // Reference: the longest member sequence (so a rank that drops a
        // collective is reported as missing it, not as the reference).
        let reference = members
            .iter()
            .filter_map(|r| per_rank.get(r))
            .max_by_key(|seq| seq.len())
            .cloned()
            .unwrap_or_default();
        stats.collectives_checked += reference.len();
        for &rank in members {
            let seq = per_rank.get(&rank).cloned().unwrap_or_default();
            let first_diff = reference
                .iter()
                .zip(seq.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(reference.len().min(seq.len()));
            if first_diff == reference.len() && seq.len() == reference.len() {
                continue;
            }
            let (layer, phase, detail) = match (reference.get(first_diff), seq.get(first_diff)) {
                (Some(want), Some(have)) => (
                    have.4,
                    have.5,
                    format!(
                        "collective #{first_diff} of group {members:?} diverges: this rank \
                         issues {:?} of {} {:?} (tag {:#x}), the group issues {:?} of {} {:?} \
                         (tag {:#x}, layer {})",
                        have.0, have.1, have.2, have.3, want.0, want.1, want.2, want.3, want.4
                    ),
                ),
                (Some(want), None) => (
                    want.4,
                    want.5,
                    format!(
                        "rank never issues collective #{first_diff} of group {members:?} \
                         ({:?} of {} {:?}, tag {:#x}) — the group would hang waiting for it",
                        want.0, want.1, want.2, want.3
                    ),
                ),
                (None, Some(extra)) => (
                    extra.4,
                    extra.5,
                    format!(
                        "rank issues a surplus collective #{first_diff} on group {members:?} \
                         ({:?} of {} {:?}, tag {:#x}) that no other member joins",
                        extra.0, extra.1, extra.2, extra.3
                    ),
                ),
                (None, None) => unreachable!("lengths equal and no diff was handled above"),
            };
            let _ = phase;
            violations.push(Violation {
                check: CheckKind::CollectiveConsistency,
                rank,
                layer,
                layer_name: name(layer),
                detail,
            });
        }
    }

    // ---- Check 5: tag/stream discipline. ----
    // A (peer, tag, direction) stream on one rank must belong to exactly
    // one exchange context, with at most one op — otherwise two
    // exchanges share a stream and FIFO matching (and the integrity
    // layer's per-stream sequence numbers) becomes ambiguous.
    for t in traces {
        let mut seen: BTreeMap<(usize, Tag, bool), (u64, usize)> = BTreeMap::new();
        for e in &t.entries {
            let (peer, tag, is_send) = match &e.op {
                TraceOp::Send { to, tag, .. } => (*to, *tag, true),
                TraceOp::Recv { from, tag, .. } => (*from, *tag, false),
                TraceOp::Collective { .. } | TraceOp::Advance { .. } => continue,
            };
            match seen.get(&(peer, tag, is_send)) {
                None => {
                    seen.insert((peer, tag, is_send), (e.ctx, e.layer));
                }
                Some(&(ctx, first_layer)) => {
                    let dir = if is_send { "send" } else { "recv" };
                    let how = if ctx == e.ctx {
                        "twice within one exchange (FIFO matching is ambiguous)"
                    } else {
                        "from two concurrent exchanges (streams would interleave)"
                    };
                    violations.push(Violation {
                        check: CheckKind::TagDiscipline,
                        rank: t.rank,
                        layer: e.layer,
                        layer_name: name(e.layer),
                        detail: format!(
                            "{dir} stream to/from rank {peer} (tag {tag:#x}) is used {how}; \
                             first use at layer {first_layer}"
                        ),
                    });
                }
            }
        }
    }

    (stats, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_traces() -> Vec<RankTrace> {
        let mut a = TraceRecorder::new(0, 2);
        let mut b = TraceRecorder::new(1, 2);
        for rec in [&mut a, &mut b] {
            rec.scope(1, Phase::Forward);
            rec.begin_exchange();
            let tag = rec.next_world_tag();
            let peer = 1 - rec.rank();
            rec.send(peer, tag, 8, ScalarType::F32);
            rec.recv(peer, tag, 8, ScalarType::F32);
            rec.scope(2, Phase::Forward);
            rec.world_allreduce(5, ScalarType::F64);
        }
        vec![a.finish(), b.finish()]
    }

    fn names() -> Vec<String> {
        (0..4).map(|i| format!("l{i}")).collect()
    }

    /// `ScalarType::width` is generated from `for_each_comm_scalar!`;
    /// a [`ScalarType`] variant without a macro entry (or the reverse)
    /// breaks the count or membership assertions here.
    #[test]
    fn every_comm_scalar_has_a_scalar_type() {
        let mut covered: Vec<ScalarType> = Vec::new();
        macro_rules! check_one {
            ($t:ty, $v:ident, $c:expr, $b:expr) => {
                assert_eq!(ScalarType::$v.width(), std::mem::size_of::<$t>());
                covered.push(ScalarType::$v);
            };
        }
        for_each_comm_scalar!(check_one);
        assert_eq!(
            covered.len(),
            ScalarType::ALL.len(),
            "for_each_comm_scalar! and ScalarType::ALL list different scalar counts: \
             extend both in lockstep (comm/src/p2p.rs and comm/src/trace.rs)"
        );
        for ty in ScalarType::ALL {
            assert!(
                covered.contains(&ty),
                "{ty:?} is listed in ScalarType::ALL but has no for_each_comm_scalar! entry"
            );
        }
    }

    #[test]
    fn clean_traces_verify_clean() {
        let (stats, violations) = check_traces(&two_rank_traces(), &names());
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.ops_traced, 6);
        assert_eq!(stats.links_checked, 2);
        assert_eq!(stats.collectives_checked, 1);
        // 2 sends × 8 f32 + 2 members × 5 f64.
        assert_eq!(stats.bytes_accounted, 2 * 8 * 4 + 2 * 5 * 8);
    }

    #[test]
    fn unmatched_send_is_reported_with_rank_and_layer() {
        let mut traces = two_rank_traces();
        // Drop rank 1's halo recv: rank 0's send goes unconsumed.
        traces[1].entries.retain(|e| !matches!(e.op, TraceOp::Recv { .. }));
        let (_, violations) = check_traces(&traces, &names());
        assert!(violations
            .iter()
            .any(|v| v.check == CheckKind::P2pMatching && v.rank == 0 && v.layer == 1));
    }

    #[test]
    fn count_mismatch_is_reported() {
        let mut traces = two_rank_traces();
        for e in &mut traces[0].entries {
            if let TraceOp::Send { count, .. } = &mut e.op {
                *count = 7;
            }
        }
        let (_, violations) = check_traces(&traces, &names());
        assert!(violations.iter().any(|v| v.check == CheckKind::P2pMatching && v.rank == 0));
    }

    #[test]
    fn dropped_collective_is_reported_against_the_skipping_rank() {
        let mut traces = two_rank_traces();
        traces[1].entries.retain(|e| !matches!(e.op, TraceOp::Collective { .. }));
        let (_, violations) = check_traces(&traces, &names());
        assert!(violations
            .iter()
            .any(|v| v.check == CheckKind::CollectiveConsistency && v.rank == 1 && v.layer == 2));
    }

    #[test]
    fn tag_collision_across_exchanges_is_reported() {
        let mut rec = TraceRecorder::new(0, 2);
        rec.scope(1, Phase::Forward);
        rec.begin_exchange();
        rec.send(1, world_collective_tag(0), 4, ScalarType::F32);
        rec.begin_exchange();
        rec.send(1, world_collective_tag(0), 4, ScalarType::F32);
        let mut peer = TraceRecorder::new(1, 2);
        peer.scope(1, Phase::Forward);
        peer.begin_exchange();
        peer.recv(0, world_collective_tag(0), 4, ScalarType::F32);
        peer.begin_exchange();
        peer.recv(0, world_collective_tag(0), 4, ScalarType::F32);
        let (_, violations) = check_traces(&[rec.finish(), peer.finish()], &names());
        assert!(violations.iter().any(|v| v.check == CheckKind::TagDiscipline && v.rank == 0));
        assert!(violations.iter().any(|v| v.check == CheckKind::TagDiscipline && v.rank == 1));
    }

    #[test]
    fn singleton_world_records_no_collectives() {
        let mut rec = TraceRecorder::new(0, 1);
        rec.world_allreduce(100, ScalarType::F32);
        rec.sub_allreduce(&[0], 7, 100, ScalarType::F32);
        assert!(rec.finish().entries.is_empty());
    }
}
