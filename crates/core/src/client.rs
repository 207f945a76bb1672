//! The shared client-side query driver.
//!
//! All three DSI search algorithms (EEF point queries, window queries, kNN
//! queries) share one skeleton, which this module implements once:
//!
//! 1. tune in, doze to the next frame boundary, read its index table;
//! 2. fold the table's entries into the client's [`Knowledge`] (and hand
//!    them to the query as *virtual candidates* — "the object represented
//!    by HC′ᵢ", Algorithm 2);
//! 3. keep the *remainders* current: target HC intervals not yet accounted
//!    for;
//! 4. scan the current frame's object headers if its (conservatively
//!    estimated) span may overlap a remainder, retrieving qualifying
//!    objects;
//! 5. navigate: find the nearest frames, in broadcast order, that may
//!    still hold remainder content and doze to the earliest-arriving one.
//!    The search follows pointers instead of sweeping frame by frame:
//!    past a frame whose span misses every remainder it jumps to the
//!    *safe frame* of the next remainder — the frame with the largest
//!    known bound ≤ the remainder's start, which can never overshoot.
//!    This is the paper's energy-efficient forwarding generalised to
//!    interval targets; repeated hops converge like a base-`r` search.
//!
//! The remainder state is **incremental**: every learned bound and every
//! resolved header applies a localized delta inside [`QueryState`], so the
//! steady-state loop re-derives nothing and — together with the scratch
//! buffers in [`QueryScratch`] — performs no per-iteration allocations on
//! the no-loss path. In dsi-core's unit tests the driver audits that
//! state against the from-scratch oracle after every event.
//!
//! Remainders may be **lazy**: the kNN mode leaves rim blocks of its
//! search circle unsplit, and every question the driver asks of the
//! remainders — the first cell at or after a position, the last one
//! before it, any cell in a span, any cell at all — goes through
//! [`LazyRanges`], which has the mode settle exactly the entries the
//! question reaches. Window and point queries hold exact ranges; their
//! settle is a constant `false` that monomorphization removes.
//!
//! What differs between queries — which intervals are targets, which
//! objects qualify, when the query is complete, which remainder to chase
//! first — is abstracted as [`QueryMode`]. Link errors never abort a query:
//! a lost table is skipped (the next frame has another one), a lost header
//! or payload is recorded in [`Retries`](crate::state::Retries) and
//! re-fetched a cycle later, while all previously gathered knowledge stays
//! valid (§5).

use dsi_broadcast::Tuner;
use dsi_datagen::Object;
#[cfg(test)]
use dsi_hilbert::HcRange;
use dsi_hilbert::{HcSpan, LazyRanges, Reach};

use crate::build::{DsiAir, DsiPacket};
use crate::hotpath;
use crate::layout::DsiLayout;
use crate::state::{Knowledge, QueryState, Retries, ScanLog};
use crate::table::IndexTable;

/// Which destination the navigator should chase.
pub(crate) enum NavPick {
    /// The earliest-arriving frame that may overlap a live remainder
    /// (window queries and the conservative kNN strategy: "follow the
    /// first pointer Pᵢ with the range overlapping some segment of H").
    Earliest,
    /// Jump to a specific broadcast slot — the aggressive kNN strategy
    /// picks, among the last table's entry targets, the frame closest to
    /// the query point.
    Slot(u32),
}

/// How a [`QueryMode::refresh_targets`] call changed the target set; tells
/// the driver which remainder-update path is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TargetsChange {
    /// Targets are identical to the previous call; the driver re-derives
    /// nothing.
    Unchanged,
    /// Targets were rebuilt arbitrarily; remainders must be re-derived by
    /// subtracting the cleared set from the new targets.
    Replaced,
    /// Every new target is a previous target kept unchanged; the others
    /// were dropped (kNN: the search circle only ever shrinks). The driver
    /// may narrow the existing remainders in place — intersect them with
    /// the new targets — without consulting the cleared set at all.
    Narrowed,
}

/// Query-specific behaviour plugged into the shared driver.
pub(crate) trait QueryMode {
    /// A target entry: a plain range, or the kNN mode's circle entry with
    /// its distance bounds. Remainders carry the entry of the target they
    /// lie in.
    type Target: HcSpan;

    /// Updates the targets **iff they changed** since the last call and
    /// returns how. The driver derives remainders from them
    /// incrementally, so modes must only signal genuine changes (kNN: the
    /// search circle shrank) and may claim [`TargetsChange::Narrowed`]
    /// only when they kept or dropped whole targets.
    fn refresh_targets(&mut self) -> TargetsChange;

    /// The current targets, sorted and disjoint. An entry may be lazy — a
    /// kNN rim block standing for the circle cells it holds.
    fn targets(&self) -> &[Self::Target];

    /// Makes remainder `rem[i]` exact where `reach` reads it, returning
    /// `true`, or returns `false` if it already was (the contract of
    /// [`LazyRanges::settle`]). The kNN mode refines the lazy target
    /// `rem[i]` lies in along the probe's path and re-derives every
    /// remainder inside that target; static targets are always exact.
    #[inline]
    fn settle(&mut self, rem: &mut Vec<Self::Target>, i: usize, reach: Reach) -> bool {
        let _ = (rem, i, reach);
        false
    }

    /// Real objects with these HC values exist (one index table's entries,
    /// or the schema's block boundaries, delivered as a batch so the mode
    /// pays any per-update bookkeeping once per table rather than once per
    /// entry).
    fn on_virtuals(&mut self, hcs: &[u64]) {
        let _ = hcs;
    }

    /// An object header was received; return `true` to retrieve the full
    /// record.
    fn on_header(&mut self, o: &Object) -> bool;

    /// The full record was received.
    fn on_retrieved(&mut self, o: &Object);

    /// Extra completion condition beyond "no remainders, no retries"
    /// (kNN: the k best candidates are all retrieved).
    fn complete(&mut self) -> bool {
        true
    }

    /// Whether [`Self::nav_pick`] reads its `entry_targets`; the driver
    /// filters them only then, since the filter's probes settle lazy
    /// remainders.
    fn reads_entry_targets(&self) -> bool {
        false
    }

    /// Which destination to chase next. `entry_targets` holds the
    /// (broadcast slot, min HC) pairs of the most recently read index
    /// table that may still hold remainder content — the frames
    /// "reachable" from here in the paper's sense (empty unless
    /// [`Self::reads_entry_targets`]). Remainders the pick reads must be
    /// settled first.
    fn nav_pick(&mut self, rem: &mut Vec<Self::Target>, entry_targets: &[(u32, u64)]) -> NavPick {
        let _ = (rem, entry_targets);
        NavPick::Earliest
    }

    /// The exact ranges the targets settle to — the test-build oracle's
    /// side of [`QueryState::audit_rem`] — after checking that the held
    /// targets are consistent with them.
    #[cfg(test)]
    fn audit_targets(&self) -> Vec<HcRange> {
        self.targets().iter().map(|t| t.range()).collect()
    }

    /// `rem` with every lazy entry settled, computed on a copy — the live
    /// state is left as it is — as maximal ranges.
    #[cfg(test)]
    fn settled(&self, rem: &[Self::Target]) -> Vec<HcRange> {
        rem.iter().map(|t| t.range()).collect()
    }
}

/// The remainders as the driver's probes see them: answers are exact, and
/// a probe reaching a lazy entry has the mode settle it.
struct Remainders<'a, M: QueryMode> {
    rem: &'a mut Vec<M::Target>,
    mode: &'a mut M,
}

impl<M: QueryMode> LazyRanges for Remainders<'_, M> {
    type Item = M::Target;

    fn items(&self) -> &[M::Target] {
        self.rem
    }

    #[inline]
    fn settle(&mut self, i: usize, reach: Reach) -> bool {
        self.mode.settle(self.rem, i, reach)
    }
}

/// What the driver is about to do at its current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Positioned at the frame start of `slot`: read its index table.
    Table(u32),
    /// Visit objects of `slot`: retries, plus (optionally) the unread
    /// fresh tail.
    Visit { slot: u32, include_fresh: bool },
}

/// Reusable buffers owned by the driver so the steady-state loop performs
/// no per-iteration allocations.
#[derive(Default)]
struct QueryScratch {
    /// `(object index, is_retry)` visit plan of the current frame.
    visit: Vec<(u32, bool)>,
    /// Header flat positions of the visit plan, for the multi-antenna
    /// arrival-ordered visit.
    visit_flats: Vec<u64>,
    /// Targets of the most recently received index table, for the
    /// aggressive strategy's "reachable frame nearest the query point".
    entry_targets: Vec<(u32, u64)>,
    /// Entry targets that can still contribute, rebuilt per navigation.
    useful_entries: Vec<(u32, u64)>,
    /// HC values of the current table's entries, batched for
    /// [`QueryMode::on_virtuals`].
    virtuals: Vec<u64>,
    /// Flat positions of the current navigation candidates, handed to the
    /// tuner's batch arrival planner ([`Tuner::arrival_earliest`]).
    nav_flats: Vec<u64>,
    /// Arrival instants of the candidates (parallel to `nav_flats`),
    /// computed once while the candidates are gathered.
    nav_arrivals: Vec<u64>,
    /// What to do at each navigation candidate (parallel to `nav_flats`).
    nav_plans: Vec<Pending>,
    /// Slots found by the navigation jump search, in sweep order.
    nav_slots: Vec<u32>,
    /// One jump-search cursor per broadcast block.
    cursors: Vec<BlockCursor>,
}

/// Runs a query to completion. The tuner carries the metrics.
pub(crate) fn run_query<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    mode: &mut M,
) {
    let l = air.layout();
    let mut state = QueryState::<M::Target>::new(l, air.curve().max_d());
    let mut scratch = QueryScratch::default();
    // The schema's block boundaries are minimum HC values of real objects.
    mode.on_virtuals(l.block_min_hc());

    let slot0 = if tuner.program().n_channels() == 1 {
        // Single channel: the next frame boundary is a binary search.
        let (abs, slot0) = l.next_frame_boundary(tuner.pos());
        tuner.doze_to(abs);
        slot0
    } else {
        // Channels progress in parallel: take the earliest-arriving index
        // table across all of them (tables are what a fresh client needs).
        scratch
            .nav_flats
            .extend((0..l.n_frames()).map(|slot| l.frame_start(slot)));
        let (slot0, _) = tuner
            .arrival_earliest(&scratch.nav_flats)
            .expect("a cycle has at least one frame");
        tuner.goto(l.frame_start(slot0 as u32));
        slot0 as u32
    };
    let mut pending = Pending::Table(slot0);

    // Defensive bound: every iteration makes progress (reads a packet or
    // resolves a retry); the bound only trips on internal logic errors or
    // on channels so lossy that multi-packet objects are unreceivable.
    let mut fuel: u64 = 512 * (l.n_frames() as u64 + l.n_objects() as u64 + 64);
    loop {
        fuel -= 1;
        if fuel == 0 {
            // Livelock guard: a stuck retry set shows up here (and as a
            // run of consecutive losses in the tuner's own guard). Abort
            // with a diagnostic instead of returning a silently partial
            // answer.
            panic!(
                "DSI query did not terminate: fuel exhausted at instant {} \
                 ({} retries pending over {} slots, {} packets lost)",
                tuner.pos(),
                state.retries.total(),
                state.retries.iter_slots().count(),
                tuner.lost_reads(),
            );
        }
        let just_read_table = match pending {
            Pending::Table(slot) => {
                if let Some(tbl) = read_table(air, tuner, slot) {
                    scratch.entry_targets.clear();
                    scratch.virtuals.clear();
                    let nf = l.n_frames();
                    for e in &tbl.entries {
                        let target = (slot + e.delta) % nf;
                        scratch.entry_targets.push((target, e.hc));
                        state.learn(l.hc_index_of_slot(target), e.hc);
                        scratch.virtuals.push(e.hc);
                    }
                    mode.on_virtuals(&scratch.virtuals);
                }
                Some(slot)
            }
            Pending::Visit {
                slot,
                include_fresh,
            } => {
                visit_frame(
                    air,
                    tuner,
                    slot,
                    include_fresh,
                    mode,
                    &mut state,
                    &mut scratch.visit,
                    &mut scratch.visit_flats,
                );
                None
            }
        };

        // Bring the remainder state up to date (incremental path: only
        // target changes trigger work; events already applied deltas).
        // Liveness needs no separate sweep: every kNN target lies in the
        // circle its radius was published for (a lazy one settles to
        // pieces that do), hence so does every remainder.
        let change = mode.refresh_targets();
        state.refresh_targets(change, mode.targets());
        #[cfg(test)]
        state.audit_rem(mode);
        let mut rem = Remainders {
            rem: &mut state.rem,
            mode: &mut *mode,
        };
        // The cheap tests first: the emptiness probe may settle an entry.
        if state.retries.is_empty() && rem.mode.complete() && rem.is_exhausted() {
            break;
        }

        // After a table read we are at the frame body: scan in place if the
        // frame may hold something we need.
        if let Some(slot) = just_read_table {
            let t = l.hc_index_of_slot(slot);
            let (lb, ub) = state.know.span_est(t);
            let overlap = rem.any_in(lb, ub);
            let attempted = fully_attempted(&state.log, t, l.objects_in_slot(slot));
            let has_retry = !state.retries.for_slot(slot).is_empty();
            if (overlap && !attempted) || has_retry {
                pending = Pending::Visit {
                    slot,
                    include_fresh: overlap && !attempted,
                };
                continue;
            }
        }

        match navigate(air, tuner, mode, &mut state, &mut scratch) {
            Some(p) => pending = p,
            None => break,
        }
    }
}

/// Whether every object index of frame `t` has been read at least once
/// (possibly with lost headers, which live on as retries).
fn fully_attempted(log: &ScanLog, t: u32, n_obj: u32) -> bool {
    log.get(t).is_some_and(|s| s.read_upto >= n_obj)
}

/// Reads the (possibly multi-packet) index table at the current position.
/// All-or-nothing: a lost packet discards the table — the client simply
/// proceeds with its existing knowledge.
fn read_table<'a>(
    air: &'a DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    slot: u32,
) -> Option<&'a IndexTable> {
    debug_assert!(
        matches!(tuner.current_packet(), DsiPacket::Table { slot: s, part: 0 } if *s == slot),
        "tuner not at the table of slot {slot}"
    );
    for _ in 0..air.layout().framing().table_packets {
        if tuner.read().is_err() {
            return None;
        }
    }
    Some(air.table(slot))
}

/// Visits objects of a frame: pending retries first, then (optionally) the
/// unread fresh tail. The single-receiver client reads in ascending header
/// order (the pinned pre-refactor baseline); the multi-antenna client
/// reads headers as they air across its monitored channels — under
/// unit-granular striping a frame's consecutive units air *in parallel*,
/// so the serial order waits a channel cycle per unit while the arrival
/// order streams one channel's units back-to-back and collects the rest
/// on the next pass. Updates the scan log, knowledge (frame minimum from
/// header 0) and retry sets through the incremental state.
#[allow(clippy::too_many_arguments)]
fn visit_frame<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    slot: u32,
    include_fresh: bool,
    mode: &mut M,
    state: &mut QueryState<'_, M::Target>,
    visit: &mut Vec<(u32, bool)>,
    visit_flats: &mut Vec<u64>,
) {
    let l = air.layout();
    let t = l.hc_index_of_slot(slot);
    let n_obj = l.objects_in_slot(slot);
    // The early-exit threshold of fresh reads: the last remainder cell (0
    // if none) as the visit starts — nothing has changed since it was
    // planned. Retry-only visits never read it.
    let max_hi = if include_fresh {
        let mut rem = Remainders {
            rem: &mut state.rem,
            mode: &mut *mode,
        };
        rem.last_below(u64::MAX).unwrap_or(0)
    } else {
        0
    };

    // Retry indices are sorted and all precede the fresh tail (a retry is
    // only ever recorded for an attempted index), so the concatenation is
    // already in ascending header order.
    visit.clear();
    visit.extend(state.retries.for_slot(slot).iter().map(|&i| (i, true)));
    if include_fresh {
        let read_upto = state.log.entry(t, n_obj).read_upto;
        visit.extend((read_upto..n_obj).map(|i| (i, false)));
    }
    debug_assert!(visit.windows(2).all(|w| w[0].0 < w[1].0));

    if tuner.antennas() > 1 {
        // Arrival-ordered visit. The ascending-HC early exit survives
        // out-of-order reads: once a fresh header's HC exceeds the
        // largest remainder end, every fresh header at a higher index is
        // also beyond it (objects ascend in HC within a frame), so those
        // are pruned from the plan.
        while !visit.is_empty() {
            visit_flats.clear();
            visit_flats.extend(visit.iter().map(|&(idx, _)| l.header_packet(slot, idx)));
            let (i, _) = tuner
                .earliest_resilient(visit_flats)
                .expect("visit plan is non-empty");
            let (idx, is_retry) = visit.swap_remove(i);
            if visit_header(
                air, tuner, slot, idx, is_retry, max_hi, mode, state, t, n_obj,
            ) {
                visit.retain(|&(j, retry)| retry || j < idx);
            }
        }
    } else {
        let mut stop_fresh = false;
        for &(idx, is_retry) in visit.iter() {
            if !is_retry && stop_fresh {
                break;
            }
            if visit_header(
                air, tuner, slot, idx, is_retry, max_hi, mode, state, t, n_obj,
            ) {
                stop_fresh = true;
            }
        }
    }
}

/// Reads one (already targeted) object header and processes it; returns
/// whether it was a fresh read whose HC lies beyond `max_hi` (the
/// ascending-HC early-exit signal).
#[allow(clippy::too_many_arguments)]
fn visit_header<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    slot: u32,
    idx: u32,
    is_retry: bool,
    max_hi: u64,
    mode: &mut M,
    state: &mut QueryState<'_, M::Target>,
    t: u32,
    n_obj: u32,
) -> bool {
    let l = air.layout();
    let payload_packets = l.framing().object_packets - 1;
    tuner.goto(l.header_packet(slot, idx));
    match tuner.read() {
        Ok(p) => {
            debug_assert!(
                matches!(p, DsiPacket::ObjHeader { slot: s, idx: i } if *s == slot && *i == idx)
            );
            let o = air.object(slot, idx);
            if !is_retry {
                state.note_attempted(t, n_obj, idx);
            }
            state.resolve_header(t, n_obj, idx, o.hc);
            state.retries.remove(slot, idx);
            if mode.on_header(o) {
                if read_payload(tuner, payload_packets) {
                    mode.on_retrieved(o);
                } else {
                    state.retries.insert(slot, idx, n_obj);
                }
            }
            !is_retry && o.hc > max_hi
        }
        Err(_) => {
            if !is_retry {
                state.note_attempted(t, n_obj, idx);
            }
            state.retries.insert(slot, idx, n_obj);
            false
        }
    }
}

/// Reads the remaining packets of an object's record. Aborts on the first
/// lost packet (the per-packet checksum tells the client immediately).
fn read_payload(tuner: &mut Tuner<'_, DsiPacket>, n: u32) -> bool {
    for _ in 0..n {
        if tuner.read().is_err() {
            return false;
        }
    }
    true
}

/// The cheapest way to reach frame `slot` from the tuner's position:
/// through its index table (fresh frames) or straight to its first unread
/// header (partially scanned frames, or frames whose table occurrence
/// already passed). Returns `(arrival, flat target, what to do there)`.
fn approach(
    air: &DsiAir,
    tuner: &Tuner<'_, DsiPacket>,
    log: &ScanLog,
    slot: u32,
) -> (u64, u64, Pending) {
    let l = air.layout();
    let t = l.hc_index_of_slot(slot);
    let read_upto = log.get(t).map_or(0, |s| s.read_upto);
    let table_flat = l.frame_start(slot);
    let visit_flat = l.header_packet(slot, read_upto.min(l.objects_in_slot(slot) - 1));
    let table_abs = tuner.arrival(table_flat);
    let visit_abs = tuner.arrival(visit_flat);
    if table_abs <= visit_abs && log.get(t).is_none() {
        (table_abs, table_flat, Pending::Table(slot))
    } else {
        (
            visit_abs,
            visit_flat,
            Pending::Visit {
                slot,
                include_fresh: true,
            },
        )
    }
}

/// Chooses the next destination and dozes there.
///
/// Candidates are (a) the first pending retry header of every affected
/// slot — read directly off the per-slot sorted retry lists — and (b)
/// frames that may still hold remainder content. Window queries and
/// conservative kNN search the broadcast order from the current slot for
/// such frames with [`sweep_jump`], which skips whole runs of frames that
/// cannot qualify; aggressive kNN jumps to the slot its strategy picked
/// (the entry target nearest the query point). All candidates are then
/// planned in one batch through the tuner's earliest-arrival API, which
/// accounts for channel placement and the antennas' monitored set. In
/// dsi-core's unit tests every search is audited against the linear
/// sweep it replaces.
fn navigate<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    mode: &mut M,
    state: &mut QueryState<'_, M::Target>,
    scratch: &mut QueryScratch,
) -> Option<Pending> {
    let l = air.layout();
    let QueryState {
        know,
        log,
        retries,
        rem,
        ..
    } = state;
    let (know, log, retries) = (&*know, &*log, &*retries);
    let mut rem = Remainders { rem, mode };
    let QueryScratch {
        entry_targets,
        useful_entries,
        nav_flats,
        nav_arrivals,
        nav_plans,
        nav_slots,
        cursors,
        ..
    } = scratch;
    nav_flats.clear();
    nav_arrivals.clear();
    nav_plans.clear();

    // Retry visits: the earliest pending index per slot is the head of its
    // maintained sorted list.
    for (slot, idxs) in retries.iter_slots() {
        let flat = l.header_packet(slot, idxs[0]);
        nav_flats.push(flat);
        nav_arrivals.push(tuner.arrival(flat));
        nav_plans.push(Pending::Visit {
            slot,
            include_fresh: false,
        });
    }

    // Entry targets the strategy may pick from: frames not yet fully
    // attempted whose conservative span can still overlap a remainder.
    // Without this filter the aggressive strategy would keep re-picking a
    // "nearest" frame that has nothing left to offer. Its probes may
    // settle lazy remainders, so it runs only for a mode that reads it.
    useful_entries.clear();
    if rem.mode.reads_entry_targets() {
        useful_entries.extend(entry_targets.iter().copied().filter(|&(slot, _)| {
            let t = l.hc_index_of_slot(slot);
            if fully_attempted(log, t, l.objects_in_slot(slot)) {
                return false;
            }
            let (lb, ub) = know.span_est(t);
            rem.any_in(lb, ub)
        }));
    }

    // With no remainder left the pick and the search find nothing, and
    // only retries remain to plan.
    match rem.mode.nav_pick(rem.rem, useful_entries) {
        NavPick::Slot(slot) => {
            let (abs, flat, p) = approach(air, tuner, log, slot);
            nav_flats.push(flat);
            nav_arrivals.push(abs);
            nav_plans.push(p);
        }
        NavPick::Earliest => {
            // Single channel: arrivals are monotone in sweep order for
            // the frames strictly ahead; only the current slot can
            // arrive later than its successors, so the search keeps
            // it but stops at the first qualifying successor. With
            // parallel channels broadcast order no longer orders
            // arrivals — take every candidate frame and let the batch
            // planner keep the earliest.
            let cur = l.slot_of_packet(tuner.flat_pos());
            let first_only = tuner.program().n_channels() == 1;
            nav_slots.clear();
            let examined = sweep_jump(l, know, log, &mut rem, cur, first_only, cursors, nav_slots);
            hotpath::count_nav_frames(examined);
            #[cfg(test)]
            let swept_from = nav_flats.len();
            for &slot in nav_slots.iter() {
                let (abs, flat, p) = approach(air, tuner, log, slot);
                nav_flats.push(flat);
                nav_arrivals.push(abs);
                nav_plans.push(p);
            }
            #[cfg(test)]
            audit_sweep(
                air,
                tuner,
                (know, log),
                &rem.mode.settled(rem.rem),
                cur,
                first_only,
                examined,
                &nav_flats[swept_from..],
                &nav_plans[swept_from..],
            );
        }
    }

    // One plan over all candidates: the earliest-arriving read wins (ties
    // to the first candidate, matching the sweep order; the arrivals were
    // produced by the tuner's channel- and antenna-aware planner while
    // the candidates were gathered, and the tuner has not moved since).
    // The multi-antenna client additionally costs the top-2 conflict: its
    // plans occupy the receiver for a while, so taking the earliest
    // airing can trample the runner-up's airing and push it a full
    // channel cycle out — when that happens, whichever order finishes
    // both reads earlier wins.
    let mut best: Option<(usize, u64)> = None;
    for (j, &t) in nav_arrivals.iter().enumerate() {
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((j, t));
        }
    }
    let (i, _) = best?;
    let pick = if tuner.antennas() > 1 && nav_flats.len() > 1 {
        // Multi-antenna: run the duration-aware planner instead (top-2
        // conflict costing; one plan can trample the runner-up's airing).
        let (j, _) = tuner.plan_resilient(nav_flats, |j| {
            plan_duration(l, retries, &nav_plans[j], nav_flats[j])
        })?;
        j
    } else {
        i
    };
    tuner.goto(nav_flats[pick]);
    Some(nav_plans[pick])
}

/// Sweep distance marking an exhausted [`BlockCursor`].
const EXHAUSTED: u32 = u32::MAX;

/// One block's cursor in the navigation jump search.
///
/// Within a block of the (reorganized) layout, broadcast slots are
/// monotone in HC-order frame index: ascending, or descending for the
/// odd blocks of the folded style. The cursor walks its block in sweep
/// order by *position* `k`, the frame's rank in slot order within the
/// block — first `[k0, len)`, from the block's first slot at or after the
/// sweep start, then the wrapped `[0, k0)` — so both directions move
/// forward in `k`.
struct BlockCursor {
    /// First HC-order frame of the block.
    start: u32,
    /// One past the block's last HC-order frame.
    end: u32,
    /// Whether slot order runs against HC order in this block.
    desc: bool,
    /// Position of the next frame to examine.
    k: u32,
    /// First position of the sweep; the wrapped segment ends here.
    k0: u32,
    /// Whether the cursor has wrapped into `[0, k0)`.
    wrapped: bool,
    /// Sweep distance `(slot − cur) mod nF` of the frame at `k`;
    /// [`EXHAUSTED`] once the block has nothing left to examine.
    d: u32,
}

impl BlockCursor {
    /// A cursor over block `c`, positioned at its first slot at or after
    /// `cur` in sweep order.
    fn new(l: &DsiLayout, c: u32, cur: u32) -> Self {
        let start = l.block_start_frame(c);
        let end = if c + 1 < l.n_blocks() {
            l.block_start_frame(c + 1)
        } else {
            l.n_frames()
        };
        let desc = end - start > 1 && l.slot_of_hc_index(start) > l.slot_of_hc_index(start + 1);
        let mut cursor = Self {
            start,
            end,
            desc,
            k: 0,
            k0: 0,
            wrapped: false,
            d: EXHAUSTED,
        };
        // Slots ascend with `k`: binary-search the first at or after `cur`.
        let (mut lo, mut hi) = (0, end - start);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if l.slot_of_hc_index(cursor.frame(mid)) < cur {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        cursor.k0 = lo;
        cursor.seek(l, cur, lo);
        cursor
    }

    /// HC-order frame index at position `k`.
    fn frame(&self, k: u32) -> u32 {
        if self.desc {
            self.end - 1 - k
        } else {
            self.start + k
        }
    }

    /// Moves to position `k`, wrapping into `[0, k0)` at the end of the
    /// first segment and exhausting at the end of the second.
    fn seek(&mut self, l: &DsiLayout, cur: u32, k: u32) {
        self.k = k;
        let lim = if self.wrapped {
            self.k0
        } else {
            self.end - self.start
        };
        if k >= lim {
            if self.wrapped || self.k0 == 0 {
                self.d = EXHAUSTED;
                return;
            }
            self.wrapped = true;
            self.k = 0;
        }
        let nf = l.n_frames();
        self.d = (l.slot_of_hc_index(self.frame(self.k)) + nf - cur) % nf;
    }

    /// The next position worth examining after frame `t` at position `k`,
    /// whose span `[lb, ·)` overlaps no remainder. Frames between two known
    /// bounds share one span, and spans only grow with the frame index, so:
    ///
    /// - ascending, every frame before the safe frame of the first
    ///   remainder cell at or after `lb` ends at or below that cell;
    /// - descending, every frame from the first frame whose bound lies
    ///   above the last remainder cell below `lb` on starts above it, and
    ///   no remainder cell lies between `lb` and the span's end.
    ///
    /// Returns the block length when nothing further in this direction can
    /// qualify, which ends the current segment.
    fn skip(&self, know: &Knowledge, rem: &mut impl LazyRanges, lb: u64, t: u32) -> u32 {
        let len = self.end - self.start;
        if self.desc {
            match rem.last_below(lb) {
                Some(hi) => (self.end - know.first_frame_above(hi).min(t)).min(len),
                None => len,
            }
        } else {
            match rem.first_from(lb) {
                Some(lo) => (know.safe_frame_for(lo).max(t + 1) - self.start).min(len),
                None => len,
            }
        }
    }
}

/// The navigation search: slots of frames that may still hold remainder
/// content — not fully attempted, conservative span overlapping a
/// remainder — in sweep order from `cur` (ascending slot distance
/// `(slot − cur) mod nF`), appended to `out`. With `first_only` it stops
/// at the first such slot after `cur`, keeping `cur` itself ahead of it
/// when it qualifies.
///
/// Exactly the slots a frame-by-frame sweep would find, in the same order,
/// without visiting every frame: one [`BlockCursor`] per block skips runs
/// of frames that cannot qualify, and the cursors merge lazily — always
/// examining the frame nearest in sweep order — so the search never looks
/// at a frame beyond the last one it returns. Returns how many frames it
/// examined.
#[allow(clippy::too_many_arguments)]
fn sweep_jump(
    l: &DsiLayout,
    know: &Knowledge,
    log: &ScanLog,
    rem: &mut impl LazyRanges,
    cur: u32,
    first_only: bool,
    cursors: &mut Vec<BlockCursor>,
    out: &mut Vec<u32>,
) -> u64 {
    let nf = l.n_frames();
    cursors.clear();
    cursors.extend((0..l.n_blocks()).map(|c| BlockCursor::new(l, c, cur)));
    let mut examined = 0;
    loop {
        let c = cursors
            .iter_mut()
            .min_by_key(|c| c.d)
            .expect("a layout has at least one block");
        if c.d == EXHAUSTED {
            break;
        }
        examined += 1;
        let (d, t) = (c.d, c.frame(c.k));
        let (lb, ub) = know.span_est(t);
        if !rem.any_in(lb, ub) {
            let k = c.skip(know, rem, lb, t);
            c.seek(l, cur, k);
            continue;
        }
        c.seek(l, cur, c.k + 1);
        let slot = (cur + d) % nf;
        if fully_attempted(log, t, l.objects_in_slot(slot)) {
            continue;
        }
        out.push(slot);
        if first_only && d > 0 {
            break;
        }
    }
    examined
}

/// The frame-by-frame sweep [`sweep_jump`] replaces, kept as its test
/// oracle: same contract, examining every frame from `cur` on until it
/// stops.
#[cfg(test)]
fn sweep_linear(
    l: &DsiLayout,
    know: &Knowledge,
    log: &ScanLog,
    mut rem: &[HcRange],
    cur: u32,
    first_only: bool,
    out: &mut Vec<u32>,
) -> u64 {
    let nf = l.n_frames();
    let mut examined = 0;
    for d in 0..nf {
        examined += 1;
        let slot = (cur + d) % nf;
        let t = l.hc_index_of_slot(slot);
        if fully_attempted(log, t, l.objects_in_slot(slot)) {
            continue;
        }
        let (lb, ub) = know.span_est(t);
        if !rem.any_in(lb, ub) {
            continue;
        }
        out.push(slot);
        if first_only && d > 0 {
            break;
        }
    }
    examined
}

/// Test-build audit of one navigation search: the candidates the jump
/// search produced (`flats`, `plans`) must equal the linear sweep's over
/// the settled remainders `rem`, in the same order, and it must have
/// examined no more frames.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn audit_sweep(
    air: &DsiAir,
    tuner: &Tuner<'_, DsiPacket>,
    (know, log): (&Knowledge, &ScanLog),
    rem: &[HcRange],
    cur: u32,
    first_only: bool,
    examined: u64,
    flats: &[u64],
    plans: &[Pending],
) {
    let mut oracle = Vec::new();
    let oracle_examined = sweep_linear(air.layout(), know, log, rem, cur, first_only, &mut oracle);
    hotpath::count_oracle_nav_frames(oracle_examined);
    let (want_flats, want_plans): (Vec<u64>, Vec<Pending>) = oracle
        .iter()
        .map(|&slot| {
            let (_, flat, p) = approach(air, tuner, log, slot);
            (flat, p)
        })
        .unzip();
    assert_eq!(flats, want_flats, "jump search diverged from the sweep");
    assert_eq!(plans, want_plans, "jump search diverged from the sweep");
    assert!(
        examined <= oracle_examined,
        "jump search examined {examined} frames, the sweep {oracle_examined}"
    );
}

/// Estimate, in packets, of how long executing plan `p` occupies the
/// receiver once its first packet (at flat position `flat`) airs, from
/// schema knowledge plus the client's own scan state. Flat-position
/// spans, so under unit-granular striping (where a frame's units air
/// interleaved across channels) this can undershoot wall-clock
/// occupancy — the top-2 conflict costing it feeds is a heuristic, not
/// a bound.
fn plan_duration(l: &DsiLayout, retries: &Retries, p: &Pending, flat: u64) -> u64 {
    let f = l.framing();
    match *p {
        Pending::Table(_) => f.table_packets as u64,
        Pending::Visit {
            slot,
            include_fresh,
            ..
        } => {
            if include_fresh {
                // May scan to the end of the frame.
                let frame_len = f.table_packets as u64
                    + l.objects_in_slot(slot) as u64 * f.object_packets as u64;
                (l.frame_start(slot) + frame_len).saturating_sub(flat)
            } else {
                // Retry-only visit: first to last pending header.
                let idxs = retries.for_slot(slot);
                match idxs.last() {
                    Some(&last) => l.header_packet(slot, last) + f.object_packets as u64 - flat,
                    None => f.object_packets as u64,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel, Tuner};
    use dsi_datagen::{uniform, SpatialDataset};
    use dsi_geom::{Point, Rect};
    use dsi_hilbert::HcRange;
    use proptest::prelude::*;

    use super::{sweep_jump, sweep_linear};
    use crate::config::FramingPolicy;
    use crate::layout::DsiLayout;
    use crate::state::{Knowledge, ScanLog};
    use crate::{hotpath, DsiAir, DsiConfig, KnnStrategy, ReorgStyle};

    /// A synthetic layout of `nf` two-object frames in `m` blocks; frame
    /// `t`'s minimum HC is `10 (t + 1)`.
    fn layout(nf: u32, m: u32, style: ReorgStyle) -> DsiLayout {
        let cfg = DsiConfig {
            framing: FramingPolicy::FixedFrameCount(nf),
            segments: m,
            reorg_style: style,
            ..DsiConfig::paper_default()
        };
        let mins: Vec<u64> = (1..=nf as u64).map(|t| 10 * t).collect();
        DsiLayout::new(cfg, 2 * nf, &mins)
    }

    /// Knowledge of the schema plus the bounds of the `known` frames.
    fn knowledge(l: &DsiLayout, known: &[u32]) -> Knowledge {
        let mut k = Knowledge::new(l, 10 * l.n_frames() as u64 + 100);
        for &t in known {
            k.learn(t, 10 * (t as u64 + 1));
        }
        k
    }

    /// A scan log in which the `attempted` frames were read to the end.
    fn attempted_log(l: &DsiLayout, attempted: &[u32]) -> ScanLog {
        let mut log = ScanLog::new();
        for &t in attempted {
            let n = l.objects_in_slot(l.slot_of_hc_index(t));
            log.entry(t, n).read_upto = n;
        }
        log
    }

    /// Runs both searches from every slot, single- and multi-channel, and
    /// asserts they return the same slots in the same order, the jump
    /// search examining no more frames. Returns the frames the two
    /// examined in total.
    fn assert_searches_agree(
        l: &DsiLayout,
        know: &Knowledge,
        log: &ScanLog,
        rem: &[HcRange],
    ) -> (u64, u64) {
        let (mut jumped, mut swept) = (0, 0);
        let mut cursors = Vec::new();
        for cur in 0..l.n_frames() {
            for first_only in [true, false] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let j = sweep_jump(
                    l,
                    know,
                    log,
                    &mut &rem[..],
                    cur,
                    first_only,
                    &mut cursors,
                    &mut got,
                );
                let o = sweep_linear(l, know, log, rem, cur, first_only, &mut want);
                assert_eq!(got, want, "cur {cur}, first_only {first_only}, rem {rem:?}");
                assert!(j <= o, "cur {cur}: jump examined {j} frames, sweep {o}");
                jumped += j;
                swept += o;
            }
        }
        (jumped, swept)
    }

    #[test]
    fn jump_search_matches_sweep_on_a_single_frame() {
        let l = layout(1, 1, ReorgStyle::Folded);
        let know = knowledge(&l, &[]);
        for rem in [vec![], vec![HcRange::new(0, 5)], vec![HcRange::new(10, 12)]] {
            assert_searches_agree(&l, &know, &ScanLog::new(), &rem);
        }
        assert_searches_agree(&l, &know, &attempted_log(&l, &[0]), &[HcRange::new(10, 12)]);
    }

    #[test]
    fn jump_search_matches_sweep_on_uneven_blocks() {
        // nF = 10 in m = 3 blocks of 4, 4 and 2 frames.
        for style in [ReorgStyle::Folded, ReorgStyle::RoundRobin] {
            let l = layout(10, 3, style);
            assert_eq!(l.n_blocks(), 3);
            let all: Vec<u32> = (0..10).collect();
            for known in [&[][..], &[2, 5, 9][..], &all[..]] {
                let know = knowledge(&l, known);
                for rem in [
                    vec![],
                    vec![HcRange::new(0, 200)],
                    vec![HcRange::new(35, 35)],
                    vec![HcRange::new(15, 22), HcRange::new(71, 74)],
                ] {
                    for attempted in [&[][..], &[3, 6, 7][..]] {
                        assert_searches_agree(&l, &know, &attempted_log(&l, attempted), &rem);
                    }
                }
            }
        }
    }

    #[test]
    fn jump_search_skips_frames_the_sweep_visits() {
        // Every bound known, one remainder inside frame 40 (of 64): each
        // block's cursor jumps straight to it or past its end.
        for (m, style) in [
            (1, ReorgStyle::Folded),
            (2, ReorgStyle::Folded),
            (2, ReorgStyle::RoundRobin),
            (3, ReorgStyle::Folded),
        ] {
            let l = layout(64, m, style);
            let all: Vec<u32> = (0..64).collect();
            let know = knowledge(&l, &all);
            let rem = [HcRange::new(412, 415)];
            let (jumped, swept) = assert_searches_agree(&l, &know, &ScanLog::new(), &rem);
            assert!(
                jumped * 4 < swept,
                "m = {m}: jump search examined {jumped} frames, the sweep {swept}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn jump_search_equals_linear_sweep(
            nf in 1u32..40,
            m in 1u32..4,
            folded in any::<bool>(),
            known in prop::collection::vec(any::<bool>(), 40..41),
            attempted in prop::collection::vec(0u8..4, 40..41),
            rem in prop::collection::vec((0u64..520, 0u64..60), 0..4),
        ) {
            let style = if folded { ReorgStyle::Folded } else { ReorgStyle::RoundRobin };
            let l = layout(nf, m, style);
            let known: Vec<u32> = (0..nf).filter(|&t| known[t as usize]).collect();
            let attempted: Vec<u32> = (0..nf).filter(|&t| attempted[t as usize] == 0).collect();
            let mut rem: Vec<HcRange> =
                rem.iter().map(|&(lo, len)| HcRange::new(lo, lo + len)).collect();
            dsi_hilbert::merge_ranges(&mut rem);
            assert_searches_agree(&l, &knowledge(&l, &known), &attempted_log(&l, &attempted), &rem);
        }
    }

    #[test]
    fn navigation_never_examines_more_frames_than_the_sweep() {
        // Whole queries over single- and multi-channel layouts: every
        // navigation is audited against the sweep inside the driver (same
        // candidates, no more frames examined); the per-thread tallies
        // compare the totals.
        let ds = SpatialDataset::build(&uniform(600, 5), 9);
        let w = Rect::window_in_unit_square(Point::new(0.3, 0.6), 0.3);
        let q = Point::new(0.7, 0.2);
        for chan in [
            ChannelConfig::single(),
            ChannelConfig::blocked(2, 1),
            ChannelConfig::striped_frames(4, 1),
        ] {
            let air = DsiAir::build_channels(&ds, DsiConfig::paper_reorganized(), chan);
            for antennas in [1, 2] {
                hotpath::reset_counters();
                for start in [0, 977, 4_321] {
                    let start = start % air.program().len();
                    let mut tuner = Tuner::tune_in_with(
                        air.program(),
                        start,
                        LossModel::iid(0.1),
                        start,
                        AntennaConfig::new(antennas),
                    );
                    assert_eq!(air.window_query(&mut tuner, &w), ds.brute_window(&w));
                    let mut tuner = Tuner::tune_in_with(
                        air.program(),
                        start,
                        LossModel::None,
                        start,
                        AntennaConfig::new(antennas),
                    );
                    let got = air.knn_query(&mut tuner, q, 10, KnnStrategy::Conservative);
                    assert_eq!(got, ds.brute_knn(q, 10));
                }
                let (jumped, swept) = (hotpath::nav_frames(), hotpath::oracle_nav_frames());
                assert!(jumped > 0, "navigation never searched");
                assert!(
                    jumped <= swept,
                    "jump search examined {jumped} frames, sweep {swept}"
                );
            }
        }
    }

    // Differential test of the incremental query-state engine. In this
    // test build the driver asserts, after every applied event (learned
    // bound, resolved header) and once per loop iteration, that its
    // incrementally maintained cleared set and remainders equal the
    // from-scratch `cleared_regions` + `subtract_ranges` oracle. Running
    // full lossy window and kNN queries therefore *is* the differential
    // property test: any divergence panics inside the driver.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn incremental_state_equals_oracle_under_loss(
            n in 30usize..140,
            ds_seed in any::<u64>(),
            start_seed in any::<u64>(),
            theta in 0.05..0.45f64,
            cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.05..0.5f64,
            qx in -0.1..1.1f64, qy in -0.1..1.1f64,
            k in 1usize..10,
            aggressive in any::<bool>(),
            reorganized in any::<bool>(),
        ) {
            let cfg = if reorganized {
                DsiConfig::paper_reorganized()
            } else {
                DsiConfig::paper_default()
            };
            let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
            let air = DsiAir::build(&ds, cfg);
            let loss = LossModel::iid(theta);
            let start = start_seed % air.program().len();
            hotpath::reset_counters();

            // Window run: audited against the oracle after every event.
            let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
            let mut tuner = Tuner::tune_in(air.program(), start, loss.clone(), start_seed);
            let got = air.window_query(&mut tuner, &w);
            prop_assert_eq!(got, ds.brute_window(&w));

            // kNN run, both navigation strategies reachable.
            let strategy = if aggressive {
                KnnStrategy::Aggressive
            } else {
                KnnStrategy::Conservative
            };
            let q = Point::new(qx, qy);
            let mut tuner = Tuner::tune_in(air.program(), start, loss, start_seed ^ 1);
            let got = air.knn_query(&mut tuner, q, k, strategy);
            prop_assert_eq!(got, ds.brute_knn(q, k.min(n)));

            // The audit really ran: every loop iteration derives the oracle.
            prop_assert!(hotpath::counters().0 > 0, "oracle audit never ran");
        }
    }
}
