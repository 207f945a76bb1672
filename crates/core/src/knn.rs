//! k-nearest-neighbour queries over DSI (paper §3.4–3.5).
//!
//! The client maintains a *search space*: a circle around the query point
//! guaranteed to contain the k nearest objects. Index-table entries are
//! *virtual candidates* ("the object represented by HC′ᵢ", Algorithm 2):
//! each is a real object whose cell — hence an upper bound on its distance
//! — is known from its HC value alone. The circle's radius is the k-th
//! smallest upper bound and only ever shrinks; objects and HC regions
//! provably outside it are skipped. The query completes when the k best
//! candidates are fully retrieved and every uncleared part of the circle
//! is farther than the k-th candidate.
//!
//! The search space is decomposed **as a circle**, not as its bounding
//! square, and **lazily** ([`LazyCircle`]): the targets are quadtree
//! blocks with exact distance bounds, and because the circle only
//! shrinks, a radius tightening keeps or drops whole blocks in one pass. A
//! block left straddling the smaller circle stays unsplit until a
//! remainder probe of the driver reads it, and is then refined only along
//! the probe's path; most rim blocks are cleared or dropped by a later
//! shrink first. The driver reads the targets by reference and intersects
//! its remainders with them in place ([`TargetsChange::Narrowed`]); each
//! remainder carries the bounds of the block it lies in, so refining one
//! block re-derives just the remainders inside it. Refined blocks are the
//! direct decomposition's blocks, bounds included, so every decision is
//! the one an eagerly split circle would make. Distances live on the
//! blocks themselves, so no side cache of interval distances exists to
//! grow without bound under loss.
//!
//! Two navigation strategies from the paper:
//!
//! * **Conservative** — proceed to the earliest-arriving frame that may
//!   still hold circle content: small latency, more tuning (slow shrink).
//! * **Aggressive** — follow the index entry whose frame is closest to the
//!   query point: fast shrink and low tuning, but skipped regions must be
//!   re-checked a cycle later, extending latency.
//!
//! The broadcast reorganization (§3.5, `segments ≥ 2` in
//! [`crate::DsiConfig`]) gives the conservative strategy early views of
//! remote regions, combining the strengths of both.

use std::collections::BTreeMap;

use dsi_broadcast::Tuner;
use dsi_datagen::Object;
use dsi_geom::{dist2, GridMapper, Point};
#[cfg(test)]
use dsi_hilbert::{ranges_in_circle_with_dist_into, LazyRanges};
use dsi_hilbert::{DistRange, HcRange, HilbertCurve, LazyCircle, Reach};

use crate::build::{DsiAir, DsiPacket};
use crate::client::{run_query, NavPick, QueryMode, TargetsChange};
use crate::state::intersect_ranges_into;

/// kNN search-space navigation strategy (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnStrategy {
    /// Retrieve every frame that may still matter, in broadcast order.
    Conservative,
    /// Jump to the reachable frame nearest the query point.
    Aggressive,
}

/// Peak-memory and decomposition counters of one kNN query, for the
/// bounded-memory property tests and the benchmark's work counts. Not
/// part of the public API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct KnnProbe {
    /// Largest number of target blocks *held* at any one time, an unsplit
    /// rim block counting as one. Every held block is a block of the
    /// direct decomposition at the published radius or an unsplit block
    /// holding at least one, so this stays within one decomposition
    /// across shrinks, however many: a reintroduced accumulate-forever
    /// structure would push it past.
    pub peak_live_ranges: usize,
    /// The published squared radius while [`KnnProbe::peak_live_ranges`]
    /// entries were held: the circle whose direct decomposition bounds
    /// the peak.
    pub peak_live_r2: f64,
    /// Target blocks held right after each refresh, summed, an unsplit
    /// block counting as one.
    pub total_ranges: usize,
    /// Circle blocks visited by every descent of the query: a refresh
    /// descends nothing, a probe reading a lazy block descends along its
    /// path. The circle's whole decomposition work, as a deterministic
    /// count.
    pub descent_blocks: u64,
    /// Number of target refreshes (circle shrinks reaching the driver).
    pub refreshes: usize,
    /// Largest candidate-set size.
    pub peak_cands: usize,
}

/// One known-to-exist object, keyed by its HC value.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Upper bound on the squared distance (cell max-distance for virtual
    /// candidates; the exact distance once the header has been seen).
    ub2: f64,
    /// Exact squared distance (only when the header has been seen).
    d2: f64,
    /// Object id (only when the header has been seen).
    id: u32,
    /// Whether the full record has been retrieved.
    retrieved: bool,
}

/// The candidate set with its k-th-bound cache.
struct Candidates {
    k: usize,
    by_hc: BTreeMap<u64, Cand>,
    r2_cache: Option<f64>,
    /// Reused selection buffer: the radius and completion checks run every
    /// driver iteration and must not allocate in steady state.
    select_buf: Vec<(f64, u64, bool)>,
}

impl Candidates {
    fn new(k: usize) -> Self {
        Self {
            k,
            by_hc: BTreeMap::new(),
            r2_cache: None,
            select_buf: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.by_hc.len()
    }

    /// Fills `select_buf` and partitions it so its first `k` entries are
    /// the k best candidates (smallest upper bound, ties broken by HC
    /// value). Returns `false` while fewer than k candidates are known.
    /// Single selection shared by the radius and the completion check so
    /// the two can never disagree on the top-k.
    fn select_top_k(&mut self) -> bool {
        if self.by_hc.len() < self.k {
            return false;
        }
        self.select_buf.clear();
        self.select_buf
            .extend(self.by_hc.iter().map(|(&hc, c)| (c.ub2, hc, c.retrieved)));
        self.select_buf.select_nth_unstable_by(self.k - 1, |a, b| {
            a.partial_cmp(b).expect("bounds are never NaN")
        });
        true
    }

    /// The squared radius of the search space: the k-th smallest upper
    /// bound over known-distinct objects (∞ while fewer than k are known).
    fn r2(&mut self) -> f64 {
        if let Some(v) = self.r2_cache {
            return v;
        }
        let v = if self.select_top_k() {
            self.select_buf[self.k - 1].0
        } else {
            f64::INFINITY
        };
        self.r2_cache = Some(v);
        v
    }

    /// Whether the k best candidates have all been retrieved.
    fn top_k_retrieved(&mut self) -> bool {
        self.select_top_k() && self.select_buf[..self.k].iter().all(|&(_, _, r)| r)
    }

    /// Offers a virtual candidate. Skipped if it cannot tighten the k-th
    /// bound (its upper bound already exceeds the current radius).
    fn offer_virtual(&mut self, hc: u64, ub2: f64) {
        if self.by_hc.contains_key(&hc) {
            return;
        }
        if self.by_hc.len() >= self.k && ub2 >= self.r2() {
            return;
        }
        self.by_hc.insert(
            hc,
            Cand {
                ub2,
                d2: f64::NAN,
                id: u32::MAX,
                retrieved: false,
            },
        );
        self.r2_cache = None;
    }

    /// Offers one batch of virtual candidates (an index table's entries):
    /// a single top-k selection bounds the whole batch, so a frame with m
    /// entries costs one O(n) selection instead of m. The stale bound
    /// admits a superset of what per-offer filtering would (offers the
    /// mid-batch radius would already reject), but each extra member's
    /// upper bound is at least the radius at its insertion and the radius
    /// never grows — extras rank strictly beyond the k-th bound forever,
    /// so the radius is unchanged and completion is at most deferred. The
    /// cache is invalidated once, after the batch, which keeps the radius
    /// and completion checks reading one consistent selection (asserted
    /// against the sequential oracle in the differential property tests).
    fn offer_virtuals(&mut self, offers: &[(u64, f64)]) {
        let r2 = self.r2();
        let mut inserted = false;
        for &(hc, ub2) in offers {
            if self.by_hc.len() >= self.k && ub2 >= r2 {
                continue;
            }
            if self.by_hc.contains_key(&hc) {
                continue;
            }
            self.by_hc.insert(
                hc,
                Cand {
                    ub2,
                    d2: f64::NAN,
                    id: u32::MAX,
                    retrieved: false,
                },
            );
            inserted = true;
        }
        if inserted {
            self.r2_cache = None;
        }
    }

    /// Header seen and the object is (still) wanted: record its exact
    /// distance, keeping any retrieved flag.
    fn resolve_wanted(&mut self, hc: u64, d2: f64, id: u32) {
        let c = self.by_hc.entry(hc).or_insert(Cand {
            ub2: d2,
            d2,
            id,
            retrieved: false,
        });
        c.ub2 = d2;
        c.d2 = d2;
        c.id = id;
        self.r2_cache = None;
    }

    /// Header seen but the object is provably outside the search space:
    /// drop the virtual candidate. Its upper bound necessarily exceeded
    /// the k-th bound (exactness can only lower a bound), so removal never
    /// moves the radius and the cached one stays valid. Only a bound not
    /// strictly beyond the cached radius — impossible unless rounding put
    /// an exact distance above its cell bound — invalidates the cache.
    fn drop_unwanted(&mut self, hc: u64) {
        if let Some(c) = self.by_hc.get(&hc) {
            if !c.retrieved {
                if self.r2_cache.is_some_and(|r2| c.ub2 <= r2) {
                    self.r2_cache = None;
                }
                self.by_hc.remove(&hc);
            }
        }
    }

    fn mark_retrieved(&mut self, hc: u64) {
        if let Some(c) = self.by_hc.get_mut(&hc) {
            c.retrieved = true;
        }
    }

    /// The final answer: ids of the k nearest retrieved objects
    /// (distance, then id, ascending), returned in ascending id order.
    fn result_ids(&self) -> Vec<u32> {
        let mut retr: Vec<(f64, u32)> = self
            .by_hc
            .values()
            .filter(|c| c.retrieved)
            .map(|c| (c.d2, c.id))
            .collect();
        retr.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are never NaN"));
        let mut ids: Vec<u32> = retr.into_iter().take(self.k).map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }
}

/// Republish the targets only when the squared radius has dropped below
/// this fraction of the radius they were published for.
///
/// The radius tightens dozens of times per query, mostly by slivers. Each
/// publication costs a pass over the targets and the remainders, and it
/// fixes the circle the navigator chases; keeping the published targets —
/// always a correct *superset* of the true circle — until the radius has
/// shrunk materially trades a bounded, transient over-coverage for fewer
/// passes. The value sets which circles are published, and so the air
/// cost: at 0.7 it was measured at ≈0.1% of tuning bytes over
/// republishing on every shrink, back when each publication re-split the
/// whole rim eagerly. Correctness is unaffected (the extra rim is cleared
/// or out-scanned like any target), and every published set settles to an
/// exact circle decomposition.
const REFRESH_HYSTERESIS: f64 = 0.7;

struct KnnMode {
    q: Point,
    curve: HilbertCurve,
    mapper: GridMapper,
    strategy: KnnStrategy,
    cands: Candidates,
    /// The targets: the search circle at the radius last published,
    /// decomposed lazily, with exact distance bounds on every block.
    /// Remainder liveness reads distances off the blocks — there is no
    /// unbounded side cache of interval distances.
    circle: LazyCircle,
    /// Whether the initial target set has been published.
    published: bool,
    /// Scratch for the remainders inside one refined block.
    rem_buf: Vec<DistRange>,
    /// Scratch for one table's batched `(hc, ub2)` offers.
    offer_buf: Vec<(u64, f64)>,
    /// Scratch for the aggressive strategy's sorted entry bounds.
    nav_bounds: Vec<u64>,
    probe: KnnProbe,
}

impl KnnMode {
    fn new(air: &DsiAir, q: Point, k: usize, strategy: KnnStrategy) -> Self {
        Self {
            q,
            curve: *air.curve(),
            mapper: *air.mapper(),
            strategy,
            cands: Candidates::new(k),
            circle: LazyCircle::new(air.curve(), air.mapper(), q),
            published: false,
            rem_buf: Vec::new(),
            offer_buf: Vec::new(),
            nav_bounds: Vec::new(),
            probe: KnnProbe::default(),
        }
    }

    /// Records the held target count in the probe's peak.
    fn note_held(&mut self) {
        let held = self.circle.entries().len();
        if held > self.probe.peak_live_ranges {
            self.probe.peak_live_ranges = held;
            self.probe.peak_live_r2 = self.circle.r2();
        }
    }

    /// Whether a remainder cell in `[lo, hi)` is live: it lies in a target
    /// range — a maximal run of circle cells at the published radius —
    /// whose nearest cell is within `r2`. Refines what it reads.
    fn live_in(&mut self, rem: &mut Vec<DistRange>, lo: u64, hi: u64, r2: f64) -> bool {
        let mut x = lo;
        loop {
            let i = rem.partition_point(|r| r.range.hi < x);
            if i == rem.len() || rem[i].range.lo >= hi {
                return false;
            }
            if self.settle(rem, i, Reach::From(x)) {
                continue;
            }
            let r = rem[i].range;
            if self.run_min_d2(rem, r.lo.max(x)) <= r2 {
                return true;
            }
            x = r.hi + 1;
        }
    }

    /// The exact minimum distance of the target range holding circle cell
    /// `c`: the minimum over the run of adjacent exact blocks around it,
    /// lazy neighbours at the run's ends refined until a gap shows.
    fn run_min_d2(&mut self, rem: &mut Vec<DistRange>, c: u64) -> f64 {
        let j = self.circle.entries().partition_point(|t| t.range.hi < c);
        let block = self.circle.entries()[j];
        debug_assert!(block.range.contains(c) && !self.circle.is_lazy(&block));
        let (mut min_d2, mut lo, mut hi) = (block.min_d2, block.range.lo, block.range.hi);
        while lo > 0 {
            let k = self
                .circle
                .entries()
                .partition_point(|t| t.range.hi < lo - 1);
            match self.circle.entries().get(k) {
                Some(t) if t.range.lo < lo => {
                    let t = *t;
                    if self.circle.is_lazy(&t) {
                        let part = HcRange::new(t.range.lo, lo - 1);
                        refine_target(&mut self.circle, rem, k, part, true, &mut self.rem_buf);
                    } else {
                        min_d2 = min_d2.min(t.min_d2);
                        lo = t.range.lo;
                    }
                }
                _ => break,
            }
        }
        while hi < self.curve.max_d() {
            let k = self.circle.entries().partition_point(|t| t.range.hi <= hi);
            match self.circle.entries().get(k) {
                Some(t) if t.range.lo == hi + 1 => {
                    let t = *t;
                    if self.circle.is_lazy(&t) {
                        let part = t.range;
                        refine_target(&mut self.circle, rem, k, part, false, &mut self.rem_buf);
                    } else {
                        min_d2 = min_d2.min(t.min_d2);
                        hi = t.range.hi;
                    }
                }
                _ => break,
            }
        }
        self.note_held();
        min_d2
    }
}

/// Settles remainder `rem[i]` where `reach` reads it, if it is lazy: see
/// [`refine_target`]. Returns whether anything changed.
fn settle_rem(
    circle: &mut LazyCircle,
    rem: &mut Vec<DistRange>,
    i: usize,
    reach: Reach,
    buf: &mut Vec<DistRange>,
) -> bool {
    if !circle.is_lazy(&rem[i]) {
        return false;
    }
    let (part, last) = reach.clip(rem[i].range);
    let p = circle.entries().partition_point(|t| t.range.hi < part.lo);
    refine_target(circle, rem, p, part, last, buf);
    true
}

/// Refines lazy target block `p` toward the first (or `last`) circle cell
/// of `part` ([`LazyCircle::refine`]) and re-derives the remainders inside
/// the block: their intersection with its parts, whose bounds they then
/// carry.
fn refine_target(
    circle: &mut LazyCircle,
    rem: &mut Vec<DistRange>,
    p: usize,
    part: HcRange,
    last: bool,
    buf: &mut Vec<DistRange>,
) {
    let block = circle.entries()[p].range;
    debug_assert!(block.lo <= part.lo && part.hi <= block.hi);
    let parts = circle.refine(p, part, last);
    let j0 = rem.partition_point(|e| e.range.hi < block.lo);
    let j1 = rem.partition_point(|e| e.range.lo <= block.hi);
    intersect_ranges_into(&rem[j0..j1], &circle.entries()[parts], buf);
    rem.splice(j0..j1, buf.drain(..));
}

impl QueryMode for KnnMode {
    type Target = DistRange;

    fn refresh_targets(&mut self) -> TargetsChange {
        let r2 = self.cands.r2();
        let change = if !self.published {
            // Fewer than k candidates may be known: the whole space is in
            // play, and the circle starts as one unsplit block.
            TargetsChange::Replaced
        } else if r2 >= self.circle.r2() * REFRESH_HYSTERESIS {
            return TargetsChange::Unchanged;
        } else {
            // The circle only shrinks: narrowing keeps or drops whole
            // blocks, so the driver may intersect its remainders in
            // place.
            TargetsChange::Narrowed
        };
        self.published = true;
        self.circle.narrow(r2);
        self.probe.refreshes += 1;
        self.probe.total_ranges += self.circle.entries().len();
        self.note_held();
        change
    }

    fn targets(&self) -> &[DistRange] {
        self.circle.entries()
    }

    fn settle(&mut self, rem: &mut Vec<DistRange>, i: usize, reach: Reach) -> bool {
        if !settle_rem(&mut self.circle, rem, i, reach, &mut self.rem_buf) {
            return false;
        }
        self.note_held();
        true
    }

    fn on_virtuals(&mut self, hcs: &[u64]) {
        self.offer_buf.clear();
        for &hc in hcs {
            let rect = self.mapper.cell_rect(self.curve.d2xy(hc));
            self.offer_buf.push((hc, rect.max_dist2(self.q)));
        }
        self.cands.offer_virtuals(&self.offer_buf);
        self.probe.peak_cands = self.probe.peak_cands.max(self.cands.len());
    }

    fn on_header(&mut self, o: &Object) -> bool {
        let d2 = dist2(self.q, o.pos);
        if d2 <= self.cands.r2() {
            self.cands.resolve_wanted(o.hc, d2, o.id);
            self.probe.peak_cands = self.probe.peak_cands.max(self.cands.len());
            true
        } else {
            self.cands.drop_unwanted(o.hc);
            false
        }
    }

    fn on_retrieved(&mut self, o: &Object) {
        self.cands.mark_retrieved(o.hc);
    }

    fn complete(&mut self) -> bool {
        self.cands.top_k_retrieved()
    }

    fn reads_entry_targets(&self) -> bool {
        self.strategy == KnnStrategy::Aggressive
    }

    fn nav_pick(&mut self, rem: &mut Vec<DistRange>, entry_targets: &[(u32, u64)]) -> NavPick {
        match self.strategy {
            KnnStrategy::Conservative => NavPick::Earliest,
            KnnStrategy::Aggressive => {
                // Follow the entry whose frame lies closest to the query
                // point — but only among entries whose region (up to the
                // next entry's bound) still overlaps a *live* remainder.
                // Jumping to the nearest frame whose content is provably
                // outside the current circle wastes the retune and a full
                // extra cycle.
                let r2 = self.cands.r2();
                // Each entry's region ends at the next-larger entry bound;
                // sort the bounds once so the successor is a binary search
                // instead of a scan per entry.
                self.nav_bounds.clear();
                self.nav_bounds
                    .extend(entry_targets.iter().map(|&(_, h)| h));
                self.nav_bounds.sort_unstable();
                let mut best: Option<(f64, u32)> = None;
                for &(slot, hc) in entry_targets {
                    let next = match self.nav_bounds.partition_point(|&h| h <= hc) {
                        i if i < self.nav_bounds.len() => self.nav_bounds[i],
                        _ => u64::MAX,
                    };
                    if !self.live_in(rem, hc, next, r2) {
                        continue;
                    }
                    let d2 = self.mapper.cell_rect(self.curve.d2xy(hc)).min_dist2(self.q);
                    if best.is_none_or(|(b, _)| d2 < b) {
                        best = Some((d2, slot));
                    }
                }
                match best {
                    Some((_, slot)) => NavPick::Slot(slot),
                    None => NavPick::Earliest,
                }
            }
        }
    }

    /// The direct decomposition at the published radius. The held blocks
    /// must settle to it, bounds included, and never outnumber its blocks:
    /// each held block is one of them or holds one.
    #[cfg(test)]
    fn audit_targets(&self) -> Vec<HcRange> {
        let mut direct = Vec::new();
        let r2 = self.circle.r2();
        ranges_in_circle_with_dist_into(&self.curve, &self.mapper, self.q, r2, &mut direct);
        let mut settled = self.circle.clone();
        settled.settle_all();
        assert!(
            self.circle.entries().len() <= settled.entries().len(),
            "{} blocks held for a decomposition of {}",
            self.circle.entries().len(),
            settled.entries().len()
        );
        let mut merged: Vec<DistRange> = Vec::new();
        for &e in settled.entries() {
            match merged.last_mut() {
                Some(m) if m.range.hi + 1 == e.range.lo => {
                    m.range.hi = e.range.hi;
                    m.min_d2 = m.min_d2.min(e.min_d2);
                    m.max_min_d2 = m.max_min_d2.max(e.max_min_d2);
                }
                _ => merged.push(e),
            }
        }
        assert_eq!(merged, direct, "the targets settle to another circle");
        direct.iter().map(|d| d.range).collect()
    }

    #[cfg(test)]
    fn settled(&self, rem: &[DistRange]) -> Vec<HcRange> {
        let (mut circle, mut rem, mut buf) = (self.circle.clone(), rem.to_vec(), Vec::new());
        let mut i = 0;
        while i < rem.len() {
            let lo = rem[i].range.lo;
            if !settle_rem(&mut circle, &mut rem, i, Reach::From(lo), &mut buf) {
                i += 1;
            }
        }
        let mut out: Vec<HcRange> = rem.iter().map(|r| r.range).collect();
        dsi_hilbert::merge_ranges(&mut out);
        out
    }
}

impl DsiAir {
    /// Answers a kNN query on the air: returns the ids of the `k` objects
    /// nearest to `q` (ties broken by id), in ascending id order. Metrics
    /// accrue on `tuner`.
    pub fn knn_query(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        q: Point,
        k: usize,
        strategy: KnnStrategy,
    ) -> Vec<u32> {
        self.knn_query_probed(tuner, q, k, strategy).0
    }

    /// [`DsiAir::knn_query`] plus the query's memory/decomposition probe.
    #[doc(hidden)]
    pub fn knn_query_probed(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        q: Point,
        k: usize,
        strategy: KnnStrategy,
    ) -> (Vec<u32>, KnnProbe) {
        let k = k.min(self.objects().len());
        if k == 0 {
            return (Vec::new(), KnnProbe::default());
        }
        let mut mode = KnnMode::new(self, q, k, strategy);
        run_query(self, tuner, &mut mode);
        mode.probe.descent_blocks = mode.circle.descent_blocks();
        (mode.cands.result_ids(), mode.probe)
    }
}

/// Test-only access to the candidate set, for the differential property
/// tests of the batched-offer API (`crates/core/tests/props.rs`).
#[doc(hidden)]
pub mod testkit {
    use super::{Cand, Candidates};

    /// A wrapped [`Candidates`] exposing its transitions and checks.
    pub struct CandSet(Candidates);

    impl CandSet {
        /// A candidate set selecting the k-th bound.
        pub fn new(k: usize) -> Self {
            Self(Candidates::new(k))
        }

        /// Sequential-oracle offer: re-filters against a fresh radius per
        /// offer (the pre-batching behaviour).
        pub fn offer_one(&mut self, hc: u64, ub2: f64) {
            self.0.offer_virtual(hc, ub2);
        }

        /// Batched offer: one radius bound for the whole batch.
        pub fn offer_batch(&mut self, offers: &[(u64, f64)]) {
            self.0.offer_virtuals(offers);
        }

        /// Header-event transition, exactly as the driver applies it:
        /// resolves the object when it is inside the current radius, drops
        /// it otherwise. Returns whether it was wanted.
        pub fn header(&mut self, hc: u64, d2: f64, id: u32) -> bool {
            if d2 <= self.0.r2() {
                self.0.resolve_wanted(hc, d2, id);
                true
            } else {
                self.0.drop_unwanted(hc);
                false
            }
        }

        /// Marks a candidate's record as fully retrieved.
        pub fn mark_retrieved(&mut self, hc: u64) {
            self.0.mark_retrieved(hc);
        }

        /// The current squared search radius.
        pub fn r2(&mut self) -> f64 {
            self.0.r2()
        }

        /// Whether the k best candidates are all retrieved.
        pub fn top_k_retrieved(&mut self) -> bool {
            self.0.top_k_retrieved()
        }

        /// Number of candidates currently held.
        pub fn len(&self) -> usize {
            self.0.len()
        }

        /// Whether no candidates are held.
        pub fn is_empty(&self) -> bool {
            self.0.len() == 0
        }

        /// Asserts the radius cache is coherent: the cached radius equals
        /// the radius recomputed from a fresh selection, i.e. no mutation
        /// left a stale cache behind for the completion check to disagree
        /// with.
        pub fn assert_cache_coherent(&mut self) {
            let cached = self.0.r2();
            self.0.r2_cache = None;
            let fresh = self.0.r2();
            assert_eq!(cached, fresh, "stale radius cache");
        }

        /// The retrieved ids, nearest-first capped at k, ascending.
        pub fn result_ids(&self) -> Vec<u32> {
            self.0.result_ids()
        }
    }

    // Referenced so the struct fields count as used outside tests.
    const _: fn(&Cand) -> bool = |c| c.retrieved;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsiConfig, FramingPolicy};
    use dsi_broadcast::LossModel;
    use dsi_datagen::{knn_points, uniform, SpatialDataset};
    use dsi_hilbert::{HcSpan, LazyRanges};

    fn check_knn(cfg: DsiConfig, strategy: KnnStrategy, n: usize, order: u8, ks: &[usize]) {
        let ds = SpatialDataset::build(&uniform(n, 31), order);
        let air = DsiAir::build(&ds, cfg);
        let queries = knn_points(10, 17);
        for (qi, &q) in queries.iter().enumerate() {
            for &k in ks {
                let start = (qi as u64 * 6151) % air.program().len();
                let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, qi as u64);
                let got = air.knn_query(&mut tuner, q, k, strategy);
                let want = ds.brute_knn(q, k);
                assert_eq!(got, want, "q{qi}={q:?} k={k} {strategy:?} {cfg:?}");
            }
        }
    }

    #[test]
    fn dropping_an_unwanted_candidate_keeps_the_radius_cache() {
        let mut c = Candidates::new(2);
        c.offer_virtuals(&[(1, 1.0), (2, 2.0), (3, 9.0)]);
        assert_eq!(c.r2(), 2.0);
        // Header of HC 3 seen at exact distance 5 > r2: dropped.
        c.drop_unwanted(3);
        assert_eq!(c.r2_cache, Some(2.0), "the drop cleared the cache");
        c.r2_cache = None;
        assert_eq!(c.r2(), 2.0, "the kept cache was stale");
    }

    #[test]
    fn conservative_matches_brute_force() {
        check_knn(
            DsiConfig::paper_default(),
            KnnStrategy::Conservative,
            400,
            9,
            &[1, 4, 10],
        );
    }

    #[test]
    fn aggressive_matches_brute_force() {
        check_knn(
            DsiConfig::paper_default(),
            KnnStrategy::Aggressive,
            400,
            9,
            &[1, 4, 10],
        );
    }

    #[test]
    fn reorganized_matches_brute_force() {
        check_knn(
            DsiConfig::paper_reorganized(),
            KnnStrategy::Conservative,
            400,
            9,
            &[1, 4, 10],
        );
    }

    #[test]
    fn object_factor_one_matches() {
        let cfg = DsiConfig {
            framing: FramingPolicy::FixedObjectFactor(1),
            ..DsiConfig::paper_default()
        };
        check_knn(cfg, KnnStrategy::Conservative, 250, 8, &[3]);
        check_knn(cfg, KnnStrategy::Aggressive, 250, 8, &[3]);
    }

    #[test]
    fn k_equals_n_returns_all() {
        let ds = SpatialDataset::build(&uniform(40, 3), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let mut tuner = Tuner::tune_in(air.program(), 11, LossModel::None, 1);
        let got = air.knn_query(
            &mut tuner,
            Point::new(0.4, 0.6),
            40,
            KnnStrategy::Conservative,
        );
        assert_eq!(got.len(), 40);
        // k larger than N clamps.
        let mut tuner = Tuner::tune_in(air.program(), 11, LossModel::None, 1);
        let got = air.knn_query(
            &mut tuner,
            Point::new(0.4, 0.6),
            99,
            KnnStrategy::Conservative,
        );
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn query_point_outside_space() {
        let ds = SpatialDataset::build(&uniform(120, 9), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let q = Point::new(1.8, -0.4);
        let mut tuner = Tuner::tune_in(air.program(), 77, LossModel::None, 2);
        let got = air.knn_query(&mut tuner, q, 5, KnnStrategy::Conservative);
        assert_eq!(got, ds.brute_knn(q, 5));
    }

    /// A query point on a grid vertex puts every published radius on a
    /// cell edge: a candidate cell's far corner is the near corner of its
    /// diagonal neighbour, so that cell lies on the circle (`min_d2 ==
    /// r2`) and must stay a target. The driver's audit compares the lazy
    /// circle with the direct decomposition at each of those radii.
    #[test]
    fn grid_vertex_queries_keep_cells_on_the_circle() {
        let ds = SpatialDataset::build(&uniform(400, 23), 8);
        for cfg in [DsiConfig::paper_default(), DsiConfig::paper_reorganized()] {
            let air = DsiAir::build(&ds, cfg);
            for (qi, q) in [(0.5, 0.5), (0.25, 0.75), (0.0, 0.0)]
                .into_iter()
                .enumerate()
            {
                let q = Point::new(q.0, q.1);
                for strategy in [KnnStrategy::Conservative, KnnStrategy::Aggressive] {
                    for k in [1, 4, 10] {
                        let start = (qi as u64 * 4_099) % air.program().len();
                        let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, 3);
                        let got = air.knn_query(&mut tuner, q, k, strategy);
                        assert_eq!(got, ds.brute_knn(q, k), "q {q:?} k {k} {strategy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn correct_under_loss_all_strategies() {
        let ds = SpatialDataset::build(&uniform(300, 21), 9);
        for cfg in [DsiConfig::paper_default(), DsiConfig::paper_reorganized()] {
            let air = DsiAir::build(&ds, cfg);
            for (qi, q) in knn_points(8, 3).into_iter().enumerate() {
                for strategy in [KnnStrategy::Conservative, KnnStrategy::Aggressive] {
                    let mut tuner = Tuner::tune_in(
                        air.program(),
                        (qi as u64 * 911) % air.program().len(),
                        LossModel::iid(0.4),
                        qi as u64,
                    );
                    let got = air.knn_query(&mut tuner, q, 10, strategy);
                    assert_eq!(got, ds.brute_knn(q, 10), "lossy q{qi} {strategy:?}");
                }
            }
        }
    }

    /// Regression for the aggressive strategy ignoring `rem`: the picked
    /// slot must always have a live remainder in its entry's region; an
    /// entry with none is skipped even when its frame is the one nearest
    /// the query point (the old behaviour jumped there anyway, wasting the
    /// retune and a full cycle).
    #[test]
    fn aggressive_nav_skips_entries_without_live_targets() {
        let ds = SpatialDataset::build(&uniform(64, 5), 4);
        let air = DsiAir::build(&ds, DsiConfig::paper_default());
        let q = Point::new(0.05, 0.05); // in the cell of HC 0 (order 4)
        let mut mode = KnnMode::new(&air, q, 2, KnnStrategy::Aggressive);

        // Rig a finite, moderate radius, publish the circle targets and
        // split them all.
        mode.cands.offer_virtuals(&[(0, 0.09), (1, 0.1)]);
        assert!(mode.cands.r2().is_finite());
        assert_eq!(mode.refresh_targets(), TargetsChange::Replaced);
        let mut all = mode.targets().to_vec();
        let mut i = 0;
        while i < all.len() {
            let lo = all[i].range.lo;
            if !mode.settle(&mut all, i, Reach::From(lo)) {
                i += 1;
            }
        }
        assert!(!all.is_empty());
        assert_eq!(mode.targets(), &all[..]);

        // The only remainder left is the tail of the last target range.
        // Entry B points at the query's own cell (HC 0 — distance 0, the
        // nearest frame by far) but its region [0, m) holds no remainder;
        // entry A's region [m, ∞) holds the live one.
        let last = *all.last().unwrap();
        let m = last.range.hi;
        assert!(m > 0);
        let mut rem = vec![last.with_range(HcRange::new(m, m))];
        let entries = vec![(7u32, m), (3u32, 0u64)];
        match mode.nav_pick(&mut rem, &entries) {
            NavPick::Slot(slot) => assert_eq!(slot, 7, "picked an entry with no live target"),
            NavPick::Earliest => panic!("a live entry existed"),
        }

        // With no live remainder in any entry's region the pick falls back
        // to the conservative sweep instead of a wasted jump.
        let far_only = vec![(7u32, m)];
        let mut rem_outside = vec![DistRange {
            range: HcRange::new(1, 1),
            min_d2: 0.0,
            max_min_d2: 0.0,
        }];
        assert!(matches!(
            mode.nav_pick(&mut rem_outside, &far_only),
            NavPick::Earliest
        ));
    }

    /// The probe's counts on a query with many shrinks: refreshes descend
    /// nothing, and the rim stays unsplit where no probe reached it. An
    /// eagerly split rim would hold every block of the direct
    /// decomposition after the last refresh, and fail here.
    #[test]
    fn probe_reports_bounded_targets() {
        let ds = SpatialDataset::build(&uniform(500, 11), 9);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let q = Point::new(0.37, 0.61);
        let mut tuner = Tuner::tune_in(air.program(), 29, LossModel::None, 5);
        let (got, probe) = air.knn_query_probed(&mut tuner, q, 10, KnnStrategy::Conservative);
        assert_eq!(got, ds.brute_knn(q, 10));
        assert!(probe.refreshes >= 3, "expected several circle shrinks");
        assert!(probe.peak_cands <= 500);

        // The same query again, keeping the mode to look inside.
        let mut tuner = Tuner::tune_in(air.program(), 29, LossModel::None, 5);
        let mut mode = KnnMode::new(&air, q, 10, KnnStrategy::Conservative);
        run_query(&air, &mut tuner, &mut mode);
        assert_eq!(probe.descent_blocks, mode.circle.descent_blocks());
        assert!(probe.descent_blocks > 0, "no probe ever refined a block");
        let held = mode.circle.entries();
        assert!(
            held.iter().any(|e| mode.circle.is_lazy(e)),
            "every rim block was split"
        );
        let mut eager = mode.circle.clone();
        eager.settle_all();
        assert!(
            held.len() < eager.entries().len(),
            "{} blocks held, {} in the decomposition",
            held.len(),
            eager.entries().len()
        );
    }
}
