//! The fleet engine: thousands-to-millions of concurrent broadcast
//! clients advanced with one pass over the cycle, instead of one full
//! drive loop per client.
//!
//! # Why a fleet engine
//!
//! The paper's core economic argument is that a broadcast cycle serves an
//! *unbounded* listener population at constant server cost. A naive
//! simulator pays for that population one client at a time — N clients
//! cost N full drive loops, even though most of those loops are, from the
//! channel's point of view, the same loop. The fleet engine is this
//! crate's one batch path: a Zipf fleet ([`run_fleet`]), a classic
//! query batch ([`crate::run_query_batch`], client `i` runs query `i`)
//! and the placement optimizer's measurements are all
//! [`run_population`] over an explicit [`Population`], and it exploits
//! exactly the property the paper sells:
//!
//! 1. **Structure-of-arrays population.** Client state lives in flat
//!    parallel arrays ([`Population`]: query index, tune-in instant, loss
//!    seed; [`FleetOutcomes`]: one column per metric), not in N client
//!    objects. A counting-sort **wake index** buckets clients by tune-in
//!    instant, so one ascending sweep of the cycle visits exactly the
//!    clients waiting at each instant.
//! 2. **Cohort coalescing.** Under a lossless single-channel broadcast a
//!    client's outcome is a pure function of `(query, first scheduled
//!    action)`. Every scheme reports that first action via
//!    [`dsi_broadcast::DynScheme::tune_anchor`]; clients in the same wake
//!    region with equal anchor and equal query form a *cohort* that is
//!    driven **once**. The representative's absolute trajectory is
//!    shared: every member gets identical answers, tuning, switches and
//!    channel stats, and its own
//!    access latency `end − start` (the paper's free-rider premise made
//!    computational). Lossy or multi-channel populations degrade
//!    gracefully to per-client drives — same code path, no sharing.
//! 3. **Batched dispatch on a work-stealing pool.** The sweep is cut into
//!    deterministic granules (contiguous wake-index ranges that never
//!    split an anchor region), which are executed by the vendored `steal`
//!    pool. Granule boundaries are derived from the population only — not
//!    from the worker count — and results are merged by client index, so
//!    **outcomes are bit-identical for any worker count**, including the
//!    sequential oracle ([`run_fleet_oracle`], a plain per-client drive
//!    loop). The pool is the crate's only parallel execution path.
//! 4. **Shared decompositions.** Fleet workers install one
//!    [`dsi_core::share::ShareCache`] from the pool's start hook, so representatives of *different*
//!    cohorts running the same window query share its HC-segment
//!    decomposition. Identical kNN queries already share circle
//!    decompositions and candidate tables wholesale through their cohort
//!    representative.
//!
//! # Determinism contract
//!
//! For a fixed [`FleetSpec`] and [`Population`], [`run_population`]
//! returns bit-identical [`FleetOutcomes`] for every worker count, equal
//! to the sequential oracle's over the same population. Wall-clock
//! figures and the share-cache hit/miss counters are measurements, not
//! outcomes: they vary run to run (concurrent misses of
//! the same key may both compute), and are reported for observability
//! only. The differential suite (`crates/sim/tests/fleet_differential`)
//! pins the contract across scheme × placement × antennas × loss ×
//! worker count, for derived and classic populations.

use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dsi_broadcast::{
    AntennaConfig, ChannelStats, DistSummary, Distribution, LossModel, Query, QueryStats,
};
use dsi_core::share::{self, ShareCache};
use dsi_datagen::SpatialDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;

/// Multiplier of the per-client seed derivation (`seed ^ i * SEED_MIX`),
/// shared by every [`Population`] constructor and the matrix optimizer's
/// training drives so they agree on what "client `i` of master seed `s`"
/// means.
pub(crate) const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Ground truth for one query.
fn brute(dataset: &SpatialDataset, q: &Query) -> Vec<u32> {
    match q {
        Query::Window(w) => dataset.brute_window(w),
        Query::Knn(p, k) => dataset.brute_knn(*p, *k),
    }
}

/// One fleet scenario: a client population over a query pool.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Distinct queries clients draw from (the "hot set" of the
    /// workload). Client popularity over the pool follows `skew`.
    pub pool: Vec<Query>,
    /// Zipf exponent of pool popularity: `0.0` = uniform, `1.1` ≈ a
    /// flash-crowd where a few queries dominate.
    pub skew: f64,
    /// Link-error model handed to every client. Anything but
    /// [`LossModel::None`] disables cohort coalescing (loss draws are
    /// per-client), falling back to per-client drives.
    pub loss: LossModel,
    /// Receiver configuration handed to every client.
    pub antennas: AntennaConfig,
    /// Master seed; tune-in instants, pool draws and per-client loss
    /// seeds derive from it deterministically.
    pub seed: u64,
    /// Worker threads; `0` means the host's available parallelism.
    /// Outcomes are identical for every value (see the module docs).
    pub workers: usize,
    /// Cross-check every *representative* answer against brute force
    /// (members share the representative's answer by construction).
    pub validate: bool,
    /// Keep every client's answer ids in [`FleetOutcomes::ids`].
    pub keep_ids: bool,
    /// Keep every client's [`ChannelStats`] in [`FleetOutcomes::channels`].
    pub keep_channels: bool,
}

impl FleetSpec {
    /// A lossless single-antenna fleet of `clients` over `pool`, uniform
    /// popularity, validation and per-client result retention off.
    pub fn new(clients: usize, pool: Vec<Query>) -> Self {
        FleetSpec {
            clients,
            pool,
            skew: 0.0,
            loss: LossModel::None,
            antennas: AntennaConfig::single(),
            seed: 7,
            workers: 0,
            validate: false,
            keep_ids: false,
            keep_channels: false,
        }
    }
}

/// A client population, structure-of-arrays: column `i` of each array is
/// client `i`. [`run_population`] and the sequential oracle both take it
/// explicitly, so they drive the *same* clients.
#[derive(Debug, Clone)]
pub struct Population {
    /// Index into [`FleetSpec::pool`] per client.
    pub query: Vec<u32>,
    /// Tune-in instant per client, in `[0, cycle)`.
    pub start: Vec<u64>,
    /// Loss seed per client: `seed ^ i·SEED_MIX` for client `i` of
    /// master seed `seed`.
    pub seed: Vec<u64>,
}

impl Population {
    /// The classic batch population of `clients` queries: client `i`
    /// runs pool entry `i`, tune-in instants are drawn in client order
    /// from `StdRng::seed_from_u64(seed)`, and loss seeds follow the
    /// shared `seed ^ i·SEED_MIX` derivation.
    pub fn classic(clients: usize, cycle: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Population {
            query: (0..clients as u32).collect(),
            start: (0..clients).map(|_| rng.gen_range(0..cycle)).collect(),
            seed: (0..clients as u64)
                .map(|i| seed ^ i.wrapping_mul(SEED_MIX))
                .collect(),
        }
    }

    /// Derives the Zipf population of `spec` for a broadcast of `cycle`
    /// packets: a pure function of `(spec, cycle)`.
    pub fn derive(spec: &FleetSpec, cycle: u64) -> Self {
        assert!(!spec.pool.is_empty(), "fleet needs a non-empty query pool");
        assert!(cycle > 0, "empty broadcast cycle");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // Zipf cumulative weights over pool ranks: w_r ∝ 1/(r+1)^skew.
        let cum: Vec<f64> = spec
            .pool
            .iter()
            .enumerate()
            .scan(0.0f64, |acc, (rank, _)| {
                *acc += 1.0 / ((rank + 1) as f64).powf(spec.skew);
                Some(*acc)
            })
            .collect();
        let total = *cum.last().expect("non-empty pool");
        let mut query = Vec::with_capacity(spec.clients);
        let mut start = Vec::with_capacity(spec.clients);
        let mut seed = Vec::with_capacity(spec.clients);
        for i in 0..spec.clients {
            start.push(rng.gen_range(0..cycle));
            // A uniform draw in [0, total) via 53 random mantissa bits.
            let u = (rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64) * total;
            let qi = cum.partition_point(|&c| c <= u).min(spec.pool.len() - 1);
            query.push(qi as u32);
            seed.push(spec.seed ^ (i as u64).wrapping_mul(SEED_MIX));
        }
        Population { query, start, seed }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.query.len()
    }

    /// `true` for an empty population.
    pub fn is_empty(&self) -> bool {
        self.query.is_empty()
    }
}

/// Per-client results, structure-of-arrays (column `i` = client `i`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcomes {
    /// Access latency, packets.
    pub latency: Vec<u64>,
    /// Tuning time, packets.
    pub tuning: Vec<u64>,
    /// Reads lost to the link-error model.
    pub lost: Vec<u64>,
    /// Longest loss stall, packets.
    pub longest_stall: Vec<u64>,
    /// Retunes forced by loss bursts.
    pub loss_retunes: Vec<u64>,
    /// Channel switches.
    pub switches: Vec<u64>,
    /// Packet capacity the program was built with (byte conversion).
    pub capacity: u32,
    /// Answer ids per client, if [`FleetSpec::keep_ids`] was set.
    pub ids: Option<Vec<Vec<u32>>>,
    /// Channel stats per client, if [`FleetSpec::keep_channels`] was set.
    pub channels: Option<Vec<ChannelStats>>,
}

impl FleetOutcomes {
    fn with_capacity(n: usize, capacity: u32, keep_ids: bool, keep_channels: bool) -> Self {
        FleetOutcomes {
            latency: vec![0; n],
            tuning: vec![0; n],
            lost: vec![0; n],
            longest_stall: vec![0; n],
            loss_retunes: vec![0; n],
            switches: vec![0; n],
            capacity,
            ids: keep_ids.then(|| vec![Vec::new(); n]),
            channels: keep_channels.then(|| vec![ChannelStats::default(); n]),
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// `true` for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
    }

    /// Client `i`'s stats, reassembled in the classic per-query shape.
    pub fn stats_of(&self, i: usize) -> QueryStats {
        QueryStats {
            latency_packets: self.latency[i],
            tuning_packets: self.tuning[i],
            capacity: self.capacity,
            lost_packets: self.lost[i],
            longest_stall_packets: self.longest_stall[i],
            loss_retunes: self.loss_retunes[i],
        }
    }
}

/// Population-level fleet metrics. Outcome-derived fields (distribution
/// summaries, totals, concurrency) are deterministic; wall-clock rates
/// and cache counters are measurements.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Clients simulated.
    pub clients: usize,
    /// Drive loops actually executed (cohort representatives).
    pub drives: usize,
    /// Clients served from a cohort representative's trajectory.
    pub coalesced: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock of the engine pass over the population (wake index
    /// through outcome assembly).
    pub wall_seconds: f64,
    /// Clients completed per wall second.
    pub clients_per_sec: f64,
    /// Tuner read events *served* per wall second, across the population
    /// (the per-client cost a per-client simulator would pay).
    pub events_per_sec: f64,
    /// Tuner read events actually *computed* per wall second
    /// (representatives only).
    pub driven_events_per_sec: f64,
    /// Access-latency distribution over the population, packets.
    pub latency: DistSummary,
    /// Tuning-time distribution over the population, packets.
    pub tuning: DistSummary,
    /// Most clients simultaneously mid-query at any broadcast instant.
    pub peak_concurrent: u64,
    /// Mean concurrent clients over the span any client was active.
    pub mean_concurrent: f64,
    /// Concurrent-client curve, sampled: `(instant, active clients)`.
    pub contention: Vec<(u64, u64)>,
    /// Population tuning per channel, packets (index = channel).
    pub per_channel_tuning: Vec<u64>,
    /// Window decompositions served from the share cache.
    pub window_cache_hits: u64,
    /// Window decompositions computed (then published).
    pub window_cache_misses: u64,
}

/// Inputs shared by every granule task.
struct Shared {
    engine: Engine,
    pool: Vec<Query>,
    /// The dataset answers are checked against, when validating.
    dataset: Option<Arc<SpatialDataset>>,
    /// Brute-force answer per pool entry, computed once by the first
    /// worker that validates it.
    expected: Vec<OnceLock<Vec<u32>>>,
    pop: Population,
    /// Client ids sorted by (start instant, id) — the wake index order.
    order: Vec<u32>,
    /// Coalescing anchor per cycle instant (`u64::MAX` where unused or
    /// coalescing is off).
    anchor: Vec<u64>,
    coalesce: bool,
    loss: LossModel,
    antennas: AntennaConfig,
    keep_ids: bool,
    keep_channels: bool,
}

/// One client's result row, sent back from a granule task.
struct Row {
    client: u32,
    stats: QueryStats,
    switches: u64,
    ids: Option<Vec<u32>>,
    channels: Option<ChannelStats>,
}

/// One granule's output; merged, the whole run's totals.
struct GranuleOut {
    rows: Vec<Row>,
    drives: usize,
    coalesced: usize,
    /// Tuning packets of the drives actually executed.
    driven_tuning: u64,
    per_channel_tuning: Vec<u64>,
}

impl GranuleOut {
    fn new(rows: usize, channels: u32) -> Self {
        GranuleOut {
            rows: Vec::with_capacity(rows),
            drives: 0,
            coalesced: 0,
            driven_tuning: 0,
            per_channel_tuning: vec![0; channels as usize],
        }
    }
}

/// Drives the clients of `order[lo..hi]`: groups them into cohorts (when
/// coalescing), drives one representative per cohort, and fans the shared
/// trajectory out to the members. Pure function of its inputs — granule
/// results do not depend on scheduling.
fn run_granule(shared: &Shared, lo: usize, hi: usize) -> GranuleOut {
    // (cohort key, query, client): sorting groups cohorts; client id
    // ascending within a cohort makes the lowest id the representative.
    let mut items: Vec<(u64, u32, u32)> = shared.order[lo..hi]
        .iter()
        .map(|&c| {
            let key = if shared.coalesce {
                shared.anchor[shared.pop.start[c as usize] as usize]
            } else {
                c as u64 // unique key: every client its own cohort
            };
            (key, shared.pop.query[c as usize], c)
        })
        .collect();
    items.sort_unstable();

    let mut out = GranuleOut::new(hi - lo, shared.engine.n_channels());
    let mut i = 0;
    while i < items.len() {
        let (key, qidx, rep) = items[i];
        let mut j = i + 1;
        while j < items.len() && items[j].0 == key && items[j].1 == qidx {
            j += 1;
        }
        let query = &shared.pool[qidx as usize];
        let rep_start = shared.pop.start[rep as usize];
        let outcome = shared.engine.drive(
            rep_start,
            shared.loss.clone(),
            shared.pop.seed[rep as usize],
            shared.antennas,
            query,
        );
        out.drives += 1;
        out.driven_tuning += outcome.stats.tuning_packets;
        if let Some(ds) = &shared.dataset {
            let want = shared.expected[qidx as usize].get_or_init(|| brute(ds, query));
            assert_eq!(&outcome.ids, want, "fleet answer mismatch (client {rep})");
        }
        // The cohort's shared trajectory ends at this absolute instant;
        // each member's latency is `end − its own start` (equal to the
        // representative's for the representative itself). The only case
        // with `end < start` is a query that answers instantly (empty
        // target set, latency 0 at every start), where saturation yields
        // exactly the member's own 0.
        let end = rep_start + outcome.stats.latency_packets;
        for &(_, _, member) in &items[i..j] {
            let m_start = shared.pop.start[member as usize];
            debug_assert!(end >= m_start || outcome.stats.latency_packets == 0);
            out.rows.push(Row {
                client: member,
                stats: QueryStats {
                    latency_packets: if member == rep {
                        outcome.stats.latency_packets
                    } else {
                        end.saturating_sub(m_start)
                    },
                    ..outcome.stats
                },
                switches: outcome.channels.switches,
                ids: shared.keep_ids.then(|| outcome.ids.clone()),
                channels: shared.keep_channels.then(|| outcome.channels.clone()),
            });
            for (c, t) in out
                .per_channel_tuning
                .iter_mut()
                .zip(&outcome.channels.tuning_packets)
            {
                *c += *t;
            }
        }
        out.coalesced += j - i - 1;
        i = j;
    }
    out
}

/// Runs a fleet: derives the Zipf population of `spec` and runs it
/// through [`run_population`]. See the module docs for the determinism
/// contract.
pub fn run_fleet(
    engine: &Arc<Engine>,
    dataset: Option<&Arc<SpatialDataset>>,
    spec: &FleetSpec,
) -> (FleetStats, FleetOutcomes) {
    let pop = Population::derive(spec, engine.cycle_packets());
    run_population(engine, dataset, spec, pop)
}

/// Runs an explicit population: builds the wake index, cuts it into
/// anchor-aligned granules, executes them on the work-stealing pool, and
/// assembles per-client outcomes plus population stats. Client `i` runs
/// `spec.pool[pop.query[i]]`; the population replaces `spec.clients`,
/// `spec.skew` and `spec.seed`. With `spec.validate`, every driven answer
/// is checked against its pool entry's brute-force answer, computed once
/// per entry on the pool.
pub fn run_population(
    engine: &Engine,
    dataset: Option<&Arc<SpatialDataset>>,
    spec: &FleetSpec,
    pop: Population,
) -> (FleetStats, FleetOutcomes) {
    let dataset = spec
        .validate
        .then(|| Arc::clone(dataset.expect("fleet validation needs the dataset")));
    let t0 = Instant::now();
    let cycle = engine.cycle_packets();
    let n = pop.len();

    // Wake index: counting sort of clients by tune-in instant (stable in
    // client id, so cohort representatives are reproducible).
    let mut counts = vec![0u32; cycle as usize + 1];
    for &s in &pop.start {
        counts[s as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let offsets = counts; // prefix sums: bucket b = order[offsets[b]..offsets[b+1]]
    let mut cursor = offsets.clone();
    let mut order = vec![0u32; n];
    for c in 0..n {
        let b = pop.start[c] as usize;
        order[cursor[b] as usize] = c as u32;
        cursor[b] += 1;
    }

    // Coalescing anchors per populated instant. Any `None` anchor (e.g. a
    // multi-channel program) or a lossy model disables coalescing.
    let mut coalesce = matches!(spec.loss, LossModel::None);
    let mut anchor = vec![u64::MAX; cycle as usize];
    if coalesce {
        'outer: for b in 0..cycle as usize {
            if offsets[b] == offsets[b + 1] {
                continue;
            }
            match engine.tune_anchor(b as u64) {
                Some(a) => anchor[b] = a,
                None => {
                    coalesce = false;
                    break 'outer;
                }
            }
        }
    }

    // Granules: contiguous wake-index ranges, preferentially cut where
    // the anchor changes (so cohorts rarely straddle a cut — a straddle
    // would only cost an extra representative drive, never correctness),
    // sized from the population alone so the task structure is
    // independent of the worker count. Up to 2M clients that is about
    // 256 granules (one per client below 256), so a dozen-query batch
    // still spreads over every worker.
    let target = (n / 256).clamp(1, 8192);
    let mut granules: Vec<(usize, usize)> = Vec::new();
    {
        let mut lo = 0usize;
        let mut at = 0usize; // wake-index position before instant `b`
        let mut prev_anchor = u64::MAX;
        for b in 0..cycle as usize {
            let next = offsets[b + 1] as usize;
            if next == at {
                continue;
            }
            // Cut before instant `b` once the granule is full, waiting
            // for an anchor change when coalescing (cohorts are anchor
            // runs in wake order, so this keeps them whole).
            if at - lo >= target && (!coalesce || anchor[b] != prev_anchor) {
                granules.push((lo, at));
                lo = at;
            }
            prev_anchor = anchor[b];
            at = next;
        }
        if lo < n {
            granules.push((lo, n));
        }
    }

    let workers = if spec.workers == 0 {
        std::thread::available_parallelism().map_or(1, |w| w.get())
    } else {
        spec.workers
    };
    let cache = Arc::new(ShareCache::new());
    let shared = Arc::new(Shared {
        engine: engine.clone(),
        pool: spec.pool.clone(),
        expected: spec.pool.iter().map(|_| OnceLock::new()).collect(),
        dataset,
        pop,
        order,
        anchor,
        coalesce,
        loss: spec.loss.clone(),
        antennas: spec.antennas,
        keep_ids: spec.keep_ids,
        keep_channels: spec.keep_channels,
    });

    let hook_cache = Arc::clone(&cache);
    let pool = steal::Builder::new()
        .workers(workers)
        .on_thread_start(move || {
            share::install(Some(Arc::clone(&hook_cache)));
        })
        .build();
    let batch = pool.batch();
    let (tx, rx) = mpsc::channel::<GranuleOut>();
    for &(lo, hi) in &granules {
        let shard = Arc::clone(&shared);
        let tx = tx.clone();
        batch.spawn(move || {
            let out = run_granule(&shard, lo, hi);
            let _ = tx.send(out);
        });
    }
    drop(tx);
    batch.join();
    drop(pool);

    // Merge keyed by client id: arrival order of granule outputs cannot
    // affect the assembled columns.
    let mut outcomes = FleetOutcomes::with_capacity(n, 0, spec.keep_ids, spec.keep_channels);
    let mut totals = GranuleOut::new(0, shared.engine.n_channels());
    for g in rx.iter() {
        totals.drives += g.drives;
        totals.coalesced += g.coalesced;
        totals.driven_tuning += g.driven_tuning;
        for (acc, t) in totals
            .per_channel_tuning
            .iter_mut()
            .zip(&g.per_channel_tuning)
        {
            *acc += *t;
        }
        for row in g.rows {
            let i = row.client as usize;
            outcomes.capacity = row.stats.capacity;
            outcomes.latency[i] = row.stats.latency_packets;
            outcomes.tuning[i] = row.stats.tuning_packets;
            outcomes.lost[i] = row.stats.lost_packets;
            outcomes.longest_stall[i] = row.stats.longest_stall_packets;
            outcomes.loss_retunes[i] = row.stats.loss_retunes;
            outcomes.switches[i] = row.switches;
            if let (Some(ids), Some(row_ids)) = (&mut outcomes.ids, row.ids) {
                ids[i] = row_ids;
            }
            if let (Some(chs), Some(row_ch)) = (&mut outcomes.channels, row.channels) {
                chs[i] = row_ch;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);

    let stats = assemble_stats(&shared.pop, &outcomes, totals, workers, wall, &cache);
    (stats, outcomes)
}

fn assemble_stats(
    pop: &Population,
    outcomes: &FleetOutcomes,
    totals: GranuleOut,
    workers: usize,
    wall: f64,
    cache: &ShareCache,
) -> FleetStats {
    let n = outcomes.len();
    let mut latency = Distribution::with_capacity(n);
    latency.extend(outcomes.latency.iter().copied());
    let mut tuning = Distribution::with_capacity(n);
    tuning.extend(outcomes.tuning.iter().copied());
    let served_events: u64 = outcomes.tuning.iter().sum();

    // Concurrency curve from [start, start + latency) activity intervals.
    let starts = &pop.start;
    let max_end = outcomes
        .latency
        .iter()
        .zip(starts)
        .map(|(&l, &s)| s + l)
        .max()
        .unwrap_or(0);
    let mut diff = vec![0i64; max_end as usize + 2];
    for (&l, &s) in outcomes.latency.iter().zip(starts) {
        diff[s as usize] += 1;
        diff[(s + l) as usize + 1] -= 1;
    }
    let mut active = 0i64;
    let mut peak = 0i64;
    let mut area = 0i128;
    let span = max_end as usize + 1;
    let step = (span / 64).max(1);
    let mut contention = Vec::with_capacity(span.div_ceil(step));
    for (t, d) in diff.iter().enumerate().take(span) {
        active += d;
        peak = peak.max(active);
        area += active as i128;
        if t % step == 0 {
            contention.push((t as u64, active as u64));
        }
    }

    FleetStats {
        clients: n,
        drives: totals.drives,
        coalesced: totals.coalesced,
        workers,
        wall_seconds: wall,
        clients_per_sec: n as f64 / wall,
        events_per_sec: served_events as f64 / wall,
        driven_events_per_sec: totals.driven_tuning as f64 / wall,
        latency: latency.summary(),
        tuning: tuning.summary(),
        peak_concurrent: peak as u64,
        mean_concurrent: area as f64 / span as f64,
        contention,
        per_channel_tuning: totals.per_channel_tuning,
        window_cache_hits: cache.window_hits(),
        window_cache_misses: cache.window_misses(),
    }
}

/// The sequential oracle: every client of `pop` driven individually, no
/// pool, no coalescing, no share cache — the reference
/// [`run_population`] must match bit for bit. Returns the same
/// [`FleetOutcomes`] columns.
pub fn run_fleet_oracle(
    engine: &Engine,
    dataset: Option<&SpatialDataset>,
    spec: &FleetSpec,
    pop: &Population,
) -> FleetOutcomes {
    let mut out = FleetOutcomes::with_capacity(pop.len(), 0, spec.keep_ids, spec.keep_channels);
    for c in 0..pop.len() {
        let query = &spec.pool[pop.query[c] as usize];
        let o = engine.drive(
            pop.start[c],
            spec.loss.clone(),
            pop.seed[c],
            spec.antennas,
            query,
        );
        if spec.validate {
            let ds = dataset.expect("oracle validation needs the dataset");
            assert_eq!(o.ids, brute(ds, query), "oracle answer mismatch");
        }
        out.capacity = o.stats.capacity;
        out.latency[c] = o.stats.latency_packets;
        out.tuning[c] = o.stats.tuning_packets;
        out.lost[c] = o.stats.lost_packets;
        out.longest_stall[c] = o.stats.longest_stall_packets;
        out.loss_retunes[c] = o.stats.loss_retunes;
        out.switches[c] = o.channels.switches;
        if let Some(ids) = &mut out.ids {
            ids[c] = o.ids;
        }
        if let Some(chs) = &mut out.channels {
            chs[c] = o.channels;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheme;
    use crate::uniform_dataset_n;
    use dsi_datagen::{knn_points, window_queries};
    use dsi_geom::Rect;

    fn small_spec(clients: usize) -> FleetSpec {
        let mut pool: Vec<Query> = window_queries(4, 0.2, 9)
            .into_iter()
            .map(Query::Window)
            .collect();
        pool.extend(knn_points(4, 5).into_iter().map(|p| Query::Knn(p, 3)));
        FleetSpec {
            skew: 1.1,
            validate: true,
            keep_ids: true,
            keep_channels: true,
            ..FleetSpec::new(clients, pool)
        }
    }

    #[test]
    fn fleet_matches_oracle_and_coalesces() {
        let ds = Arc::new(uniform_dataset_n(300));
        let engine = Arc::new(Engine::build(Scheme::dsi_reorganized(64), &ds, 64));
        let spec = small_spec(400);
        let (stats, outcomes) = run_fleet(&engine, Some(&ds), &spec);
        let pop = Population::derive(&spec, engine.cycle_packets());
        let oracle = run_fleet_oracle(&engine, Some(&ds), &spec, &pop);
        assert_eq!(outcomes, oracle);
        assert_eq!(stats.clients, 400);
        assert!(stats.drives < 400, "lossless fleet must coalesce");
        assert_eq!(stats.drives + stats.coalesced, 400);
        assert!(stats.peak_concurrent >= 1);
        assert!(stats.latency.p50 <= stats.latency.p95);
        assert!(stats.latency.p95 <= stats.latency.max);
    }

    #[test]
    fn worker_counts_do_not_change_outcomes() {
        let ds = Arc::new(uniform_dataset_n(250));
        let engine = Arc::new(Engine::build(Scheme::RTree, &ds, 64));
        let mut spec = small_spec(240);
        spec.workers = 1;
        let (_, w1) = run_fleet(&engine, Some(&ds), &spec);
        spec.workers = 2;
        let (_, w2) = run_fleet(&engine, Some(&ds), &spec);
        spec.workers = 5;
        let (_, w5) = run_fleet(&engine, Some(&ds), &spec);
        assert_eq!(w1, w2);
        assert_eq!(w1, w5);
    }

    #[test]
    fn lossy_fleet_disables_coalescing_and_matches_oracle() {
        let ds = Arc::new(uniform_dataset_n(200));
        let engine = Arc::new(Engine::build(Scheme::Hci, &ds, 64));
        let mut spec = small_spec(120);
        spec.loss = LossModel::iid(0.2);
        let (stats, outcomes) = run_fleet(&engine, Some(&ds), &spec);
        assert_eq!(stats.drives, 120, "lossy clients cannot share trajectories");
        let pop = Population::derive(&spec, engine.cycle_packets());
        assert_eq!(outcomes, run_fleet_oracle(&engine, Some(&ds), &spec, &pop));
    }

    #[test]
    fn population_is_deterministic_and_zipf_skewed() {
        let spec = FleetSpec {
            skew: 1.2,
            ..FleetSpec::new(
                5_000,
                (0..8)
                    .map(|i| Query::Window(Rect::new(0.0, 0.0, 0.1 + 0.1 * i as f64, 0.5)))
                    .collect(),
            )
        };
        let a = Population::derive(&spec, 997);
        let b = Population::derive(&spec, 997);
        assert_eq!(a.query, b.query);
        assert_eq!(a.start, b.start);
        assert_eq!(a.seed, b.seed);
        assert!(a.start.iter().all(|&s| s < 997));
        let rank0 = a.query.iter().filter(|&&q| q == 0).count();
        let rank7 = a.query.iter().filter(|&&q| q == 7).count();
        assert!(
            rank0 > 2 * rank7,
            "zipf skew must favour low ranks ({rank0} vs {rank7})"
        );
    }
}
