//! Fleet workloads (`fleet`, `fade`): fixed client populations simulated
//! by `run_fleet` on the host's workers, each run repeatedly until the
//! run's seconds are spent. With tracing on, rounds alternate untraced
//! and traced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsi_broadcast::{AntennaConfig, ChannelConfig, Query};
use dsi_datagen::{
    knn_points, skewed_knn_points, skewed_window_queries, uniform, window_queries, Hotspots,
    SpatialDataset,
};
use dsi_sim::chaos::{bursty_channel, CHAOS_SWITCH_COST};
use dsi_sim::experiments::HOTSPOTS;
use dsi_sim::{run_fleet, Engine, FleetOutcomes, FleetSpec, FleetStats, Population, Scheme};

use crate::common::{
    repeat_setup, replay_hilbert, sub_seed, Setup, CAPACITY, K, ORDER, WINDOW_RATIO,
};
use crate::procfs;
use crate::report::Report;
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::Tracer;

/// Seed of the broadcast scenario: the dataset and the query pool. A
/// fleet workload is one fixed broadcast serving a seeded population. With
/// 8 or 16 pool queries, the scenario alone would decide most of the air
/// cost, so `--seed` draws the population instead: tune-in instants,
/// popularity draws and loss streams.
const SCENARIO_SEED: u64 = 11;

/// `fleet`: uniform data, one large lossless population over a small,
/// Zipf-skewed pool (4 windows + 4 10NN).
const FLEET_N: usize = 10_000;
const FLEET_CLIENTS: usize = 200_000;
const FLEET_POOL_EACH: usize = 4;
const FLEET_SKEW: f64 = 1.1;
/// `fade`: hotspot data on 4 striped channels under bursty loss, 2
/// antennas, uniform popularity over 8 windows + 8 10NN.
const FADE_N: usize = 2_500;
const FADE_CLIENTS: usize = 3_000;
/// Fade clients cost milliseconds each, so they are split into
/// populations that each run several times within a run.
const FADE_POPULATIONS: usize = 4;
const FADE_POOL_EACH: usize = 8;
const FADE_CHANNELS: u32 = 4;
const FADE_ANTENNAS: u32 = 2;

type FleetSetup = Setup<Arc<SpatialDataset>, Arc<Engine>>;

/// The `fleet` workload; `workers` 0 means every available CPU.
pub fn fleet(seed: u64, seconds: f64, workers: usize, tracer: &mut Tracer) -> Report {
    let setup = repeat_setup(
        tracer,
        || {
            Arc::new(SpatialDataset::build(
                &uniform(FLEET_N, SCENARIO_SEED),
                ORDER,
            ))
        },
        |ds| {
            Arc::new(Engine::build(
                Scheme::dsi_reorganized(CAPACITY),
                ds,
                CAPACITY,
            ))
        },
    );
    let mut pool: Vec<Query> = window_queries(FLEET_POOL_EACH, WINDOW_RATIO, SCENARIO_SEED + 1)
        .into_iter()
        .map(Query::Window)
        .collect();
    pool.extend(
        knn_points(FLEET_POOL_EACH, SCENARIO_SEED + 2)
            .into_iter()
            .map(|p| Query::Knn(p, K)),
    );
    let spec = FleetSpec {
        skew: FLEET_SKEW,
        seed: sub_seed(seed, 5),
        workers,
        keep_ids: true,
        ..FleetSpec::new(FLEET_CLIENTS, pool)
    };
    run(&setup, &[spec], seconds, tracer)
}

/// The `fade` workload; `workers` 0 means every available CPU.
pub fn fade(seed: u64, seconds: f64, workers: usize, tracer: &mut Tracer) -> Report {
    // The hotspot centres are the experiments' (`HOTSPOTS`).
    let (hotspots, skew, hot_seed) = HOTSPOTS;
    let setup = repeat_setup(
        tracer,
        || {
            let points = Hotspots::new(hotspots, skew, hot_seed).points(FADE_N, SCENARIO_SEED);
            Arc::new(SpatialDataset::build(&points, ORDER))
        },
        |ds| {
            Arc::new(Engine::build_channels(
                Scheme::dsi_reorganized(CAPACITY),
                ds,
                CAPACITY,
                ChannelConfig::striped(FADE_CHANNELS, CHAOS_SWITCH_COST),
            ))
        },
    );
    let windows = skewed_window_queries(
        FADE_POOL_EACH,
        WINDOW_RATIO,
        hotspots,
        skew,
        hot_seed,
        SCENARIO_SEED + 1,
    );
    let points = skewed_knn_points(FADE_POOL_EACH, hotspots, skew, hot_seed, SCENARIO_SEED + 2);
    let mut pool: Vec<Query> = windows.into_iter().map(Query::Window).collect();
    pool.extend(points.into_iter().map(|p| Query::Knn(p, K)));
    let specs: Vec<FleetSpec> = (0..FADE_POPULATIONS)
        .map(|p| FleetSpec {
            loss: bursty_channel(),
            antennas: AntennaConfig::new(FADE_ANTENNAS),
            seed: sub_seed(seed, 5 + p as u64),
            workers,
            keep_ids: true,
            ..FleetSpec::new(FADE_CLIENTS / FADE_POPULATIONS, pool.clone())
        })
        .collect();
    run(&setup, &specs, seconds, tracer)
}

/// One timed `run_fleet` call.
struct Rep {
    /// Index of the population it simulated.
    pop: usize,
    wall_s: f64,
    traced: bool,
    /// Process CPU seconds over wall × workers.
    busy_share: f64,
    stats: FleetStats,
}

/// Runs the populations of `specs` in turn, round after round, until the
/// seconds are spent (at least one round; two with tracing, the second
/// traced). Air metrics and the digest cover every population; host
/// speed comes from each population's fastest run, since other work on
/// a shared host can only slow a run down.
fn run(setup: &FleetSetup, specs: &[FleetSpec], seconds: f64, tracer: &mut Tracer) -> Report {
    let (ds, engine) = (&setup.data, &setup.built);
    let cycle = engine.cycle_packets();
    let trace = tracer.enabled();
    let budget = Duration::from_secs_f64(seconds);
    let n_pops = specs.len();
    let pool = &specs[0].pool;

    // The populations `run_fleet` derives internally, derived once more on
    // their own: timed, and used to map each client to its pool query.
    let t = Instant::now();
    let pops: Vec<Population> = tracer.span("fleet.derive", 0, |_| {
        specs.iter().map(|s| Population::derive(s, cycle)).collect()
    });
    let derive_s = t.elapsed().as_secs_f64();

    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Vec<Option<FleetOutcomes>> = vec![None; n_pops];
    let (mut panicked, mut diverged) = (false, false);
    // Peak memory of set-up plus the first `run_fleet` call. Every call
    // starts new worker threads, and how much the allocator's per-thread
    // arenas grow over later calls depends on thread timing.
    let mut peak_rss_mb = 0.0;
    let t0 = Instant::now();
    loop {
        let i = reps.len();
        let (pop, round) = (i % n_pops, i / n_pops);
        let traced = trace && round % 2 == 1;
        tracer.set_enabled(traced);
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let out = tracer.span("measure", i as u64, |tr| {
            tr.span("fleet.run", i as u64, |_| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_fleet(engine, Some(ds), &specs[pop])
                }))
            })
        });
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds() - cpu0;
        let Ok((stats, outcomes)) = out else {
            panicked = true;
            break;
        };
        match &first[pop] {
            None => first[pop] = Some(outcomes),
            Some(f) => diverged |= *f != outcomes,
        }
        reps.push(Rep {
            pop,
            wall_s,
            traced,
            busy_share: ratio(cpu_s, wall_s * stats.workers as f64),
            stats,
        });
        let rounds_done = reps.len() / n_pops;
        if reps.len() == 1 {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        // One round at least; with tracing, two (the second traced).
        if rounds_done > usize::from(trace) && t0.elapsed() >= budget {
            break;
        }
    }
    tracer.set_enabled(trace);

    let mut report = Report::default();
    let clients: usize = pops.iter().map(Population::len).sum();
    report.attempted = clients as u64;

    // Correctness, outside the timed runs: every client's answer against
    // brute force for its pool query.
    let mut kth_d2 = vec![f64::INFINITY; pool.len()];
    tracer.span("validate", 0, |_| {
        let truth: Vec<Vec<u32>> = pool
            .iter()
            .enumerate()
            .map(|(qi, q)| match q {
                Query::Window(w) => ds.brute_window(w),
                Query::Knn(p, k) => {
                    kth_d2[qi] = ds.kth_dist2(*p, *k);
                    ds.brute_knn(*p, *k)
                }
            })
            .collect();
        for (pop, o) in pops.iter().zip(&first) {
            let n = pop.len();
            report.failed += match o {
                Some(o) if !panicked && !diverged && o.len() == n => {
                    let ids = o.ids.as_ref().expect("keep_ids is set");
                    (0..n)
                        .filter(|&c| ids[c] != truth[pop.query[c] as usize])
                        .count() as u64
                }
                _ => n as u64,
            };
        }
    });
    if panicked {
        report
            .notes
            .push("run_fleet panicked: every client counted failed".into());
    }
    if diverged {
        report.notes.push(
            "outcomes differed between runs of one population: every client counted failed".into(),
        );
    }

    replay_hilbert(
        tracer,
        ds.curve(),
        ds.mapper(),
        pool,
        &kth_d2,
        &mut report.layers,
    );
    let l = &mut report.layers;
    l.datagen_build_s = setup.datagen_s;
    l.build_program_s = setup.build_s;
    l.build_cycle_packets = cycle as f64;
    l.fleet_derive_s = derive_s;
    report.notes.push(
        "client.query_ms_p99, state.* and knn.* read 0: run_fleet exposes no per-client host time, \
         worker-thread state counters or kNN probes"
            .into(),
    );

    let outcomes: Vec<&FleetOutcomes> = first.iter().flatten().collect();
    if outcomes.len() < n_pops {
        return report;
    }
    for o in &outcomes {
        let ids = o.ids.as_ref().expect("keep_ids is set");
        for c in 0..o.len() {
            for col in [
                &o.latency,
                &o.tuning,
                &o.lost,
                &o.longest_stall,
                &o.loss_retunes,
                &o.switches,
            ] {
                report.digest.u64(col[c]);
            }
            report.digest.ids(&ids[c]);
        }
    }
    // One column over every population, sorted.
    let column = |f: &dyn Fn(&FleetOutcomes) -> &Vec<u64>| {
        let mut v: Vec<u64> = outcomes.iter().flat_map(|o| f(o).iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let column_mean = |v: &[u64]| mean(v.iter().map(|&x| x as f64));
    let (latency, tuning) = (column(&|o| &o.latency), column(&|o| &o.tuning));
    let stalls = column(&|o| &o.longest_stall);
    let cap = outcomes[0].capacity as f64;

    let best: Vec<f64> = (0..n_pops)
        .map(|p| {
            reps.iter()
                .filter(|r| r.pop == p)
                .map(|r| r.wall_s)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let round_s: f64 = best.iter().sum();
    let drives: usize = (0..n_pops)
        .map(|p| {
            reps.iter()
                .find(|r| r.pop == p)
                .map_or(0, |r| r.stats.drives)
        })
        .sum();
    let of_reps = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());

    let e = &mut report.e2e;
    e.queries_per_s = clients as f64 / round_s;
    e.query_ms_p50 = round_s * 1e3 / clients as f64;
    e.setup_s = setup.setup_s;
    e.peak_rss_mb = peak_rss_mb;
    e.air_latency_bytes_mean = column_mean(&latency) * cap;
    e.air_latency_bytes_p99 = percentile(&latency, 0.99) as f64 * cap;
    e.air_tuning_bytes_mean = column_mean(&tuning) * cap;
    e.air_tuning_bytes_p99 = percentile(&tuning, 0.99) as f64 * cap;

    let l = &mut report.layers;
    l.tuner_reads_per_query = column_mean(&tuning);
    l.client_ns_per_read =
        of_reps(&|r| ratio(r.stats.workers as f64 * 1e9, r.stats.driven_events_per_sec));
    l.loss_lost_per_query = column_mean(&column(&|o| &o.lost));
    l.loss_retunes_per_query = column_mean(&column(&|o| &o.loss_retunes));
    l.loss_stall_p99 = percentile(&stalls, 0.99) as f64;
    l.channel_switches_per_query = column_mean(&column(&|o| &o.switches));
    l.fleet_ns_per_instant = ratio(round_s * 1e9, latency.iter().sum::<u64>() as f64);
    l.fleet_run_s = round_s;
    l.fleet_drives = drives as f64;
    l.fleet_dedup_ratio = ratio(clients as f64, drives as f64);
    l.fleet_driven_reads_per_s = of_reps(&|r| r.stats.driven_events_per_sec);
    l.share_hit_ratio = of_reps(&|r| {
        let s = &r.stats;
        ratio(
            s.window_cache_hits as f64,
            (s.window_cache_hits + s.window_cache_misses) as f64,
        )
    });
    l.pool_busy_share = of_reps(&|r| r.busy_share);
    // Traced over untraced wall, per population, over populations run both ways.
    let mode_wall = |p: usize, traced: bool| {
        let w: Vec<f64> = reps
            .iter()
            .filter(|r| r.pop == p && r.traced == traced)
            .map(|r| r.wall_s)
            .collect();
        (!w.is_empty()).then(|| median(&w))
    };
    let (mut untraced, mut traced) = (0.0, 0.0);
    for p in 0..n_pops {
        if let (Some(u), Some(t)) = (mode_wall(p, false), mode_wall(p, true)) {
            untraced += u;
            traced += t;
        }
    }
    if untraced > 0.0 {
        l.trace_overhead_pct = 100.0 * (traced / untraced - 1.0);
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    report.notes.push(format!(
        "{} runs over {n_pops} population(s), {clients} clients, {} workers, {drives} drives; wall s {walls:.3?}",
        reps.len(),
        reps[0].stats.workers,
    ));
    report
}
