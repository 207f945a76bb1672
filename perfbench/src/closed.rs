//! Closed-loop workloads (`window`, `knn`): one client thread issues the
//! next query only after the last one completes.
//!
//! A run holds a fixed, seeded query set. The first pass over it records
//! every answer and air cost (these are deterministic); further passes
//! repeat the set until the run's seconds are spent, adding host-time
//! samples only. With tracing on, passes alternate untraced and traced,
//! so the tracing overhead is measured on the same queries.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dsi_broadcast::{LossModel, Query, QueryStats, Tuner};
use dsi_core::{hotpath, DsiAir, DsiConfig, KnnProbe, KnnStrategy};
use dsi_datagen::{knn_points, uniform, window_queries, Object, SpatialDataset};
use dsi_geom::Point;

use crate::common::{
    mix, repeat_setup, replay_hilbert, sub_seed, Setup, CAPACITY, K, ORDER, WINDOW_RATIO,
};
use crate::procfs;
use crate::report::Report;
use crate::stats::{beyond, mean, median, percentile, ratio, tail, uncontended};
use crate::trace::Tracer;

/// `window`: uniform data, N objects, distinct windows.
const WINDOW_N: usize = 100_000;
const WINDOW_QUERIES: usize = 2_000;
/// `knn`: uniform data, N objects, distinct 10NN points.
const KNN_N: usize = 1_000_000;
const KNN_QUERIES: usize = 2_500;

/// What the first pass keeps per query.
struct Answer {
    ids: Vec<u32>,
    stats: QueryStats,
    probe: KnnProbe,
    switches: u64,
    /// Incremental state events (`dsi_core::hotpath`) the query applied.
    events: u64,
}

/// The `window` workload.
pub fn window(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let setup = build(WINDOW_N, seed, tracer);
    let queries = window_queries(WINDOW_QUERIES, WINDOW_RATIO, sub_seed(seed, 2))
        .into_iter()
        .map(Query::Window)
        .collect();
    run(&setup, queries, seed, seconds, tracer)
}

/// The `knn` workload.
pub fn knn(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let setup = build(KNN_N, seed, tracer);
    let queries = knn_points(KNN_QUERIES, sub_seed(seed, 3))
        .into_iter()
        .map(|p| Query::Knn(p, K))
        .collect();
    run(&setup, queries, seed, seconds, tracer)
}

fn build(n: usize, seed: u64, tracer: &mut Tracer) -> Setup<SpatialDataset, DsiAir> {
    repeat_setup(
        tracer,
        || SpatialDataset::build(&uniform(n, sub_seed(seed, 1)), ORDER),
        |ds| DsiAir::build(ds, DsiConfig::paper_reorganized().with_capacity(CAPACITY)),
    )
}

/// Runs one query from a fresh tune-in; a panic is returned, not raised.
fn one_query(air: &DsiAir, q: &Query, start: u64, qi: usize) -> Option<Answer> {
    let events0 = hotpath::counters().1;
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, qi as u64);
        let (ids, probe) = match q {
            Query::Window(w) => (air.window_query(&mut tuner, w), KnnProbe::default()),
            Query::Knn(p, k) => air.knn_query_probed(&mut tuner, *p, *k, KnnStrategy::Conservative),
        };
        (ids, tuner.stats(), probe, tuner.channel_stats().switches)
    }));
    let (ids, stats, probe, switches) = out.ok()?;
    Some(Answer {
        ids,
        stats,
        probe,
        switches,
        events: hotpath::counters().1 - events0,
    })
}

/// Brute-force kNN by one linear scan with a bounded heap: the same
/// answer as [`SpatialDataset::brute_knn`] (nearest by `(dist², id)`, ids
/// ascending) without sorting all N distances, plus the k-th distance².
/// Distances are non-negative, so their bit patterns order like their
/// values.
fn brute_knn_scan(objects: &[Object], q: Point, k: usize) -> (Vec<u32>, f64) {
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::with_capacity(k + 1);
    for o in objects {
        let key = (q.dist2(o.pos).to_bits(), o.id);
        if heap.len() < k {
            heap.push(key);
        } else if key < *heap.peek().expect("k > 0") {
            heap.pop();
            heap.push(key);
        }
    }
    let kth = heap
        .peek()
        .map_or(f64::INFINITY, |&(d, _)| f64::from_bits(d));
    let mut ids: Vec<u32> = heap.into_iter().map(|(_, id)| id).collect();
    ids.sort_unstable();
    (ids, kth)
}

/// Brute-force answer of one query, with the k-th distance² for kNN.
fn oracle(ds: &SpatialDataset, q: &Query) -> (Vec<u32>, f64) {
    match q {
        Query::Window(w) => (ds.brute_window(w), f64::INFINITY),
        Query::Knn(p, k) => brute_knn_scan(ds.objects(), *p, *k),
    }
}

fn run(
    setup: &Setup<SpatialDataset, DsiAir>,
    queries: Vec<Query>,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Report {
    let (ds, air) = (&setup.data, &setup.built);
    let cycle = air.program().len();
    let n = queries.len();
    let start_seed = sub_seed(seed, 4);
    let start_of = |qi: usize| mix(start_seed ^ qi as u64) % cycle;
    let trace = tracer.enabled();
    let budget = Duration::from_secs_f64(seconds);

    let mut first: Vec<Option<Answer>> = (0..n).map(|_| None).collect();
    let mut samples_ms: Vec<f64> = Vec::new();
    let (mut host_ns, mut reads, mut instants) = (0f64, 0u64, 0u64);
    // Per query id: summed host ns and count, untraced then traced.
    let mut by_mode = [vec![(0.0, 0u32); n], vec![(0.0, 0u32); n]];

    // Peak memory of set-up plus one pass, before repetition can add to it.
    let mut peak_rss_mb = 0.0;
    hotpath::reset_counters();
    let t0 = Instant::now();
    let mut pass = 0usize;
    loop {
        let traced = trace && pass % 2 == 1;
        // The first pass, and with tracing the first traced pass, always
        // run to the end.
        let must_finish = pass == 0 || (trace && pass == 1);
        tracer.set_enabled(traced);
        let mut done = false;
        tracer.span("measure", pass as u64, |tr| {
            for (qi, q) in queries.iter().enumerate() {
                if !must_finish && t0.elapsed() >= budget {
                    done = true;
                    return;
                }
                let t = Instant::now();
                let answer = tr.span("client.query", qi as u64, |_| {
                    one_query(air, q, start_of(qi), qi)
                });
                let ns = t.elapsed().as_nanos() as f64;
                samples_ms.push(ns * 1e-6);
                host_ns += ns;
                let slot = &mut by_mode[traced as usize][qi];
                slot.0 += ns;
                slot.1 += 1;
                if let Some(a) = &answer {
                    reads += a.stats.tuning_packets;
                    instants += a.stats.latency_packets;
                }
                if pass == 0 {
                    first[qi] = answer;
                }
            }
        });
        pass += 1;
        if pass == 1 {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        if done || (t0.elapsed() >= budget && !(trace && pass == 1)) {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    tracer.set_enabled(trace);

    let mut report = Report::default();

    // Correctness, outside the timed loop, on every CPU. The scan oracle
    // is tied to the library's own `brute_knn` on the first queries.
    let mut kth_d2 = vec![f64::INFINITY; n];
    tracer.span("validate", 0, |_| {
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let truth: Vec<(Vec<u32>, f64)> = std::thread::scope(|s| {
            let workers: Vec<_> = queries
                .chunks(n.div_ceil(threads).max(1))
                .map(|chunk| {
                    s.spawn(move || chunk.iter().map(|q| oracle(ds, q)).collect::<Vec<_>>())
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread"))
                .collect()
        });
        for (q, (ids, _)) in queries.iter().zip(&truth).take(3) {
            if let Query::Knn(p, k) = q {
                assert_eq!(
                    *ids,
                    ds.brute_knn(*p, *k),
                    "scan oracle disagrees with brute_knn"
                );
            }
        }
        for (qi, (expect, kth)) in truth.into_iter().enumerate() {
            kth_d2[qi] = kth;
            report.attempted += 1;
            if !matches!(&first[qi], Some(a) if a.ids == expect) {
                report.failed += 1;
            }
        }
    });

    replay_hilbert(
        tracer,
        air.curve(),
        air.mapper(),
        &queries,
        &kth_d2,
        &mut report.layers,
    );

    for a in &first {
        match a {
            Some(a) => {
                report.digest.u64(a.stats.latency_packets);
                report.digest.u64(a.stats.tuning_packets);
                report.digest.ids(&a.ids);
            }
            None => report.digest.u64(u64::MAX),
        }
    }
    let answers: Vec<&Answer> = first.iter().flatten().collect();
    let per_query = |f: &dyn Fn(&Answer) -> f64| mean(answers.iter().map(|a| f(a)));
    let sorted = |f: &dyn Fn(&Answer) -> u64| {
        let mut v: Vec<u64> = answers.iter().map(|a| f(a)).collect();
        v.sort_unstable();
        v
    };
    let p99 = |v: Vec<u64>| v.last().map_or(0.0, |_| percentile(&v, 0.99) as f64);
    let mut by_time = samples_ms.clone();
    by_time.sort_by(f64::total_cmp);

    let e = &mut report.e2e;
    // Quarter-second slices of the timed queries.
    let per = (samples_ms.len() as f64 / (4.0 * seconds)).max(1.0) as usize;
    (e.queries_per_s, e.query_ms_p50) = uncontended(&samples_ms, per);
    e.setup_s = setup.setup_s;
    e.peak_rss_mb = peak_rss_mb;
    e.air_latency_bytes_mean = per_query(&|a| a.stats.latency_bytes() as f64);
    e.air_latency_bytes_p99 = p99(sorted(&|a| a.stats.latency_bytes()));
    e.air_tuning_bytes_mean = per_query(&|a| a.stats.tuning_bytes() as f64);
    e.air_tuning_bytes_p99 = p99(sorted(&|a| a.stats.tuning_bytes()));

    let l = &mut report.layers;
    l.datagen_build_s = setup.datagen_s;
    l.build_program_s = setup.build_s;
    l.build_cycle_packets = cycle as f64;
    l.tuner_reads_per_query = per_query(&|a| a.stats.tuning_packets as f64);
    l.client_ns_per_read = ratio(host_ns, reads as f64);
    l.state_events_per_query = per_query(&|a| a.events as f64);
    l.knn_refreshes_per_query = per_query(&|a| a.probe.refreshes as f64);
    l.knn_ranges_per_query = per_query(&|a| a.probe.total_ranges as f64);
    l.knn_peak_cands = per_query(&|a| a.probe.peak_cands as f64);
    l.loss_lost_per_query = per_query(&|a| a.stats.lost_packets as f64);
    l.loss_retunes_per_query = per_query(&|a| a.stats.loss_retunes as f64);
    l.loss_stall_p99 = p99(sorted(&|a| a.stats.longest_stall_packets));
    l.channel_switches_per_query = per_query(&|a| a.switches as f64);
    l.fleet_ns_per_instant = ratio(host_ns, instants as f64);
    l.trace_overhead_pct = overhead_pct(&by_mode);

    report.notes.push(format!(
        "{} timed queries over {pass} passes of {n}; whole run: {:.3} queries/s, query_ms p50 {:.4}; \
         faster half of {per}-query slices: {:.3} queries/s, query_ms p50 {:.4}",
        samples_ms.len(),
        samples_ms.len() as f64 / wall,
        median(&samples_ms),
        report.e2e.queries_per_s,
        report.e2e.query_ms_p50,
    ));
    match tail(&by_time, 0.99) {
        Some(p99) => {
            report.layers.client_query_ms_p99 = p99;
            report.notes.push(format!(
                "query_ms p99 {p99:.4} ({} samples beyond)",
                beyond(by_time.len(), 0.99)
            ));
        }
        None => report
            .notes
            .push("query_ms p99 not reported: fewer than 10 samples beyond it".into()),
    }
    report
}

/// Traced over untraced host time, in percent, over the query ids timed
/// both ways (per-id means, so a partial last pass does not skew it).
fn overhead_pct(by_mode: &[Vec<(f64, u32)>; 2]) -> f64 {
    let (mut untraced, mut traced) = (0.0, 0.0);
    for (&(u_ns, u_n), &(t_ns, t_n)) in by_mode[0].iter().zip(&by_mode[1]) {
        if u_n > 0 && t_n > 0 {
            untraced += u_ns / u_n as f64;
            traced += t_ns / t_n as f64;
        }
    }
    if untraced == 0.0 {
        0.0
    } else {
        100.0 * (traced / untraced - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_oracle_matches_brute_knn() {
        let ds = SpatialDataset::build(&uniform(2_000, 5), ORDER);
        for (i, p) in knn_points(20, 9).into_iter().enumerate() {
            let k = 1 + i % 12;
            let (ids, kth) = brute_knn_scan(ds.objects(), p, k);
            assert_eq!(ids, ds.brute_knn(p, k));
            assert_eq!(kth, ds.kth_dist2(p, k));
        }
    }

    #[test]
    fn overhead_uses_ids_timed_both_ways() {
        // Query 0: mean 100 untraced, 110 traced; query 1 not traced.
        let m = [vec![(200.0, 2), (50.0, 1)], vec![(110.0, 1), (0.0, 0)]];
        assert!((overhead_pct(&m) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[vec![(5.0, 1)], vec![(0.0, 0)]]), 0.0);
    }
}
