//! Seeded, validated query batches.
//!
//! [`run_query_batch`] runs any [`Engine`] (scheme × channel
//! configuration), any [`Query`] list, any loss model as a fleet over the
//! classic population ([`Population::classic`]: client `i` runs query
//! `i`) — the fleet engine's work-stealing pool is the only parallel path.
//! The window and kNN entry points are thin workload adapters over it.

use std::sync::Arc;

use dsi_broadcast::{AntennaConfig, LossModel, MeanStats, Query};
use dsi_datagen::SpatialDataset;
use dsi_geom::{Point, Rect};

use crate::engine::Engine;
use crate::fleet::{run_population, FleetOutcomes, FleetSpec, Population};

/// Batch configuration.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Link-error model handed to every client.
    pub loss: LossModel,
    /// Master seed (tune-in positions and per-query loss seeds derive from
    /// it deterministically).
    pub seed: u64,
    /// Cross-check every answer against brute force; panics on mismatch.
    pub validate: bool,
    /// Receiver configuration handed to every client.
    pub antennas: AntennaConfig,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            loss: LossModel::None,
            seed: 7,
            validate: true,
            antennas: AntennaConfig::single(),
        }
    }
}

/// Aggregated batch result (means over all queries, bytes).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Mean access latency, bytes.
    pub latency_bytes: f64,
    /// Mean tuning time, bytes (all channels).
    pub tuning_bytes: f64,
    /// Number of queries.
    pub queries: u64,
    /// Mean channel switches per query.
    pub mean_switches: f64,
    /// Mean tuning time per channel, bytes (length = channel count).
    pub per_channel_tuning_bytes: Vec<f64>,
    /// Mean reads lost to the link-error model per query (retries).
    pub mean_lost_packets: f64,
    /// Longest loss stall of any query, in packets of broadcast time.
    pub max_stall_packets: u64,
    /// Mean retunes forced by loss bursts per query.
    pub mean_loss_retunes: f64,
}

/// Means over the clients of `outcomes` in client order; `channels` sizes
/// the per-channel column, so an empty batch still reports one entry per
/// channel.
fn aggregate(outcomes: &FleetOutcomes, channels: usize) -> BatchResult {
    let mut m = MeanStats::default();
    let mut switches = 0u64;
    let mut lost = 0u64;
    let mut max_stall = 0u64;
    let mut retunes = 0u64;
    let mut per_channel = vec![0.0f64; channels];
    let n = outcomes.len().max(1) as f64;
    let per_client = outcomes
        .channels
        .as_deref()
        .expect("batches keep channel stats");
    for (i, ch) in per_client.iter().enumerate() {
        let stats = outcomes.stats_of(i);
        m.push(stats);
        switches += ch.switches;
        lost += stats.lost_packets;
        max_stall = max_stall.max(stats.longest_stall_packets);
        retunes += stats.loss_retunes;
        for (c, sum) in per_channel.iter_mut().enumerate() {
            *sum += ch.tuning_bytes(c) as f64 / n;
        }
    }
    BatchResult {
        latency_bytes: m.latency_bytes(),
        tuning_bytes: m.tuning_bytes(),
        queries: m.count(),
        mean_switches: switches as f64 / n,
        per_channel_tuning_bytes: per_channel,
        mean_lost_packets: lost as f64 / n,
        max_stall_packets: max_stall,
        mean_loss_retunes: retunes as f64 / n,
    }
}

/// Runs every query of `queries` as client `i` of the classic population
/// (tune-in instants drawn in order from `opts.seed`, loss seeds
/// `opts.seed ^ i·SEED_MIX`) on the fleet engine; optionally validates
/// each answer against brute force.
pub fn run_query_batch(
    engine: &Engine,
    dataset: &SpatialDataset,
    queries: &[Query],
    opts: &BatchOptions,
) -> BatchResult {
    let spec = FleetSpec {
        loss: opts.loss.clone(),
        antennas: opts.antennas,
        seed: opts.seed,
        validate: opts.validate,
        keep_channels: true,
        ..FleetSpec::new(queries.len(), queries.to_vec())
    };
    let pop = Population::classic(queries.len(), engine.cycle_packets(), opts.seed);
    // Validating workers share the dataset; only then is it copied.
    let dataset = opts.validate.then(|| Arc::new(dataset.clone()));
    let (_, outcomes) = run_population(engine, dataset.as_ref(), &spec, pop);
    aggregate(&outcomes, engine.n_channels() as usize)
}

/// Runs a window-query batch; validates against [`SpatialDataset::brute_window`].
pub fn run_window_batch(
    engine: &Engine,
    dataset: &SpatialDataset,
    windows: &[Rect],
    opts: &BatchOptions,
) -> BatchResult {
    let queries: Vec<Query> = windows.iter().map(|w| Query::Window(*w)).collect();
    run_query_batch(engine, dataset, &queries, opts)
}

/// Runs a kNN batch; validates against [`SpatialDataset::brute_knn`].
pub fn run_knn_batch(
    engine: &Engine,
    dataset: &SpatialDataset,
    queries: &[Point],
    k: usize,
    opts: &BatchOptions,
) -> BatchResult {
    let queries: Vec<Query> = queries.iter().map(|q| Query::Knn(*q, k)).collect();
    run_query_batch(engine, dataset, &queries, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheme;
    use crate::uniform_dataset_n;
    use dsi_broadcast::ChannelConfig;
    use dsi_datagen::{knn_points, window_queries};

    #[test]
    fn batches_are_deterministic_and_validated() {
        let ds = uniform_dataset_n(250);
        let e = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
        let ws = window_queries(12, 0.2, 3);
        let opts = BatchOptions::default();
        let a = run_window_batch(&e, &ds, &ws, &opts);
        let b = run_window_batch(&e, &ds, &ws, &opts);
        assert_eq!(a.latency_bytes, b.latency_bytes);
        assert_eq!(a.tuning_bytes, b.tuning_bytes);
        assert_eq!(a.queries, 12);
        assert!(a.latency_bytes >= a.tuning_bytes);
        // Single channel: no switches, all tuning on channel 0.
        assert_eq!(a.mean_switches, 0.0);
        assert_eq!(a.per_channel_tuning_bytes.len(), 1);
        assert!((a.per_channel_tuning_bytes[0] - a.tuning_bytes).abs() < 1e-6);
    }

    #[test]
    fn knn_batch_runs_under_loss() {
        let ds = uniform_dataset_n(200);
        let e = Engine::build(Scheme::Hci, &ds, 64);
        let qs = knn_points(6, 9);
        let opts = BatchOptions {
            loss: LossModel::iid(0.3),
            ..BatchOptions::default()
        };
        let r = run_knn_batch(&e, &ds, &qs, 5, &opts);
        assert_eq!(r.queries, 6);
    }

    #[test]
    fn empty_batch_reports_every_channel() {
        let ds = uniform_dataset_n(200);
        let e = Engine::build_channels(
            Scheme::dsi_reorganized(64),
            &ds,
            64,
            ChannelConfig::blocked(2, 1),
        );
        let r = run_query_batch(&e, &ds, &[], &BatchOptions::default());
        assert_eq!(r.queries, 0);
        assert_eq!(r.per_channel_tuning_bytes, vec![0.0, 0.0]);
        assert_eq!(r.latency_bytes, 0.0);
        assert_eq!(r.tuning_bytes, 0.0);
        assert_eq!(r.mean_switches, 0.0);
        assert_eq!(r.mean_lost_packets, 0.0);
        assert_eq!(r.mean_loss_retunes, 0.0);
        assert_eq!(r.max_stall_packets, 0);
    }

    #[test]
    fn mixed_query_batch_reports_channel_stats() {
        let ds = uniform_dataset_n(200);
        let e = Engine::build_channels(
            Scheme::dsi_reorganized(64),
            &ds,
            64,
            ChannelConfig::index_data(2, 1, 1),
        );
        let mut queries: Vec<Query> = window_queries(4, 0.2, 3)
            .into_iter()
            .map(Query::Window)
            .collect();
        queries.extend(knn_points(4, 9).into_iter().map(|q| Query::Knn(q, 5)));
        let r = run_query_batch(&e, &ds, &queries, &BatchOptions::default());
        assert_eq!(r.queries, 8);
        assert_eq!(r.per_channel_tuning_bytes.len(), 2);
        assert!(r.mean_switches > 0.0, "split channels force switches");
        let total: f64 = r.per_channel_tuning_bytes.iter().sum();
        assert!((total - r.tuning_bytes).abs() < 1e-6);
    }
}
