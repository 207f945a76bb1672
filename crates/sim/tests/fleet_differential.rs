//! Fleet-vs-sequential differential suite.
//!
//! The fleet engine's determinism contract (see `dsi_sim::fleet`): for a
//! fixed [`FleetSpec`], [`run_fleet`] returns [`FleetOutcomes`] —
//! answers, per-query stats, channel stats — **bit-identical** to the
//! sequential per-client oracle, for every worker count. This suite pins
//! the contract across the full configuration cross product the harness
//! supports: scheme × channel placement × antennas × loss model ×
//! worker count. The classic batch population (`Population::classic`,
//! what `run_query_batch` runs) is held to the same contract.

use std::sync::Arc;

use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel, Query};
use dsi_datagen::{knn_points, window_queries, SpatialDataset};
use dsi_sim::fleet::{run_fleet, run_fleet_oracle, run_population, FleetSpec, Population};
use dsi_sim::{uniform_dataset_n, Engine, Scheme};

fn mixed_pool() -> Vec<Query> {
    let mut pool: Vec<Query> = window_queries(5, 0.2, 31)
        .into_iter()
        .map(Query::Window)
        .collect();
    pool.extend(knn_points(5, 17).into_iter().map(|p| Query::Knn(p, 4)));
    pool
}

fn spec(loss: LossModel, antennas: u32, workers: usize) -> FleetSpec {
    FleetSpec {
        skew: 0.8,
        loss,
        antennas: AntennaConfig {
            antennas,
            ..AntennaConfig::single()
        },
        workers,
        keep_ids: true,
        keep_channels: true,
        validate: false,
        ..FleetSpec::new(150, mixed_pool())
    }
}

/// Asserts the contract for one built engine across loss × antennas ×
/// workers, including answer validation on the lossless single-antenna
/// cell (the oracle validates; the equality check then covers the fleet).
fn check_engine(engine: Engine, dataset: &Arc<SpatialDataset>, losses: &[LossModel]) {
    let engine = Arc::new(engine);
    for loss in losses {
        for antennas in [1u32, 2] {
            let mut reference = None;
            for workers in [1usize, 2, 5] {
                let mut s = spec(loss.clone(), antennas, workers);
                if matches!(loss, LossModel::None) && antennas == 1 {
                    s.validate = true;
                }
                let (_, outcomes) = run_fleet(&engine, Some(dataset), &s);
                let oracle = reference.get_or_insert_with(|| {
                    let pop = Population::derive(&s, engine.cycle_packets());
                    run_fleet_oracle(&engine, Some(dataset), &s, &pop)
                });
                assert_eq!(
                    &outcomes, oracle,
                    "fleet != oracle ({loss:?}, {antennas} antennas, {workers} workers)"
                );
            }
        }
    }
}

#[test]
fn single_channel_all_schemes_all_losses() {
    let ds = Arc::new(uniform_dataset_n(250));
    let losses = [
        LossModel::None,
        LossModel::iid(0.25),
        LossModel::keyed_iid(0.25),
        LossModel::gilbert(0.05, 0.3, 0.9),
    ];
    for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci] {
        check_engine(Engine::build(scheme, &ds, 64), &ds, &losses);
    }
}

#[test]
fn blocked_two_channel_placement() {
    let ds = Arc::new(uniform_dataset_n(220));
    for scheme in [Scheme::dsi_reorganized(64), Scheme::Hci] {
        check_engine(
            Engine::build_channels(scheme, &ds, 64, ChannelConfig::blocked(2, 1)),
            &ds,
            &[LossModel::None, LossModel::keyed_iid(0.2)],
        );
    }
}

#[test]
fn striped_four_channel_placement() {
    let ds = Arc::new(uniform_dataset_n(220));
    for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree] {
        check_engine(
            Engine::build_channels(scheme, &ds, 64, ChannelConfig::striped(4, 1)),
            &ds,
            &[LossModel::None, LossModel::gilbert(0.02, 0.25, 0.8)],
        );
    }
}

#[test]
fn classic_population_matches_the_oracle() {
    let ds = Arc::new(uniform_dataset_n(220));
    // The mixed pool three times over: equal queries at distinct client
    // indices, as a classic batch may hold them.
    let queries: Vec<Query> = mixed_pool().into_iter().cycle().take(30).collect();
    for chan in [ChannelConfig::single(), ChannelConfig::blocked(2, 1)] {
        for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci] {
            let engine = Engine::build_channels(scheme, &ds, 64, chan.clone());
            let pop = Population::classic(queries.len(), engine.cycle_packets(), 7);
            for loss in [LossModel::None, LossModel::gilbert(0.05, 0.3, 0.9)] {
                let mut s = FleetSpec {
                    loss: loss.clone(),
                    validate: true,
                    keep_ids: true,
                    keep_channels: true,
                    ..FleetSpec::new(queries.len(), queries.clone())
                };
                let oracle = run_fleet_oracle(&engine, Some(&ds), &s, &pop);
                for workers in [1usize, 2, 0] {
                    s.workers = workers;
                    let (_, outcomes) = run_population(&engine, Some(&ds), &s, pop.clone());
                    assert_eq!(
                        outcomes, oracle,
                        "classic fleet != oracle ({chan:?}, {loss:?}, {workers} workers)"
                    );
                }
            }
        }
    }
}
