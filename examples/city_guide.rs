//! City guide: the paper's motivating kNN scenario on skewed data.
//!
//! A broadcast server pushes a city guide (restaurants, fuel stations,
//! hotels — a clustered point set like the paper's REAL dataset of Greek
//! towns). A tourist's device asks for the 5 nearest points of interest
//! and we compare the paper's three kNN strategies: conservative,
//! aggressive, and the reorganized broadcast.
//!
//! Run with: `cargo run --release --example city_guide`
//! (`DSI_N` scales the dataset down for quick runs.)

use dsi::broadcast::{LossModel, MeanStats, Tuner};
use dsi::core::{DsiAir, DsiConfig, KnnStrategy};
use dsi::datagen::{clustered, knn_points, SpatialDataset};

fn main() {
    // 5,848 points of interest in 64 heavy-tailed clusters — the size and
    // skew of the paper's REAL dataset.
    let n = dsi_bench::env_or("DSI_N", 5_848);
    let dataset = SpatialDataset::build(&clustered(n, 64, 7), 12);
    let queries = knn_points(100, 99);

    let original = DsiAir::build(&dataset, DsiConfig::paper_default());
    let reorganized = DsiAir::build(&dataset, DsiConfig::paper_reorganized());

    println!("strategy       mean latency      mean tuning   (5NN, 100 tourists)");
    for (name, air, strategy) in [
        ("conservative", &original, KnnStrategy::Conservative),
        ("aggressive  ", &original, KnnStrategy::Aggressive),
        ("reorganized ", &reorganized, KnnStrategy::Conservative),
    ] {
        let mut mean = MeanStats::default();
        for (i, &q) in queries.iter().enumerate() {
            let start = (i as u64 * 104_729) % air.program().len();
            let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, i as u64);
            let got = air.knn_query(&mut tuner, q, 5, strategy);
            assert_eq!(got, dataset.brute_knn(q, 5), "answer verified");
            mean.push(tuner.stats());
        }
        println!(
            "{name}   {:>12.3e} B   {:>12.3e} B",
            mean.latency_bytes(),
            mean.tuning_bytes(),
        );
    }
    println!();
    println!("The aggressive strategy saves energy (tuning) by jumping toward");
    println!("the query point but pays latency re-checking skipped regions; the");
    println!("reorganized broadcast gets remote-region knowledge early and");
    println!("improves on both — the trade-off of the paper's §3.4–3.5.");
}
