//! Quickstart: build a DSI broadcast, tune in, run the paper's two query
//! types, and read the two metrics that drive the whole evaluation.
//!
//! Run with: `cargo run --release --example quickstart`
//! (`DSI_N` scales the dataset down for quick runs.)

use dsi::broadcast::{LossModel, Tuner};
use dsi::core::{DsiAir, DsiConfig, KnnStrategy};
use dsi::datagen::{uniform, SpatialDataset};
use dsi::{Point, Rect};

fn main() {
    // ---- Server side -----------------------------------------------------
    // 10,000 points uniform in the unit square, snapped onto the Hilbert
    // grid and sorted in curve order (the broadcast order of the paper).
    let n = dsi_bench::env_or("DSI_N", 10_000);
    let dataset = SpatialDataset::build(&uniform(n, 42), 12);

    // The paper's main configuration: 64-byte packets, index base 2,
    // two-segment reorganized broadcast.
    let air = DsiAir::build(&dataset, DsiConfig::paper_reorganized());
    println!(
        "broadcast cycle: {} packets = {:.2} MB, {} frames of ~{} objects",
        air.program().len(),
        air.program().cycle_bytes() as f64 / 1e6,
        air.layout().n_frames(),
        dataset.len() as u32 / air.layout().n_frames(),
    );

    // ---- Client side: window query ---------------------------------------
    // A client tunes in at an arbitrary instant and asks for every object
    // in a 10 % × 10 % window.
    let window = Rect::window_in_unit_square(Point::new(0.4, 0.6), 0.1);
    let mut tuner = Tuner::tune_in(air.program(), 123_456, LossModel::None, 1);
    let ids = air.window_query(&mut tuner, &window);
    let stats = tuner.stats();
    assert_eq!(ids, dataset.brute_window(&window), "window answer verified");
    println!(
        "window query: {} objects, latency {:.2e} B, tuning {:.2e} B",
        ids.len(),
        stats.latency_bytes() as f64,
        stats.tuning_bytes() as f64,
    );

    // ---- Client side: kNN query -------------------------------------------
    // "A client would like to find 3 nearest restaurants" (paper §3.4).
    let q = Point::new(0.52, 0.48);
    let mut tuner = Tuner::tune_in(air.program(), 987_654, LossModel::None, 2);
    let knn = air.knn_query(&mut tuner, q, 3, KnnStrategy::Conservative);
    let stats = tuner.stats();
    assert_eq!(knn, dataset.brute_knn(q, 3), "kNN answer verified");
    println!(
        "3NN query: ids {:?}, latency {:.2e} B, tuning {:.2e} B",
        knn,
        stats.latency_bytes() as f64,
        stats.tuning_bytes() as f64,
    );

    // ---- Point query (energy-efficient forwarding) ------------------------
    let target = dataset.objects()[1234 % dataset.len()];
    let mut tuner = Tuner::tune_in(air.program(), 55_555, LossModel::None, 3);
    let found = air
        .point_query_hc(&mut tuner, target.hc)
        .expect("object exists");
    assert_eq!(found.id, target.id);
    println!(
        "point query via EEF: found object {} with {} packets of tuning",
        found.id,
        tuner.stats().tuning_packets,
    );
}
