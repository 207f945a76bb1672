//! End-to-end on-air query benchmarks (simulator throughput): one window
//! query and one 10NN query per scheme on a 2,000-object broadcast.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dsi_broadcast::{AntennaConfig, LossModel, Query};
use dsi_datagen::{uniform, SpatialDataset};
use dsi_geom::{Point, Rect};
use dsi_sim::{Engine, Scheme};

fn bench_queries(c: &mut Criterion) {
    let ds = SpatialDataset::build(&uniform(2_000, 42), 12);
    let w = Rect::window_in_unit_square(Point::new(0.42, 0.58), 0.1);
    let q = Point::new(0.42, 0.58);
    for (name, scheme) in [
        ("dsi", Scheme::dsi_reorganized(64)),
        ("rtree", Scheme::RTree),
        ("hci", Scheme::Hci),
    ] {
        let e = Engine::build(scheme, &ds, 64);
        let k1 = AntennaConfig::single();
        c.bench_function(&format!("query/window_{name}_64B"), |b| {
            let mut start = 0u64;
            b.iter(|| {
                start = (start + 7919) % e.cycle_packets();
                let query = Query::Window(black_box(w));
                black_box(e.drive(start, LossModel::None, start, k1, &query))
            })
        });
        c.bench_function(&format!("query/knn10_{name}_64B"), |b| {
            let mut start = 0u64;
            b.iter(|| {
                start = (start + 7919) % e.cycle_packets();
                let query = Query::Knn(black_box(q), 10);
                black_box(e.drive(start, LossModel::None, start, k1, &query))
            })
        });
    }
}

criterion_group!(
    name = queries;
    config = Criterion::default().sample_size(10);
    targets = bench_queries
);
criterion_main!(queries);
