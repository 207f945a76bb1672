//! Settings and helpers shared by the workloads.

use std::time::Instant;

use dsi_broadcast::Query;
use dsi_geom::GridMapper;
use dsi_hilbert::{ranges_in_circle_with_dist_into, ranges_in_rect, HilbertCurve};

use crate::report::Layers;
use crate::stats::{fast_half_median, mean, ratio};
use crate::trace::Tracer;

/// Packet capacity, bytes (the paper's 64 B setting).
pub const CAPACITY: u32 = 64;
/// Hilbert order of every dataset.
pub const ORDER: u8 = 12;
/// Neighbours per kNN query.
pub const K: usize = 10;
/// Window side as a share of the space side.
pub const WINDOW_RATIO: f64 = 0.1;

/// Set-up is repeated until it has run at least this many times and for
/// at least [`SETUP_MIN_S`] seconds, or [`SETUP_MAX_REPS`] times.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1_000;

/// SplitMix64: derives independent sub-seeds and tune-in instants from
/// the run's seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed `tag` of the run seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    mix(mix(seed) ^ tag)
}

/// What repeated set-up leaves behind.
pub struct Setup<D, B> {
    /// The dataset of the last repetition.
    pub data: D,
    /// The program or engine of the last repetition.
    pub built: B,
    /// Datagen + build, median of the faster half of repetitions, s.
    pub setup_s: f64,
    /// Datagen alone, the same statistic, s.
    pub datagen_s: f64,
    /// Build alone, the same statistic, s.
    pub build_s: f64,
}

/// Runs dataset generation and program build several times (dropping the
/// previous pair first, so peak memory is one set-up's). Small set-ups
/// speed up over their first repetitions and every repetition can be
/// slowed by other work on the host, so the faster half is reported.
/// Spans: `setup` > `setup.datagen`, `setup.build`.
pub fn repeat_setup<D, B>(
    tracer: &mut Tracer,
    datagen: impl Fn() -> D,
    build: impl Fn(&D) -> B,
) -> Setup<D, B> {
    let (mut totals, mut gens, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(D, B)> = None;
    let t0 = Instant::now();
    while totals.len() < SETUP_MIN_REPS
        || (t0.elapsed().as_secs_f64() < SETUP_MIN_S && totals.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let pair = tracer.span("setup", 0, |tr| {
            let t = Instant::now();
            let d = tr.span("setup.datagen", 0, |_| datagen());
            let g = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let b = tr.span("setup.build", 0, |_| build(&d));
            let s = t.elapsed().as_secs_f64();
            gens.push(g);
            builds.push(s);
            totals.push(g + s);
            (d, b)
        });
        last = Some(pair);
    }
    let (data, built) = last.expect("set-up ran at least once");
    Setup {
        data,
        built,
        setup_s: fast_half_median(&totals),
        datagen_s: fast_half_median(&gens),
        build_s: fast_half_median(&builds),
    }
}

/// Replays the Hilbert decomposition each query needs, outside the timed
/// region: `ranges_in_rect` for a window, `ranges_in_circle_with_dist_into`
/// at the query's final radius (`kth_d2[i]`) for a kNN query. Fills the
/// `hilbert.*` metrics of `layers`: ranges per query of each kind, and the
/// mean span time. Spans: `replay` > `hilbert.rect`, `hilbert.circle`.
pub fn replay_hilbert(
    tracer: &mut Tracer,
    curve: &HilbertCurve,
    mapper: &GridMapper,
    queries: &[Query],
    kth_d2: &[f64],
    layers: &mut Layers,
) {
    let (mut rect, mut circle) = ((0usize, 0usize), (0usize, 0usize));
    let mut buf = Vec::new();
    tracer.span("replay", 0, |tr| {
        for (qi, q) in queries.iter().enumerate() {
            match q {
                Query::Window(w) => {
                    rect.0 += tr.span("hilbert.rect", qi as u64, |_| {
                        ranges_in_rect(curve, mapper, w).len()
                    });
                    rect.1 += 1;
                }
                Query::Knn(p, _) => {
                    tr.span("hilbert.circle", qi as u64, |_| {
                        ranges_in_circle_with_dist_into(curve, mapper, *p, kth_d2[qi], &mut buf)
                    });
                    circle.0 += buf.len();
                    circle.1 += 1;
                }
            }
        }
    });
    let mean_us = |name| mean(tracer.durations_s(name).into_iter().map(|s| s * 1e6));
    layers.hilbert_rect_us = mean_us("hilbert.rect");
    layers.hilbert_circle_us = mean_us("hilbert.circle");
    layers.hilbert_rect_ranges = ratio(rect.0 as f64, rect.1 as f64);
    layers.hilbert_circle_ranges = ratio(circle.0 as f64, circle.1 as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_deterministic_and_distinct() {
        assert_eq!(sub_seed(1, 2), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 2), sub_seed(1, 3));
        assert_ne!(sub_seed(1, 2), sub_seed(2, 2));
    }

    #[test]
    fn setup_repeats_and_keeps_the_last_pair() {
        let mut tr = Tracer::new(true);
        let s = repeat_setup(&mut tr, || 5u32, |d| d * 2);
        assert_eq!((s.data, s.built), (5, 10));
        let reps = tr.durations_s("setup").len();
        assert!((SETUP_MIN_REPS..=SETUP_MAX_REPS).contains(&reps));
        assert_eq!(tr.durations_s("setup.build").len(), reps);
    }
}
