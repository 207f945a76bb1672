//! Property tests for the Hilbert kernels: bijectivity, decomposition
//! exactness, and distance lower bounds.

use dsi_geom::{Cell, GridMapper, Point, Rect};
use dsi_hilbert::{
    min_dist2_to_range, ranges_in_cell_rect, ranges_in_circle_with_dist_into, ranges_in_rect,
    ranges_in_rect_with_dist_into, DistRange, HcRange, HilbertCurve, LazyCircle, LazyRanges,
};
use proptest::prelude::*;

/// Checks a circle decomposition against brute force over every cell:
/// membership (exactly the cells whose extent intersects the closed
/// circle), maximality, and exact distance bounds.
fn assert_circle_decomposition(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    out: &[DistRange],
) {
    for w in out.windows(2) {
        assert!(
            w[0].range.hi + 1 < w[1].range.lo,
            "not maximal: {:?} / {:?}",
            w[0],
            w[1]
        );
    }
    let covered: Vec<u64> = out
        .iter()
        .flat_map(|dr| dr.range.lo..=dr.range.hi)
        .collect();
    let mut want = Vec::new();
    for x in 0..curve.side() {
        for y in 0..curve.side() {
            let cell = Cell::new(x, y);
            if mapper.cell_rect(cell).min_dist2(center) <= r2 {
                want.push(curve.xy2d(cell));
            }
        }
    }
    want.sort_unstable();
    assert_eq!(covered, want, "center {center:?}, r2 {r2}");
    for dr in out {
        let mut min = f64::INFINITY;
        for d in dr.range.lo..=dr.range.hi {
            min = min.min(mapper.cell_rect(curve.d2xy(d)).min_dist2(center));
        }
        assert!(
            (dr.min_d2 - min).abs() < 1e-12,
            "range {:?}: min_d2 {} want {min}",
            dr.range,
            dr.min_d2
        );
        let oracle = min_dist2_to_range(curve, mapper, center, dr.range);
        assert!(
            (dr.min_d2 - oracle).abs() < 1e-12,
            "range {:?}: min_d2 {} differs from branch-and-bound {oracle}",
            dr.range,
            dr.min_d2
        );
    }
}

/// Exhaustive sweep on a small grid: centers on and off the grid (incl.
/// outside the unit square), radii from degenerate 0 through
/// covering-the-grid.
#[test]
fn circle_decomposition_exhaustive_small_grid() {
    let curve = HilbertCurve::new(3);
    let mapper = GridMapper::unit_square(3);
    let mut out = Vec::new();
    for cx in [-0.4, 0.0, 0.125, 0.5, 0.9, 1.0, 1.6] {
        for cy in [-0.2, 0.25, 0.51, 1.3] {
            for r in [0.0, 0.06, 0.125, 0.25, 0.49, 0.8, 1.5, 3.0] {
                let center = Point::new(cx, cy);
                ranges_in_circle_with_dist_into(&curve, &mapper, center, r * r, &mut out);
                assert_circle_decomposition(&curve, &mapper, center, r * r, &out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn xy2d_d2xy_roundtrip(order in 1u8..16, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        let d = seed % (c.max_d() + 1);
        prop_assert_eq!(c.xy2d(c.d2xy(d)), d);
    }

    #[test]
    fn neighbours_along_curve(order in 2u8..10, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        let d = seed % c.max_d();
        let a = c.d2xy(d);
        let b = c.d2xy(d + 1);
        let manhattan = (a.x as i64 - b.x as i64).abs() + (a.y as i64 - b.y as i64).abs();
        prop_assert_eq!(manhattan, 1);
    }

    #[test]
    fn decomposition_matches_membership(
        order in 2u8..7,
        x0 in 0u32..32, y0 in 0u32..32, w in 0u32..16, h in 0u32..16,
        probe in any::<u64>(),
    ) {
        let c = HilbertCurve::new(order);
        let side = c.side();
        let lo = Cell::new(x0 % side, y0 % side);
        let hi = Cell::new((lo.x + w).min(side - 1), (lo.y + h).min(side - 1));
        let ranges = ranges_in_cell_rect(&c, lo, hi);
        // Ranges are sorted, disjoint, non-adjacent.
        for win in ranges.windows(2) {
            prop_assert!(win[0].hi + 1 < win[1].lo);
        }
        // A random cell is in the rectangle iff its d is in some range.
        let d = probe % (c.max_d() + 1);
        let cell = c.d2xy(d);
        let inside = cell.x >= lo.x && cell.x <= hi.x && cell.y >= lo.y && cell.y <= hi.y;
        let covered = ranges.iter().any(|r| r.contains(d));
        prop_assert_eq!(inside, covered);
        // Total length equals the rectangle's area.
        let total: u64 = ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, ((hi.x - lo.x + 1) as u64) * ((hi.y - lo.y + 1) as u64));
    }

    #[test]
    fn range_distance_is_exact_lower_bound(
        order in 2u8..6,
        qx in -0.5..1.5f64, qy in -0.5..1.5f64,
        a in any::<u64>(), b in any::<u64>(),
    ) {
        let c = HilbertCurve::new(order);
        let m = GridMapper::unit_square(order);
        let q = Point::new(qx, qy);
        let (mut lo, mut hi) = (a % (c.max_d() + 1), b % (c.max_d() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let range = HcRange::new(lo, hi);
        let got = min_dist2_to_range(&c, &m, q, range);
        // Brute force over every cell in the range.
        let mut want = f64::INFINITY;
        for d in lo..=hi {
            want = want.min(m.cell_rect(c.d2xy(d)).min_dist2(q));
        }
        prop_assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
    }

    #[test]
    fn continuous_window_covers_all_objects(
        order in 3u8..9,
        cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.01..0.5f64,
        px in 0.0..1.0f64, py in 0.0..1.0f64,
    ) {
        let c = HilbertCurve::new(order);
        let m = GridMapper::unit_square(order);
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let ranges = ranges_in_rect(&c, &m, &w);
        // Any point inside the window has its cell's HC covered.
        let p = Point::new(px, py);
        if w.contains(p) {
            let d = c.xy2d(m.cell_of(p));
            prop_assert!(ranges.iter().any(|r| r.contains(d)),
                "point {p:?} in window but HC {d} uncovered");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn circle_decomposition_matches_brute_force(
        order in 2u8..7,
        cx in -0.5..1.5f64, cy in -0.5..1.5f64,
        r in 0.0..1.2f64,
    ) {
        let curve = HilbertCurve::new(order);
        let mapper = GridMapper::unit_square(order);
        let center = Point::new(cx, cy);
        let mut out = Vec::new();
        ranges_in_circle_with_dist_into(&curve, &mapper, center, r * r, &mut out);
        // No range reaches outside the circle's bounding square.
        let bbox = Rect::bounding_square(center, r);
        for dr in &out {
            for d in [dr.range.lo, dr.range.hi] {
                let cell_rect = mapper.cell_rect(curve.d2xy(d));
                prop_assert!(
                    cell_rect.intersects(&bbox),
                    "cell of HC {d} outside the bounding square"
                );
            }
        }
        assert_circle_decomposition(&curve, &mapper, center, r * r, &out);
    }

    #[test]
    fn lazy_circle_matches_direct_decomposition(
        order in 2u8..8,
        cx in -0.5..1.5f64, cy in -0.5..1.5f64,
        radii in prop::collection::vec((any::<bool>(), 0.0..1.5f64, any::<u64>()), 1..7),
        probes in prop::collection::vec((0u8..4, any::<u64>(), 0u64..80), 0..12),
    ) {
        let curve = HilbertCurve::new(order);
        let mapper = GridMapper::unit_square(order);
        let center = Point::new(cx, cy);
        // Shrinking radii, some exactly on a cell edge: the squared
        // distance to a cell's nearest point is that cell's `min_d2`, and
        // the `max_min_d2` of every range holding it.
        let mut r2s: Vec<f64> = radii
            .iter()
            .map(|&(edge, r, seed)| {
                if edge {
                    let d = seed % (curve.max_d() + 1);
                    mapper.cell_rect(curve.d2xy(d)).min_dist2(center)
                } else {
                    r * r
                }
            })
            .collect();
        r2s.sort_by(|a, b| b.partial_cmp(a).expect("radii are never NaN"));
        let mut lazy = LazyCircle::new(&curve, &mapper, center);
        for r2 in r2s {
            lazy.narrow(r2);
            let mut direct = Vec::new();
            ranges_in_circle_with_dist_into(&curve, &mapper, center, r2, &mut direct);
            let ranges: Vec<HcRange> = direct.iter().map(|d| d.range).collect();
            let mut exact = &ranges[..];
            // Every probe answers as the direct decomposition does; each
            // settles only what it reaches, so later probes and the next
            // shrink meet a partly split circle.
            for &(kind, seed, len) in &probes {
                let x = seed % (curve.max_d() + 2);
                match kind {
                    0 => prop_assert_eq!(lazy.first_from(x), exact.first_from(x), "first_from({})", x),
                    1 => prop_assert_eq!(lazy.last_below(x), exact.last_below(x), "last_below({})", x),
                    2 => prop_assert_eq!(
                        lazy.any_in(x, x + len + 1),
                        exact.any_in(x, x + len + 1),
                        "any_in({}, {})", x, x + len + 1
                    ),
                    _ => prop_assert_eq!(lazy.is_exhausted(), exact.is_exhausted()),
                }
            }
            // A full settle, adjacent blocks merged, is the direct
            // decomposition, bit for bit.
            let mut settled = lazy.clone();
            settled.settle_all();
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
            prop_assert_eq!(merged, direct, "r2 {}", r2);
        }
    }

    #[test]
    fn with_dist_decomposition_matches_plain_and_exact_distances(
        order in 2u8..7,
        cx in -0.3..1.3f64, cy in -0.3..1.3f64, side in 0.05..0.9f64,
        qx in -0.5..1.5f64, qy in -0.5..1.5f64,
    ) {
        let c = HilbertCurve::new(order);
        let m = GridMapper::unit_square(order);
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let q = Point::new(qx, qy);
        let plain = ranges_in_rect(&c, &m, &w);
        let mut with_dist = Vec::new();
        ranges_in_rect_with_dist_into(&c, &m, &w, q, &mut with_dist);
        // Same ranges…
        let got_ranges: Vec<HcRange> = with_dist.iter().map(|&(r, _)| r).collect();
        prop_assert_eq!(&got_ranges, &plain);
        // …and each distance equals the branch-and-bound oracle.
        for &(r, d2) in &with_dist {
            let want = min_dist2_to_range(&c, &m, q, r);
            prop_assert!((d2 - want).abs() < 1e-12, "range {r:?}: got {d2}, want {want}");
        }
    }
}
