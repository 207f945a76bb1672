//! The core model-check scenarios for the fleet concurrency layer.
//!
//! Each scenario wraps one `steal` pool or `dsi_core::share` pattern in
//! [`crate::check::check`], explores every schedule within the given
//! preemption bound, and asserts the *same outcome facts* hold in every
//! one of them — job counts, panic propagation, drain-on-drop, cache
//! bit-identity. The facts are exactly the properties the fleet engine's
//! `FleetOutcomes` merge relies on.
//!
//! The preemption bound is per-call so the CI job can run the fast
//! bound while local debugging cranks it up; see [`run_all`] for the
//! defaults each scenario is known to exhaust in seconds.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dsi_core::share::ShareCache;
use dsi_geom::{GridMapper, Point, Rect};
use dsi_hilbert::{ranges_in_rect, HilbertCurve};
use interleave::sync::atomic::{AtomicUsize, Ordering};
use interleave::Options;
use steal::{Builder, Pool};

use crate::check::{check, CheckReport};

/// The outcome of one scenario run: the check verdict plus the set of
/// distinct outcome facts observed across all schedules (a singleton
/// set is the determinism proof).
pub struct ScenarioReport {
    /// Scenario name, stable for CI log grepping.
    pub name: &'static str,
    /// Preemption bound the exploration ran under.
    pub bound: usize,
    /// The combined explorer + analyzer verdict.
    pub check: CheckReport,
    /// Distinct outcome facts across schedules (should be 1).
    pub distinct_outcomes: usize,
}

impl ScenarioReport {
    /// Panics unless the exploration was exhaustive, violation-free,
    /// race-free, cycle-free and outcome-deterministic.
    pub fn assert_clean(&self) {
        self.check.assert_clean();
        assert_eq!(
            self.distinct_outcomes, 1,
            "{}: outcomes differ across schedules",
            self.name
        );
    }
}

fn report(
    name: &'static str,
    bound: usize,
    check: CheckReport,
    outcomes: BTreeSet<String>,
) -> ScenarioReport {
    ScenarioReport {
        name,
        bound,
        check,
        distinct_outcomes: outcomes.len(),
    }
}

/// Spawn/steal/park/unpark: two batch jobs on a two-worker pool bump a
/// shared counter; every schedule must run both exactly once and join
/// only after both.
pub fn pool_spawn_steal(bound: usize) -> ScenarioReport {
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let pool = Pool::with_workers(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let batch = pool.batch();
        for _ in 0..2 {
            let hits = Arc::clone(&hits);
            batch.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        batch.join();
        let n = hits.load(Ordering::SeqCst);
        assert_eq!(n, 2, "join returned before both jobs ran");
        outcomes.borrow_mut().insert(format!("hits={n}"));
        drop(pool);
    });
    report("pool_spawn_steal", bound, check, outcomes.into_inner())
}

/// Panic propagation: a panicking batch job must surface through
/// `Batch::join` (and only there) in every schedule, and the sibling
/// job still runs.
pub fn pool_batch_panic(bound: usize) -> ScenarioReport {
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let pool = Pool::with_workers(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let batch = pool.batch();
        batch.spawn(|| panic!("job boom"));
        {
            let hits = Arc::clone(&hits);
            batch.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let joined = catch_unwind(AssertUnwindSafe(|| batch.join()));
        let payload = joined.expect_err("join must re-raise the job panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
        let n = hits.load(Ordering::SeqCst);
        assert_eq!(n, 1, "sibling job lost to the panic");
        assert!(
            pool.take_stray_panic().is_none(),
            "batch panic leaked into the stray channel"
        );
        outcomes
            .borrow_mut()
            .insert(format!("panic={msg} hits={n}"));
        drop(pool);
    });
    report("pool_batch_panic", bound, check, outcomes.into_inner())
}

/// Shutdown: fire-and-forget jobs queued before `drop` all run before
/// the workers join, in every schedule.
pub fn pool_shutdown_drains(bound: usize) -> ScenarioReport {
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let hits = Arc::new(AtomicUsize::new(0));
        let pool = Pool::with_workers(1);
        for _ in 0..2 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        let n = hits.load(Ordering::SeqCst);
        assert_eq!(n, 2, "drop joined workers before draining the queue");
        outcomes.borrow_mut().insert(format!("hits={n}"));
    });
    report("pool_shutdown_drains", bound, check, outcomes.into_inner())
}

/// Worker panic containment: a panicking fire-and-forget job must not
/// cost the pool its worker — later jobs still run and the payload
/// surfaces via `take_stray_panic`, in every schedule.
pub fn pool_stray_panic(bound: usize) -> ScenarioReport {
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let pool = Pool::with_workers(1);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.spawn(|| panic!("stray boom"));
        {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let batch = pool.batch();
        batch.spawn(|| {});
        batch.join();
        let n = hits.load(Ordering::SeqCst);
        assert_eq!(n, 1, "worker died to the stray panic");
        let payload = pool.take_stray_panic().expect("stray panic recorded");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
        outcomes
            .borrow_mut()
            .insert(format!("stray={msg} hits={n}"));
        drop(pool);
    });
    report("pool_stray_panic", bound, check, outcomes.into_inner())
}

/// Steal racing shutdown: a job enqueued from outside while the pool is
/// concurrently dropped still runs exactly once — `drop` drains
/// whatever made it into the queues.
pub fn pool_spawn_races_drop(bound: usize) -> ScenarioReport {
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let hits = Arc::new(AtomicUsize::new(0));
        let pool = Pool::with_workers(2);
        {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        let n = hits.load(Ordering::SeqCst);
        assert_eq!(n, 1, "job lost in the shutdown race");
        outcomes.borrow_mut().insert(format!("hits={n}"));
    });
    report("pool_spawn_races_drop", bound, check, outcomes.into_inner())
}

/// A panicking `on_thread_start` hook must not decimate the pool: jobs
/// still drain and the first hook payload surfaces, in every schedule.
pub fn pool_hook_panic(bound: usize) -> ScenarioReport {
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let pool = Builder::new()
            .workers(1)
            .on_thread_start(|| panic!("hook boom"))
            .build();
        let hits = Arc::new(AtomicUsize::new(0));
        let batch = pool.batch();
        {
            let hits = Arc::clone(&hits);
            batch.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        batch.join();
        let n = hits.load(Ordering::SeqCst);
        assert_eq!(n, 1, "hook panic cost the pool its worker");
        let payload = pool.take_stray_panic().expect("hook panic recorded");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
        outcomes.borrow_mut().insert(format!("hook={msg} hits={n}"));
        drop(pool);
    });
    report("pool_hook_panic", bound, check, outcomes.into_inner())
}

/// Concurrent share-cache insert/hit: two threads resolving the same
/// window rectangle must observe bit-identical segments (equal to the
/// direct computation) and coherent hit/miss counters in every
/// schedule, with no lockset race anywhere in the cache.
pub fn share_cache_insert_hit(bound: usize) -> ScenarioReport {
    let curve = HilbertCurve::new(3);
    let mapper = GridMapper::new(Point { x: 0.0, y: 0.0 }, 1.0, 3);
    let rect = Rect::new(0.2, 0.2, 0.7, 0.6);
    let expected = Arc::new(ranges_in_rect(&curve, &mapper, &rect));
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let cache = Arc::new(ShareCache::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let curve = curve.clone();
                let rect = rect;
                interleave::thread::spawn(move || cache.segments_for(&curve, &mapper, &rect))
            })
            .collect();
        for h in workers {
            let got = h.join().expect("cache worker panicked");
            assert_eq!(
                *got, *expected,
                "cache returned segments differing from the direct computation"
            );
        }
        let (hits, misses) = (cache.window_hits(), cache.window_misses());
        assert_eq!(hits + misses, 2, "each lookup is a hit or a miss");
        assert!(misses >= 1, "someone computed the entry");
        outcomes
            .borrow_mut()
            .insert("segments=bit-identical".to_string());
    });
    report(
        "share_cache_insert_hit",
        bound,
        check,
        outcomes.into_inner(),
    )
}

/// Every scenario with the preemption bound its CI run uses. The pool
/// scenarios spawn real worker threads per execution, so their
/// exhaustive bound is kept small; the cache scenario is lighter and
/// takes a deeper bound.
pub fn run_all() -> Vec<ScenarioReport> {
    vec![
        pool_spawn_steal(2),
        pool_batch_panic(2),
        pool_shutdown_drains(2),
        pool_stray_panic(2),
        pool_spawn_races_drop(2),
        pool_hook_panic(2),
        share_cache_insert_hit(3),
    ]
}
