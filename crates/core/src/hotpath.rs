//! Work counters for the client query hot loop.
//!
//! The query driver maintains its cleared-region / remainder state
//! *incrementally*: every `learn` / frame-visit event applies a localized
//! delta (see [`crate::state`]). These thread-local counters tally the
//! applied deltas, so benchmarks can report the state work per query as
//! a deterministic count next to their wall-clock figures. A second
//! tally, [`nav_frames`], counts the frames the navigator examines while
//! searching the broadcast for the next frame to visit.
//!
//! In dsi-core's own unit tests the driver additionally cross-checks its
//! state against the from-scratch oracle after every event; each oracle
//! derivation is tallied as a full recompute. Outside that test build no
//! code path recomputes from scratch, so the first field of
//! [`counters`] stays 0.

use std::cell::Cell;

thread_local! {
    static FULL_RECOMPUTES: Cell<u64> = const { Cell::new(0) };
    static INCREMENTAL_EVENTS: Cell<u64> = const { Cell::new(0) };
    static NAV_FRAMES: Cell<u64> = const { Cell::new(0) };
    #[cfg(test)]
    static ORACLE_NAV_FRAMES: Cell<u64> = const { Cell::new(0) };
}

/// Zeroes this thread's counters.
pub fn reset_counters() {
    FULL_RECOMPUTES.with(|c| c.set(0));
    INCREMENTAL_EVENTS.with(|c| c.set(0));
    NAV_FRAMES.with(|c| c.set(0));
    #[cfg(test)]
    ORACLE_NAV_FRAMES.with(|c| c.set(0));
}

/// `(full_recomputes, incremental_events)` accrued on this thread since
/// the last [`reset_counters`]. A full recompute is one from-scratch
/// cleared-region derivation by the test-build audit (always 0 outside
/// it); an incremental event is one applied delta (frame contribution
/// grown, or remainder narrowing).
pub fn counters() -> (u64, u64) {
    (
        FULL_RECOMPUTES.with(|c| c.get()),
        INCREMENTAL_EVENTS.with(|c| c.get()),
    )
}

/// Frames the navigator examined on this thread since the last
/// [`reset_counters`]: one per frame whose span or scan state the search
/// for the next frame to visit looked at. Deterministic for a given
/// query, so it gates like the air metrics.
pub fn nav_frames() -> u64 {
    NAV_FRAMES.with(|c| c.get())
}

#[cfg(test)]
pub(crate) fn count_full_recompute() {
    FULL_RECOMPUTES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_incremental_event() {
    INCREMENTAL_EVENTS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_nav_frames(n: u64) {
    NAV_FRAMES.with(|c| c.set(c.get() + n));
}

/// Frames the test-build linear-sweep oracle examined for the same
/// navigations [`nav_frames`] counts.
#[cfg(test)]
pub(crate) fn oracle_nav_frames() -> u64 {
    ORACLE_NAV_FRAMES.with(|c| c.get())
}

#[cfg(test)]
pub(crate) fn count_oracle_nav_frames(n: u64) {
    ORACLE_NAV_FRAMES.with(|c| c.set(c.get() + n));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset_counters();
        count_full_recompute();
        count_incremental_event();
        count_incremental_event();
        count_nav_frames(5);
        count_oracle_nav_frames(7);
        assert_eq!(counters(), (1, 2));
        assert_eq!((nav_frames(), oracle_nav_frames()), (5, 7));
        reset_counters();
        assert_eq!(counters(), (0, 0));
        assert_eq!((nav_frames(), oracle_nav_frames()), (0, 0));
    }
}
