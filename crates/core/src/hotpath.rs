//! Work counters for the client query hot loop.
//!
//! The query driver maintains its cleared-region / remainder state
//! *incrementally*: every `learn` / frame-visit event applies a localized
//! delta (see [`crate::state`]). These thread-local counters tally the
//! applied deltas, so benchmarks can report the state work per query as
//! a deterministic count next to their wall-clock figures.
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
}

/// Zeroes this thread's event counters.
pub fn reset_counters() {
    FULL_RECOMPUTES.with(|c| c.set(0));
    INCREMENTAL_EVENTS.with(|c| c.set(0));
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

#[cfg(test)]
pub(crate) fn count_full_recompute() {
    FULL_RECOMPUTES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_incremental_event() {
    INCREMENTAL_EVENTS.with(|c| c.set(c.get() + 1));
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
        assert_eq!(counters(), (1, 2));
        reset_counters();
        assert_eq!(counters(), (0, 0));
    }
}
