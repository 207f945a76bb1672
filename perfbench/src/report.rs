//! The metrics a run reports, in the order `BENCHMARK.json` lists them.

use crate::digest::Digest;

/// End-to-end metrics: what a user of the simulator sees.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Client queries completed per host second, over the faster half of
    /// quarter-second slices (fleet: clients per second of the fastest
    /// repetition).
    pub queries_per_s: f64,
    /// Median host time per query over the same slices, ms (fleet: the
    /// fastest repetition's wall time per client).
    pub query_ms_p50: f64,
    /// Median set-up time: dataset generation + index + program build.
    pub setup_s: f64,
    /// Peak resident memory of the process through set-up and the first
    /// pass (fleet: the first `run_fleet` call), MB.
    pub peak_rss_mb: f64,
    /// Simulated access latency, bytes: mean and p99 over queries.
    pub air_latency_bytes_mean: f64,
    /// See [`EndToEnd::air_latency_bytes_mean`].
    pub air_latency_bytes_p99: f64,
    /// Simulated tuning time, bytes: mean and p99 over queries.
    pub air_tuning_bytes_mean: f64,
    /// See [`EndToEnd::air_tuning_bytes_mean`].
    pub air_tuning_bytes_p99: f64,
}

impl EndToEnd {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub fn list(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("queries_per_s", self.queries_per_s, "1/s"),
            ("query_ms_p50", self.query_ms_p50, "ms"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ("air_latency_bytes_mean", self.air_latency_bytes_mean, "B"),
            ("air_latency_bytes_p99", self.air_latency_bytes_p99, "B"),
            ("air_tuning_bytes_mean", self.air_tuning_bytes_mean, "B"),
            ("air_tuning_bytes_p99", self.air_tuning_bytes_p99, "B"),
        ]
    }
}

/// Per-layer metrics, measured from outside each crate. A layer a
/// workload leaves idle reports 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub datagen_build_s: f64,
    pub build_program_s: f64,
    pub build_cycle_packets: f64,
    pub hilbert_rect_us: f64,
    pub hilbert_rect_ranges: f64,
    pub hilbert_circle_us: f64,
    pub hilbert_circle_ranges: f64,
    pub tuner_reads_per_query: f64,
    pub client_ns_per_read: f64,
    pub client_query_ms_p99: f64,
    pub state_events_per_query: f64,
    pub knn_refreshes_per_query: f64,
    pub knn_ranges_per_query: f64,
    pub knn_peak_cands: f64,
    pub loss_lost_per_query: f64,
    pub loss_retunes_per_query: f64,
    pub loss_stall_p99: f64,
    pub channel_switches_per_query: f64,
    pub fleet_ns_per_instant: f64,
    pub fleet_derive_s: f64,
    pub fleet_run_s: f64,
    pub fleet_drives: f64,
    pub fleet_dedup_ratio: f64,
    pub fleet_driven_reads_per_s: f64,
    pub share_hit_ratio: f64,
    pub pool_busy_share: f64,
    pub trace_overhead_pct: f64,
    pub self_setup_s: f64,
    pub self_measure_s: f64,
    pub self_validate_s: f64,
    pub host_busy_share: f64,
}

/// Unit, and whether the metric is a deterministic count (repeats
/// exactly for a seed, and enters the digest).
type Shape = (&'static str, bool);
const COUNT: Shape = ("count", true);
const S: Shape = ("s", false);
const US: Shape = ("us", false);
const NS: Shape = ("ns", false);
const MS: Shape = ("ms", false);
const RATIO: Shape = ("ratio", false);

impl Layers {
    /// `(name, value, unit, is_count)` in `BENCHMARK.json` order.
    pub fn list(&self) -> Vec<(&'static str, f64, &'static str, bool)> {
        let rows: [(&'static str, f64, Shape); 31] = [
            ("datagen.build_s", self.datagen_build_s, S),
            ("build.program_s", self.build_program_s, S),
            ("build.cycle_packets", self.build_cycle_packets, COUNT),
            ("hilbert.rect_us", self.hilbert_rect_us, US),
            ("hilbert.rect_ranges", self.hilbert_rect_ranges, COUNT),
            ("hilbert.circle_us", self.hilbert_circle_us, US),
            ("hilbert.circle_ranges", self.hilbert_circle_ranges, COUNT),
            ("tuner.reads_per_query", self.tuner_reads_per_query, COUNT),
            ("client.ns_per_read", self.client_ns_per_read, NS),
            ("client.query_ms_p99", self.client_query_ms_p99, MS),
            ("state.events_per_query", self.state_events_per_query, COUNT),
            (
                "knn.refreshes_per_query",
                self.knn_refreshes_per_query,
                COUNT,
            ),
            ("knn.ranges_per_query", self.knn_ranges_per_query, COUNT),
            ("knn.peak_cands", self.knn_peak_cands, COUNT),
            ("loss.lost_per_query", self.loss_lost_per_query, COUNT),
            ("loss.retunes_per_query", self.loss_retunes_per_query, COUNT),
            ("loss.stall_p99", self.loss_stall_p99, COUNT),
            (
                "channel.switches_per_query",
                self.channel_switches_per_query,
                COUNT,
            ),
            ("fleet.ns_per_instant", self.fleet_ns_per_instant, NS),
            ("fleet.derive_s", self.fleet_derive_s, S),
            ("fleet.run_s", self.fleet_run_s, S),
            ("fleet.drives", self.fleet_drives, COUNT),
            ("fleet.dedup_ratio", self.fleet_dedup_ratio, COUNT),
            (
                "fleet.driven_reads_per_s",
                self.fleet_driven_reads_per_s,
                ("1/s", false),
            ),
            ("share.hit_ratio", self.share_hit_ratio, RATIO),
            ("pool.busy_share", self.pool_busy_share, RATIO),
            ("trace.overhead_pct", self.trace_overhead_pct, ("%", false)),
            ("self.setup_s", self.self_setup_s, S),
            ("self.measure_s", self.self_measure_s, S),
            ("self.validate_s", self.self_validate_s, S),
            ("host.busy_share", self.host_busy_share, RATIO),
        ];
        rows.into_iter()
            .map(|(name, v, (unit, count))| (name, v, unit, count))
            .collect()
    }
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: EndToEnd,
    pub layers: Layers,
    /// Distinct queries (fleet: clients) whose answers were checked.
    pub attempted: u64,
    /// Of those, answered wrong or panicked.
    pub failed: u64,
    /// Per-query latency, tuning and answer ids, in query order.
    pub digest: Digest,
    /// Human-readable remarks (sample counts, dropped tails).
    pub notes: Vec<String>,
}

impl Report {
    /// Folds every count metric into the digest.
    pub fn seal_digest(&mut self) {
        for (name, v, _, count) in self.layers.list() {
            if count {
                self.digest.count(name, v);
            }
        }
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// end-to-end (`trace` off) or per-layer (`trace` on) metrics.
pub fn result_json(report: &Report, trace: bool) -> String {
    let metrics: Vec<(&str, f64, &str)> = if trace {
        report
            .layers
            .list()
            .into_iter()
            .map(|(n, v, u, _)| (n, v, u))
            .collect()
    } else {
        report.e2e.list()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and order this binary prints must be the ones the
    /// benchmark declares.
    #[test]
    fn names_match_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        let mut at = 0;
        for (name, _, unit) in EndToEnd::default().list() {
            let key = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let pos = declared[at..]
                .find(&key)
                .unwrap_or_else(|| panic!("{key} missing or out of order"));
            at += pos;
        }
        let mut at = 0;
        for (name, _, unit, _) in Layers::default().list() {
            let key = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let pos = declared[at..]
                .find(&key)
                .unwrap_or_else(|| panic!("{key} missing or out of order"));
            at += pos;
        }
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.e2e.setup_s = 0.125;
        let line = result_json(&r, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(!line.contains("fleet.drives"));
        r.failed = 1;
        let traced = result_json(&r, true);
        assert!(traced.starts_with("{\"correct\": false"));
        assert!(traced.contains("\"fleet.drives\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn sealing_folds_counts_only() {
        let mut a = Report::default();
        let mut b = Report::default();
        b.layers.client_ns_per_read = 55.0; // a timing: not in the digest
        a.seal_digest();
        b.seal_digest();
        assert_eq!(a.digest.hex(), b.digest.hex());
        let mut c = Report::default();
        c.layers.fleet_drives = 1.0;
        c.seal_digest();
        assert_ne!(a.digest.hex(), c.digest.hex());
    }
}
