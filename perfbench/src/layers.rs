//! Per-layer totals of a traced run and the per-layer metrics they yield.

use std::time::Duration;

use fuzzer::CoverageSignal;
use mabfuzz::CampaignSpec;

use crate::output::Metrics;
use crate::probe::{DutCounts, FoldTally, MabCounts};
use crate::replay::SimReplay;
use crate::stats::percentile;

/// Layer totals summed over a traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Campaigns traced.
    pub campaigns: u64,
    /// Tests executed.
    pub tests: u64,
    /// Traced campaign wall time.
    pub wall_ns: u64,
    /// Campaign wall time times simulating threads (1, or the shard count).
    pub thread_ns: u64,
    /// The DUT probe.
    pub dut: DutCounts,
    /// The decode/golden/diff/analysis replay.
    pub sim: SimReplay,
    /// Whether static analysis runs inside the campaigns (edge signal).
    pub analysis_on_path: bool,
    /// Replayed coverage-merge time.
    pub merge_ns: u64,
    /// The policy probe.
    pub mab: MabCounts,
    /// The fold's wait for simulated outcomes.
    pub round_wait_ns: u64,
    /// Time inside the fold probe.
    pub probe_ns: u64,
    /// Observer events.
    pub events: u64,
    /// `EventLog` bytes of those events.
    pub event_bytes: u64,
    /// The campaign span minus every child and replayed layer and the
    /// tracing cost.
    pub core_self_ns: i128,
}

fn signed(ns: u64) -> i128 {
    i128::from(ns)
}

impl LayerTotals {
    /// The totals of one traced campaign.
    #[allow(clippy::too_many_arguments)]
    pub fn campaign(
        spec: &CampaignSpec,
        wall: Duration,
        tests: u64,
        dut: DutCounts,
        sim: SimReplay,
        merge_ns: u64,
        mab: MabCounts,
        fold: &FoldTally,
        event_bytes: u64,
    ) -> LayerTotals {
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let edge = spec.coverage_signal == CoverageSignal::Edge;
        let threads = spec.shards as u64;
        // What the campaign thread blocked on besides its own fold work.
        // Serial campaigns simulate on the campaign thread, so the DUT, the
        // replayed isa-sim/diff layers and the capture cost all sit inside
        // its span; sharded campaigns wait for their workers instead.
        let blocked_ns = if threads == 1 {
            let analysis_ns = if edge { sim.analyze_ns } else { 0 };
            dut.busy_ns + dut.capture_ns + sim.decode_ns + sim.golden_ns + sim.diff_ns + analysis_ns
        } else {
            fold.round_wait_ns
        };
        let core_self_ns = signed(wall_ns)
            - signed(blocked_ns)
            - signed(merge_ns)
            - signed(mab.select_ns + mab.update_ns)
            - signed(fold.probe_ns);
        LayerTotals {
            campaigns: 1,
            tests,
            wall_ns,
            thread_ns: wall_ns * threads,
            dut,
            sim,
            analysis_on_path: edge,
            merge_ns,
            mab,
            round_wait_ns: fold.round_wait_ns,
            probe_ns: fold.probe_ns,
            events: fold.events,
            event_bytes,
            core_self_ns,
        }
    }

    /// Adds `other` to these totals.
    pub fn merge(&mut self, other: &LayerTotals) {
        self.campaigns += other.campaigns;
        self.tests += other.tests;
        self.wall_ns += other.wall_ns;
        self.thread_ns += other.thread_ns;
        self.dut.calls += other.dut.calls;
        self.dut.commits += other.dut.commits;
        self.dut.busy_ns += other.dut.busy_ns;
        self.dut.capture_ns += other.dut.capture_ns;
        self.sim.decode_ns += other.sim.decode_ns;
        self.sim.decode_hits += other.sim.decode_hits;
        self.sim.decode_misses += other.sim.decode_misses;
        self.sim.golden_ns += other.sim.golden_ns;
        self.sim.golden_commits += other.sim.golden_commits;
        self.sim.reset_units += other.sim.reset_units;
        self.sim.diff_ns += other.sim.diff_ns;
        self.sim.mismatching_tests += other.sim.mismatching_tests;
        self.sim.analyze_ns += other.sim.analyze_ns;
        self.sim.images += other.sim.images;
        self.analysis_on_path |= other.analysis_on_path;
        self.merge_ns += other.merge_ns;
        self.mab.selects += other.mab.selects;
        self.mab.updates += other.mab.updates;
        self.mab.arm_resets += other.mab.arm_resets;
        self.mab.select_ns += other.mab.select_ns;
        self.mab.update_ns += other.mab.update_ns;
        self.round_wait_ns += other.round_wait_ns;
        self.probe_ns += other.probe_ns;
        self.events += other.events;
        self.event_bytes += other.event_bytes;
        self.core_self_ns += other.core_self_ns;
    }

    /// The deterministic work counters, which repeat exactly for a seed.
    pub fn counters(&self) -> [u64; 12] {
        [
            self.tests,
            self.dut.calls,
            self.dut.commits,
            self.sim.decode_hits,
            self.sim.decode_misses,
            self.sim.golden_commits,
            self.sim.mismatching_tests,
            self.sim.images,
            self.mab.selects,
            self.mab.updates,
            self.mab.arm_resets,
            self.event_bytes,
        ]
    }

    /// Tracing cost inside the campaign spans: stream capture and the probe.
    pub fn trace_ns(&self) -> u64 {
        self.dut.capture_ns + self.probe_ns
    }
}

/// Client-side measurements of the service layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceTally {
    /// `submit` durations.
    pub submit_ms: Vec<f64>,
    /// Time from the start of `submit` to the first event byte.
    pub first_event_ms: Vec<f64>,
    /// `stream_events` durations.
    pub stream_ms: Vec<f64>,
    /// `report` durations.
    pub report_ms: Vec<f64>,
    /// Requests begun on the transport.
    pub requests: u64,
    /// Connections opened.
    pub connections: u64,
    /// Bytes read from the server.
    pub bytes_in: u64,
    /// Client errors, non-2xx responses and mismatched outputs.
    pub errors: u64,
}

impl ServiceTally {
    /// Folds another client's tally into this one.
    pub fn absorb(&mut self, other: ServiceTally) {
        self.submit_ms.extend(other.submit_ms);
        self.first_event_ms.extend(other.first_event_ms);
        self.stream_ms.extend(other.stream_ms);
        self.report_ms.extend(other.report_ms);
        self.requests += other.requests;
        self.connections += other.connections;
        self.bytes_in += other.bytes_in;
        self.errors += other.errors;
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Throughput of the untraced and traced runs, for the overhead figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Untraced tests per second.
    pub untraced_tests_per_s: f64,
    /// Traced tests per second.
    pub traced_tests_per_s: f64,
}

/// Emits every per-layer metric. `passes` divides the totals of several
/// traced passes back to one pass (the counters repeat exactly).
pub fn per_layer_metrics(
    totals: &LayerTotals,
    passes: u64,
    service: &ServiceTally,
    overhead: Overhead,
    metrics: &mut Metrics,
) {
    let per_pass = |value: u64| value / passes.max(1);
    let per_pass_s = |ns: u64| secs(ns) / passes.max(1) as f64;
    let wall = secs(totals.wall_ns);
    let mab_ns = totals.mab.select_ns + totals.mab.update_ns;

    metrics.push("proc-sim.busy_s", per_pass_s(totals.dut.busy_ns), "s");
    metrics.push(
        "proc-sim.share",
        ratio(secs(totals.dut.busy_ns), wall),
        "ratio",
    );
    metrics.push(
        "proc-sim.ns_per_commit",
        ratio(totals.dut.busy_ns as f64, totals.dut.commits as f64),
        "ns",
    );
    metrics.push(
        "proc-sim.commits",
        per_pass(totals.dut.commits) as f64,
        "count",
    );
    metrics.push(
        "proc-sim.dut_calls",
        per_pass(totals.dut.calls) as f64,
        "count",
    );

    let sim = &totals.sim;
    metrics.push("isa-sim.golden_busy_s", per_pass_s(sim.golden_ns), "s");
    metrics.push(
        "isa-sim.golden_ns_per_commit",
        ratio(sim.golden_ns as f64, sim.golden_commits as f64),
        "ns",
    );
    metrics.push("isa-sim.decode_busy_s", per_pass_s(sim.decode_ns), "s");
    metrics.push(
        "isa-sim.decode_hit_ratio",
        ratio(
            sim.decode_hits as f64,
            (sim.decode_hits + sim.decode_misses) as f64,
        ),
        "ratio",
    );
    metrics.push(
        "isa-sim.decode_hits",
        per_pass(sim.decode_hits) as f64,
        "count",
    );
    metrics.push(
        "isa-sim.decode_misses",
        per_pass(sim.decode_misses) as f64,
        "count",
    );
    metrics.push(
        "isa-sim.reset_units",
        per_pass(sim.reset_units) as f64,
        "count",
    );

    metrics.push("fuzzer.diff_busy_s", per_pass_s(sim.diff_ns), "s");
    metrics.push(
        "fuzzer.mismatching_tests",
        per_pass(sim.mismatching_tests) as f64,
        "count",
    );
    metrics.push("fuzzer.round_wait_s", per_pass_s(totals.round_wait_ns), "s");
    metrics.push(
        "fuzzer.shard_utilization",
        ratio(totals.dut.busy_ns as f64, totals.thread_ns as f64),
        "ratio",
    );

    metrics.push("analysis.analyze_busy_s", per_pass_s(sim.analyze_ns), "s");
    metrics.push("analysis.images", per_pass(sim.images) as f64, "count");
    metrics.push(
        "analysis.on_path",
        u8::from(totals.analysis_on_path).into(),
        "count",
    );

    metrics.push("coverage.merge_busy_s", per_pass_s(totals.merge_ns), "s");

    metrics.push(
        "mab.select_ns",
        ratio(totals.mab.select_ns as f64, totals.mab.selects as f64),
        "ns",
    );
    metrics.push(
        "mab.update_ns",
        ratio(totals.mab.update_ns as f64, totals.mab.updates as f64),
        "ns",
    );
    metrics.push("mab.selects", per_pass(totals.mab.selects) as f64, "count");
    metrics.push("mab.updates", per_pass(totals.mab.updates) as f64, "count");
    metrics.push(
        "mab.arm_resets",
        per_pass(totals.mab.arm_resets) as f64,
        "count",
    );
    metrics.push("mab.share", ratio(secs(mab_ns), wall), "ratio");

    metrics.push("core.campaign_s", per_pass_s(totals.wall_ns), "s");
    metrics.push(
        "core.fold_self_s",
        totals.core_self_ns as f64 / 1e9 / passes.max(1) as f64,
        "s",
    );
    metrics.push("core.events", per_pass(totals.events) as f64, "count");
    metrics.push(
        "core.event_bytes",
        per_pass(totals.event_bytes) as f64,
        "count",
    );

    metrics.push(
        "service.submit_ms",
        percentile(&service.submit_ms, 0.5),
        "ms",
    );
    metrics.push(
        "service.first_event_ms.p50",
        percentile(&service.first_event_ms, 0.5),
        "ms",
    );
    metrics.push(
        "service.first_event_ms.p90",
        percentile(&service.first_event_ms, 0.9),
        "ms",
    );
    metrics.push(
        "service.stream_ms",
        percentile(&service.stream_ms, 0.5),
        "ms",
    );
    metrics.push(
        "service.report_ms",
        percentile(&service.report_ms, 0.5),
        "ms",
    );
    metrics.push("service.samples", service.submit_ms.len() as f64, "count");
    metrics.push("service.requests", service.requests as f64, "count");
    metrics.push("service.connections", service.connections as f64, "count");
    metrics.push("service.bytes_in", service.bytes_in as f64, "count");
    metrics.push("service.errors", service.errors as f64, "count");

    metrics.push("trace.self_s", per_pass_s(totals.trace_ns()), "s");
    metrics.push(
        "trace.tests_per_s_untraced",
        overhead.untraced_tests_per_s,
        "1/s",
    );
    metrics.push(
        "trace.tests_per_s_traced",
        overhead.traced_tests_per_s,
        "1/s",
    );
    metrics.push(
        "trace.overhead",
        ratio(overhead.untraced_tests_per_s, overhead.traced_tests_per_s) - 1.0,
        "ratio",
    );
}
