//! The benchmark's own checks, at a small scale: the correctness gate and
//! the exact repeat of the deterministic work counters, on the seed the
//! benchmark was tuned with and on a held-out seed nobody tuned for.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use mabfuzz::json_value;
use perfbench::output::Outcome;
use perfbench::workload::{Scale, Workload};
use perfbench::{run_at, Args};

/// A seed used while the benchmark was tuned.
const TUNING_SEED: u64 = 1;
/// A seed no benchmark setting was chosen on.
const HELD_OUT_SEED: u64 = 20_261_017;

const SMALL: Scale = Scale {
    tests: 60,
    repetitions: 1,
};

/// Runs share process environment (the oracle switches) and the host's
/// cores, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let args = Args {
        workload,
        seed,
        seconds: 1.0,
        trace,
    };
    run_at(&args, SMALL).expect("the benchmark run completes")
}

/// The per-layer counters that are a pure function of the seed.
const DETERMINISTIC_COUNTERS: [&str; 13] = [
    "proc-sim.commits",
    "proc-sim.dut_calls",
    "isa-sim.decode_hits",
    "isa-sim.decode_misses",
    "isa-sim.reset_units",
    "fuzzer.mismatching_tests",
    "analysis.images",
    "mab.selects",
    "mab.updates",
    "mab.arm_resets",
    "core.events",
    "core.event_bytes",
    "analysis.on_path",
];

#[test]
fn correctness_gate_passes_on_the_tuning_and_the_held_out_seed() {
    for seed in [TUNING_SEED, HELD_OUT_SEED] {
        for workload in Workload::ALL {
            let outcome = run(workload, seed, false);
            assert!(
                outcome.correct,
                "{} seed {seed}: {outcome:?}",
                workload.name()
            );
            assert_eq!(outcome.failed, 0, "{} seed {seed}", workload.name());
            assert!(outcome.attempted > 0);
            for name in [
                "tests_per_s",
                "coverage_points",
                "tests_to_first_detection",
                "setup_s",
            ] {
                let value = outcome.metrics.get(name).expect("metric emitted");
                assert!(
                    value > 0.0,
                    "{} seed {seed}: {name} = {value}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn traced_counters_repeat_exactly_across_runs() {
    for seed in [TUNING_SEED, HELD_OUT_SEED] {
        for workload in Workload::ALL {
            let first = run(workload, seed, true);
            let second = run(workload, seed, true);
            for outcome in [&first, &second] {
                assert!(
                    outcome.correct,
                    "{} seed {seed}: {outcome:?}",
                    workload.name()
                );
                assert_eq!(outcome.failed, 0);
            }
            for name in DETERMINISTIC_COUNTERS {
                assert_eq!(
                    first.metrics.get(name),
                    second.metrics.get(name),
                    "{} seed {seed}: {name} did not repeat",
                    workload.name()
                );
            }
            assert!(first.metrics.get("proc-sim.commits").expect("emitted") > 0.0);
            // Every closed-loop cycle is exactly four requests.
            for outcome in [&first, &second] {
                let requests = outcome.metrics.get("service.requests").expect("emitted");
                let samples = outcome.metrics.get("service.samples").expect("emitted");
                assert_eq!(requests, 4.0 * samples, "{} seed {seed}", workload.name());
            }
        }
    }
}

#[test]
fn every_run_prints_exactly_the_declared_metrics_in_the_contract_shape() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let declared =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let declared = json_value::parse(&declared).expect("BENCHMARK.json is JSON");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected: Vec<(&str, &str)> = declared
            .get(section)
            .expect("section present")
            .as_array(section)
            .expect("section is a list")
            .iter()
            .map(|metric| {
                let field =
                    |key: &str| metric.get(key).and_then(|v| v.as_str(key).ok()).expect(key);
                (field("name"), field("unit"))
            })
            .collect();

        let line = run(Workload::Fig3Serial, TUNING_SEED, trace).to_json();
        let result = json_value::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = result
            .as_object("result")
            .expect("an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<(&str, &str)> = result
            .get("metrics")
            .and_then(|metrics| metrics.as_object("metrics").ok())
            .expect("metrics object")
            .iter()
            .map(|(name, metric)| {
                metric
                    .get("value")
                    .expect("value")
                    .as_f64("value")
                    .expect("numeric value");
                let unit = metric
                    .get("unit")
                    .and_then(|u| u.as_str("unit").ok())
                    .expect("unit");
                (name.as_str(), unit)
            })
            .collect();
        assert_eq!(printed, expected, "trace {trace}");
    }
}
