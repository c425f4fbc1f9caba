//! The repository benchmark: end-to-end metrics of three workloads, and
//! per-layer numbers from a separate traced run that times calls into each
//! layer's public functions from outside. See `RATIONALE.md`.
//!
//! One run is `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`; its last stdout line is the JSON result.

#![forbid(unsafe_code)]

pub mod campaigns;
pub mod layers;
pub mod output;
pub mod probe;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod workload;

use std::time::Instant;

use campaigns::{reference_runs, run_pass, setup, traced_pass, Exact, Reference};
use layers::{per_layer_metrics, LayerTotals, Overhead};
use mabfuzz::CampaignSpec;
use output::{Metrics, Outcome};
use serve::{closed_loop, Server};
use stats::{median, percentile};
use workload::{host_threads, Scale, Workload};

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Campaigns of an in-process workload that its traced run also serves over
/// loopback, so the service layer is measured on every workload.
const SERVICE_PROBE_CAMPAIGNS: usize = 2;

/// A parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The usage line.
pub const USAGE: &str = "usage: perfbench --workload <fig3-serial|edge-sharded|serve-closed-loop> \
                         --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace` (all required).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let parsed = value.parse::<u64>().ok().filter(|s| (1..=3600).contains(s));
                seconds = Some(parsed.ok_or_else(|| format!("bad seconds `{value}`"))? as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs one benchmark invocation at the workload's full scale.
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_at(args, args.workload.full_scale())
}

/// Runs one benchmark invocation at an explicit scale (tests use small ones).
pub fn run_at(args: &Args, scale: Scale) -> Result<Outcome, String> {
    match args.workload {
        Workload::Fig3Serial | Workload::EdgeSharded => run_in_process(args, scale),
        Workload::ServeClosedLoop => run_served(args, scale),
    }
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("cannot read the process status: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_owned())
}

/// Sums of the exact outputs that the end-to-end metrics report.
fn exact_sums(specs: &[CampaignSpec], references: &[Reference]) -> (u64, u64, u64, u64) {
    let mut sums = (0, 0, 0, 0);
    for (spec, reference) in specs.iter().zip(references) {
        sums.0 += reference.exact.tests;
        sums.1 += reference.exact.commits;
        sums.2 += reference.exact.coverage;
        sums.3 += reference.exact.tests_to_first_detection(spec);
    }
    sums
}

/// Counts traced campaigns whose exact outputs differ from the references.
fn perturbed(traced: &[Exact], references: &[Reference]) -> u64 {
    traced
        .iter()
        .zip(references)
        .filter(|(exact, reference)| **exact != reference.exact)
        .count() as u64
}

fn end_to_end_metrics(
    metrics: &mut Metrics,
    tests_per_s: f64,
    dut_instr_per_s: f64,
    (coverage, detection): (u64, u64),
    latencies_ms: &[f64],
    campaigns_per_s: f64,
    setup_s: f64,
) -> Result<(), String> {
    metrics.push("tests_per_s", tests_per_s, "1/s");
    metrics.push("dut_instr_per_s", dut_instr_per_s, "1/s");
    metrics.push("coverage_points", coverage as f64, "count");
    metrics.push("tests_to_first_detection", detection as f64, "count");
    metrics.push("campaign_p50_ms", percentile(latencies_ms, 0.5), "ms");
    metrics.push("campaign_p90_ms", percentile(latencies_ms, 0.9), "ms");
    metrics.push("campaigns_per_s", campaigns_per_s, "1/s");
    metrics.push("setup_s", setup_s, "s");
    metrics.push("peak_rss_mb", peak_rss_mb()?, "MB");
    eprintln!("perfbench: {} campaign latency samples", latencies_ms.len());
    Ok(())
}

fn run_in_process(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let specs = args.workload.specs(args.seed, scale, host_threads());
    // The oracle runs first, while this process has no other thread.
    let references = reference_runs(&specs, true, false);
    let (tests, commits, coverage, detection) = exact_sums(&specs, &references);

    let mut setup_s = Vec::new();
    let mut processors = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        processors = setup(&specs);
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let warm_up = run_pass(&specs, &processors, &references);
    outcome.attempted += specs.len() as u64;
    outcome.failed += warm_up.failed;

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < window {
        let pass = run_pass(&specs, &processors, &references);
        outcome.attempted += specs.len() as u64;
        outcome.failed += pass.failed;
        passes.push(pass);
    }
    // Each campaign's wall time is its median over the passes, so a pass
    // disturbed by the host sets neither the throughput nor the tail.
    let walls_s: Vec<f64> = (0..specs.len())
        .map(|cell| {
            let cell_s: Vec<f64> = passes
                .iter()
                .map(|pass| pass.campaign_walls[cell].as_secs_f64())
                .collect();
            median(&cell_s)
        })
        .collect();
    let pass_s: f64 = walls_s.iter().sum();
    eprintln!(
        "perfbench: {} timed passes; each campaign's wall time is its median over them",
        passes.len()
    );
    let tests_per_s = tests as f64 / pass_s;

    if args.trace {
        let mut totals = LayerTotals::default();
        let mut first_counters = None;
        let mut traced_passes = 0;
        let start = Instant::now();
        while traced_passes == 0 || start.elapsed().as_secs_f64() < window {
            let pass = traced_pass(&specs);
            outcome.attempted += specs.len() as u64;
            outcome.failed += perturbed(&pass.exact, &references);
            // The deterministic counters must repeat exactly pass after pass.
            let counters = pass.layers.counters();
            outcome.correct &=
                pass.replay_mismatches == 0 && *first_counters.get_or_insert(counters) == counters;
            totals.merge(&pass.layers);
            traced_passes += 1;
        }

        let server = Server::start(host_threads())?;
        let probe = SERVICE_PROBE_CAMPAIGNS.min(specs.len());
        let specs_json: Vec<String> = specs[..probe].iter().map(CampaignSpec::to_json).collect();
        let served = closed_loop(
            server.addr(),
            &specs_json,
            &references[..probe],
            1,
            0.0,
            probe,
            true,
        );
        server.stop()?;
        outcome.attempted += served.attempted;
        outcome.failed += served.failed;

        let overhead = Overhead {
            untraced_tests_per_s: tests_per_s,
            traced_tests_per_s: totals.tests as f64 / (totals.wall_ns as f64 / 1e9),
        };
        per_layer_metrics(
            &totals,
            traced_passes,
            &served.service,
            overhead,
            &mut outcome.metrics,
        );
    } else {
        let walls_ms: Vec<f64> = walls_s.iter().map(|wall| wall * 1e3).collect();
        end_to_end_metrics(
            &mut outcome.metrics,
            tests_per_s,
            commits as f64 / pass_s,
            (coverage, detection),
            &walls_ms,
            specs.len() as f64 / pass_s,
            median(&setup_s),
        )?;
    }
    outcome.correct &= outcome.failed == 0;
    Ok(outcome)
}

fn run_served(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let specs = args.workload.specs(args.seed, scale, 1);
    let specs_json: Vec<String> = specs.iter().map(CampaignSpec::to_json).collect();
    let references = reference_runs(&specs, false, true);
    let (_, _, coverage, detection) = exact_sums(&specs, &references);
    let clients = host_threads();

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // A served set-up lasts from starting the daemon until it has answered
    // its first campaign: the cold start a client waits through.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let start = Instant::now();
        let started = Server::start(clients)?;
        let first = closed_loop(
            started.addr(),
            &specs_json[..1],
            &references[..1],
            1,
            0.0,
            1,
            false,
        );
        setup_s.push(start.elapsed().as_secs_f64());
        outcome.attempted += first.attempted;
        outcome.failed += first.failed;
        server = Some(started);
    }
    let server = server.expect("at least one set-up ran");
    let addr = server.addr();

    let record = |result: &serve::LoopResult, outcome: &mut Outcome| {
        outcome.attempted += result.attempted;
        outcome.failed += result.failed;
        outcome.correct &= result.served.iter().all(|served| *served);
    };
    let warm_up = closed_loop(addr, &specs_json, &references, clients, 0.0, clients, false);
    outcome.attempted += warm_up.attempted;
    outcome.failed += warm_up.failed;

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = closed_loop(
        addr,
        &specs_json,
        &references,
        clients,
        window,
        specs.len(),
        false,
    );
    record(&untraced, &mut outcome);
    let tests_per_s = untraced.tests as f64 / untraced.wall.as_secs_f64();

    if args.trace {
        let traced = closed_loop(
            addr,
            &specs_json,
            &references,
            clients,
            window,
            specs.len(),
            true,
        );
        record(&traced, &mut outcome);
        server.stop()?;
        // The server builds its own processors and policies, so the
        // in-program layers are measured on a local traced pass over the
        // same specs.
        let pass = traced_pass(&specs);
        outcome.attempted += specs.len() as u64;
        outcome.failed += perturbed(&pass.exact, &references);
        outcome.correct &= pass.replay_mismatches == 0;
        let overhead = Overhead {
            untraced_tests_per_s: tests_per_s,
            traced_tests_per_s: traced.tests as f64 / traced.wall.as_secs_f64(),
        };
        per_layer_metrics(
            &pass.layers,
            1,
            &traced.service,
            overhead,
            &mut outcome.metrics,
        );
    } else {
        server.stop()?;
        end_to_end_metrics(
            &mut outcome.metrics,
            tests_per_s,
            untraced.commits as f64 / untraced.wall.as_secs_f64(),
            (coverage, detection),
            &untraced.latencies_ms,
            untraced.campaigns_per_s(),
            median(&setup_s),
        )?;
    }
    outcome.correct &= outcome.failed == 0;
    Ok(outcome)
}
