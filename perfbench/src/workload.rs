//! The three workloads and the campaign specs each one runs.
//!
//! Every spec is a pure function of the workload, the `--seed` argument, the
//! scale and the shard count; the programs under test receive nothing else.

use fuzzer::{CoverageSignal, ShardPlan};
use mabfuzz::{derive_stream_seed, BugSpec, CampaignSpec, ProcessorSpec};
use mabfuzz_bench::{campaign_config, campaign_spec, FuzzerKind};
use proc_sim::ProcessorKind;

/// The cores of the paper's Fig. 3, in the order the cells are built.
const CORES: [ProcessorKind; 3] = [
    ProcessorKind::Rocket,
    ProcessorKind::Cva6,
    ProcessorKind::Boom,
];

/// Batch size of the `edge-sharded` rounds.
const EDGE_BATCH: usize = 32;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 cells on one thread: legacy serial plan, point signal, no
    /// observers.
    Fig3Serial,
    /// The three bandit policies on the three cores under the edge signal,
    /// sharded across every core of the host.
    EdgeSharded,
    /// Short campaigns served over loopback to closed-loop clients.
    ServeClosedLoop,
}

/// The campaign budget of a workload's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Tests per campaign.
    pub tests: u64,
    /// Repetitions of the cell set, each with its own RNG seed.
    pub repetitions: u64,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig3Serial,
        Workload::EdgeSharded,
        Workload::ServeClosedLoop,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Serial => "fig3-serial",
            Workload::EdgeSharded => "edge-sharded",
            Workload::ServeClosedLoop => "serve-closed-loop",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(text: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|workload| workload.name() == text)
    }

    /// The scale the benchmark measures at. The in-process workloads use the
    /// Fig. 3 campaign length; the served campaigns are short so that the
    /// service path, not simulation, dominates their latency.
    pub fn full_scale(self) -> Scale {
        match self {
            Workload::Fig3Serial => Scale {
                tests: 2000,
                repetitions: 3,
            },
            Workload::EdgeSharded => Scale {
                tests: 2000,
                repetitions: 4,
            },
            Workload::ServeClosedLoop => Scale {
                tests: 250,
                repetitions: 4,
            },
        }
    }

    /// The workload's campaign specs for `seed`. `shards` is only used by
    /// `edge-sharded`.
    pub fn specs(self, seed: u64, scale: Scale, shards: usize) -> Vec<CampaignSpec> {
        let mut specs = Vec::new();
        // Every campaign gets its own RNG seed, so a run averages over as
        // many independently generated seed programs as it has campaigns.
        let rng_seed =
            |cell: usize, repetition: u64| derive_stream_seed(seed, cell as u64, repetition);
        for repetition in 0..scale.repetitions {
            let config = campaign_config(scale.tests);
            match self {
                Workload::Fig3Serial => {
                    for (cell, (core, fuzzer)) in cells(&FuzzerKind::ALL).enumerate() {
                        let seed = rng_seed(cell, repetition);
                        let spec =
                            campaign_spec(fuzzer, config.clone(), seed, &ShardPlan::serial());
                        specs.push(on_core(spec, core));
                    }
                }
                Workload::EdgeSharded => {
                    let plan = ShardPlan::sharded(shards).with_batch_size(EDGE_BATCH);
                    for (cell, (core, fuzzer)) in cells(&FuzzerKind::MABFUZZ).enumerate() {
                        let mut spec = campaign_spec(
                            fuzzer,
                            config.clone(),
                            rng_seed(cell, repetition),
                            &plan,
                        );
                        spec.coverage_signal = CoverageSignal::Edge;
                        specs.push(on_core(spec, core));
                    }
                }
                Workload::ServeClosedLoop => {
                    // Consecutive submissions change both policy and core:
                    // 4 policies and 3 cores are coprime, so 12 steps visit
                    // every pair once.
                    for step in 0..FuzzerKind::ALL.len() * CORES.len() {
                        let fuzzer = FuzzerKind::ALL[step % FuzzerKind::ALL.len()];
                        let seed = rng_seed(step, repetition);
                        let spec =
                            campaign_spec(fuzzer, config.clone(), seed, &ShardPlan::serial());
                        specs.push(on_core(spec, CORES[step % CORES.len()]));
                    }
                }
            }
        }
        specs
    }
}

/// Every (core, fuzzer) pair, cores outermost.
fn cells(fuzzers: &[FuzzerKind]) -> impl Iterator<Item = (ProcessorKind, FuzzerKind)> + '_ {
    CORES
        .into_iter()
        .flat_map(move |core| fuzzers.iter().map(move |&fuzzer| (core, fuzzer)))
}

fn on_core(mut spec: CampaignSpec, core: ProcessorKind) -> CampaignSpec {
    spec.processor = Some(ProcessorSpec {
        core,
        bugs: BugSpec::Native,
    });
    spec
}

/// Worker threads for `edge-sharded` shards, server workers and serve
/// clients: the host's available parallelism.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
