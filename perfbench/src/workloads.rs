//! The benchmark's workloads: each is a list of scenario spec JSON texts
//! generated from the benchmark seed, which is written into every spec.

use std::fmt;

/// Seed of the paper's figure experiments; the pinned CSV digests below are
/// for this seed.
pub const DEFAULT_SEED: u64 = 2014;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 7 grid as `figure7 --quick` runs it: five schemes × five
    /// loads, N = 32, quasi-diagonal Bernoulli traffic.
    PaperSweep,
    /// One long Sprinklers run at N = 64, quasi-diagonal load 0.9.
    SprinklersDense,
    /// A fat-tree2 fabric of `oq` nodes with stripe routing and a fault
    /// schedule of scripted and random failures.
    FabricFaults,
}

impl Workload {
    /// Every workload, in the order `--help` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::SprinklersDense,
        Workload::FabricFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::SprinklersDense => "sprinklers_dense",
            Workload::FabricFaults => "fabric_faults",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `fnv1a_128` of the CSV header and this workload's rows, one per
    /// line, at [`DEFAULT_SEED`].  The CSV columns are frozen, so any change
    /// to a simulated statistic changes this digest.
    pub fn pinned_csv_digest(self) -> u128 {
        match self {
            Workload::PaperSweep => 0x86e1_99ca_b08c_3345_6b94_3831_1fe6_0aef,
            Workload::SprinklersDense => 0xe798_195d_2963_89e6_8567_c20c_563f_e8a8,
            Workload::FabricFaults => 0x06f3_0cfb_8af2_d9d2_078a_bbb4_ab11_a734,
        }
    }

    /// The workload's scenarios, in run order, with `seed` written into
    /// every spec.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::PaperSweep => {
                let mut out = Vec::new();
                for scheme in PAPER_SCHEMES {
                    for load in PAPER_LOADS {
                        out.push(Scenario {
                            name: format!("{scheme}@{load}"),
                            scheme,
                            text: switch_spec(scheme, 32, load, 30_000, 5_000, 30_000, seed),
                        });
                    }
                }
                out
            }
            Workload::SprinklersDense => vec![Scenario {
                name: "sprinklers@0.9".to_string(),
                scheme: "sprinklers",
                text: switch_spec("sprinklers", 64, 0.9, 60_000, 6_000, 60_000, seed),
            }],
            Workload::FabricFaults => vec![Scenario {
                name: "fat-tree2-4x4x4-faults".to_string(),
                scheme: "oq",
                text: fabric_faults_spec(seed),
            }],
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The five schemes compared in the paper's Figures 6 and 7.  This and the
/// grid below are frozen here rather than imported from `sprinklers-bench`,
/// so the workload cannot change under the benchmark.
pub const PAPER_SCHEMES: [&str; 5] = ["baseline-lb", "ufs", "foff", "padded-frames", "sprinklers"];

/// The load grid of `figure7 --quick`.
const PAPER_LOADS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// One scenario of a workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short name for error messages.
    pub name: String,
    /// The scheme run at every switch (node) of the scenario.
    pub scheme: &'static str,
    /// The spec as JSON text, the input `ScenarioSpec::from_json` parses.
    pub text: String,
}

fn switch_spec(
    scheme: &str,
    n: usize,
    load: f64,
    slots: u64,
    warmup: u64,
    drain: u64,
    seed: u64,
) -> String {
    format!(
        concat!(
            r#"{{"scheme":"{}","n":{},"sizing":{{"mode":"matrix"}},"#,
            r#""traffic":{{"pattern":"diagonal","load":{}}},"#,
            r#""run":{{"slots":{},"warmup_slots":{},"drain_slots":{}}},"#,
            r#""seed":{},"batch":64,"threads":1}}"#
        ),
        scheme, n, load, slots, warmup, drain, seed
    )
}

/// `specs/smoke/fabric_faults.json` scaled up: 4 edges × 4 cores × 4 hosts
/// per edge and a 100k-slot run, with the smoke schedule stretched five-fold
/// to the longer run.  The scripted node is core 1, as in the smoke spec
/// (edges are nodes `0..edges`, cores follow).
fn fabric_faults_spec(seed: u64) -> String {
    format!(
        concat!(
            r#"{{"scheme":"oq","n":16,"sizing":{{"mode":"matrix"}},"#,
            r#""topology":{{"kind":"fat-tree2","edges":4,"cores":4,"hosts_per_edge":4,"#,
            r#""routing":"stripe","link":{{"latency":1,"gap":1}}}},"#,
            r#""traffic":{{"pattern":"uniform","load":0.6}},"#,
            r#""run":{{"slots":100000,"warmup_slots":10000,"drain_slots":100000}},"#,
            r#""seed":{seed},"batch":64,"threads":1,"#,
            r#""faults":{{"events":["#,
            r#"{{"slot":10000,"kind":"link-down","link":0}},"#,
            r#"{{"slot":30000,"kind":"link-up","link":0}},"#,
            r#"{{"slot":45000,"kind":"node-down","node":5}},"#,
            r#"{{"slot":60000,"kind":"node-up","node":5}}],"#,
            r#""random":{{"mtbf":25000,"mttr":1500,"seed":{seed}}}}}}}"#
        ),
        seed = seed
    )
}
