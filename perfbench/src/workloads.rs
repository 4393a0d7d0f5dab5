//! The benchmark workloads, each a [`RunSpec`] at a fixed input size.
//! Why each one exists is written down in `perfbench/README.md`.

use bsky_atproto::{Datetime, StoreConfig};
use bsky_study::faults::FaultSpec;
use bsky_study::RunSpec;
use bsky_workload::ScenarioConfig;

/// Where paged stores spill, relative to the checkout root the benchmark
/// runs from. `run.py` removes it after every run.
pub const SPILL_DIR: &str = ".perfbench_tmp/spill";

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 90-day window, scale 2000, one shard, in-memory store, quiet faults.
    ShortWindowWide,
    /// Paper window, scale 8000, on two shards and two threads, paged
    /// store, sharded AppView, federated relays and the chaos fault spec.
    ScaleoutPagedChaos,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "short_window_wide" => Some(Workload::ShortWindowWide),
            "scaleout_paged_chaos" => Some(Workload::ScaleoutPagedChaos),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortWindowWide => "short_window_wide",
            Workload::ScaleoutPagedChaos => "scaleout_paged_chaos",
        }
    }

    fn config(self, seed: u64) -> ScenarioConfig {
        match self {
            Workload::ScaleoutPagedChaos => ScenarioConfig {
                seed,
                scale: 8_000,
                ..ScenarioConfig::default()
            },
            Workload::ShortWindowWide => ScenarioConfig {
                seed,
                scale: 2_000,
                start: Datetime::from_ymd(2024, 2, 1).expect("valid date"),
                end: Datetime::from_ymd(2024, 5, 1).expect("valid date"),
                ..ScenarioConfig::default()
            },
        }
    }

    /// The fault spec of the streaming bench's chaos leg.
    fn faults(self) -> Option<FaultSpec> {
        (self == Workload::ScaleoutPagedChaos).then(|| FaultSpec {
            outage_day: Some(0.5),
            flaky_fetch: 0.3,
            label_storm_day: Some(0.6),
            label_storm_prob: 0.5,
            cursor_gap: 0.05,
            ..FaultSpec::default()
        })
    }

    /// The serial, in-memory run of the same config and faults: the run
    /// whose report hashes `references.json` pins, and which every sample
    /// of this workload must reproduce byte for byte.
    fn reference_spec(self, seed: u64) -> RunSpec {
        let spec = RunSpec::new(self.config(seed)).shards(1).jobs(1);
        match self.faults() {
            Some(faults) => spec.faults(faults).scenario("chaos"),
            None => spec,
        }
    }

    /// The measured run.
    pub fn spec(self, seed: u64) -> RunSpec {
        let spec = self.reference_spec(seed);
        match self {
            Workload::ShortWindowWide => spec,
            Workload::ScaleoutPagedChaos => spec
                .shards(2)
                .jobs(2)
                .store(
                    StoreConfig::paged()
                        .page_size(4 * 1024)
                        .spill_dir(SPILL_DIR),
                )
                .appview_shards(4)
                .relays(2),
        }
    }
}
