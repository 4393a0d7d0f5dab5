//! One untraced study run: the set-up the run performs, the run itself, and
//! the rendered report it is checked by.

use crate::adapter;
use bsky_study::faults::FaultPlan;
use bsky_study::report::StudyReport;
use bsky_study::{RunSpec, ShardedSummary, StudyAnalyzers};
use bsky_workload::{PopulationPlan, ShardSpec, World, WorldSpec};
use std::sync::Arc;
use std::time::Instant;

/// The population plan and fault plan a run shares across its shards.
pub struct Setup {
    plan: Arc<PopulationPlan>,
    faults: Arc<FaultPlan>,
}

impl Setup {
    /// Plan the population and the faults of `spec`'s day window, as
    /// `collect_sharded` does before its first day.
    pub fn new(spec: &RunSpec) -> Setup {
        let config = spec.config;
        let total_days = config.end.days_since(config.start).max(0) as usize;
        Setup {
            faults: Arc::new(FaultPlan::build(
                config.seed,
                total_days,
                spec.faults.clone(),
            )),
            plan: Arc::new(PopulationPlan::build(&config)),
        }
    }

    /// The shared fault plan.
    pub fn faults(&self) -> Arc<FaultPlan> {
        self.faults.clone()
    }

    /// Build shard `index`'s world exactly as a shard worker does.
    pub fn world(&self, spec: &RunSpec, index: usize) -> World {
        World::from_spec(
            WorldSpec::new(spec.config)
                .plan(self.plan.clone())
                .shard(ShardSpec {
                    index,
                    count: spec.shards,
                })
                .store(spec.store.clone())
                .appview_shards(spec.appview_shards)
                .write_back(spec.write_back)
                .relays(spec.relays)
                .faults(self.faults.clone()),
        )
    }
}

/// Seconds one full set-up takes: both plans plus every shard's world.
pub fn time_setup(spec: &RunSpec) -> f64 {
    let start = Instant::now();
    let setup = Setup::new(spec);
    let worlds: Vec<World> = (0..spec.shards).map(|i| setup.world(spec, i)).collect();
    let seconds = start.elapsed().as_secs_f64();
    drop(worlds);
    seconds
}

/// Render the report of a finished collection the way `StudyReport::run`
/// does. Only the traced run needs this: its analyzers sit inside a
/// timing sink, so it cannot call `StudyReport::run`.
pub fn render(
    spec: &RunSpec,
    analyzers: StudyAnalyzers,
    world: &World,
    summary: &ShardedSummary,
) -> String {
    let mut report = StudyReport::from_analyzers(spec.config, analyzers, world);
    report.faults = adapter::fault_impact(spec, summary);
    report.render()
}

/// FNV-1a over the rendered report: the hash every sample is checked by.
pub fn report_hash(report: &str) -> u64 {
    report.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// An untraced run's outcome.
pub struct Outcome {
    /// Hash of the rendered report.
    pub report_hash: u64,
    /// The program's own counters for the run.
    pub counts: adapter::RunCounts,
    /// Seconds from the first simulated day to the hashed report.
    pub wall_s: f64,
}

/// Run `spec` untraced and hash its report.
pub fn run(spec: &RunSpec) -> Outcome {
    let start = Instant::now();
    let (report, summary) = StudyReport::run(spec);
    let report_hash = report_hash(&report.render());
    Outcome {
        report_hash,
        counts: adapter::RunCounts::from_run(&summary),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// User + system CPU seconds this process has used, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks of
    // 1/100 s on Linux.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .unwrap_or(f64::NAN)
}
