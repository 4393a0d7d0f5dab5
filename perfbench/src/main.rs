//! The measuring binary behind `perfbench/run.py`. Each invocation does one
//! thing in a fresh process and prints one JSON object on its last line:
//!
//! ```text
//! perfbench sample --workload W --seed N
//! perfbench setup  --workload W --seed N
//! perfbench trace  --workload W --seed N [--expect HASH]
//! ```
//!
//! `sample` is one untraced timed run (its process's peak RSS is the
//! sample's); `setup` times the run's set-up alone; `trace` runs the three
//! traced passes and reports the per-layer metrics.

mod adapter;
mod json;
mod passes;
mod sample;
mod trace;
mod workloads;

use json::Object;
use std::process::ExitCode;
use trace::{TimingSink, Tracer};
use workloads::Workload;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    expect: Option<String>,
}

/// Set-up takes about a millisecond, so `setup` times it this many times
/// and reports the fastest, which filters out interference shorter than
/// the process.
const SETUP_REPS: usize = 21;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().ok_or("missing command")?;
    let mut workload = None;
    let mut seed = None;
    let mut expect = None;
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--expect" => expect = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        expect,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let out = match args.command.as_str() {
        "sample" => sample(&args),
        "setup" => setup(&args),
        "trace" => traced(&args),
        other => {
            eprintln!("perfbench: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", out.encode());
    ExitCode::SUCCESS
}

fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

fn setup(args: &Args) -> Object {
    let spec = args.workload.spec(args.seed);
    let fastest = (0..SETUP_REPS)
        .map(|_| sample::time_setup(&spec))
        .fold(f64::INFINITY, f64::min);
    Object::new().num("setup_s", fastest)
}

fn sample(args: &Args) -> Object {
    let spec = args.workload.spec(args.seed);
    let cpu_before = sample::cpu_seconds();
    let outcome = sample::run(&spec);
    let cpu_s = sample::cpu_seconds() - cpu_before;
    let counts = outcome.counts;
    Object::new()
        .text("report_hash", &hex(outcome.report_hash))
        .num("wall_s", outcome.wall_s)
        .num("cpu_s", cpu_s)
        .num("peak_rss_mb", sample::peak_rss_mb())
        .int("fetch_attempts", counts.fetch_attempts())
        .int("fetch_giveups", counts.fetch_giveups)
        .int("firehose_events", counts.firehose_events)
}

/// The traced run: an untraced run for the overhead baseline and the
/// self-check, then the analyzer, world and replay passes.
fn traced(args: &Args) -> Object {
    let spec = args.workload.spec(args.seed);
    let untraced = sample::run(&spec);
    let mut tracer = Tracer::new(args.seed);
    let mut problems: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };

    // Analyzer pass: the same run with every `observe` timed.
    let analyzer_pass = tracer.begin("pass.analyzers");
    let collect = tracer.begin("core.collect_sharded");
    let (mut sink, world, summary) = bsky_study::collect_sharded(&spec, TimingSink::default());
    tracer.end(collect);
    for shard in &sink.shards {
        for &(kind, start, end) in &shard.calls {
            tracer.record(kind.span_name(), start, end, collect);
        }
    }
    for &(start, end) in &sink.merges {
        tracer.record("core.shard_merge", start, end, collect);
    }
    let finish = tracer.begin("core.report_finish");
    let analyzers = std::mem::take(&mut sink.analyzers);
    let report = sample::render(&spec, analyzers, &world, &summary);
    let traced_hash = sample::report_hash(&report);
    tracer.end(finish);
    tracer.end(analyzer_pass);
    drop(world);
    let traced_counts = adapter::RunCounts::from_run(&summary);

    // World pass, then the replay of what it captured.
    let world_pass = tracer.begin("pass.world");
    let mut world = passes::world_pass(&spec, &mut tracer);
    tracer.end(world_pass);
    let replay_pass = tracer.begin("pass.replay");
    let replay = passes::replay_pass(&spec, &mut world, &mut tracer);
    tracer.end(replay_pass);

    // Self-check: every pass did the untraced run's work.
    let expected = untraced.counts;
    if let Some(expect) = &args.expect {
        check(
            hex(traced_hash) == *expect,
            format!("traced report {} != reference {expect}", hex(traced_hash)),
        );
    }
    check(
        traced_hash == untraced.report_hash,
        "traced and untraced reports differ".into(),
    );
    check(
        traced_counts == expected,
        format!("traced summary {traced_counts:?} != untraced {expected:?}"),
    );
    let shard_commits: u64 = sink.shards.iter().map(|s| s.commits).sum();
    for (what, got, want) in [
        (
            "firehose events",
            world.firehose_events,
            expected.firehose_events,
        ),
        (
            "cursor-gap drops",
            world.cursor_gap_drops,
            expected.cursor_gap_drops,
        ),
        ("in-window commits", world.commits_in_window, shard_commits),
        (
            "full fetches",
            world.sync.full_fetches,
            expected.full_fetches,
        ),
        (
            "delta fetches",
            world.sync.delta_fetches,
            expected.delta_fetches,
        ),
        (
            "fetched bytes",
            world.sync.bytes_fetched,
            expected.bytes_fetched,
        ),
        (
            "fetch give-ups",
            world.sync.fetch_giveups,
            expected.fetch_giveups,
        ),
        (
            "reclaimed bytes",
            world.reclaimed_bytes,
            expected.reclaimed_bytes,
        ),
        (
            "replayed commits",
            replay.commits,
            world.commits_captured - replay.empty_commits,
        ),
        ("replay apply failures", replay.apply_failures, 0),
        ("replay record CID mismatches", replay.cid_mismatches, 0),
        ("CAR parse failures", replay.car_parse_failures, 0),
    ] {
        check(got == want, format!("world pass {what}: {got} != {want}"));
    }
    // The analyzer pass is covered by construction (`collect_sharded` and
    // the report finish are all it does), so only the two passes the
    // benchmark orchestrates itself are checked.
    let world_coverage = tracer.coverage(world_pass);
    let replay_coverage = tracer.coverage(replay_pass);
    check(
        world_coverage >= 0.9,
        format!("world-pass spans cover {world_coverage:.3} < 0.9"),
    );
    check(
        replay_coverage >= 0.9,
        format!("replay-pass spans cover {replay_coverage:.3} < 0.9"),
    );

    let spans_path = format!(
        ".perfbench_tmp/trace/{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    );
    if let Err(err) = tracer.write(&spans_path) {
        problems.push(format!("cannot write {spans_path}: {err}"));
    }

    let own = tracer.self_times();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let analyzer_kinds = [
        "firehose",
        "repo",
        "labels",
        "wire_trace",
        "feed_generator",
        "other",
    ];
    let analyzers_s: f64 = analyzer_kinds
        .iter()
        .map(|kind| s(&format!("core.analyzers.{kind}")))
        .sum();
    let busy: Vec<f64> = sink.shards.iter().map(|shard| shard.busy_s()).collect();
    let skew = busy.iter().copied().fold(0.0, f64::max)
        / busy.iter().copied().fold(f64::INFINITY, f64::min);
    let traced_wall = tracer.duration_s(analyzer_pass);
    let fetches = world.sync.full_fetches + world.sync.delta_fetches;

    let mut metrics: Vec<(String, f64, &str)> = vec![
        ("workload.begin_day_s".into(), s("workload.begin_day"), "s"),
        (
            "workload.step_chunk_s".into(),
            s("workload.step_chunk"),
            "s",
        ),
        ("workload.end_day_s".into(), s("workload.end_day"), "s"),
        (
            "workload.compact_repos_s".into(),
            s("workload.compact_repos"),
            "s",
        ),
        ("workload.user_days".into(), world.user_days as f64, "count"),
        ("relay.subscribe_s".into(), s("relay.subscribe"), "s"),
        (
            "relay.events_delivered".into(),
            world.events_delivered as f64,
            "count",
        ),
        (
            "relay.frames_forwarded".into(),
            expected.frames_forwarded as f64,
            "count",
        ),
        (
            "relay.duplicates_dropped".into(),
            expected.duplicates_dropped as f64,
            "count",
        ),
        ("core.mirror_sync_s".into(), s("core.mirror_sync"), "s"),
        (
            "core.sync.full_fetches".into(),
            world.sync.full_fetches as f64,
            "count",
        ),
        (
            "core.sync.delta_fetches".into(),
            world.sync.delta_fetches as f64,
            "count",
        ),
        (
            "core.sync.delta_share".into(),
            ratio(world.sync.delta_fetches, fetches),
            "ratio",
        ),
        (
            "core.sync.bytes_fetched".into(),
            world.sync.bytes_fetched as f64,
            "bytes",
        ),
        (
            "core.sync.retries".into(),
            world.sync.retries as f64,
            "count",
        ),
        (
            "core.sync.giveups".into(),
            world.sync.fetch_giveups as f64,
            "count",
        ),
        (
            "core.final_snapshots_s".into(),
            sink.shards
                .iter()
                .map(|shard| shard.final_snapshots_s())
                .sum(),
            "s",
        ),
        ("core.analyzers_s".into(), analyzers_s, "s"),
    ];
    for kind in analyzer_kinds {
        metrics.push((
            format!("core.analyzers.{kind}_s"),
            s(&format!("core.analyzers.{kind}")),
            "s",
        ));
    }
    let observations: usize = sink.shards.iter().map(|shard| shard.calls.len()).sum();
    metrics.extend([
        ("core.observations".into(), observations as f64, "count"),
        ("core.shard_skew_ratio".into(), skew, "ratio"),
        ("core.shard_merge_s".into(), s("core.shard_merge"), "s"),
        ("core.report_finish_s".into(), s("core.report_finish"), "s"),
        (
            "atproto.apply_writes_s".into(),
            s("atproto.apply_writes"),
            "s",
        ),
        ("atproto.commits".into(), replay.commits as f64, "count"),
        (
            "atproto.records_written".into(),
            replay.records_written as f64,
            "count",
        ),
        (
            "atproto.mst_root_and_blocks_s".into(),
            s("atproto.mst_root_and_blocks"),
            "s",
        ),
        (
            "atproto.mst_nodes_per_commit".into(),
            ratio(replay.mst_nodes, replay.commits),
            "count",
        ),
        (
            "atproto.store_puts".into(),
            replay.store_puts as f64,
            "count",
        ),
        (
            "atproto.store_put_bytes".into(),
            replay.store_put_bytes as f64,
            "bytes",
        ),
        (
            "atproto.store_gets".into(),
            replay.store_gets as f64,
            "count",
        ),
        ("atproto.export_car_s".into(), s("atproto.export_car"), "s"),
        (
            "atproto.export_car_since_s".into(),
            s("atproto.export_car_since"),
            "s",
        ),
        (
            "atproto.car_bytes_exported".into(),
            replay.car_bytes_exported as f64,
            "bytes",
        ),
        ("atproto.parse_car_s".into(), s("atproto.parse_car"), "s"),
        (
            "store.paged_apply_writes_s".into(),
            s("store.paged_apply_writes"),
            "s",
        ),
        (
            "store.resident_bytes".into(),
            expected.resident_bytes as f64,
            "bytes",
        ),
        (
            "store.spilled_bytes".into(),
            expected.spilled_bytes as f64,
            "bytes",
        ),
        (
            "store.reclaimed_bytes".into(),
            expected.reclaimed_bytes as f64,
            "bytes",
        ),
        (
            "store.corrupt_reads".into(),
            expected.corrupt_reads as f64,
            "count",
        ),
        (
            "pds.sync_requests".into(),
            world.world.pds_sync_requests as f64,
            "count",
        ),
        (
            "appview.index_record_s".into(),
            s("appview.index_record"),
            "s",
        ),
        (
            "appview.process_event_s".into(),
            s("appview.process_event"),
            "s",
        ),
        (
            "appview.resident_bytes".into(),
            world.world.appview_resident_bytes as f64,
            "bytes",
        ),
        (
            "appview.spilled_bytes".into(),
            world.world.appview_spilled_bytes as f64,
            "bytes",
        ),
        (
            "appview.writeback_hit_rate".into(),
            ratio(
                expected.writeback_hits,
                expected.writeback_hits + expected.writeback_misses,
            ),
            "ratio",
        ),
        (
            "appview.counter_coalesced_writes".into(),
            expected.counter_coalesced_writes as f64,
            "count",
        ),
        (
            "feedgen.observe_post_s".into(),
            s("feedgen.observe_post"),
            "s",
        ),
        (
            "feedgen.posts_observed".into(),
            replay.posts_observed as f64,
            "count",
        ),
        (
            "labeler.observe_post_s".into(),
            s("labeler.observe_post"),
            "s",
        ),
        ("trace.wall_s".into(), traced_wall, "s"),
        ("trace.untraced_wall_s".into(), untraced.wall_s, "s"),
        (
            "trace.overhead_s".into(),
            traced_wall - untraced.wall_s,
            "s",
        ),
        ("trace.world_coverage".into(), world_coverage, "ratio"),
        ("trace.replay_coverage".into(), replay_coverage, "ratio"),
        (
            "trace.capture_misses".into(),
            world.capture_misses as f64,
            "count",
        ),
    ]);
    let mut encoded = Object::new();
    for (name, value, unit) in metrics {
        encoded = encoded.object(&name, Object::new().num("value", value).text("unit", unit));
    }
    Object::new()
        .text("report_hash", &hex(traced_hash))
        .text("problems", &problems.join("; "))
        .object("metrics", encoded)
}
