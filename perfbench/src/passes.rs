//! The traced run's world and replay passes, driven entirely through the
//! layers' public entry points.
//!
//! The world pass repeats `Collector::stream`'s orchestration without the
//! analyzers: the `World` day API, relay subscriptions, the weekly mirror
//! sync and compaction, and the window-end catch-up sync. It captures every
//! commit's writes, with the record bytes read back from the live
//! repository by CID. The replay pass then feeds those commits, one layer at
//! a time, through the repository, MST, CAR, AppView, feed generator and
//! labeler entry points.

use crate::adapter::{self, RunCounts, WorldCounts};
use crate::sample::Setup;
use crate::trace::Tracer;
use crate::workloads::SPILL_DIR;
use bsky_appview::AppViewShards;
use bsky_atproto::blockstore::{CountingStore, CountingTotals, MemStore};
use bsky_atproto::firehose::{Event, EventBody};
use bsky_atproto::mst::Mst;
use bsky_atproto::nsid::known;
use bsky_atproto::record::PostRecord;
use bsky_atproto::repo::{DeltaScope, Write, WriteAction};
use bsky_atproto::{AtUri, Cid, Datetime, Did, Nsid, Record, Repository, StoreConfig, Tid};
use bsky_feedgen::FeedGenerator;
use bsky_labeler::LabelerService;
use bsky_study::datasets::{COMPACTION_WINDOW_DAYS, DEFAULT_CHUNK_EVENTS};
use bsky_study::faults::{FaultPlan, RetryPolicy, TimeoutClass};
use bsky_study::{IncrementalRepoMirror, RunSpec, StreamSummary};
use bsky_workload::World;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One step of the captured run, in the order the world produced it.
enum Item {
    /// A commit with the writes that produced it and their record CIDs.
    Commit {
        event: Event,
        writes: Vec<Write>,
        cids: Vec<Option<Cid>>,
    },
    /// Any other firehose event.
    Event(Event),
    /// The end of a simulated day.
    DayEnd(Datetime),
    /// A weekly sync followed by compaction at this cutoff.
    Weekly(Tid),
}

/// What the world pass did and captured.
#[derive(Default)]
pub struct WorldPass {
    items: Vec<Item>,
    /// Commit ops whose record could not be read back (repo gone).
    pub capture_misses: u64,
    /// Events the relay delivered to subscriptions.
    pub events_delivered: u64,
    /// In-window events a firehose reader would observe.
    pub firehose_events: u64,
    /// In-window commit events among them.
    pub commits_in_window: u64,
    /// In-window commits lost to injected cursor gaps.
    pub cursor_gap_drops: u64,
    /// Commits captured for replay.
    pub commits_captured: u64,
    /// Active user-days simulated.
    pub user_days: u64,
    /// Bytes the weekly compaction passes reclaimed.
    pub reclaimed_bytes: u64,
    /// The mirror's sync counters.
    pub sync: RunCounts,
    /// Counters read from each shard's world at its end.
    pub world: WorldCounts,
    feeds: Vec<FeedGenerator>,
    labelers: Vec<LabelerService>,
}

impl WorldPass {
    fn take_events(
        &mut self,
        world: &World,
        faults: &FaultPlan,
        firehose_start: Datetime,
        events: Vec<Event>,
    ) {
        self.events_delivered += events.len() as u64;
        for event in events {
            let commit_did = match &event.body {
                EventBody::Commit { did, .. } => Some(did.clone()),
                _ => None,
            };
            if event.time >= firehose_start {
                let day = event.time.timestamp().div_euclid(86_400) as u64;
                let gap = !faults.is_quiet()
                    && commit_did
                        .as_ref()
                        .is_some_and(|did| faults.drops_commit(&did.to_string(), day));
                if gap {
                    self.cursor_gap_drops += 1;
                } else {
                    self.firehose_events += 1;
                    self.commits_in_window += u64::from(commit_did.is_some());
                }
            }
            match commit_did {
                Some(did) => self.capture_commit(world, &did, event),
                None => self.items.push(Item::Event(event)),
            }
        }
    }

    fn capture_commit(&mut self, world: &World, did: &Did, event: Event) {
        let EventBody::Commit { ops, .. } = &event.body else {
            return;
        };
        let repo = world.fleet.pds_for(did).and_then(|pds| pds.repo(did));
        let mut writes = Vec::with_capacity(ops.len());
        let mut cids = Vec::with_capacity(ops.len());
        for op in ops {
            let Ok(collection) = Nsid::parse(op.collection()) else {
                self.capture_misses += 1;
                continue;
            };
            let rkey = op.rkey().to_string();
            if op.action == WriteAction::Delete {
                writes.push(Write::Delete { collection, rkey });
                cids.push(None);
                continue;
            }
            let record = op
                .cid
                .and_then(|cid| repo?.get_block(&cid))
                .and_then(|bytes| Record::from_cbor(&bytes).ok());
            let Some(record) = record else {
                self.capture_misses += 1;
                continue;
            };
            writes.push(match op.action {
                WriteAction::Update => Write::Update {
                    collection,
                    rkey,
                    record,
                },
                _ => Write::Create {
                    collection,
                    rkey,
                    record,
                },
            });
            cids.push(op.cid);
        }
        self.commits_captured += 1;
        self.items.push(Item::Commit {
            event,
            writes,
            cids,
        });
    }
}

/// Drive every shard's world through `Collector::stream`'s day loop, minus
/// the analyzers, one shard after another.
pub fn world_pass(spec: &RunSpec, tracer: &mut Tracer) -> WorldPass {
    let config = spec.config;
    let setup = tracer.span("workload.setup", || Setup::new(spec));
    let faults = setup.faults();
    let firehose_start = config.firehose_collection_start;
    let mut out = WorldPass::default();
    let mut sync_summary = StreamSummary::default();
    for index in 0..spec.shards {
        let mut world = tracer.span("workload.setup", || setup.world(spec, index));
        let mut mirror = IncrementalRepoMirror::with_store_faults(
            spec.store.build(),
            faults.clone(),
            RetryPolicy::for_class(TimeoutClass::RepoFetch),
            RetryPolicy::for_class(TimeoutClass::DeltaFetch),
        );
        let mut cursor = 0;
        let mut last_sync: Option<Datetime> = None;
        while !world.finished() {
            let Some(mut day) = tracer.span("workload.begin_day", || world.begin_day()) else {
                break;
            };
            let today = day.day();
            let day_start_cursor = cursor;
            out.user_days += day.active_users() as u64;
            loop {
                let done = tracer.span("workload.step_chunk", || {
                    world.step_chunk(&mut day, DEFAULT_CHUNK_EVENTS)
                });
                let sub = tracer.span("relay.subscribe", || world.relay.subscribe(cursor));
                cursor = sub.cursor;
                tracer.span("bench.capture", || {
                    out.take_events(&world, &faults, firehose_start, sub.events)
                });
                if done {
                    break;
                }
            }
            tracer.span("workload.end_day", || world.end_day(day));
            let day_abs = today.timestamp().div_euclid(86_400) as u64;
            if !faults.is_quiet() && faults.rewinds_cursor(day_abs) {
                let replay = tracer.span("relay.subscribe", || {
                    world.relay.subscribe(day_start_cursor)
                });
                out.events_delivered += replay.events.len() as u64;
            }
            tracer.span("relay.take_wire_traces", || {
                drop(world.relay.take_wire_traces())
            });
            out.items.push(Item::DayEnd(today));
            let due = last_sync.is_none_or(|prev| today.days_since(prev) >= 7);
            if today >= firehose_start && due {
                tracer.span("core.mirror_sync", || {
                    mirror.sync(&mut world.relay, &mut world.fleet, today, &mut sync_summary)
                });
                let cutoff_day = today.plus_days(-COMPACTION_WINDOW_DAYS);
                let cutoff = Tid::from_micros(cutoff_day.timestamp().max(0) as u64 * 1_000_000, 0);
                let stats = tracer.span("workload.compact_repos", || world.compact_repos(&cutoff));
                out.reclaimed_bytes += adapter::bytes_reclaimed(&stats);
                out.items.push(Item::Weekly(cutoff));
                last_sync = Some(today);
            }
        }
        tracer.span("core.mirror_sync", || {
            mirror.sync(
                &mut world.relay,
                &mut world.fleet,
                config.end,
                &mut sync_summary,
            )
        });
        out.world.absorb(WorldCounts::of(&world));
        if index == 0 {
            out.feeds = world.feedgens.clone();
            out.labelers = world.labelers.all().to_vec();
        }
        tracer.span("workload.teardown", || drop((world, mirror)));
    }
    out.sync = RunCounts::from_stream(&sync_summary);
    out
}

/// What the replay pass counted.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Commits applied.
    pub commits: u64,
    /// Commits with nothing left to apply (every record gone).
    pub empty_commits: u64,
    /// Commits `apply_writes` rejected (mem or paged store).
    pub apply_failures: u64,
    /// Commits whose replayed record CIDs differ from the captured ones.
    pub cid_mismatches: u64,
    /// Record writes applied.
    pub records_written: u64,
    /// MST node blocks `root_and_blocks` returned, over all commits.
    pub mst_nodes: u64,
    /// Blocks newly put into the counted in-memory stores.
    pub store_puts: u64,
    /// Bytes of those blocks.
    pub store_put_bytes: u64,
    /// Block reads from the counted in-memory stores.
    pub store_gets: u64,
    /// CAR bytes exported (full and since-revision).
    pub car_bytes_exported: u64,
    /// Exports that failed to parse back.
    pub car_parse_failures: u64,
    /// Posts fed to the feed generators and labelers.
    pub posts_observed: u64,
}

/// Per-DID replay state: the repository over a counted in-memory store,
/// the same over a paged store, a bare MST and the last exported revision.
struct ReplayRepo {
    mem: Repository,
    paged: Repository,
    mst: Mst,
    exported: Option<Tid>,
}

/// Replay the captured commits through each layer's public entry points.
pub fn replay_pass(spec: &RunSpec, pass: &mut WorldPass, tracer: &mut Tracer) -> ReplayCounts {
    let items = std::mem::take(&mut pass.items);
    let mut feeds = std::mem::take(&mut pass.feeds);
    let mut labelers = std::mem::take(&mut pass.labelers);
    let paged = StoreConfig::paged()
        .page_size(4 * 1024)
        .spill_dir(SPILL_DIR);
    let mut totals: Vec<Arc<CountingTotals>> = Vec::new();
    let mut repos: BTreeMap<String, ReplayRepo> = BTreeMap::new();
    let mut appview = AppViewShards::with_shards(spec.appview_shards, &spec.store, spec.write_back);
    let mut counts = ReplayCounts::default();
    for item in items {
        match item {
            Item::Commit {
                event,
                writes,
                cids,
            } => {
                let EventBody::Commit { did, .. } = &event.body else {
                    continue;
                };
                if writes.is_empty() {
                    counts.empty_commits += 1;
                } else {
                    let repo = repos.entry(did.to_string()).or_insert_with(|| {
                        let (store, handle) = CountingStore::new(Box::new(MemStore::new()));
                        totals.push(handle);
                        ReplayRepo {
                            mem: Repository::with_store(did.clone(), b"perfbench", Box::new(store)),
                            paged: Repository::with_store(did.clone(), b"perfbench", paged.build()),
                            mst: Mst::new(),
                            exported: None,
                        }
                    });
                    replay_commit(repo, &event, &writes, &cids, tracer, &mut counts);
                }
                tracer.span("appview.index_record", || {
                    for write in &writes {
                        if let Write::Create {
                            collection,
                            rkey,
                            record,
                        }
                        | Write::Update {
                            collection,
                            rkey,
                            record,
                        } = write
                        {
                            appview.index_record(did, collection, rkey, record, event.time);
                        }
                    }
                });
                tracer.span("appview.process_event", || appview.process_event(&event));
                let posts = posts_of(did, &writes);
                counts.posts_observed += posts.len() as u64;
                // Only services already online when the post was made see it,
                // as in the live run.
                tracer.span("feedgen.observe_post", || {
                    for (uri, post) in &posts {
                        for feed in feeds.iter_mut() {
                            if feed.record().created_at <= event.time {
                                feed.observe_post(uri, did, post, event.time);
                            }
                        }
                    }
                });
                tracer.span("labeler.observe_post", || {
                    for (uri, post) in &posts {
                        for labeler in labelers.iter_mut() {
                            if labeler.announced_at() <= event.time {
                                labeler.observe_post(uri, post, event.time);
                            }
                        }
                    }
                });
            }
            Item::Event(event) => {
                tracer.span("appview.process_event", || appview.process_event(&event));
                if let EventBody::Tombstone { did } = &event.body {
                    tracer.span("atproto.drop_repo", || repos.remove(&did.to_string()));
                }
            }
            Item::DayEnd(day) => {
                tracer.span("labeler.poll", || {
                    for labeler in labelers.iter_mut() {
                        labeler.poll(day);
                    }
                });
                tracer.span("feedgen.enforce_retention", || {
                    for feed in feeds.iter_mut() {
                        feed.enforce_retention(day);
                    }
                });
                tracer.span("appview.flush", || appview.flush());
            }
            Item::Weekly(cutoff) => {
                for repo in repos.values_mut() {
                    export_and_parse(repo, tracer, &mut counts);
                }
                tracer.span("atproto.compact_before", || {
                    for repo in repos.values_mut() {
                        repo.mem.compact_before(&cutoff);
                        repo.paged.compact_before(&cutoff);
                    }
                });
            }
        }
    }
    tracer.span("atproto.drop_repo", || drop(repos));
    for handle in &totals {
        counts.store_puts += handle.puts();
        counts.store_put_bytes += handle.bytes_put();
        counts.store_gets += handle.gets();
    }
    counts
}

fn replay_commit(
    repo: &mut ReplayRepo,
    event: &Event,
    writes: &[Write],
    cids: &[Option<Cid>],
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    let applied = tracer.span("atproto.apply_writes", || {
        repo.mem.apply_writes(writes, event.time)
    });
    let paged = tracer.span("store.paged_apply_writes", || {
        repo.paged.apply_writes(writes, event.time)
    });
    match (applied, paged) {
        (Ok(result), Ok(_)) => {
            counts.commits += 1;
            counts.records_written += writes.len() as u64;
            let mut replayed: Vec<Option<Cid>> = result.ops.iter().map(|op| op.cid).collect();
            let mut captured = cids.to_vec();
            replayed.sort_unstable();
            captured.sort_unstable();
            counts.cid_mismatches += u64::from(replayed != captured);
        }
        _ => counts.apply_failures += 1,
    }
    tracer.span("atproto.mst_insert", || {
        for (write, cid) in writes.iter().zip(cids) {
            let (Write::Create {
                collection, rkey, ..
            }
            | Write::Update {
                collection, rkey, ..
            }
            | Write::Delete { collection, rkey }) = write;
            let key = format!("{collection}/{rkey}");
            match cid {
                Some(cid) => {
                    let _ = repo.mst.insert(&key, *cid);
                }
                None => {
                    repo.mst.remove(&key);
                }
            }
        }
    });
    let (_, nodes) = tracer.span("atproto.mst_root_and_blocks", || repo.mst.root_and_blocks());
    counts.mst_nodes += nodes.len() as u64;
}

/// Export what changed since the last weekly sync (a full CAR the first
/// time, a records-only delta after) and parse it back, as the study's
/// mirror fetches it.
fn export_and_parse(repo: &mut ReplayRepo, tracer: &mut Tracer, counts: &mut ReplayCounts) {
    let Some(rev) = repo.mem.rev() else {
        return;
    };
    if repo.exported == Some(rev) {
        return;
    }
    let delta = repo.exported.and_then(|since| {
        tracer
            .span("atproto.export_car_since", || {
                repo.mem.export_car_since(&since, DeltaScope::Records)
            })
            .ok()
    });
    let car = match delta {
        Some(car) => car,
        None => tracer.span("atproto.export_car", || repo.mem.export_car()),
    };
    counts.car_bytes_exported += car.len() as u64;
    let parsed = tracer.span("atproto.parse_car", || Repository::parse_car(&car));
    counts.car_parse_failures += u64::from(parsed.is_err());
    repo.exported = Some(rev);
}

fn posts_of<'a>(did: &Did, writes: &'a [Write]) -> Vec<(AtUri, &'a PostRecord)> {
    writes
        .iter()
        .filter_map(|write| match write {
            Write::Create {
                collection,
                rkey,
                record: Record::Post(post),
            } if collection.as_str() == known::POST => Some((
                AtUri::record(did.clone(), collection.clone(), rkey.as_str()),
                post,
            )),
            _ => None,
        })
        .collect()
}
