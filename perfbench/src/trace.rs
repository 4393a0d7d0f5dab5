//! Spans recorded from outside the program: name, start, end, parent and a
//! run id, kept in memory and written out when the traced run ends. A span's
//! self time is its duration minus the part of it its children cover.

use bsky_atproto::firehose::EventBody;
use bsky_study::pipeline::{Observation, ObservationSink, StudyCtx};
use bsky_study::{ShardSink, StudyAnalyzers};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first call; comparable across threads.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer boundary the span covers, e.g. `atproto.apply_writes`.
    name: &'static str,
    /// Start, in [`now_ns`] time.
    start: u64,
    /// End, in [`now_ns`] time.
    end: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty log for run `run`.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Add a span timed elsewhere (on a shard worker thread).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, parent: usize) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
        });
    }

    /// Seconds span `id` lasted.
    pub fn duration_s(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        span.end.saturating_sub(span.start) as f64 / 1e9
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        children
    }

    /// Nanoseconds of span `id` covered by the union of `kids`.
    fn covered_ns(&self, id: usize, kids: &[usize]) -> u64 {
        let span = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| {
                let kid = &self.spans[k];
                (kid.start.max(span.start), kid.end.min(span.end))
            })
            .filter(|(start, end)| start < end)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Share of span `id` its direct children cover.
    pub fn coverage(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let total = span.end.saturating_sub(span.start);
        if total == 0 {
            return 0.0;
        }
        self.covered_ns(id, &self.children()[id]) as f64 / total as f64
    }

    /// Self seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let children = self.children();
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let own = span
                .end
                .saturating_sub(span.start)
                .saturating_sub(self.covered_ns(id, &children[id]));
            *totals.entry(span.name).or_default() += own as f64 / 1e9;
        }
        totals
    }

    /// Write every span as a tab-separated line: run, id, parent, name,
    /// start and end in nanoseconds.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                self.run, span.name, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// What an observation is, for per-kind analyzer time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A firehose event.
    Firehose,
    /// A repository snapshot.
    Repo,
    /// Labeler metadata or a label batch.
    Labels,
    /// A wire-trace record.
    WireTrace,
    /// A feed generator snapshot.
    FeedGenerator,
    /// A DID document (the first one opens the window-end snapshots).
    DidDocument,
    /// The end-of-window marker.
    WindowEnd,
    /// Anything else: window start, day boundaries, user identifiers.
    Other,
}

impl ObsKind {
    fn of(obs: &Observation<'_>) -> ObsKind {
        match obs {
            Observation::Firehose(_) => ObsKind::Firehose,
            Observation::Repo(_) => ObsKind::Repo,
            Observation::Labeler(_) | Observation::Labels { .. } => ObsKind::Labels,
            Observation::WireTrace(_) => ObsKind::WireTrace,
            Observation::FeedGenerator(_) => ObsKind::FeedGenerator,
            Observation::DidDocument { .. } => ObsKind::DidDocument,
            Observation::WindowEnd { .. } => ObsKind::WindowEnd,
            _ => ObsKind::Other,
        }
    }

    /// The span name analyzer time of this kind is recorded under.
    pub fn span_name(self) -> &'static str {
        match self {
            ObsKind::Firehose => "core.analyzers.firehose",
            ObsKind::Repo => "core.analyzers.repo",
            ObsKind::Labels => "core.analyzers.labels",
            ObsKind::WireTrace => "core.analyzers.wire_trace",
            ObsKind::FeedGenerator => "core.analyzers.feed_generator",
            ObsKind::DidDocument | ObsKind::WindowEnd | ObsKind::Other => "core.analyzers.other",
        }
    }
}

/// The `observe` calls one shard's sink received, in order.
#[derive(Debug, Default)]
pub struct ShardObserves {
    /// Kind, start and end of each call.
    pub calls: Vec<(ObsKind, u64, u64)>,
    /// Firehose commit events observed.
    pub commits: u64,
}

impl ShardObserves {
    /// Seconds from the shard's first observation to its last.
    pub fn busy_s(&self) -> f64 {
        match (self.calls.first(), self.calls.last()) {
            (Some(first), Some(last)) => last.2.saturating_sub(first.1) as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Producer seconds of the window-end snapshot phase: from the end of
    /// the last observation before the first window-end DID document to
    /// the start of `WindowEnd`, less the analyzer time inside it.
    pub fn final_snapshots_s(&self) -> f64 {
        let Some(open) = self.calls.iter().position(|c| c.0 == ObsKind::DidDocument) else {
            return 0.0;
        };
        let Some(close) = self.calls.iter().rposition(|c| c.0 == ObsKind::WindowEnd) else {
            return 0.0;
        };
        let start = if open == 0 {
            self.calls[0].1
        } else {
            self.calls[open - 1].2
        };
        let inside: u64 = self.calls[open..close]
            .iter()
            .map(|c| c.2.saturating_sub(c.1))
            .sum();
        self.calls[close]
            .1
            .saturating_sub(start)
            .saturating_sub(inside) as f64
            / 1e9
    }
}

/// A [`ShardSink`] that times every `observe` of the study analyzers it
/// wraps. Each shard folds into a fresh instance; absorbing keeps the
/// per-shard call logs apart and times the merge itself.
#[derive(Debug, Default)]
pub struct TimingSink {
    /// The wrapped analyzers.
    pub analyzers: StudyAnalyzers,
    current: ShardObserves,
    /// One call log per shard, in shard order.
    pub shards: Vec<ShardObserves>,
    /// Start and end of each analyzer merge.
    pub merges: Vec<(u64, u64)>,
}

impl ObservationSink for TimingSink {
    fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
        let kind = ObsKind::of(obs);
        if let Observation::Firehose(event) = obs {
            if matches!(event.body, EventBody::Commit { .. }) {
                self.current.commits += 1;
            }
        }
        let start = now_ns();
        self.analyzers.observe(obs, ctx);
        self.current.calls.push((kind, start, now_ns()));
    }
}

impl ShardSink for TimingSink {
    fn absorb(&mut self, other: Self) {
        let TimingSink {
            analyzers,
            current,
            shards,
            merges,
        } = other;
        let start = now_ns();
        self.analyzers.merge(analyzers);
        self.merges.push((start, now_ns()));
        self.merges.extend(merges);
        self.shards.extend(shards);
        if !current.calls.is_empty() {
            self.shards.push(current);
        }
    }
}
