//! Pluggable, CID-addressed block storage.
//!
//! Every content-addressed byte blob in the system — repository record
//! blocks, MST node blocks, the relay's mirrored CAR archives, the study
//! mirror's decoded-record blocks — used to live in an ad-hoc
//! `BTreeMap<Cid, Vec<u8>>`. Those maps are grow-only, which ROADMAP flagged
//! as the `--scale` memory ceiling after the incremental-delta work. This
//! module extracts the storage concern behind one trait with three backends:
//!
//! * [`MemStore`] — the original in-memory map, still the default.
//! * [`PagedStore`] — blocks are appended to fixed-size *pages*; an LRU of
//!   resident pages bounds memory and cold pages are appended to one spill
//!   segment file per store. Every block read back from disk is re-hashed and
//!   verified against its CID, so a corrupted spill file can never feed bad
//!   bytes into the pipeline (corrupt blocks read as absent and are
//!   counted).
//! * [`CountingStore`] — a transparent wrapper that feeds shared
//!   [`CountingTotals`], used by tests to prove invariants like "a rejected
//!   write batch deletes every block it put" (no orphans).
//! * [`WriteBackStore`] — a write-back cache wrapper: `put`s buffer in a
//!   resident dirty map until [`BlockStore::flush`], and a `delete` of a
//!   still-buffered block cancels the write before it ever reaches the
//!   backend. A read-modify-write chain that rewrites an entity N times
//!   between flushes therefore costs the backend a single `put` instead of
//!   N `put`/`delete` pairs. The AppView wraps its entity store in one and
//!   flushes at day boundaries (the `--writeback` knob).
//!
//! ## Contract
//!
//! A `BlockStore` is a set of `(Cid, bytes)` pairs where the CID is the
//! content address of the bytes (DAG-CBOR or raw codec). `put` of an
//! existing CID is a no-op (content-addressed stores are idempotent);
//! `get` returns exactly the bytes that were put or nothing. Backends may
//! move blocks between memory and disk freely but must never lose or
//! reorder them: for any op sequence, every backend is observationally
//! equivalent to [`MemStore`] (pinned by the oracle property test below).
//!
//! Stores are built from a [`StoreConfig`], which is what the study CLI
//! (`repro --store mem|paged --page-size N --spill-dir DIR`) and the world
//! builders plumb through the stack.

use crate::cid::{Cid, CODEC_DAG_CBOR};
use crate::error::{AtError, Result};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregate statistics of one store (or a sum over many — see
/// [`StoreStats::absorb`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of blocks held.
    pub blocks: usize,
    /// Logical bytes of all blocks (resident + spilled).
    pub logical_bytes: usize,
    /// Bytes of blocks currently resident in memory.
    pub resident_bytes: usize,
    /// Bytes of blocks currently spilled to disk.
    pub spilled_bytes: usize,
    /// Pages written to the spill directory.
    pub spill_writes: u64,
    /// Pages loaded back from the spill directory.
    pub spill_loads: u64,
    /// Blocks that failed CID verification on read-back.
    pub corrupt_reads: u64,
    /// Failed spill writes: pages that stayed resident instead, and
    /// abandoned compaction rewrites.
    pub spill_write_failures: u64,
    /// Page loads whose spill record could not be read back; the page's
    /// blocks read as absent.
    pub spill_read_failures: u64,
    /// Reads served from a write-back cache's dirty buffer.
    pub writeback_hits: u64,
    /// Reads that fell through a write-back cache to its backend.
    pub writeback_misses: u64,
    /// Write-back cache drains that pushed at least one buffered block to
    /// the backend.
    pub writeback_flushes: u64,
    /// Buffered writes cancelled by a delete before reaching the backend
    /// (the same-day put/delete pairs the cache coalesces away).
    pub writeback_coalesced: u64,
}

impl StoreStats {
    /// Fold another store's stats into this one (counters add).
    pub fn absorb(&mut self, other: &StoreStats) {
        self.blocks += other.blocks;
        self.logical_bytes += other.logical_bytes;
        self.resident_bytes += other.resident_bytes;
        self.spilled_bytes += other.spilled_bytes;
        self.spill_writes += other.spill_writes;
        self.spill_loads += other.spill_loads;
        self.corrupt_reads += other.corrupt_reads;
        self.spill_write_failures += other.spill_write_failures;
        self.spill_read_failures += other.spill_read_failures;
        self.writeback_hits += other.writeback_hits;
        self.writeback_misses += other.writeback_misses;
        self.writeback_flushes += other.writeback_flushes;
        self.writeback_coalesced += other.writeback_coalesced;
    }
}

/// A CID-addressed block store.
///
/// See the module docs for the contract. The trait requires `Send` (stores
/// travel into shard worker threads inside repositories) and `Debug`
/// (repositories derive it).
pub trait BlockStore: std::fmt::Debug + Send {
    /// Fetch a block's bytes. Returns owned bytes because a disk-backed
    /// store may have to page them in.
    fn get(&self, cid: &Cid) -> Option<Vec<u8>>;

    /// Fetch several blocks at once, answers in `cids` order: the bulk read
    /// of an export. [`PagedStore`] reads each spilled page once per call
    /// rather than once per block, and leaves its resident set as it was.
    fn get_many(&self, cids: &[Cid]) -> Vec<Option<Vec<u8>>> {
        cids.iter().map(|cid| self.get(cid)).collect()
    }

    /// Insert a block. Returns `true` when the block was newly inserted,
    /// `false` when the CID was already present (the bytes are dropped —
    /// content addressing makes them identical).
    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool;

    /// Whether a block is present.
    fn has(&self, cid: &Cid) -> bool;

    /// Remove a block, returning its logical byte length (0 when absent).
    fn delete(&mut self, cid: &Cid) -> usize;

    /// Number of blocks held.
    fn len(&self) -> usize;

    /// Whether the store holds no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total logical bytes of all blocks (resident + spilled).
    fn bytes(&self) -> usize;

    /// Residency/spill statistics.
    fn stats(&self) -> StoreStats;

    /// Push any buffered writes through to durable state. A no-op for every
    /// backend except [`WriteBackStore`], whose dirty buffer drains here;
    /// callers that batch mutations (the AppView's day loop) flush at their
    /// epoch boundaries.
    fn flush(&mut self) {}

    /// Demote cold resident data to backing storage. A no-op for fully
    /// resident backends; [`PagedStore`] spills every sealed resident page,
    /// leaving only the open page in memory. Callers with an epoch rhythm
    /// (the AppView's day loop) invoke this right after [`flush`]: a day
    /// boundary ends the hot window, so sealed pages are overwhelmingly
    /// cold and any block that *is* re-read pages back in through the
    /// normal verified path.
    ///
    /// [`flush`]: BlockStore::flush
    fn evict_cold(&mut self) {}

    /// Clone into a fresh boxed store with identical contents.
    fn boxed_clone(&self) -> Box<dyn BlockStore>;
}

impl Clone for Box<dyn BlockStore> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Which backend a [`StoreConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Everything resident in memory ([`MemStore`]).
    #[default]
    Mem,
    /// Paged with LRU disk spill ([`PagedStore`]).
    Paged,
}

/// Configuration for building block stores — the value the CLI flags
/// (`--store`, `--page-size`, `--spill-dir`) and the world builders carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Backend to build.
    pub kind: StoreKind,
    /// Page capacity in bytes before a page is sealed (paged backend).
    pub page_size: usize,
    /// Number of sealed pages kept resident before spilling (paged backend;
    /// the open page is always resident on top of this).
    pub resident_pages: usize,
    /// Spill root directory (paged backend). `None` uses the system temp
    /// directory; each store instance creates its own subdirectory lazily
    /// on first spill and removes it on drop.
    pub spill_dir: Option<String>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig::mem()
    }
}

impl StoreConfig {
    /// The in-memory backend.
    pub fn mem() -> StoreConfig {
        StoreConfig {
            kind: StoreKind::Mem,
            page_size: 16 * 1024,
            resident_pages: 4,
            spill_dir: None,
        }
    }

    /// The paged disk-spill backend with default page geometry.
    pub fn paged() -> StoreConfig {
        StoreConfig {
            kind: StoreKind::Paged,
            ..StoreConfig::mem()
        }
    }

    /// Override the page size in bytes (builder style).
    pub fn page_size(mut self, bytes: usize) -> StoreConfig {
        self.page_size = bytes.max(1);
        self
    }

    /// Override the resident-page LRU capacity (builder style).
    pub fn resident_pages(mut self, pages: usize) -> StoreConfig {
        self.resident_pages = pages.max(1);
        self
    }

    /// Override the spill root directory (builder style).
    pub fn spill_dir(mut self, dir: impl Into<String>) -> StoreConfig {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Build a fresh, empty store of the configured kind.
    pub fn build(&self) -> Box<dyn BlockStore> {
        match self.kind {
            StoreKind::Mem => Box::new(MemStore::new()),
            StoreKind::Paged => Box::new(PagedStore::new(self)),
        }
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// The original backend: a plain in-memory map. Also the oracle the paged
/// backend is property-tested against.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    blocks: BTreeMap<Cid, Vec<u8>>,
    bytes: usize,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl BlockStore for MemStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        self.blocks.get(cid).cloned()
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        match self.blocks.entry(cid) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                self.bytes += bytes.len();
                slot.insert(bytes);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    fn has(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        match self.blocks.remove(cid) {
            Some(bytes) => {
                self.bytes -= bytes.len();
                bytes.len()
            }
            None => 0,
        }
    }

    fn len(&self) -> usize {
        self.blocks.len()
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            blocks: self.blocks.len(),
            logical_bytes: self.bytes,
            resident_bytes: self.bytes,
            ..StoreStats::default()
        }
    }

    fn boxed_clone(&self) -> Box<dyn BlockStore> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// PagedStore
// ---------------------------------------------------------------------------

/// Global sequence so every paged store instance gets its own spill
/// subdirectory, even across clones.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-process token mixed into the *default* spill root. `STORE_SEQ` only
/// uniquifies store directories within one process and PIDs get recycled,
/// so two processes sharing a bare `$TMPDIR/bsky-blockstore` root could end
/// up reading each other's spill files (the CID check would drop them, but
/// silently, as corrupt reads). The token makes the default root unique per
/// process even under PID reuse; an explicit `--spill-dir` is left alone.
static PROCESS_TOKEN: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

fn process_token() -> u64 {
    *PROCESS_TOKEN.get_or_init(|| {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let aslr = &PROCESS_TOKEN as *const _ as u64;
        clock.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ aslr.rotate_left(17)
    })
}

/// The default spill root for stores built without `--spill-dir`:
/// `$TMPDIR/bsky-blockstore-<pid>-<token>`, unique to this process.
fn default_spill_root() -> PathBuf {
    std::env::temp_dir().join(format!(
        "bsky-blockstore-{}-{:016x}",
        std::process::id(),
        process_token()
    ))
}

/// Where a block lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    page: u32,
    len: u32,
}

/// One page of blocks: resident (`blocks` is `Some`) or spilled to disk.
#[derive(Debug)]
struct Page {
    /// Live blocks while resident; `None` once spilled.
    blocks: Option<BTreeMap<Cid, Vec<u8>>>,
    /// Logical bytes of the page's *live* blocks (index-reachable).
    live_bytes: usize,
    /// Bytes of block payloads in the page's spill record (`0`: none).
    /// May exceed `live_bytes` when blocks were deleted after the spill —
    /// the garbage stays on disk until [`PagedStore::compact`].
    file_bytes: usize,
    /// Where the page's record sits in the spill segment: offset, length.
    extent: (u64, usize),
    /// Whether the spill record covers every live block of this page.
    on_disk: bool,
}

impl Page {
    /// A fresh, resident, empty page.
    fn fresh() -> Page {
        Page {
            blocks: Some(BTreeMap::new()),
            live_bytes: 0,
            file_bytes: 0,
            extent: (0, 0),
            on_disk: false,
        }
    }
}

/// The one spill file of a store: page records appended one after
/// another. Creating a file costs far more than appending to an open one,
/// so a store spills into a single segment rather than a file per page.
const SEGMENT_FILE: &str = "pages.bin";

/// Serialise a page's blocks as a spill record, `cid ‖ len (u32 LE) ‖
/// bytes` per block. Returns the record and its payload bytes.
fn encode_page(blocks: &BTreeMap<Cid, Vec<u8>>) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let mut payload = 0usize;
    for (cid, bytes) in blocks {
        out.extend_from_slice(&cid.to_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
        payload += bytes.len();
    }
    (out, payload)
}

/// Append a record to a file, returning the offset it starts at.
fn append_record(path: &Path, record: &[u8]) -> std::io::Result<u64> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let offset = file.metadata()?.len();
    file.write_all(record)?;
    Ok(offset)
}

/// Read the record at `(offset, length)` of a file.
fn read_record(path: &Path, (offset, len): (u64, usize)) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut raw = vec![0; len];
    file.read_exact(&mut raw)?;
    Ok(raw)
}

#[derive(Debug)]
struct Paged {
    page_size: usize,
    resident_cap: usize,
    spill_root: PathBuf,
    /// Created lazily on first spill; removed on drop.
    dir: Option<PathBuf>,
    store_id: u64,
    index: BTreeMap<Cid, Loc>,
    pages: BTreeMap<u32, Page>,
    /// Id of the open (append) page — always resident, outside the LRU.
    open: u32,
    /// Sealed resident pages, least recently used at the front.
    lru: VecDeque<u32>,
    logical_bytes: usize,
    spill_writes: u64,
    spill_loads: u64,
    corrupt_reads: u64,
    spill_write_failures: u64,
    spill_read_failures: u64,
}

/// The paged disk-spill backend: blocks append to an open page; sealed
/// pages rotate through a bounded LRU and spill to disk when evicted. Reads
/// of spilled blocks page the whole page back in (verified by CID).
///
/// Reads take `&self` like every other backend, so the paging machinery
/// lives behind a [`RefCell`]; the store is `Send` (one shard owns it) but
/// deliberately not `Sync`.
#[derive(Debug)]
pub struct PagedStore {
    inner: RefCell<Paged>,
}

impl PagedStore {
    /// An empty paged store; the spill directory is created only when the
    /// first page actually spills.
    pub fn new(config: &StoreConfig) -> PagedStore {
        let spill_root = match &config.spill_dir {
            Some(dir) => PathBuf::from(dir),
            None => default_spill_root(),
        };
        let mut pages = BTreeMap::new();
        pages.insert(0, Page::fresh());
        PagedStore {
            inner: RefCell::new(Paged {
                page_size: config.page_size.max(1),
                resident_cap: config.resident_pages.max(1),
                spill_root,
                dir: None,
                store_id: STORE_SEQ.fetch_add(1, Ordering::Relaxed),
                index: BTreeMap::new(),
                pages,
                open: 0,
                lru: VecDeque::new(),
                logical_bytes: 0,
                spill_writes: 0,
                spill_loads: 0,
                corrupt_reads: 0,
                spill_write_failures: 0,
                spill_read_failures: 0,
            }),
        }
    }

    /// Rewrite the spill segment without the blocks deleted after they
    /// spilled. The new segment is written beside the old one and renamed
    /// over it, so a failed write leaves the store as it was. Returns the
    /// payload bytes reclaimed.
    pub fn compact(&mut self) -> usize {
        let inner = self.inner.get_mut();
        let spilled: Vec<u32> = inner
            .pages
            .iter()
            .filter(|(_, page)| page.blocks.is_none())
            .map(|(id, _)| *id)
            .collect();
        // A record that lost blocks to a failed read holds less than the
        // page's live bytes; it has no garbage to drop.
        let garbage: usize = spilled
            .iter()
            .map(|id| {
                inner.pages[id]
                    .file_bytes
                    .saturating_sub(inner.pages[id].live_bytes)
            })
            .sum();
        let Some(segment) = inner.dir.as_ref().map(|dir| dir.join(SEGMENT_FILE)) else {
            return 0;
        };
        if garbage == 0 {
            return 0;
        }
        let rewritten = segment.with_extension("compact");
        let _ = std::fs::remove_file(&rewritten);
        let mut extents = Vec::with_capacity(spilled.len());
        for id in spilled {
            let (record, payload) = encode_page(&inner.load_page(id));
            match append_record(&rewritten, &record) {
                Ok(offset) => extents.push((id, (offset, record.len()), payload)),
                Err(_) => return inner.abandon_rewrite(&rewritten),
            }
        }
        if std::fs::rename(&rewritten, &segment).is_err() {
            return inner.abandon_rewrite(&rewritten);
        }
        for (id, extent, payload) in extents {
            let page = inner.pages.get_mut(&id).expect("page exists");
            page.extent = extent;
            page.file_bytes = payload;
        }
        // Resident pages lost their records with the old segment; they
        // write a new one when next evicted.
        for page in inner.pages.values_mut() {
            if page.blocks.is_some() {
                page.on_disk = false;
                page.file_bytes = 0;
            }
        }
        garbage
    }
}

impl Paged {
    /// The one canonical spill directory for this store instance. `dir`
    /// caches it once `segment` has created it on disk.
    fn dir_path(&self) -> PathBuf {
        self.spill_root
            .join(format!("store-{}-{}", std::process::id(), self.store_id))
    }

    /// Count a failed compaction rewrite and drop its partial segment;
    /// nothing was reclaimed.
    fn abandon_rewrite(&mut self, rewritten: &Path) -> usize {
        self.spill_write_failures += 1;
        let _ = std::fs::remove_file(rewritten);
        0
    }

    /// The store's spill segment, its directory created on first use
    /// (`None` if it cannot be).
    fn segment(&mut self) -> Option<PathBuf> {
        if self.dir.is_none() {
            let dir = self.dir_path();
            std::fs::create_dir_all(&dir).ok()?;
            self.dir = Some(dir);
        }
        self.dir.as_ref().map(|dir| dir.join(SEGMENT_FILE))
    }

    /// Append a resident sealed page to the spill segment and drop its
    /// in-memory blocks. If the write fails the page keeps its blocks and
    /// stays resident — outside the LRU, so evictions do not retry it — and
    /// the failure is counted. Returns whether the page spilled.
    fn spill(&mut self, id: u32) -> bool {
        if !self.pages[&id].on_disk {
            let blocks = self.pages[&id]
                .blocks
                .as_ref()
                .expect("spilling a resident page");
            let (record, payload) = encode_page(blocks);
            let appended = self
                .segment()
                .and_then(|segment| append_record(&segment, &record).ok());
            let Some(offset) = appended else {
                self.spill_write_failures += 1;
                return false;
            };
            let page = self.pages.get_mut(&id).expect("page exists");
            page.file_bytes = payload;
            page.extent = (offset, record.len());
            page.on_disk = true;
            self.spill_writes += 1;
        }
        self.pages.get_mut(&id).expect("page exists").blocks = None;
        true
    }

    /// Read a spilled page back, verifying every block against its CID.
    /// Corrupt blocks are dropped (and counted); only index-live blocks are
    /// reinstated. A record that cannot be read is counted and yields no
    /// blocks.
    fn load_page(&mut self, id: u32) -> BTreeMap<Cid, Vec<u8>> {
        self.spill_loads += 1;
        let extent = self.pages[&id].extent;
        let raw = self
            .dir
            .as_ref()
            .and_then(|dir| read_record(&dir.join(SEGMENT_FILE), extent).ok());
        let Some(raw) = raw else {
            self.spill_read_failures += 1;
            return BTreeMap::new();
        };
        let mut blocks = BTreeMap::new();
        let mut pos = 0usize;
        while pos + 40 <= raw.len() {
            let Ok(cid) = Cid::from_bytes(&raw[pos..pos + 36]) else {
                self.corrupt_reads += 1;
                break;
            };
            let len =
                u32::from_le_bytes([raw[pos + 36], raw[pos + 37], raw[pos + 38], raw[pos + 39]])
                    as usize;
            pos += 40;
            if pos + len > raw.len() {
                self.corrupt_reads += 1;
                break;
            }
            let data = raw[pos..pos + len].to_vec();
            pos += len;
            let expected = if cid.codec() == CODEC_DAG_CBOR {
                Cid::for_cbor(&data)
            } else {
                Cid::for_raw(&data)
            };
            if expected != cid {
                // Read-back verification: a flipped bit in the spill file
                // must never surface as block contents.
                self.corrupt_reads += 1;
                continue;
            }
            if matches!(self.index.get(&cid), Some(loc) if loc.page == id) {
                blocks.insert(cid, data);
            }
        }
        blocks
    }

    /// Evict sealed resident pages past the LRU capacity.
    fn enforce_cap(&mut self) {
        while self.lru.len() > self.resident_cap {
            let victim = self.lru.pop_front().expect("lru non-empty");
            self.spill(victim);
        }
    }

    /// Mark a sealed page as most recently used.
    fn touch(&mut self, id: u32) {
        if let Some(pos) = self.lru.iter().position(|&p| p == id) {
            self.lru.remove(pos);
            self.lru.push_back(id);
        }
    }

    fn stats(&self) -> StoreStats {
        let mut resident = 0usize;
        let mut spilled = 0usize;
        for page in self.pages.values() {
            if page.blocks.is_some() {
                resident += page.live_bytes;
            } else {
                spilled += page.live_bytes;
            }
        }
        StoreStats {
            blocks: self.index.len(),
            logical_bytes: self.logical_bytes,
            resident_bytes: resident,
            spilled_bytes: spilled,
            spill_writes: self.spill_writes,
            spill_loads: self.spill_loads,
            corrupt_reads: self.corrupt_reads,
            spill_write_failures: self.spill_write_failures,
            spill_read_failures: self.spill_read_failures,
            ..StoreStats::default()
        }
    }
}

impl Drop for Paged {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl BlockStore for PagedStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        let mut inner = self.inner.borrow_mut();
        let loc = *inner.index.get(cid)?;
        let resident = inner.pages[&loc.page].blocks.is_some();
        if !resident {
            let blocks = inner.load_page(loc.page);
            inner.pages.get_mut(&loc.page).expect("page exists").blocks = Some(blocks);
            inner.lru.push_back(loc.page);
            inner.enforce_cap();
        } else if loc.page != inner.open {
            inner.touch(loc.page);
        }
        let bytes = inner.pages[&loc.page]
            .blocks
            .as_ref()
            .and_then(|b| b.get(cid).cloned());
        bytes
    }

    fn get_many(&self, cids: &[Cid]) -> Vec<Option<Vec<u8>>> {
        let mut inner = self.inner.borrow_mut();
        let mut by_page: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, cid) in cids.iter().enumerate() {
            if let Some(loc) = inner.index.get(cid) {
                by_page.entry(loc.page).or_default().push(i);
            }
        }
        let mut out = vec![None; cids.len()];
        for (page, wanted) in by_page {
            let loaded;
            let blocks = match &inner.pages[&page].blocks {
                Some(blocks) => blocks,
                None => {
                    loaded = inner.load_page(page);
                    &loaded
                }
            };
            for i in wanted {
                out[i] = blocks.get(&cids[i]).cloned();
            }
        }
        out
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        let inner = self.inner.get_mut();
        if inner.index.contains_key(&cid) {
            return false;
        }
        let len = bytes.len();
        let open = inner.open;
        inner.index.insert(
            cid,
            Loc {
                page: open,
                len: len as u32,
            },
        );
        let page = inner.pages.get_mut(&open).expect("open page exists");
        page.blocks
            .as_mut()
            .expect("open page is resident")
            .insert(cid, bytes);
        page.live_bytes += len;
        inner.logical_bytes += len;
        if inner.pages[&open].live_bytes >= inner.page_size {
            // Seal the open page into the LRU and start a fresh one.
            inner.lru.push_back(open);
            inner.open = open + 1;
            inner.pages.insert(inner.open, Page::fresh());
            inner.enforce_cap();
        }
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.inner.borrow().index.contains_key(cid)
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        let inner = self.inner.get_mut();
        let Some(loc) = inner.index.remove(cid) else {
            return 0;
        };
        let page = inner.pages.get_mut(&loc.page).expect("page exists");
        page.live_bytes -= loc.len as usize;
        if let Some(blocks) = page.blocks.as_mut() {
            blocks.remove(cid);
        }
        inner.logical_bytes -= loc.len as usize;
        loc.len as usize
    }

    fn evict_cold(&mut self) {
        // Every sealed resident page sits in the LRU; spill them all. The
        // open page stays resident — it is the only page still taking
        // appends.
        let inner = self.inner.get_mut();
        while let Some(id) = inner.lru.pop_front() {
            inner.spill(id);
        }
    }

    fn len(&self) -> usize {
        self.inner.borrow().index.len()
    }

    fn bytes(&self) -> usize {
        self.inner.borrow().logical_bytes
    }

    fn stats(&self) -> StoreStats {
        self.inner.borrow().stats()
    }

    fn boxed_clone(&self) -> Box<dyn BlockStore> {
        // A clone is a fresh store (own spill directory) with identical
        // contents. Reading through `get` pages spilled blocks in via the
        // normal verified path.
        let (config, cids) = {
            let inner = self.inner.borrow();
            (
                StoreConfig {
                    kind: StoreKind::Paged,
                    page_size: inner.page_size,
                    resident_pages: inner.resident_cap,
                    spill_dir: Some(inner.spill_root.to_string_lossy().into_owned()),
                },
                inner.index.keys().copied().collect::<Vec<Cid>>(),
            )
        };
        let mut clone = PagedStore::new(&config);
        for cid in cids {
            if let Some(bytes) = self.get(&cid) {
                clone.put(cid, bytes);
            }
        }
        Box::new(clone)
    }
}

// ---------------------------------------------------------------------------
// CountingStore
// ---------------------------------------------------------------------------

/// Shared operation counters fed by a [`CountingStore`].
#[derive(Debug, Default)]
pub struct CountingTotals {
    puts: AtomicU64,
    gets: AtomicU64,
    deletes: AtomicU64,
    bytes_put: AtomicU64,
    bytes_deleted: AtomicU64,
}

impl CountingTotals {
    /// Blocks newly inserted.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Successful block reads.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Blocks removed.
    pub fn deletes(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }

    /// Bytes of newly inserted blocks.
    pub fn bytes_put(&self) -> u64 {
        self.bytes_put.load(Ordering::Relaxed)
    }

    /// Bytes of removed blocks.
    pub fn bytes_deleted(&self) -> u64 {
        self.bytes_deleted.load(Ordering::Relaxed)
    }
}

/// A transparent wrapper that counts operations into shared
/// [`CountingTotals`] — the handle stays with the caller while the store
/// disappears into a repository.
#[derive(Debug)]
pub struct CountingStore {
    inner: Box<dyn BlockStore>,
    totals: Arc<CountingTotals>,
}

impl CountingStore {
    /// Wrap a store; returns the wrapper and the shared totals handle.
    pub fn new(inner: Box<dyn BlockStore>) -> (CountingStore, Arc<CountingTotals>) {
        let totals = Arc::new(CountingTotals::default());
        (
            CountingStore {
                inner,
                totals: totals.clone(),
            },
            totals,
        )
    }
}

impl BlockStore for CountingStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        let out = self.inner.get(cid);
        if out.is_some() {
            self.totals.gets.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn get_many(&self, cids: &[Cid]) -> Vec<Option<Vec<u8>>> {
        let out = self.inner.get_many(cids);
        let found = out.iter().filter(|bytes| bytes.is_some()).count();
        self.totals.gets.fetch_add(found as u64, Ordering::Relaxed);
        out
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        let len = bytes.len() as u64;
        let fresh = self.inner.put(cid, bytes);
        if fresh {
            self.totals.puts.fetch_add(1, Ordering::Relaxed);
            self.totals.bytes_put.fetch_add(len, Ordering::Relaxed);
        }
        fresh
    }

    fn has(&self, cid: &Cid) -> bool {
        self.inner.has(cid)
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        let removed = self.inner.delete(cid);
        if removed > 0 {
            self.totals.deletes.fetch_add(1, Ordering::Relaxed);
            self.totals
                .bytes_deleted
                .fetch_add(removed as u64, Ordering::Relaxed);
        }
        removed
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn bytes(&self) -> usize {
        self.inner.bytes()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn boxed_clone(&self) -> Box<dyn BlockStore> {
        // The clone shares the totals handle: a cloned repository keeps
        // feeding the same counters.
        Box::new(CountingStore {
            inner: self.inner.clone(),
            totals: self.totals.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// WriteBackStore
// ---------------------------------------------------------------------------

/// A write-back cache in front of any [`BlockStore`].
///
/// `put` lands in a resident dirty buffer; [`BlockStore::flush`] drains the
/// buffer to the backend. A `delete` of a still-buffered block removes it
/// from the buffer without the backend ever seeing it — that cancellation is
/// the *coalescing*: an entity rewritten N times between flushes (each
/// rewrite a `delete` of the old CID plus a `put` of the new) reaches the
/// backend as exactly one `put`.
///
/// The wrapper is observationally transparent: `get`/`has` consult the
/// buffer first, so readers always see buffered state, and any op sequence
/// interleaved with `flush`es behaves exactly like the unwrapped backend
/// (pinned by the oracle property test below). Stats report the buffer as
/// resident bytes plus the `writeback_*` counters.
#[derive(Debug)]
pub struct WriteBackStore {
    inner: Box<dyn BlockStore>,
    dirty: BTreeMap<Cid, Vec<u8>>,
    dirty_bytes: usize,
    /// Reads take `&self` like every backend, so the hit/miss tally lives
    /// behind `Cell`s (the store is `Send`, not `Sync` — one shard owns it).
    hits: Cell<u64>,
    misses: Cell<u64>,
    flushes: u64,
    coalesced: u64,
}

impl WriteBackStore {
    /// Wrap a backend with an empty dirty buffer.
    pub fn new(inner: Box<dyn BlockStore>) -> WriteBackStore {
        WriteBackStore {
            inner,
            dirty: BTreeMap::new(),
            dirty_bytes: 0,
            hits: Cell::new(0),
            misses: Cell::new(0),
            flushes: 0,
            coalesced: 0,
        }
    }

    /// Number of blocks currently buffered (unflushed).
    pub fn pending(&self) -> usize {
        self.dirty.len()
    }
}

impl BlockStore for WriteBackStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        if let Some(bytes) = self.dirty.get(cid) {
            self.hits.set(self.hits.get() + 1);
            return Some(bytes.clone());
        }
        self.misses.set(self.misses.get() + 1);
        self.inner.get(cid)
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        if self.dirty.contains_key(&cid) || self.inner.has(&cid) {
            return false;
        }
        self.dirty_bytes += bytes.len();
        self.dirty.insert(cid, bytes);
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.dirty.contains_key(cid) || self.inner.has(cid)
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        if let Some(bytes) = self.dirty.remove(cid) {
            self.dirty_bytes -= bytes.len();
            self.coalesced += 1;
            return bytes.len();
        }
        self.inner.delete(cid)
    }

    fn len(&self) -> usize {
        self.inner.len() + self.dirty.len()
    }

    fn bytes(&self) -> usize {
        self.inner.bytes() + self.dirty_bytes
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.stats();
        stats.blocks += self.dirty.len();
        stats.logical_bytes += self.dirty_bytes;
        stats.resident_bytes += self.dirty_bytes;
        stats.writeback_hits += self.hits.get();
        stats.writeback_misses += self.misses.get();
        stats.writeback_flushes += self.flushes;
        stats.writeback_coalesced += self.coalesced;
        stats
    }

    fn flush(&mut self) {
        if !self.dirty.is_empty() {
            self.flushes += 1;
            for (cid, bytes) in std::mem::take(&mut self.dirty) {
                self.inner.put(cid, bytes);
            }
            self.dirty_bytes = 0;
        }
        self.inner.flush();
    }

    fn evict_cold(&mut self) {
        self.inner.evict_cold();
    }

    fn boxed_clone(&self) -> Box<dyn BlockStore> {
        Box::new(WriteBackStore {
            inner: self.inner.clone(),
            dirty: self.dirty.clone(),
            dirty_bytes: self.dirty_bytes,
            hits: self.hits.clone(),
            misses: self.misses.clone(),
            flushes: self.flushes,
            coalesced: self.coalesced,
        })
    }
}

/// Verify a CAR-shaped store invariant used by callers that treat stores as
/// opaque: the block either round-trips exactly or is absent.
pub fn verify_roundtrip(store: &dyn BlockStore, cid: &Cid, expected: &[u8]) -> Result<()> {
    match store.get(cid) {
        Some(bytes) if bytes == expected => Ok(()),
        Some(_) => Err(AtError::RepoError(format!(
            "store returned different bytes for {cid}"
        ))),
        None => Err(AtError::RepoError(format!("store lost block {cid}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrand::TestRng;

    fn tmp_root() -> String {
        std::env::temp_dir()
            .join("bsky-blockstore-test")
            .to_string_lossy()
            .into_owned()
    }

    fn paged_config() -> StoreConfig {
        // Tiny pages and a 1-page LRU so a handful of blocks already spill.
        StoreConfig::paged()
            .page_size(64)
            .resident_pages(1)
            .spill_dir(tmp_root())
    }

    fn block(n: u64, len: usize) -> (Cid, Vec<u8>) {
        let mut bytes = n.to_be_bytes().to_vec();
        bytes.resize(len.max(8), (n % 251) as u8);
        (Cid::for_raw(&bytes), bytes)
    }

    #[test]
    fn mem_store_basics() {
        let mut store = MemStore::new();
        let (cid, bytes) = block(1, 10);
        assert!(store.put(cid, bytes.clone()));
        assert!(!store.put(cid, bytes.clone()), "put is idempotent");
        assert!(store.has(&cid));
        assert_eq!(store.get(&cid), Some(bytes.clone()));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), bytes.len());
        assert_eq!(store.stats().resident_bytes, bytes.len());
        assert_eq!(store.delete(&cid), bytes.len());
        assert_eq!(store.delete(&cid), 0);
        assert!(store.is_empty());
        verify_roundtrip(&MemStore::new(), &cid, &bytes).unwrap_err();
    }

    #[test]
    fn paged_store_spills_and_reads_back() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            assert!(store.put(cid, bytes.clone()));
            blocks.push((cid, bytes));
        }
        let stats = store.stats();
        assert!(stats.spilled_bytes > 0, "small LRU must spill: {stats:?}");
        assert!(stats.spill_writes > 0);
        assert_eq!(
            stats.logical_bytes,
            stats.resident_bytes + stats.spilled_bytes
        );
        // Every block reads back exactly, paging cold pages in.
        for (cid, bytes) in &blocks {
            verify_roundtrip(&store, cid, bytes).unwrap();
        }
        assert!(store.stats().spill_loads > 0);
        assert_eq!(store.len(), blocks.len());
    }

    #[test]
    fn default_spill_root_is_unique_per_process() {
        let root = default_spill_root();
        let name = root
            .file_name()
            .expect("default root has a final component")
            .to_string_lossy()
            .into_owned();
        assert!(
            name.starts_with(&format!("bsky-blockstore-{}-", std::process::id())),
            "default root must embed the pid: {name}"
        );
        assert_eq!(root, default_spill_root(), "token is stable in-process");
        assert_ne!(name, "bsky-blockstore", "the shared legacy root is gone");
    }

    #[test]
    fn colliding_store_dirs_in_distinct_roots_never_cross_read() {
        // Two processes both count STORE_SEQ from zero, so once PIDs
        // recycle their stores can end up with identical
        // `store-<pid>-<id>` names. The per-process default root keeps
        // those stores in distinct roots; this pins down that even if one
        // store's spill segment lands where the other looks (the failure mode
        // of the old shared `bsky-blockstore` root), no foreign block ever
        // surfaces as contents.
        let root_a = std::env::temp_dir().join("bsky-blockstore-crossread-a");
        let root_b = std::env::temp_dir().join("bsky-blockstore-crossread-b");
        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
        let config = |root: &PathBuf| {
            StoreConfig::paged()
                .page_size(64)
                .resident_pages(1)
                .spill_dir(root.to_string_lossy().into_owned())
        };
        let mut store_a = PagedStore::new(&config(&root_a));
        let mut store_b = PagedStore::new(&config(&root_b));
        let mut blocks_a = Vec::new();
        let mut blocks_b = Vec::new();
        for n in 0..12u64 {
            let (cid, bytes) = block(n, 24);
            store_a.put(cid, bytes.clone());
            blocks_a.push((cid, bytes));
            let (cid, bytes) = block(1000 + n, 24);
            store_b.put(cid, bytes.clone());
            blocks_b.push((cid, bytes));
        }
        store_a.evict_cold();
        store_b.evict_cold();
        let only_subdir = |root: &PathBuf| -> PathBuf {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
                .expect("spill root exists")
                .map(|e| e.expect("dir entry").path())
                .collect();
            assert_eq!(dirs.len(), 1, "one store dir per root: {dirs:?}");
            dirs.pop().expect("one dir")
        };
        let page_a = only_subdir(&root_a).join(SEGMENT_FILE);
        let page_b = only_subdir(&root_b).join(SEGMENT_FILE);
        assert!(page_a.is_file() && page_b.is_file(), "both stores spilled");
        // The collision: store A's spill segment lands at store B's path.
        std::fs::copy(&page_a, &page_b).expect("overwrite spill segment");
        let (cid_b, _) = blocks_b[0];
        let (cid_a, bytes_a) = blocks_a[0].clone();
        assert_eq!(
            store_b.get(&cid_b),
            None,
            "a clobbered block reads as absent, never as foreign bytes"
        );
        assert_eq!(
            store_b.get(&cid_a),
            None,
            "another store's blocks never surface through the index"
        );
        assert_eq!(store_a.get(&cid_a), Some(bytes_a), "store A is untouched");
        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }

    #[test]
    fn evict_cold_demotes_sealed_pages_and_keeps_blocks_readable() {
        // A generous LRU keeps several sealed pages resident...
        let config = StoreConfig::paged()
            .page_size(64)
            .resident_pages(8)
            .spill_dir(tmp_root());
        let mut store = PagedStore::new(&config);
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        let before = store.stats();
        assert!(
            before.resident_bytes > before.logical_bytes / 2,
            "sealed pages should still be resident: {before:?}"
        );
        // ...until an epoch boundary demotes them: only the open page stays.
        store.evict_cold();
        let after = store.stats();
        assert!(
            after.resident_bytes < before.resident_bytes,
            "evict_cold must shrink residency: {before:?} -> {after:?}"
        );
        assert_eq!(
            after.logical_bytes,
            after.resident_bytes + after.spilled_bytes
        );
        // Nothing is lost: every block pages back in through the verified
        // read path, and a second eviction after the reads is also safe.
        for (cid, bytes) in &blocks {
            verify_roundtrip(&store, cid, bytes).unwrap();
        }
        store.evict_cold();
        for (cid, bytes) in &blocks {
            verify_roundtrip(&store, cid, bytes).unwrap();
        }
        // MemStore and WriteBackStore pass the hint through harmlessly.
        let mut mem = MemStore::new();
        mem.evict_cold();
        let mut wb = WriteBackStore::new(Box::new(PagedStore::new(&config)));
        let (cid, bytes) = block(99, 24);
        wb.put(cid, bytes.clone());
        wb.evict_cold();
        assert_eq!(wb.get(&cid), Some(bytes), "dirty buffer survives eviction");
    }

    #[test]
    fn paged_store_clone_is_independent() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..30u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        let clone = store.boxed_clone();
        let (gone, _) = blocks[0].clone();
        store.delete(&gone);
        assert!(store.get(&gone).is_none());
        assert_eq!(clone.get(&gone), Some(blocks[0].1.clone()));
        for (cid, bytes) in &blocks {
            verify_roundtrip(clone.as_ref(), cid, bytes).unwrap();
        }
    }

    #[test]
    fn paged_store_detects_corruption_on_read_back() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        assert!(store.stats().spilled_bytes > 0);
        // Flip one byte in every spill file: the affected blocks must read
        // as absent, never as wrong bytes.
        let dir = store.inner.borrow().dir.clone().expect("spilled");
        let mut flipped = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut raw = std::fs::read(&path).unwrap();
            if raw.len() > 45 {
                raw[44] ^= 0xff; // inside the first block's payload
                std::fs::write(&path, &raw).unwrap();
                flipped += 1;
            }
        }
        assert!(flipped > 0);
        let mut missing = 0;
        for (cid, bytes) in &blocks {
            match store.get(cid) {
                Some(read) => assert_eq!(&read, bytes, "corrupt bytes surfaced"),
                None => missing += 1,
            }
        }
        assert!(missing > 0, "corruption must be detected");
        assert!(store.stats().corrupt_reads > 0);
    }

    /// A bulk read answers exactly like block-by-block reads and leaves
    /// the resident set untouched: spilled pages stream through.
    #[test]
    fn paged_get_many_matches_get_and_keeps_residency() {
        let mut rng = TestRng::new(0x0009_a6ee);
        for round in 0..10 {
            let config = StoreConfig::paged()
                .page_size(32 + rng.below(96) as usize)
                .resident_pages(1 + rng.below(3) as usize)
                .spill_dir(tmp_root());
            let mut paged = PagedStore::new(&config);
            let mut oracle = MemStore::new();
            let universe: Vec<(Cid, Vec<u8>)> = (0..40)
                .map(|i| block(round * 1_000 + i, 8 + rng.below(40) as usize))
                .collect();
            for _ in 0..200 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                match rng.below(10) {
                    0..=5 => {
                        paged.put(*cid, bytes.clone());
                        oracle.put(*cid, bytes.clone());
                    }
                    6..=7 => {
                        paged.delete(cid);
                        oracle.delete(cid);
                    }
                    _ => {
                        // A random request list, repeats included.
                        let wanted: Vec<Cid> = (0..rng.below(12))
                            .map(|_| universe[rng.below(universe.len() as u64) as usize].0)
                            .collect();
                        let before = paged.stats();
                        assert_eq!(paged.get_many(&wanted), oracle.get_many(&wanted));
                        let after = paged.stats();
                        assert_eq!(after.resident_bytes, before.resident_bytes);
                        assert_eq!(after.spill_writes, before.spill_writes);
                    }
                }
            }
        }
    }

    /// An unwritable spill root is a counted outcome, not a panic: the
    /// pages that cannot spill stay resident and every block reads back.
    #[test]
    fn unwritable_spill_root_keeps_pages_resident() {
        // A directory cannot be created under a regular file, whoever runs
        // the test.
        let file =
            std::env::temp_dir().join(format!("bsky-blockstore-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"regular file").unwrap();
        let config = StoreConfig::paged()
            .page_size(64)
            .resident_pages(1)
            .spill_dir(file.join("spill").to_string_lossy().into_owned());
        let mut store = PagedStore::new(&config);
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            assert!(store.put(cid, bytes.clone()));
            blocks.push((cid, bytes));
        }
        store.evict_cold();
        let stats = store.stats();
        assert!(stats.spill_write_failures > 0, "{stats:?}");
        assert_eq!(stats.spill_writes, 0);
        assert_eq!(stats.spilled_bytes, 0);
        for (cid, bytes) in &blocks {
            verify_roundtrip(&store, cid, bytes).unwrap();
        }
        std::fs::remove_file(&file).unwrap();
    }

    /// A spill segment that went missing reads as absent blocks, counted
    /// once per page load that found it gone.
    #[test]
    fn missing_spill_segment_is_counted() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        let (victim, page, segment) = {
            let inner = store.inner.borrow();
            let loc = inner.index[&blocks[0].0];
            assert!(
                inner.pages[&loc.page].blocks.is_none(),
                "first page spilled"
            );
            let dir = inner.dir.clone().expect("spilled");
            (blocks[0].0, loc.page, dir.join(SEGMENT_FILE))
        };
        std::fs::remove_file(segment).unwrap();
        assert_eq!(store.get(&victim), None);
        assert_eq!(store.stats().spill_read_failures, 1);
        assert_eq!(store.stats().corrupt_reads, 0);
        // The page's other blocks are gone too, without a second count.
        let same_page: Vec<Cid> = blocks
            .iter()
            .map(|(cid, _)| *cid)
            .filter(|cid| store.inner.borrow().index[cid].page == page)
            .collect();
        assert!(same_page.len() > 1);
        for cid in &same_page {
            assert_eq!(store.get(cid), None);
        }
        assert_eq!(store.stats().spill_read_failures, 1);
    }

    #[test]
    fn paged_store_compact_reclaims_dead_spilled_blocks() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..60u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        assert!(store.stats().spilled_bytes > 0);
        // Delete a spilled block (index-only removal: the file keeps it).
        let spilled_cid = {
            let inner = store.inner.borrow();
            *inner
                .index
                .iter()
                .find(|(_, loc)| inner.pages[&loc.page].blocks.is_none())
                .expect("a spilled block exists")
                .0
        };
        assert!(store.delete(&spilled_cid) > 0);
        let reclaimed = store.compact();
        assert!(reclaimed > 0, "compaction must rewrite the dirty page");
        assert!(store.get(&spilled_cid).is_none());
        // Everything else still round-trips.
        for (cid, bytes) in &blocks {
            if cid != &spilled_cid {
                verify_roundtrip(&store, cid, bytes).unwrap();
            }
        }
        // A second pass has nothing left to do.
        assert_eq!(store.compact(), 0);
    }

    /// Compaction replaces the whole segment: a page read back before it
    /// (resident, its record in the old segment) must write a fresh record
    /// when next evicted, and every live block must still read back.
    #[test]
    fn compaction_keeps_paged_in_pages_readable() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..30u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        store.evict_cold();
        let page_of = |store: &PagedStore, cid: &Cid| store.inner.borrow().index[cid].page;
        let (kept, _) = blocks[0].clone();
        let dropped = blocks
            .iter()
            .map(|(cid, _)| *cid)
            .find(|cid| page_of(&store, cid) != page_of(&store, &kept))
            .expect("blocks on another page");
        assert!(store.get(&kept).is_some(), "pages the first block back in");
        assert!(store.delete(&dropped) > 0);
        let writes = store.stats().spill_writes;
        assert!(store.compact() > 0);
        store.evict_cold();
        assert!(
            store.stats().spill_writes > writes,
            "the paged-in page spilled anew"
        );
        for (cid, bytes) in &blocks {
            if *cid != dropped {
                verify_roundtrip(&store, cid, bytes).unwrap();
            }
        }
        assert_eq!(
            store.stats().corrupt_reads + store.stats().spill_read_failures,
            0
        );
    }

    /// A corrupt block dropped by a compaction rewrite leaves its page's
    /// record smaller than the page's live bytes; later passes must treat
    /// that as no garbage, not as an overflow.
    #[test]
    fn compaction_after_a_corrupt_block_is_stable() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..30u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        store.evict_cold();
        let segment = store
            .inner
            .borrow()
            .dir
            .clone()
            .expect("spilled")
            .join(SEGMENT_FILE);
        let mut raw = std::fs::read(&segment).unwrap();
        let corrupt = Cid::from_bytes(&raw[..36]).unwrap();
        raw[44] ^= 0xff; // inside the first record's first block
        std::fs::write(&segment, &raw).unwrap();
        let last = blocks.last().expect("blocks").0;
        assert!(store.delete(&last) > 0, "garbage on another page");
        assert!(store.compact() > 0);
        assert!(store.stats().corrupt_reads > 0);
        assert_eq!(store.compact(), 0, "nothing left to reclaim");
        assert_eq!(store.get(&corrupt), None);
        for (cid, bytes) in &blocks[..blocks.len() - 1] {
            if *cid != corrupt {
                verify_roundtrip(&store, cid, bytes).unwrap();
            }
        }
    }

    #[test]
    fn counting_store_counts_and_shares_totals() {
        let (mut store, totals) = CountingStore::new(Box::new(MemStore::new()));
        let (cid, bytes) = block(9, 16);
        assert!(store.put(cid, bytes.clone()));
        assert!(!store.put(cid, bytes.clone()), "re-put not counted");
        assert_eq!(totals.puts(), 1);
        assert_eq!(totals.bytes_put(), bytes.len() as u64);
        assert_eq!(store.get(&cid), Some(bytes.clone()));
        assert_eq!(totals.gets(), 1);
        let clone = store.boxed_clone();
        assert_eq!(clone.get(&cid), Some(bytes.clone()));
        assert_eq!(totals.gets(), 2, "clones share the totals handle");
        assert_eq!(store.delete(&cid), bytes.len());
        assert_eq!(totals.deletes(), 1);
        assert_eq!(totals.bytes_deleted(), bytes.len() as u64);
        assert_eq!(store.delete(&cid), 0);
        assert_eq!(totals.deletes(), 1, "missing delete not counted");
    }

    #[test]
    fn store_config_builds_each_kind() {
        assert_eq!(StoreConfig::default().kind, StoreKind::Mem);
        let mem = StoreConfig::mem().build();
        assert_eq!(mem.len(), 0);
        let paged = paged_config().build();
        assert!(paged.is_empty());
        let cfg = StoreConfig::paged().page_size(0).resident_pages(0);
        assert_eq!(cfg.page_size, 1, "page size clamps to 1");
        assert_eq!(cfg.resident_pages, 1, "LRU cap clamps to 1");
    }

    #[test]
    fn writeback_store_buffers_coalesces_and_flushes() {
        let mut store = WriteBackStore::new(Box::new(MemStore::new()));
        let (cid1, bytes1) = block(1, 16);
        let (cid2, bytes2) = block(2, 16);
        assert!(store.put(cid1, bytes1.clone()));
        assert!(
            !store.put(cid1, bytes1.clone()),
            "buffered put is idempotent"
        );
        assert_eq!(store.pending(), 1);
        // Buffered reads hit the dirty map, not the backend.
        assert_eq!(store.get(&cid1), Some(bytes1.clone()));
        assert!(store.has(&cid1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), bytes1.len());
        // The same-day rewrite pattern: delete the buffered block before a
        // flush and the backend never sees it.
        assert_eq!(store.delete(&cid1), bytes1.len());
        assert!(store.put(cid2, bytes2.clone()));
        store.flush();
        assert_eq!(store.pending(), 0);
        let stats = store.stats();
        assert_eq!(stats.writeback_coalesced, 1);
        assert_eq!(stats.writeback_flushes, 1);
        assert_eq!(stats.writeback_hits, 1);
        assert_eq!(stats.blocks, 1, "only the surviving block was flushed");
        // Post-flush reads come from the backend and count as misses.
        assert_eq!(store.get(&cid2), Some(bytes2));
        assert!(store.stats().writeback_misses >= 1);
        // Re-putting a flushed block is still idempotent; deleting it
        // reaches through to the backend.
        assert!(!store.put(cid2, vec![0; 16]));
        assert!(store.delete(&cid2) > 0);
        assert!(store.is_empty());
        // An empty flush is not counted.
        store.flush();
        assert_eq!(store.stats().writeback_flushes, 1);
    }

    #[test]
    fn writeback_store_clone_carries_the_buffer() {
        let mut store = WriteBackStore::new(Box::new(MemStore::new()));
        let (cid, bytes) = block(7, 24);
        store.put(cid, bytes.clone());
        let mut clone = store.boxed_clone();
        store.delete(&cid);
        assert!(store.get(&cid).is_none());
        assert_eq!(
            clone.get(&cid),
            Some(bytes.clone()),
            "clone keeps its buffer"
        );
        clone.flush();
        verify_roundtrip(clone.as_ref(), &cid, &bytes).unwrap();
    }

    /// Write-back oracle: any interleaving of put / get / delete / flush —
    /// over either backend — is observationally identical to the bare
    /// in-memory oracle.
    #[test]
    fn writeback_store_matches_mem_oracle_under_random_ops() {
        let mut rng = TestRng::new(0x00b1_0c4e);
        for round in 0..15 {
            let inner: Box<dyn BlockStore> = if round % 2 == 0 {
                Box::new(MemStore::new())
            } else {
                Box::new(PagedStore::new(
                    &StoreConfig::paged()
                        .page_size(32 + rng.below(96) as usize)
                        .resident_pages(1 + rng.below(3) as usize)
                        .spill_dir(tmp_root()),
                ))
            };
            let mut cached = WriteBackStore::new(inner);
            let mut oracle = MemStore::new();
            let universe: Vec<(Cid, Vec<u8>)> = (0..24)
                .map(|i| block(round * 1_000 + i, 8 + rng.below(40) as usize))
                .collect();
            for _ in 0..400 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                match rng.below(10) {
                    0..=3 => {
                        assert_eq!(
                            cached.put(*cid, bytes.clone()),
                            oracle.put(*cid, bytes.clone()),
                            "put disagrees"
                        );
                    }
                    4..=6 => {
                        assert_eq!(cached.get(cid), oracle.get(cid), "get disagrees");
                    }
                    7..=8 => {
                        assert_eq!(cached.delete(cid), oracle.delete(cid), "delete disagrees");
                    }
                    _ => {
                        cached.flush();
                    }
                }
                assert_eq!(cached.len(), oracle.len());
                assert_eq!(cached.bytes(), oracle.bytes());
            }
            for (cid, _) in &universe {
                assert_eq!(cached.get(cid), oracle.get(cid));
                assert_eq!(cached.has(cid), oracle.has(cid));
            }
        }
    }

    /// The oracle property test: any interleaving of put / get / delete /
    /// forced-eviction pressure / compact on a tiny-paged store behaves
    /// exactly like the in-memory oracle.
    #[test]
    fn paged_store_matches_mem_oracle_under_random_ops() {
        let mut rng = TestRng::new(0x0009_a6ed);
        for round in 0..15 {
            let config = StoreConfig::paged()
                .page_size(32 + rng.below(96) as usize)
                .resident_pages(1 + rng.below(3) as usize)
                .spill_dir(tmp_root());
            let mut paged = PagedStore::new(&config);
            let mut oracle = MemStore::new();
            // A bounded universe of blocks so deletes and re-puts collide.
            let universe: Vec<(Cid, Vec<u8>)> = (0..24)
                .map(|i| block(round * 1_000 + i, 8 + rng.below(40) as usize))
                .collect();
            for _ in 0..400 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                match rng.below(10) {
                    0..=3 => {
                        assert_eq!(
                            paged.put(*cid, bytes.clone()),
                            oracle.put(*cid, bytes.clone()),
                            "put disagrees"
                        );
                    }
                    4..=6 => {
                        assert_eq!(paged.get(cid), oracle.get(cid), "get disagrees");
                    }
                    7..=8 => {
                        assert_eq!(paged.delete(cid), oracle.delete(cid), "delete disagrees");
                    }
                    _ => {
                        paged.compact();
                    }
                }
                assert_eq!(paged.len(), oracle.len());
                assert_eq!(paged.bytes(), oracle.bytes());
            }
            // Full final sweep: identical contents, block by block.
            for (cid, _) in &universe {
                assert_eq!(paged.get(cid), oracle.get(cid));
                assert_eq!(paged.has(cid), oracle.has(cid));
            }
        }
    }
}
