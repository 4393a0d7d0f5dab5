//! User data repositories.
//!
//! A repository is the signed, content-addressed store of all of a user's
//! public records (§2, "User Data Repositories"). Updates happen through
//! *commits*: each commit points at the new MST root, carries a monotonically
//! increasing revision TID and is signed with a key from the owner's DID
//! document. The git-like structure retains previous record versions inside
//! the block store, which the paper's discussion section flags as a GDPR
//! concern — we model that by keeping deleted blocks until an explicit
//! garbage-collection call.
//!
//! Each commit additionally logs the blocks it introduced (records and MST
//! nodes), so [`Repository::export_car_since`] can serve the
//! `com.atproto.sync.getRepo(did, since=rev)` delta path — only the blocks
//! created after a known revision — and [`Repository::apply_delta`] lets a
//! mirror reassemble the full archive from a cached CAR plus such a delta.
//!
//! ## Storage and the delta-serving window
//!
//! All record and MST node blocks live behind the pluggable
//! [`crate::blockstore::BlockStore`] trait ([`Repository::with_store`]): the
//! in-memory default, or a paged store that spills cold pages to disk and
//! verifies every read-back by CID. The repository itself keeps only the CID
//! indexes (`record_cids`, the live/stored node sets and the per-commit
//! log) resident, so its memory footprint is governed by the store backend.
//!
//! [`Repository::compact_before`] bounds the grow-only history: commits (and
//! their log entries) older than a cutoff revision leave the delta-serving
//! window, record blocks unreachable from the head that aged out are
//! deleted, and MST node blocks superseded by the live tree are always
//! reclaimable (deltas only ever ship *current* nodes — the per-commit churn
//! log reconstructs historical node *sets* without their bytes). The
//! invariant: [`Repository::export_car_since`] still serves every retained
//! revision exactly; a request since a compacted revision fails with
//! [`AtError::RevisionCompacted`] so the caller can fall back to a full CAR
//! fetch *visibly* (the study pipeline surfaces these fallbacks in its
//! stream summary rather than hiding them).

use crate::blockstore::{BlockStore, MemStore, StoreStats};
use crate::cbor::{self, Value};
use crate::cid::Cid;
use crate::crypto::{Signature, SigningKey};
use crate::datetime::Datetime;
use crate::did::Did;
use crate::error::{AtError, Result};
use crate::mst::{Mst, MstCommit};
use crate::nsid::Nsid;
use crate::record::Record;
use crate::tid::{Tid, TidClock};
use std::collections::BTreeMap;

/// A signed repository commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// The repository owner.
    pub did: Did,
    /// Commit format version (3 in the live network).
    pub version: u8,
    /// MST root CID after this commit.
    pub data: Cid,
    /// Revision TID, strictly increasing per repository.
    pub rev: Tid,
    /// CID of the previous commit, if any.
    pub prev: Option<Cid>,
    /// Signature over the unsigned commit bytes.
    pub sig: Signature,
}

impl Commit {
    /// The commit's own CID (hash of its signed encoding).
    pub fn cid(&self) -> Cid {
        Cid::for_cbor(&self.to_cbor())
    }

    /// The bytes that are signed (everything except the signature).
    pub fn unsigned_bytes(&self) -> Vec<u8> {
        let mut fields = vec![
            ("did".to_string(), Value::text(self.did.to_string())),
            ("version".to_string(), Value::Int(self.version as i64)),
            ("data".to_string(), Value::Link(self.data)),
            ("rev".to_string(), Value::text(self.rev.to_string())),
        ];
        fields.push((
            "prev".to_string(),
            match self.prev {
                Some(c) => Value::Link(c),
                None => Value::Null,
            },
        ));
        cbor::encode(&Value::map(fields))
    }

    /// Full signed encoding. The encoder canonicalises map key order, so
    /// assembling the signed map directly produces exactly the bytes the
    /// old decode-unsigned-then-insert-sig path did, without the round trip.
    pub fn to_cbor(&self) -> Vec<u8> {
        cbor::encode(&Value::map([
            ("did".to_string(), Value::text(self.did.to_string())),
            ("version".to_string(), Value::Int(self.version as i64)),
            ("data".to_string(), Value::Link(self.data)),
            ("rev".to_string(), Value::text(self.rev.to_string())),
            (
                "prev".to_string(),
                match self.prev {
                    Some(c) => Value::Link(c),
                    None => Value::Null,
                },
            ),
            ("sig".to_string(), Value::Bytes(self.sig.0.to_vec())),
        ]))
    }

    /// Verify the signature with the owner's signing key.
    pub fn verify(&self, key: &SigningKey) -> bool {
        crate::crypto::verify(key, &self.unsigned_bytes(), &self.sig)
    }
}

/// The kind of write applied to a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteAction {
    /// A new record was created.
    Create,
    /// An existing record was replaced.
    Update,
    /// A record was deleted.
    Delete,
}

impl WriteAction {
    /// Stable string form used in firehose frames.
    pub fn as_str(&self) -> &'static str {
        match self {
            WriteAction::Create => "create",
            WriteAction::Update => "update",
            WriteAction::Delete => "delete",
        }
    }
}

/// A single record operation inside a commit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordOp {
    /// Create, update or delete.
    pub action: WriteAction,
    /// Repository key `<collection>/<rkey>`.
    pub key: String,
    /// CID of the new record block (absent for deletes).
    pub cid: Option<Cid>,
}

impl RecordOp {
    /// The collection component of the key.
    pub fn collection(&self) -> &str {
        self.key.split('/').next().unwrap_or(&self.key)
    }

    /// The rkey component of the key.
    pub fn rkey(&self) -> &str {
        self.key.split('/').nth(1).unwrap_or("")
    }
}

/// A write request handed to [`Repository::apply_writes`].
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// Create a new record under a collection and rkey.
    Create {
        /// Collection NSID.
        collection: Nsid,
        /// Record key.
        rkey: String,
        /// The record.
        record: Record,
    },
    /// Replace an existing record.
    Update {
        /// Collection NSID.
        collection: Nsid,
        /// Record key.
        rkey: String,
        /// The new record contents.
        record: Record,
    },
    /// Delete an existing record.
    Delete {
        /// Collection NSID.
        collection: Nsid,
        /// Record key.
        rkey: String,
    },
}

/// The outcome of applying a batch of writes: the new commit plus the record
/// operations, ready to be emitted on the firehose.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitResult {
    /// The newly created commit.
    pub commit: Commit,
    /// The commit's CID (precomputed so firehose producers need not re-hash
    /// the signed encoding per event).
    pub commit_cid: Cid,
    /// The operations included in it.
    pub ops: Vec<RecordOp>,
    /// Approximate number of bytes of new blocks written.
    pub bytes_written: usize,
}

/// A parsed CAR archive: the root CIDs and the block store.
pub type ParsedCar = (Vec<Cid>, BTreeMap<Cid, Vec<u8>>);

/// What a `getRepo(since)` delta must carry.
///
/// The MST node blocks dominate delta size for chatty small repositories:
/// every appended record rewrites its leaf-to-root path, so a weekly sync
/// re-ships each touched path once even though the *records* of that week
/// are much smaller. Consumers that maintain a verifiable block mirror (the
/// Relay) need those nodes; consumers that maintain only decoded records
/// (the §3 dataset mirror) can skip them and verify the head commit alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaScope {
    /// Head commit + net MST node difference + record blocks: everything a
    /// mirror needs to reassemble a full archive via
    /// [`Repository::apply_delta`].
    #[default]
    Full,
    /// Head commit + record blocks only: sufficient (and much smaller) for
    /// consumers that keep decoded records rather than raw block stores.
    Records,
}

/// Per-commit block accounting: which record blocks and which MST node
/// blocks each commit introduced. This is what makes
/// `com.atproto.sync.getRepo(did, since)` cheap — the delta for any known
/// `since` revision is the union of the logged blocks of the commits after
/// it, with no tree reconstruction at request time.
#[derive(Debug, Clone, Default)]
struct CommitBlocks {
    /// Record blocks first written by this commit.
    record_cids: Vec<Cid>,
    /// MST node blocks this commit added to the live tree.
    node_cids: Vec<Cid>,
    /// MST node blocks this commit dropped from the live tree. Together
    /// with `node_cids` this lets a delta export reconstruct the node set
    /// at any past revision by backward replay — O(churn), never a tree
    /// rebuild — and ship only the *net* node difference.
    removed_node_cids: Vec<Cid>,
}

/// What one [`Repository::compact_before`] pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Commits (and their log entries) dropped from the delta window.
    pub commits_dropped: usize,
    /// Aged-out record blocks unreachable from the head that were deleted.
    pub records_dropped: usize,
    /// Superseded MST node blocks deleted.
    pub nodes_dropped: usize,
    /// Logical bytes reclaimed from the block store.
    pub bytes_reclaimed: usize,
}

impl CompactionStats {
    /// Fold another pass's stats into this one.
    pub fn absorb(&mut self, other: &CompactionStats) {
        self.commits_dropped += other.commits_dropped;
        self.records_dropped += other.records_dropped;
        self.nodes_dropped += other.nodes_dropped;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// A user repository: block store + MST index + commit chain.
#[derive(Debug, Clone)]
pub struct Repository {
    did: Did,
    signing_key: SigningKey,
    mst: Mst,
    /// All record and MST node blocks, behind the pluggable store.
    store: Box<dyn BlockStore>,
    /// CIDs (and total bytes) of the record blocks currently in the store —
    /// the iteration index for exports and GC, kept resident because it is
    /// small compared to the blocks themselves.
    record_cids: std::collections::BTreeSet<Cid>,
    record_bytes: usize,
    /// Retained commits (oldest first). Compaction drops the front.
    commits: Vec<Commit>,
    /// Aligned 1:1 with `commits`: the blocks each commit introduced.
    log: Vec<CommitBlocks>,
    /// CID of the head commit, cached so each new commit's `prev` pointer
    /// costs nothing (compaction only drops from the front, never the head).
    head_cid: Option<Cid>,
    /// Revision of the newest commit a compaction pass dropped; deltas since
    /// revisions at or below it must fall back to a full fetch.
    compacted_through: Option<Tid>,
    /// Every MST node CID currently in the store (live nodes plus nodes
    /// superseded since the last compaction).
    stored_node_cids: std::collections::BTreeSet<Cid>,
    /// Node CIDs of the live tree as of the latest commit, kept in step
    /// with each commit's node churn (the nodes [`Mst::commit`] reports
    /// created and removed), never rebuilt from the whole tree.
    current_node_cids: std::collections::BTreeSet<Cid>,
    clock: TidClock,
}

impl Repository {
    /// Create an empty repository for a DID over the default in-memory
    /// store. The signing key is derived from the DID plus provided key seed
    /// (the identity layer stores the same key in the DID document).
    pub fn new(did: Did, key_seed: &[u8]) -> Repository {
        Repository::with_store(did, key_seed, Box::new(MemStore::new()))
    }

    /// Create an empty repository over an explicit block store backend.
    pub fn with_store(did: Did, key_seed: &[u8], store: Box<dyn BlockStore>) -> Repository {
        let mut seed = did.to_string().into_bytes();
        seed.extend_from_slice(key_seed);
        Repository {
            signing_key: SigningKey::from_seed(&seed),
            clock: TidClock::new((seed.len() as u16) & 0x3ff),
            did,
            mst: Mst::new(),
            store,
            record_cids: std::collections::BTreeSet::new(),
            record_bytes: 0,
            commits: Vec::new(),
            log: Vec::new(),
            head_cid: None,
            compacted_through: None,
            stored_node_cids: std::collections::BTreeSet::new(),
            current_node_cids: std::collections::BTreeSet::new(),
        }
    }

    /// The repository owner.
    pub fn did(&self) -> &Did {
        &self.did
    }

    /// The signing key (held by the PDS on the user's behalf by default).
    pub fn signing_key(&self) -> &SigningKey {
        &self.signing_key
    }

    /// Latest commit, if any write has happened.
    pub fn head(&self) -> Option<&Commit> {
        self.commits.last()
    }

    /// The latest revision TID ("repo version" in `sync.listRepos`).
    pub fn rev(&self) -> Option<Tid> {
        self.head().map(|c| c.rev)
    }

    /// Retained commit history, oldest first (compaction may have dropped a
    /// prefix — see [`Repository::compacted_through`]).
    pub fn commits(&self) -> &[Commit] {
        &self.commits
    }

    /// Revision of the newest commit dropped by compaction, if any pass has
    /// run. Deltas since revisions at or below it error with
    /// [`AtError::RevisionCompacted`].
    pub fn compacted_through(&self) -> Option<Tid> {
        self.compacted_through
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.mst.len()
    }

    /// Total size of all stored record blocks in bytes (live and
    /// historical).
    pub fn store_size(&self) -> usize {
        self.record_bytes
    }

    /// MST node blocks encoded over the repository's lifetime — the
    /// deterministic work counter of the commit path.
    pub fn mst_nodes_encoded(&self) -> u64 {
        self.mst.nodes_encoded()
    }

    /// Residency/spill statistics of the backing block store (records and
    /// MST nodes combined).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Fetch a record by collection and rkey.
    pub fn get_record(&self, collection: &Nsid, rkey: &str) -> Option<Record> {
        let key = format!("{collection}/{rkey}");
        let cid = self.mst.get(&key)?;
        let bytes = self.store.get(cid)?;
        Record::from_cbor(&bytes).ok()
    }

    /// Fetch a raw block by CID (owned: a disk-backed store may page it in).
    pub fn get_block(&self, cid: &Cid) -> Option<Vec<u8>> {
        self.store.get(cid)
    }

    /// List `(rkey, record)` pairs of a collection, in rkey order.
    pub fn list_collection(&self, collection: &Nsid) -> Vec<(String, Record)> {
        self.mst
            .iter_collection(collection.as_str())
            .filter_map(|(key, cid)| {
                let rkey = key.rsplit('/').next()?.to_string();
                let record = Record::from_cbor(&self.store.get(cid)?).ok()?;
                Some((rkey, record))
            })
            .collect()
    }

    /// Iterate every live record as `(collection, rkey, record)`.
    pub fn all_records(&self) -> Vec<(Nsid, String, Record)> {
        self.mst
            .iter()
            .filter_map(|(key, cid)| {
                let (collection, rkey) = key.split_once('/')?;
                let record = Record::from_cbor(&self.store.get(cid)?).ok()?;
                Some((Nsid::parse(collection).ok()?, rkey.to_string(), record))
            })
            .collect()
    }

    /// Apply one write, recording any freshly inserted block in
    /// `fresh_blocks` so a failed batch can roll the store back, and the
    /// key's pre-batch value in `touched` so the batch's net record ops can
    /// be derived (and the index restored on error) without snapshotting the
    /// whole tree.
    fn apply_one_write(
        &mut self,
        write: &Write,
        fresh_blocks: &mut Vec<Cid>,
        bytes_written: &mut usize,
        touched: &mut BTreeMap<String, (Option<Cid>, Option<Cid>)>,
    ) -> Result<()> {
        match write {
            Write::Create {
                collection,
                rkey,
                record,
            } => {
                let key = format!("{collection}/{rkey}");
                if self.mst.contains(&key) {
                    return Err(AtError::RepoError(format!("record exists: {key}")));
                }
                let bytes = record.to_cbor();
                let cid = Cid::for_cbor(&bytes);
                *bytes_written += bytes.len();
                let len = bytes.len();
                if self.store.put(cid, bytes) {
                    fresh_blocks.push(cid);
                    self.record_cids.insert(cid);
                    self.record_bytes += len;
                }
                let initial = self.mst.get(&key).copied();
                self.mst.insert(&key, cid)?;
                touched.entry(key).or_insert((initial, initial)).1 = Some(cid);
            }
            Write::Update {
                collection,
                rkey,
                record,
            } => {
                let key = format!("{collection}/{rkey}");
                if !self.mst.contains(&key) {
                    return Err(AtError::RepoError(format!("record missing: {key}")));
                }
                let bytes = record.to_cbor();
                let cid = Cid::for_cbor(&bytes);
                *bytes_written += bytes.len();
                let len = bytes.len();
                if self.store.put(cid, bytes) {
                    fresh_blocks.push(cid);
                    self.record_cids.insert(cid);
                    self.record_bytes += len;
                }
                let initial = self.mst.get(&key).copied();
                self.mst.insert(&key, cid)?;
                touched.entry(key).or_insert((initial, initial)).1 = Some(cid);
            }
            Write::Delete { collection, rkey } => {
                let key = format!("{collection}/{rkey}");
                let initial = self.mst.get(&key).copied();
                if self.mst.remove(&key).is_none() {
                    return Err(AtError::RepoError(format!("record missing: {key}")));
                }
                touched.entry(key).or_insert((initial, initial)).1 = None;
            }
        }
        Ok(())
    }

    /// Apply a batch of writes, producing a new signed commit.
    pub fn apply_writes(&mut self, writes: &[Write], now: Datetime) -> Result<CommitResult> {
        if writes.is_empty() {
            return Err(AtError::RepoError("empty write batch".into()));
        }
        let mut bytes_written = 0usize;
        let mut fresh_blocks: Vec<Cid> = Vec::new();
        // Net per-key change across the batch: key → (value before the
        // batch, value now). Tracking only the touched keys replaces the
        // old snapshot-the-tree-then-diff scheme, which cloned every key on
        // every commit; the ordered map keeps the derived ops key-sorted
        // exactly as `Mst::diff` reported them.
        let mut touched: BTreeMap<String, (Option<Cid>, Option<Cid>)> = BTreeMap::new();
        for write in writes {
            if let Err(err) =
                self.apply_one_write(write, &mut fresh_blocks, &mut bytes_written, &mut touched)
            {
                // Atomic batches: restore the index and drop the blocks this
                // batch introduced, so the store holds exactly the blocks
                // the commit log accounts for (no orphans — pinned by the
                // CountingStore test below).
                for (key, (initial, _)) in &touched {
                    match initial {
                        Some(cid) => {
                            let _ = self.mst.insert(key, *cid);
                        }
                        None => {
                            self.mst.remove(key);
                        }
                    }
                }
                for cid in &fresh_blocks {
                    self.record_bytes -= self.store.delete(cid);
                    self.record_cids.remove(cid);
                }
                return Err(err);
            }
        }
        let ops: Vec<RecordOp> = touched
            .iter()
            .filter_map(|(key, (initial, current))| match (initial, current) {
                (None, Some(cid)) => Some(RecordOp {
                    action: WriteAction::Create,
                    key: key.clone(),
                    cid: Some(*cid),
                }),
                (Some(old), Some(new)) if old != new => Some(RecordOp {
                    action: WriteAction::Update,
                    key: key.clone(),
                    cid: Some(*new),
                }),
                (Some(_), None) => Some(RecordOp {
                    action: WriteAction::Delete,
                    key: key.clone(),
                    cid: None,
                }),
                _ => None,
            })
            .collect();

        let rev = self.clock.next(now);
        // The tree reports only what this commit changed: the new nodes
        // (children before parents) are the structural blocks a
        // `getRepo(since)` delta must carry, and they alone reach the store.
        let MstCommit {
            root: data,
            created,
            removed: removed_node_cids,
        } = self.mst.commit();
        let mut node_cids = Vec::with_capacity(created.len());
        for node in created {
            node_cids.push(node.cid);
            self.current_node_cids.insert(node.cid);
            self.store.put(node.cid, node.bytes);
            self.stored_node_cids.insert(node.cid);
        }
        for cid in &removed_node_cids {
            self.current_node_cids.remove(cid);
        }
        let mut commit = Commit {
            did: self.did.clone(),
            version: 3,
            data,
            rev,
            prev: self.head_cid,
            sig: Signature([0u8; 32]),
        };
        commit.sig = self.signing_key.sign(&commit.unsigned_bytes());
        // Account for the MST root node and commit block; one encoding
        // serves both the byte count and the commit CID.
        let commit_bytes = commit.to_cbor();
        bytes_written += commit_bytes.len();
        let commit_cid = Cid::for_cbor(&commit_bytes);
        self.head_cid = Some(commit_cid);
        self.commits.push(commit.clone());
        self.log.push(CommitBlocks {
            record_cids: fresh_blocks,
            node_cids,
            removed_node_cids,
        });
        Ok(CommitResult {
            commit,
            commit_cid,
            ops,
            bytes_written,
        })
    }

    /// Convenience: create a record keyed by a fresh TID.
    pub fn create_record(
        &mut self,
        collection: Nsid,
        record: Record,
        now: Datetime,
    ) -> Result<(String, CommitResult)> {
        let rkey = self.clock.next(now).to_string();
        let result = self.apply_writes(
            &[Write::Create {
                collection,
                rkey: rkey.clone(),
                record,
            }],
            now,
        )?;
        Ok((rkey, result))
    }

    /// Export the full repository as a CAR-like archive: header + every
    /// retained block (commits, MST nodes, records). Used by
    /// `com.atproto.sync.getRepo`. Commits and record versions dropped by a
    /// compaction pass are gone from full exports too.
    pub fn export_car(&self) -> Vec<u8> {
        let commits: Vec<(Cid, Vec<u8>)> = self
            .commits
            .iter()
            .map(|commit| {
                let bytes = commit.to_cbor();
                (Cid::for_cbor(&bytes), bytes)
            })
            .collect();
        // Node blocks are borrowed from the tree's caches, not copied.
        let nodes = self.mst.node_blocks();
        let record_cids: Vec<Cid> = self.record_cids.iter().copied().collect();
        let records: Vec<(Cid, Vec<u8>)> = record_cids
            .iter()
            .zip(self.store.get_many(&record_cids))
            .filter_map(|(cid, bytes)| Some((*cid, bytes?)))
            .collect();
        let roots: Vec<Cid> = self.head_cid.into_iter().collect();
        let blocks = commits
            .iter()
            .map(|(cid, bytes)| (*cid, bytes.as_slice()))
            .chain(nodes.iter().map(|node| (node.cid, node.bytes.as_slice())))
            .chain(records.iter().map(|(cid, bytes)| (*cid, bytes.as_slice())));
        encode_car(&roots, blocks, None)
    }

    /// `com.atproto.sync.getRepo(did, since=rev)`: export only what a
    /// consumer synced to `since` is missing — the commits after `since`
    /// ([`DeltaScope::Records`] trims this to the head commit alone, which
    /// is all a decoded-record consumer verifies), the **net** MST node
    /// difference between the live tree and the tree at `since`
    /// (reconstructed by replaying the per-commit add/remove log backwards,
    /// so transient nodes that appeared and vanished between the two
    /// snapshots never travel; [`DeltaScope::Full`] only), and every record
    /// block written after `since` (including intermediate versions, which
    /// full exports also retain). A [`DeltaScope::Full`] delta applied to a
    /// full archive at `since` therefore yields a superset of a fresh full
    /// export: commit chain, live tree and record store all intact.
    ///
    /// Errors when `since` is not a revision of this repository (a rewound
    /// or replaced repo, or a revision predating a takedown) — or, as
    /// [`AtError::RevisionCompacted`], when a compaction pass dropped it
    /// from the delta-serving window: either way the caller must fall back
    /// to a full [`Repository::export_car`] fetch. A `since` equal to the
    /// head revision yields an empty delta (header only).
    pub fn export_car_since(&self, since: &Tid, scope: DeltaScope) -> Result<Vec<u8>> {
        let head = self
            .head()
            .ok_or_else(|| AtError::RepoError("repository has no commits".into()))?;
        let head_cid = self.head_cid.expect("head commit implies cached head CID");
        let index = self
            .commits
            .binary_search_by(|c| c.rev.cmp(since))
            .map_err(|_| match self.compacted_through {
                // Any revision at or below the compaction floor is gone from
                // the window; a revision above it was simply never ours.
                Some(floor) if *since <= floor => AtError::RevisionCompacted(format!(
                    "revision {since} of {} left the delta window (compacted through {floor})",
                    self.did
                )),
                _ => AtError::RepoError(format!(
                    "unknown revision {since} for {}: full fetch required",
                    self.did
                )),
            })?;
        let mut blocks: BTreeMap<Cid, Vec<u8>> = BTreeMap::new();
        // Store blocks to ship, read in one bulk pass.
        let mut wanted: Vec<Cid> = Vec::new();
        if index + 1 < self.commits.len() {
            blocks.insert(head_cid, head.to_cbor());
        }
        if scope == DeltaScope::Full {
            // The intermediate commits too, so the merged archive's `prev`
            // chain never dangles.
            for commit in &self.commits[index + 1..] {
                let bytes = commit.to_cbor();
                blocks.insert(Cid::for_cbor(&bytes), bytes);
            }
            // Node set at `since`, by backward replay of the per-commit
            // churn log — O(churn), never a tree rebuild.
            let mut nodes_at_since = self.current_node_cids.clone();
            for entry in self.log[index + 1..].iter().rev() {
                for cid in &entry.node_cids {
                    nodes_at_since.remove(cid);
                }
                for cid in &entry.removed_node_cids {
                    nodes_at_since.insert(*cid);
                }
            }
            wanted.extend(self.current_node_cids.difference(&nodes_at_since));
        }
        for entry in &self.log[index + 1..] {
            wanted.extend(&entry.record_cids);
        }
        for (cid, bytes) in wanted.iter().zip(self.store.get_many(&wanted)) {
            // Blocks purged by a garbage collection are skipped — the full
            // export no longer carries them either.
            if let Some(bytes) = bytes {
                blocks.insert(*cid, bytes);
            }
        }
        Ok(encode_car(
            &[head_cid],
            blocks.iter().map(|(c, b)| (*c, b.as_slice())),
            Some(since),
        ))
    }

    /// Reassemble a full archive from a previously fetched CAR plus a delta
    /// produced by [`Repository::export_car_since`]. Every block is verified
    /// against its CID during parsing; on top of that the merged store must
    /// contain the delta's head commit, that commit's MST root node, and the
    /// head revision must advance past the base's — otherwise the delta is
    /// rejected and the caller should fall back to a full fetch.
    pub fn apply_delta(base_car: &[u8], delta_car: &[u8]) -> Result<Vec<u8>> {
        let (base_roots, mut blocks) = Repository::parse_car(base_car)?;
        let (delta_roots, delta_blocks) = Repository::parse_car(delta_car)?;
        let root = delta_roots
            .first()
            .copied()
            .ok_or_else(|| AtError::RepoError("delta CAR has no root".into()))?;
        let base_rev = base_roots
            .first()
            .and_then(|r| blocks.get(r))
            .map(|bytes| commit_summary(bytes))
            .transpose()?
            .map(|(rev, _)| rev);
        blocks.extend(delta_blocks);
        let commit_bytes = blocks
            .get(&root)
            .ok_or_else(|| AtError::RepoError("delta head commit block missing".into()))?;
        let (rev, data) = commit_summary(commit_bytes)?;
        if let Some(base_rev) = base_rev {
            if rev < base_rev {
                return Err(AtError::RepoError(format!(
                    "delta head revision {rev} rewinds past base {base_rev}"
                )));
            }
        }
        if !blocks.contains_key(&data) {
            return Err(AtError::RepoError(
                "delta MST root block missing from merged archive".into(),
            ));
        }
        Ok(encode_car(
            &delta_roots,
            blocks.iter().map(|(c, b)| (*c, b.as_slice())),
            None,
        ))
    }

    /// Parse a CAR archive back into `(roots, blocks)`.
    pub fn parse_car(bytes: &[u8]) -> Result<ParsedCar> {
        let mut pos = 0usize;
        let (header_len, read) = read_varint(&bytes[pos..])?;
        pos += read;
        let header_end = pos + header_len as usize;
        if header_end > bytes.len() {
            return Err(AtError::RepoError("truncated CAR header".into()));
        }
        let header = cbor::decode(&bytes[pos..header_end])?;
        pos = header_end;
        let roots = header
            .get("roots")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_link)
            .copied()
            .collect();
        let mut blocks = BTreeMap::new();
        while pos < bytes.len() {
            let (len, read) = read_varint(&bytes[pos..])?;
            pos += read;
            let end = pos + len as usize;
            if end > bytes.len() || len < 36 {
                return Err(AtError::RepoError("truncated CAR block".into()));
            }
            let cid = Cid::from_bytes(&bytes[pos..pos + 36])?;
            let data = bytes[pos + 36..end].to_vec();
            if Cid::for_cbor(&data) != cid && Cid::for_raw(&data) != cid {
                return Err(AtError::RepoError(format!(
                    "block does not match CID {cid}"
                )));
            }
            blocks.insert(cid, data);
            pos = end;
        }
        Ok((roots, blocks))
    }

    /// Drop historical blocks that are no longer reachable from the live MST
    /// (models an "infrastructure takedown" / GDPR purge). Returns the number
    /// of bytes reclaimed.
    pub fn garbage_collect(&mut self) -> usize {
        let live: std::collections::BTreeSet<Cid> = self.mst.iter().map(|(_, c)| *c).collect();
        let before = self.record_bytes;
        let victims: Vec<Cid> = self
            .record_cids
            .iter()
            .filter(|cid| !live.contains(cid))
            .copied()
            .collect();
        for cid in victims {
            self.record_bytes -= self.store.delete(&cid);
            self.record_cids.remove(&cid);
        }
        before - self.record_bytes
    }

    /// The compaction pass: garbage-collect everything that aged out of the
    /// delta-serving window ending at `cutoff`.
    ///
    /// * **MST nodes** — every node block superseded by the live tree is
    ///   deleted unconditionally: deltas only ever ship *current* nodes (the
    ///   per-commit churn log reconstructs historical node sets without
    ///   needing their bytes), so stale nodes serve no retained revision.
    /// * **Commits + log entries** — commits with `rev < cutoff` leave the
    ///   window (the head commit is always retained). Subsequent
    ///   [`Repository::export_car_since`] calls for a dropped revision fail
    ///   with [`AtError::RevisionCompacted`] instead of silently serving a
    ///   wrong delta.
    /// * **Records** — record blocks introduced by dropped commits that are
    ///   neither live in the MST nor re-introduced by a retained commit are
    ///   deleted (old versions past the window).
    ///
    /// Idempotent: a second pass with the same cutoff reclaims nothing.
    pub fn compact_before(&mut self, cutoff: &Tid) -> CompactionStats {
        let mut stats = CompactionStats::default();
        // Stale node GC (cutoff-independent, see above).
        let stale: Vec<Cid> = self
            .stored_node_cids
            .difference(&self.current_node_cids)
            .copied()
            .collect();
        for cid in stale {
            stats.bytes_reclaimed += self.store.delete(&cid);
            stats.nodes_dropped += 1;
            self.stored_node_cids.remove(&cid);
        }
        // Commit-window compaction.
        if self.commits.len() > 1 {
            let floor = self
                .commits
                .partition_point(|c| c.rev < *cutoff)
                .min(self.commits.len() - 1);
            if floor > 0 {
                let live: std::collections::BTreeSet<Cid> =
                    self.mst.iter().map(|(_, c)| *c).collect();
                let retained: std::collections::BTreeSet<Cid> = self.log[floor..]
                    .iter()
                    .flat_map(|e| e.record_cids.iter().copied())
                    .collect();
                let dropped: Vec<Cid> = self.log[..floor]
                    .iter()
                    .flat_map(|e| e.record_cids.iter().copied())
                    .collect();
                for cid in dropped {
                    if !live.contains(&cid)
                        && !retained.contains(&cid)
                        && self.record_cids.remove(&cid)
                    {
                        let removed = self.store.delete(&cid);
                        self.record_bytes -= removed;
                        stats.bytes_reclaimed += removed;
                        stats.records_dropped += 1;
                    }
                }
                let last_dropped = self.commits[floor - 1].rev;
                self.compacted_through = Some(match self.compacted_through {
                    Some(prev) => prev.max(last_dropped),
                    None => last_dropped,
                });
                self.commits.drain(..floor);
                self.log.drain(..floor);
                stats.commits_dropped = floor;
            }
        }
        stats
    }
}

/// Serialise a CAR archive: varint-framed header (`version`, `roots`, and —
/// for deltas — the `since` revision) followed by varint-framed
/// `CID ‖ bytes` blocks.
fn encode_car<'a>(
    roots: &[Cid],
    blocks: impl Iterator<Item = (Cid, &'a [u8])>,
    since: Option<&Tid>,
) -> Vec<u8> {
    let mut fields = vec![
        ("version".to_string(), Value::Int(1)),
        (
            "roots".to_string(),
            Value::Array(roots.iter().map(|c| Value::Link(*c)).collect()),
        ),
    ];
    if let Some(since) = since {
        fields.push(("since".to_string(), Value::text(since.to_string())));
    }
    let header_bytes = cbor::encode(&Value::map(fields));
    let mut out = Vec::new();
    write_varint(header_bytes.len() as u64, &mut out);
    out.extend_from_slice(&header_bytes);
    for (cid, bytes) in blocks {
        let cid_bytes = cid.to_bytes();
        write_varint((cid_bytes.len() + bytes.len()) as u64, &mut out);
        out.extend_from_slice(&cid_bytes);
        out.extend_from_slice(bytes);
    }
    out
}

/// Decode the `(rev, data)` summary of an encoded commit block, without
/// needing the full [`Commit`] struct (delta consumers hold raw blocks).
pub fn commit_summary(bytes: &[u8]) -> Result<(Tid, Cid)> {
    let value = cbor::decode(bytes)?;
    let rev = value
        .get("rev")
        .and_then(Value::as_text)
        .ok_or_else(|| AtError::RepoError("commit block missing rev".into()))?;
    let data = value
        .get("data")
        .and_then(Value::as_link)
        .ok_or_else(|| AtError::RepoError("commit block missing data".into()))?;
    Ok((Tid::parse(rev)?, *data))
}

fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8]) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        value |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
        if shift > 63 {
            return Err(AtError::RepoError("varint overflow".into()));
        }
    }
    Err(AtError::RepoError("truncated varint".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsid::known;
    use crate::record::PostRecord;

    fn now() -> Datetime {
        Datetime::from_ymd_hms(2024, 4, 24, 9, 0, 0).unwrap()
    }

    fn post_nsid() -> Nsid {
        Nsid::parse(known::POST).unwrap()
    }

    fn new_repo(name: &str) -> Repository {
        Repository::new(Did::plc_from_seed(name.as_bytes()), b"network-secret")
    }

    fn post(text: &str) -> Record {
        Record::Post(PostRecord::simple(text, "en", now()))
    }

    #[test]
    fn create_get_update_delete_cycle() {
        let mut repo = new_repo("alice");
        assert!(repo.head().is_none());
        let (rkey, result) = repo
            .create_record(post_nsid(), post("first"), now())
            .unwrap();
        assert_eq!(result.ops.len(), 1);
        assert_eq!(result.ops[0].action, WriteAction::Create);
        assert_eq!(result.ops[0].collection(), known::POST);
        assert_eq!(repo.record_count(), 1);
        assert_eq!(repo.get_record(&post_nsid(), &rkey), Some(post("first")));

        let update = repo
            .apply_writes(
                &[Write::Update {
                    collection: post_nsid(),
                    rkey: rkey.clone(),
                    record: post("edited"),
                }],
                now().plus_seconds(10),
            )
            .unwrap();
        assert_eq!(update.ops[0].action, WriteAction::Update);
        assert_eq!(repo.get_record(&post_nsid(), &rkey), Some(post("edited")));

        let delete = repo
            .apply_writes(
                &[Write::Delete {
                    collection: post_nsid(),
                    rkey: rkey.clone(),
                }],
                now().plus_seconds(20),
            )
            .unwrap();
        assert_eq!(delete.ops[0].action, WriteAction::Delete);
        assert!(repo.get_record(&post_nsid(), &rkey).is_none());
        assert_eq!(repo.record_count(), 0);
        assert_eq!(repo.commits().len(), 3);
    }

    #[test]
    fn commit_chain_links_and_revs_increase() {
        let mut repo = new_repo("bob");
        for i in 0..5 {
            repo.create_record(post_nsid(), post(&format!("post {i}")), now())
                .unwrap();
        }
        let commits = repo.commits();
        assert_eq!(commits.len(), 5);
        assert!(commits[0].prev.is_none());
        for i in 1..commits.len() {
            assert_eq!(commits[i].prev, Some(commits[i - 1].cid()));
            assert!(commits[i].rev > commits[i - 1].rev);
        }
    }

    #[test]
    fn commits_are_signed_and_verifiable() {
        let mut repo = new_repo("carol");
        repo.create_record(post_nsid(), post("signed"), now())
            .unwrap();
        let head = repo.head().unwrap().clone();
        assert!(head.verify(repo.signing_key()));
        // A different key does not verify.
        let other = SigningKey::from_seed(b"other");
        assert!(!head.verify(&other));
        // Tampering with the data pointer breaks verification.
        let mut tampered = head.clone();
        tampered.data = Cid::for_cbor(b"evil");
        assert!(!tampered.verify(repo.signing_key()));
    }

    #[test]
    fn rejects_conflicting_writes() {
        let mut repo = new_repo("dave");
        let (rkey, _) = repo.create_record(post_nsid(), post("x"), now()).unwrap();
        // Creating over an existing key fails and rolls back.
        let err = repo.apply_writes(
            &[Write::Create {
                collection: post_nsid(),
                rkey: rkey.clone(),
                record: post("y"),
            }],
            now(),
        );
        assert!(err.is_err());
        assert_eq!(repo.get_record(&post_nsid(), &rkey), Some(post("x")));
        // Updating or deleting a missing key fails.
        assert!(repo
            .apply_writes(
                &[Write::Update {
                    collection: post_nsid(),
                    rkey: "missing123".into(),
                    record: post("z"),
                }],
                now()
            )
            .is_err());
        assert!(repo
            .apply_writes(
                &[Write::Delete {
                    collection: post_nsid(),
                    rkey: "missing123".into(),
                }],
                now()
            )
            .is_err());
        // Empty batches are rejected.
        assert!(repo.apply_writes(&[], now()).is_err());
        assert_eq!(repo.commits().len(), 1);
    }

    #[test]
    fn list_collection_and_all_records() {
        let mut repo = new_repo("erin");
        repo.create_record(post_nsid(), post("a"), now()).unwrap();
        repo.create_record(post_nsid(), post("b"), now()).unwrap();
        repo.create_record(
            Nsid::parse(known::FOLLOW).unwrap(),
            Record::Follow(crate::record::FollowRecord {
                subject: Did::plc_from_seed(b"frank"),
                created_at: now(),
            }),
            now(),
        )
        .unwrap();
        assert_eq!(repo.list_collection(&post_nsid()).len(), 2);
        assert_eq!(
            repo.list_collection(&Nsid::parse(known::FOLLOW).unwrap())
                .len(),
            1
        );
        assert_eq!(repo.all_records().len(), 3);
    }

    #[test]
    fn car_export_roundtrip() {
        let mut repo = new_repo("grace");
        for i in 0..20 {
            repo.create_record(post_nsid(), post(&format!("post {i}")), now())
                .unwrap();
        }
        let car = repo.export_car();
        assert!(!car.is_empty());
        let (roots, blocks) = Repository::parse_car(&car).unwrap();
        assert_eq!(roots, vec![repo.head().unwrap().cid()]);
        // Every live record block is present and matches its CID.
        for (_, _, record) in repo.all_records() {
            let cid = Cid::for_cbor(&record.to_cbor());
            assert!(blocks.contains_key(&cid));
        }
        // The head commit block is present.
        assert!(blocks.contains_key(&roots[0]));
    }

    /// All blocks of a CAR that decode as records, in CID order — the view
    /// the §3 repositories dataset takes of an archive.
    fn decoded_records(car: &[u8]) -> Vec<Record> {
        let (_, blocks) = Repository::parse_car(car).unwrap();
        blocks
            .values()
            .filter_map(|b| Record::from_cbor(b).ok())
            .collect()
    }

    #[test]
    fn delta_since_head_is_empty() {
        let mut repo = new_repo("judy");
        repo.create_record(post_nsid(), post("only"), now())
            .unwrap();
        let head_rev = repo.rev().unwrap();
        let delta = repo.export_car_since(&head_rev, DeltaScope::Full).unwrap();
        let (roots, blocks) = Repository::parse_car(&delta).unwrap();
        assert_eq!(roots, vec![repo.head().unwrap().cid()]);
        assert!(blocks.is_empty(), "delta since head must carry no blocks");
    }

    #[test]
    fn delta_since_unknown_rev_errors_for_full_refetch() {
        let mut repo = new_repo("kate");
        repo.create_record(post_nsid(), post("x"), now()).unwrap();
        // A revision this repository never produced (e.g. the consumer's
        // state predates a repo rewind or replacement).
        let foreign = Tid::from_micros(1, 1);
        let err = repo
            .export_car_since(&foreign, DeltaScope::Full)
            .unwrap_err();
        assert!(err.to_string().contains("full fetch required"), "{err}");
        // An empty repository cannot serve deltas at all.
        let empty = new_repo("empty");
        assert!(empty.export_car_since(&foreign, DeltaScope::Full).is_err());
    }

    #[test]
    fn delta_applied_to_base_matches_full_export() {
        let mut repo = new_repo("liam");
        let mut rkeys = Vec::new();
        for i in 0..8 {
            let (rkey, _) = repo
                .create_record(post_nsid(), post(&format!("v0 {i}")), now())
                .unwrap();
            rkeys.push(rkey);
        }
        let base_rev = repo.rev().unwrap();
        let base_car = repo.export_car();

        // Update the same record twice (the intermediate version must still
        // reach the consumer: full exports carry every historical block),
        // delete one record and re-add under the same key, and create new
        // records.
        for text in ["edit one", "edit two"] {
            repo.apply_writes(
                &[Write::Update {
                    collection: post_nsid(),
                    rkey: rkeys[0].clone(),
                    record: post(text),
                }],
                now().plus_seconds(5),
            )
            .unwrap();
        }
        repo.apply_writes(
            &[Write::Delete {
                collection: post_nsid(),
                rkey: rkeys[1].clone(),
            }],
            now().plus_seconds(10),
        )
        .unwrap();
        repo.apply_writes(
            &[Write::Create {
                collection: post_nsid(),
                rkey: rkeys[1].clone(),
                record: post("readded"),
            }],
            now().plus_seconds(15),
        )
        .unwrap();
        repo.create_record(post_nsid(), post("brand new"), now().plus_seconds(20))
            .unwrap();

        let full_car = repo.export_car();
        let delta = repo.export_car_since(&base_rev, DeltaScope::Full).unwrap();
        assert!(
            delta.len() < full_car.len(),
            "delta ({}) must be smaller than the full export ({})",
            delta.len(),
            full_car.len()
        );
        let merged = Repository::apply_delta(&base_car, &delta).unwrap();
        // Same head, and the record view is byte-identical to a fresh full
        // fetch — including the intermediate "edit one" version.
        let (merged_roots, merged_blocks) = Repository::parse_car(&merged).unwrap();
        assert_eq!(merged_roots, vec![repo.head().unwrap().cid()]);
        assert_eq!(decoded_records(&merged), decoded_records(&full_car));
        assert!(decoded_records(&merged).contains(&post("edit one")));
        // The head commit and the whole live tree are reachable in the
        // merged store (deltas ship the net node difference; the base
        // supplied the unchanged nodes).
        let (rev, data) = commit_summary(merged_blocks.get(&merged_roots[0]).unwrap()).unwrap();
        assert_eq!(rev, repo.rev().unwrap());
        assert!(merged_blocks.contains_key(&data));
        // In fact the merged store covers everything a fresh full export
        // carries — commit chain included, so `prev` links never dangle.
        let (_, full_blocks) = Repository::parse_car(&full_car).unwrap();
        for cid in full_blocks.keys() {
            assert!(
                merged_blocks.contains_key(cid),
                "block {cid} missing from merged archive"
            );
        }
    }

    #[test]
    fn log_replay_delta_matches_the_reference_node_diff_walk() {
        // `export_car_since` derives its node section from the per-commit
        // add/remove log (O(churn)); `Mst::node_delta` is the reference
        // diff walk (O(n) tree builds). They must agree exactly.
        let mut repo = new_repo("pia");
        let mut rkeys = Vec::new();
        for i in 0..30 {
            let (rkey, _) = repo
                .create_record(post_nsid(), post(&format!("base {i}")), now())
                .unwrap();
            rkeys.push(rkey);
        }
        let since = repo.rev().unwrap();
        let base_mst = repo.mst.clone();
        // A week of churn: creates, an update, a delete + re-add.
        for i in 0..6 {
            repo.create_record(
                post_nsid(),
                post(&format!("new {i}")),
                now().plus_seconds(i),
            )
            .unwrap();
        }
        repo.apply_writes(
            &[Write::Update {
                collection: post_nsid(),
                rkey: rkeys[3].clone(),
                record: post("edited"),
            }],
            now().plus_seconds(10),
        )
        .unwrap();
        repo.apply_writes(
            &[Write::Delete {
                collection: post_nsid(),
                rkey: rkeys[4].clone(),
            }],
            now().plus_seconds(11),
        )
        .unwrap();
        repo.apply_writes(
            &[Write::Create {
                collection: post_nsid(),
                rkey: rkeys[4].clone(),
                record: post("readded"),
            }],
            now().plus_seconds(12),
        )
        .unwrap();

        let delta = repo.export_car_since(&since, DeltaScope::Full).unwrap();
        let (_, blocks) = Repository::parse_car(&delta).unwrap();
        let delta_nodes: std::collections::BTreeSet<Cid> = blocks
            .iter()
            .filter(|(_, bytes)| {
                Record::from_cbor(bytes).is_err() && commit_summary(bytes).is_err()
            })
            .map(|(cid, _)| *cid)
            .collect();
        let reference: std::collections::BTreeSet<Cid> = repo
            .mst
            .node_delta(&base_mst)
            .iter()
            .map(|n| n.cid)
            .collect();
        assert!(!reference.is_empty());
        assert_eq!(delta_nodes, reference);
    }

    #[test]
    fn chained_deltas_across_three_snapshots() {
        let mut repo = new_repo("mona");
        repo.create_record(post_nsid(), post("one"), now()).unwrap();
        let rev1 = repo.rev().unwrap();
        let car1 = repo.export_car();
        repo.create_record(post_nsid(), post("two"), now().plus_seconds(1))
            .unwrap();
        let rev2 = repo.rev().unwrap();
        let car2 = Repository::apply_delta(
            &car1,
            &repo.export_car_since(&rev1, DeltaScope::Full).unwrap(),
        )
        .unwrap();
        repo.create_record(post_nsid(), post("three"), now().plus_seconds(2))
            .unwrap();
        let car3 = Repository::apply_delta(
            &car2,
            &repo.export_car_since(&rev2, DeltaScope::Full).unwrap(),
        )
        .unwrap();
        assert_eq!(decoded_records(&car3), decoded_records(&repo.export_car()));
    }

    #[test]
    fn apply_delta_rejects_bad_deltas() {
        let mut repo = new_repo("nina");
        repo.create_record(post_nsid(), post("a"), now()).unwrap();
        let rev = repo.rev().unwrap();
        let base = repo.export_car();
        repo.create_record(post_nsid(), post("b"), now().plus_seconds(1))
            .unwrap();
        let delta = repo.export_car_since(&rev, DeltaScope::Full).unwrap();
        // Corrupted delta: block hash check fails during parsing.
        let mut corrupt = delta.clone();
        let idx = corrupt.len() - 3;
        corrupt[idx] ^= 0xff;
        assert!(Repository::apply_delta(&base, &corrupt).is_err());
        // A delta without roots is rejected.
        let empty_repo = new_repo("empty2");
        assert!(Repository::apply_delta(&base, &empty_repo.export_car()).is_err());
        // Applying a stale base's delta in the wrong direction (new base,
        // old head) is a rewind and is rejected.
        let newer_base = repo.export_car();
        let old_only = new_repo("nina"); // fresh: no commits
        assert!(old_only.export_car_since(&rev, DeltaScope::Full).is_err());
        let _ = newer_base;
    }

    #[test]
    fn failed_batches_leave_the_store_unchanged() {
        let mut repo = new_repo("olga");
        let (rkey, _) = repo
            .create_record(post_nsid(), post("keep"), now())
            .unwrap();
        let size_before = repo.store_size();
        // The first write of this batch inserts a fresh block, then the
        // second write fails: the whole batch must roll back, store
        // included, so the commit log stays exact.
        let err = repo.apply_writes(
            &[
                Write::Create {
                    collection: post_nsid(),
                    rkey: "fresh123".into(),
                    record: post("should vanish"),
                },
                Write::Create {
                    collection: post_nsid(),
                    rkey: rkey.clone(),
                    record: post("conflicts"),
                },
            ],
            now(),
        );
        assert!(err.is_err());
        assert_eq!(repo.store_size(), size_before);
        assert_eq!(repo.commits().len(), 1);
        let vanished = Cid::for_cbor(&post("should vanish").to_cbor());
        assert!(repo.get_block(&vanished).is_none());
    }

    #[test]
    fn failed_batches_leave_a_counted_store_byte_identical() {
        // Satellite regression: the rollback path must delete exactly the
        // blocks the failed batch put — no orphans — which the CountingStore
        // wrapper proves without peeking inside the repository.
        use crate::blockstore::{CountingStore, MemStore};
        let did = Did::plc_from_seed(b"counted");
        let (store, totals) = CountingStore::new(Box::new(MemStore::new()));
        let mut repo = Repository::with_store(did, b"network-secret", Box::new(store));
        let (rkey, _) = repo
            .create_record(post_nsid(), post("keep"), now())
            .unwrap();
        let car_before = repo.export_car();
        let size_before = repo.store_size();
        let puts_before = totals.puts();
        let deletes_before = totals.deletes();
        let bytes_put_before = totals.bytes_put();
        let bytes_deleted_before = totals.bytes_deleted();
        let err = repo.apply_writes(
            &[
                Write::Create {
                    collection: post_nsid(),
                    rkey: "fresh456".into(),
                    record: post("orphan candidate"),
                },
                Write::Create {
                    collection: post_nsid(),
                    rkey,
                    record: post("conflicts"),
                },
            ],
            now(),
        );
        assert!(err.is_err());
        // The batch really wrote before failing, and every write was undone.
        let puts = totals.puts() - puts_before;
        let deletes = totals.deletes() - deletes_before;
        assert!(puts >= 1, "the first write must have hit the store");
        assert_eq!(puts, deletes, "orphaned blocks left behind");
        assert_eq!(
            totals.bytes_put() - bytes_put_before,
            totals.bytes_deleted() - bytes_deleted_before,
            "rolled-back bytes must match the bytes written"
        );
        // And the store is byte-identical: the full export round-trips.
        assert_eq!(repo.export_car(), car_before);
        assert_eq!(repo.store_size(), size_before);
    }

    /// Each commit's node log must be the set difference of full tree
    /// rebuilds before and after it, the new nodes in the rebuild's
    /// post-order: they reach the store in that order, which fixes the
    /// paged store's page layout and spill bytes.
    #[test]
    fn commit_node_log_matches_full_rebuild_difference() {
        use std::collections::BTreeSet;
        let mut repo = new_repo("tara");
        let mut live: BTreeSet<Cid> = BTreeSet::new();
        let mut check = |repo: &Repository| {
            let (root, nodes) = repo.mst.build_with(true);
            let after: BTreeSet<Cid> = nodes.iter().map(|n| n.cid).collect();
            let entry = repo.log.last().expect("a commit");
            let created: Vec<Cid> = nodes
                .iter()
                .map(|n| n.cid)
                .filter(|cid| !live.contains(cid))
                .collect();
            assert_eq!(entry.node_cids, created);
            let removed: Vec<Cid> = live.difference(&after).copied().collect();
            assert_eq!(entry.removed_node_cids, removed);
            assert_eq!(repo.head().expect("a commit").data, root);
            assert_eq!(repo.current_node_cids, after);
            live = after;
        };
        let write = |rkey: &str, text: &str, update: bool| {
            let (collection, rkey, record) = (post_nsid(), rkey.to_string(), post(text));
            match update {
                false => Write::Create {
                    collection,
                    rkey,
                    record,
                },
                true => Write::Update {
                    collection,
                    rkey,
                    record,
                },
            }
        };
        let delete = |rkey: &str| Write::Delete {
            collection: post_nsid(),
            rkey: rkey.to_string(),
        };
        let rkeys: Vec<String> = (0..120)
            .map(|i| format!("k{:04}", (i * 37) % 120))
            .collect();
        let mut t = 0;
        let mut commit = |repo: &mut Repository, writes: &[Write]| {
            t += 1;
            repo.apply_writes(writes, now().plus_seconds(t))
        };
        // Growth in single writes and in batches, out of key order.
        for chunk in rkeys.chunks(7) {
            commit(&mut repo, &[write(&chunk[0], &chunk[0], false)]).unwrap();
            check(&repo);
            let batch: Vec<Write> = chunk[1..].iter().map(|k| write(k, k, false)).collect();
            if !batch.is_empty() {
                commit(&mut repo, &batch).unwrap();
                check(&repo);
            }
        }
        // Updates, a no-op update, deletes, a delete + re-add in one batch,
        // a create + delete in one batch, and a failed batch.
        commit(&mut repo, &[write(&rkeys[3], "edited", true)]).unwrap();
        check(&repo);
        commit(&mut repo, &[write(&rkeys[4], &rkeys[4], true)]).unwrap();
        check(&repo);
        commit(&mut repo, &[delete(&rkeys[5]), delete(&rkeys[6])]).unwrap();
        check(&repo);
        commit(
            &mut repo,
            &[delete(&rkeys[7]), write(&rkeys[7], "again", false)],
        )
        .unwrap();
        check(&repo);
        commit(
            &mut repo,
            &[write("transient", "x", false), delete("transient")],
        )
        .unwrap();
        check(&repo);
        let failed = [delete(&rkeys[8]), write(&rkeys[9], "dup", false)];
        assert!(commit(&mut repo, &failed).is_err());
        commit(&mut repo, &[write(&rkeys[10], "after failure", true)]).unwrap();
        check(&repo);
        // Drain to the empty tree (its root is the empty node), then refill.
        let remaining: Vec<String> = repo.mst.iter().map(|(k, _)| k.to_string()).collect();
        for chunk in remaining.chunks(16) {
            let batch: Vec<Write> = chunk
                .iter()
                .map(|key| delete(key.split_once('/').expect("key").1))
                .collect();
            commit(&mut repo, &batch).unwrap();
            check(&repo);
        }
        assert_eq!(repo.record_count(), 0);
        for rkey in rkeys.iter().take(10) {
            commit(&mut repo, &[write(rkey, "refill", false)]).unwrap();
            check(&repo);
        }
    }

    /// The commit path re-encodes only the touched root-to-leaf path; a
    /// no-op replace and a failed, rolled-back batch encode nothing.
    #[test]
    fn mst_work_per_commit_stays_on_the_touched_path() {
        use crate::blockstore::{CountingStore, MemStore};
        let did = Did::plc_from_seed(b"ursula");
        let (store, totals) = CountingStore::new(Box::new(MemStore::new()));
        let mut repo = Repository::with_store(did, b"network-secret", Box::new(store));
        let mut per_commit = Vec::new();
        let mut rkeys = Vec::new();
        for i in 0..2_000 {
            let encoded = repo.mst_nodes_encoded();
            let (rkey, _) = repo
                .create_record(
                    post_nsid(),
                    post(&format!("post {i}")),
                    now().plus_seconds(i),
                )
                .unwrap();
            per_commit.push(repo.mst_nodes_encoded() - encoded);
            rkeys.push(rkey);
        }
        assert_eq!(repo.record_count(), 2_000);
        per_commit.sort_unstable();
        let median = per_commit[per_commit.len() / 2];
        assert!(median <= 8, "median nodes encoded per commit: {median}");

        // A no-op replace: same record, same tree.
        let (encoded, puts, root) = (repo.mst_nodes_encoded(), totals.puts(), repo.mst.root_cid());
        repo.apply_writes(
            &[Write::Update {
                collection: post_nsid(),
                rkey: rkeys[7].clone(),
                record: post("post 7"),
            }],
            now().plus_seconds(3_000),
        )
        .unwrap();
        assert_eq!(repo.mst_nodes_encoded(), encoded);
        assert_eq!(totals.puts(), puts);
        assert_eq!(repo.head().unwrap().data, root);
        let entry = repo.log.last().unwrap();
        assert!(entry.node_cids.is_empty() && entry.removed_node_cids.is_empty());

        // A failed batch rolls back without encoding; the next commit puts
        // only its own new path.
        let (puts, deletes) = (totals.puts(), totals.deletes());
        let failed = repo.apply_writes(
            &[
                Write::Delete {
                    collection: post_nsid(),
                    rkey: rkeys[100].clone(),
                },
                Write::Create {
                    collection: post_nsid(),
                    rkey: "fresh789".into(),
                    record: post("rolled back"),
                },
                Write::Create {
                    collection: post_nsid(),
                    rkey: rkeys[5].clone(),
                    record: post("conflicts"),
                },
            ],
            now().plus_seconds(3_001),
        );
        assert!(failed.is_err());
        assert_eq!(repo.mst_nodes_encoded(), encoded);
        assert_eq!(totals.puts() - puts, totals.deletes() - deletes);
        assert_eq!(repo.mst.root_cid(), root, "the rollback restored the tree");
        let puts = totals.puts();
        repo.create_record(post_nsid(), post("after"), now().plus_seconds(3_002))
            .unwrap();
        let entry = repo.log.last().unwrap();
        assert_eq!(
            totals.puts() - puts,
            1 + entry.node_cids.len() as u64,
            "the record plus its new path nodes"
        );
        assert!(entry.node_cids.len() <= 8);
    }

    #[test]
    fn paged_store_repository_exports_identically_to_mem() {
        use crate::blockstore::StoreConfig;
        let did = Did::plc_from_seed(b"paged-repo");
        let mut mem = Repository::new(did.clone(), b"network-secret");
        let paged_config = StoreConfig::paged().page_size(256).resident_pages(1);
        let mut paged = Repository::with_store(did, b"network-secret", paged_config.build());
        for i in 0..40 {
            let t = now().plus_seconds(i);
            mem.create_record(post_nsid(), post(&format!("post {i}")), t)
                .unwrap();
            paged
                .create_record(post_nsid(), post(&format!("post {i}")), t)
                .unwrap();
        }
        let stats = paged.store_stats();
        assert!(stats.spilled_bytes > 0, "paged repo must spill: {stats:?}");
        assert!(stats.resident_bytes < mem.store_stats().resident_bytes);
        // Byte-identical exports, full and delta.
        assert_eq!(paged.export_car(), mem.export_car());
        let since = mem.commits()[10].rev;
        assert_eq!(
            paged.export_car_since(&since, DeltaScope::Full).unwrap(),
            mem.export_car_since(&since, DeltaScope::Full).unwrap()
        );
        assert_eq!(paged.all_records(), mem.all_records());
    }

    #[test]
    fn compaction_reclaims_nodes_and_aged_records() {
        let mut repo = new_repo("quinn");
        let mut rkeys = Vec::new();
        for i in 0..20 {
            let (rkey, _) = repo
                .create_record(post_nsid(), post(&format!("v{i}")), now().plus_seconds(i))
                .unwrap();
            rkeys.push(rkey);
        }
        // Replace a record twice: two unreachable historical versions.
        for (offset, text) in [(100, "edit a"), (101, "edit b")] {
            repo.apply_writes(
                &[Write::Update {
                    collection: post_nsid(),
                    rkey: rkeys[0].clone(),
                    record: post(text),
                }],
                now().plus_seconds(offset),
            )
            .unwrap();
        }
        let store_bytes_before = repo.store_stats().logical_bytes;
        let commits_before = repo.commits().len();
        let mid_rev = repo.commits()[commits_before - 2].rev;
        let head_rev = repo.rev().unwrap();
        let delta_before = repo.export_car_since(&mid_rev, DeltaScope::Full).unwrap();
        let expected_floor = repo.commits()[commits_before - 3].rev;

        // Compact everything older than the last two commits.
        let cutoff = mid_rev;
        let stats = repo.compact_before(&cutoff);
        assert!(stats.commits_dropped > 0);
        assert!(stats.nodes_dropped > 0, "stale nodes must be reclaimed");
        assert!(
            stats.records_dropped >= 1,
            "the superseded original version must be reclaimed: {stats:?}"
        );
        assert!(repo.store_stats().logical_bytes < store_bytes_before);
        assert_eq!(repo.commits().len(), commits_before - stats.commits_dropped);
        assert_eq!(repo.compacted_through(), Some(expected_floor));

        // Retained revisions still serve byte-identical deltas.
        assert_eq!(
            repo.export_car_since(&mid_rev, DeltaScope::Full).unwrap(),
            delta_before
        );
        let empty = repo.export_car_since(&head_rev, DeltaScope::Full).unwrap();
        let (_, blocks) = Repository::parse_car(&empty).unwrap();
        assert!(blocks.is_empty());

        // Compacted revisions fail loudly with the dedicated error, so the
        // caller falls back to a full fetch *visibly*.
        let old_rev = rkeys[1].parse::<Tid>().unwrap();
        let err = repo
            .export_car_since(&old_rev, DeltaScope::Full)
            .unwrap_err();
        assert!(
            matches!(err, AtError::RevisionCompacted(_)),
            "expected RevisionCompacted, got {err}"
        );
        // A foreign revision *newer* than the floor is still a plain
        // unknown-revision error.
        let foreign = Tid::from_micros(u64::MAX >> 12, 1);
        assert!(matches!(
            repo.export_car_since(&foreign, DeltaScope::Full)
                .unwrap_err(),
            AtError::RepoError(_)
        ));
        // The full export still parses and carries the live tree.
        let (roots, full_blocks) = Repository::parse_car(&repo.export_car()).unwrap();
        let (_, data) = commit_summary(full_blocks.get(&roots[0]).unwrap()).unwrap();
        assert!(full_blocks.contains_key(&data));
        // Idempotent: a second pass reclaims nothing.
        assert_eq!(repo.compact_before(&cutoff), CompactionStats::default());
    }

    #[test]
    fn compaction_keeps_live_old_records() {
        // A record created long ago but still live must survive compaction
        // and still reach consumers through full exports.
        let mut repo = new_repo("rosa");
        repo.create_record(post_nsid(), post("ancient but live"), now())
            .unwrap();
        for i in 0..10 {
            repo.create_record(
                post_nsid(),
                post(&format!("later {i}")),
                now().plus_days(30 + i),
            )
            .unwrap();
        }
        let cutoff = repo.commits()[8].rev;
        let stats = repo.compact_before(&cutoff);
        assert!(stats.commits_dropped > 0);
        assert_eq!(stats.records_dropped, 0, "live records must be retained");
        let records = decoded_records(&repo.export_car());
        assert!(records.contains(&post("ancient but live")));
        assert_eq!(records.len(), 11);
    }

    #[test]
    fn parse_car_rejects_corruption() {
        let mut repo = new_repo("henry");
        repo.create_record(post_nsid(), post("x"), now()).unwrap();
        let mut car = repo.export_car();
        // Flip a byte near the end (inside some block payload).
        let idx = car.len() - 3;
        car[idx] ^= 0xff;
        assert!(Repository::parse_car(&car).is_err());
        assert!(Repository::parse_car(&[]).is_err());
    }

    #[test]
    fn deleted_blocks_persist_until_gc() {
        let mut repo = new_repo("iris");
        let (rkey, _) = repo
            .create_record(post_nsid(), post("to be deleted"), now())
            .unwrap();
        let record_cid = Cid::for_cbor(&post("to be deleted").to_cbor());
        repo.apply_writes(
            &[Write::Delete {
                collection: post_nsid(),
                rkey,
            }],
            now(),
        )
        .unwrap();
        // The paper notes deleted content remains recoverable from the repo.
        assert!(repo.get_block(&record_cid).is_some());
        let reclaimed = repo.garbage_collect();
        assert!(reclaimed > 0);
        assert!(repo.get_block(&record_cid).is_none());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX / 2,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let (back, read) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(read, buf.len());
        }
        assert!(read_varint(&[]).is_err());
        assert!(read_varint(&[0x80]).is_err());
    }
}
