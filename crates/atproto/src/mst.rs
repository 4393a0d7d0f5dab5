//! Merkle Search Tree (MST).
//!
//! ATProto repositories store their record index in an MST: a deterministic,
//! content-addressed search tree whose shape depends only on the set of keys
//! it contains (never on insertion order). Keys are `<collection>/<rkey>`
//! strings and values are CIDs of the record blocks.
//!
//! A key's layer is the number of leading zero bit pairs of `sha256(key)`,
//! exactly like the reference implementation. The root sits on the highest
//! layer present; a node on layer `L` holds the layer-`L` keys of its key
//! range, and each gap between them (and at both ends) that holds keys
//! becomes a child on layer `L - 1`. A gap whose keys all sit lower still is
//! an entry-less node pointing further down.
//!
//! The tree is kept **persistent**: every node lives across commits and
//! caches its encoded block and CID. An insert or remove rewrites only the
//! nodes on its root-to-leaf path (plus the two halves of a gap it splits or
//! the gap pair it merges) and drops their cached encodings, so the next
//! read re-encodes and re-hashes ≈ log₄ n nodes instead of the whole tree.
//! [`Mst::commit`] hands the repository exactly what changed since the
//! previous commit: the new root, the new node blocks (children before
//! parents, the order a full rebuild emits them) and the CIDs of the nodes
//! they replaced. A full rebuild from the sorted key list survives only as
//! the oracle the tests pin the incremental tree against and as the
//! legacy-encoding measurement behind [`Mst::structural_size_uncompressed`].
//! Node blocks are encoded directly to bytes with [`crate::cbor`]'s raw
//! writers — byte-identical to the generic `Value` encoder, without
//! allocating a value tree per node.
//!
//! Node entries are **prefix-compressed on the wire**, as in the reference
//! implementation: within a node, each entry carries `p` (the number of key
//! bytes shared with the previous entry's key) and `k` (the remaining
//! suffix). Sibling record keys share long `<collection>/<rkey>` prefixes,
//! so this shrinks every node block — and with them full CAR exports and the
//! structural section of `getRepo(since)` deltas. [`decode_node`] undoes the
//! compression; [`Mst::structural_size_uncompressed`] measures the legacy
//! full-key encoding so the streaming bench can assert the byte win.

use crate::cbor::Value;
use crate::cid::Cid;
use crate::crypto::sha256;
use crate::error::{AtError, Result};
use std::cell::{Cell, OnceCell};

/// The fanout parameter: a key's layer is the number of leading zero *pairs of
/// bits* in its SHA-256 hash (fanout 4, as in the reference implementation).
const BITS_PER_LAYER: u32 = 2;

/// Compute the MST layer of a key.
pub fn key_layer(key: &str) -> u32 {
    let digest = sha256(key.as_bytes());
    let mut zeros = 0u32;
    for byte in digest {
        if byte == 0 {
            zeros += 8;
            continue;
        }
        zeros += byte.leading_zeros();
        break;
    }
    zeros / BITS_PER_LAYER
}

/// Validate an MST key (`<collection>/<rkey>`).
pub fn validate_key(key: &str) -> Result<()> {
    let (collection, rkey) = key
        .split_once('/')
        .ok_or_else(|| AtError::RepoError(format!("MST key missing '/': {key}")))?;
    if collection.is_empty() || rkey.is_empty() || key.len() > 256 {
        return Err(AtError::RepoError(format!("invalid MST key: {key}")));
    }
    if !key
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_' || b == b'/')
    {
        return Err(AtError::RepoError(format!("invalid MST key bytes: {key}")));
    }
    Ok(())
}

/// A child subtree, absent when its gap holds no keys.
type Link = Option<Box<Node>>;

/// One key of a node, with the subtree of the gap after it.
#[derive(Debug, Clone)]
struct Entry {
    key: Box<str>,
    value: Cid,
    right: Link,
}

/// A persistent tree node. Its encoded block is cached in `enc` until a
/// mutation touches the node.
#[derive(Debug, Clone)]
struct Node {
    layer: u32,
    /// Subtree of the gap before the first entry.
    left: Link,
    entries: Vec<Entry>,
    enc: OnceCell<MstNode>,
    /// Created or changed since the last [`Mst::commit`]. Every ancestor of
    /// a fresh node is fresh, so a commit finds them all by a walk that
    /// stops at the first committed node of each branch.
    fresh: bool,
}

impl Node {
    fn new(layer: u32) -> Node {
        Node {
            layer,
            left: None,
            entries: Vec::new(),
            enc: OnceCell::new(),
            fresh: true,
        }
    }

    /// Mark the node changed (or about to be dropped): its cached encoding
    /// goes, and a committed node's CID joins `replaced`.
    fn touch(&mut self, replaced: &mut Vec<Cid>) {
        if let Some(old) = self.enc.take() {
            if !self.fresh {
                replaced.push(old.cid);
            }
        }
        self.fresh = true;
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.left.is_none()
    }

    /// The entry holding `key`, or the index of the gap it falls into.
    fn search(&self, key: &str) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by(|e| (*e.key).cmp(key))
    }

    /// The subtree of gap `i`: before entry `i`, after entry `i - 1`.
    fn gap(&self, i: usize) -> Option<&Node> {
        match i {
            0 => self.left.as_deref(),
            _ => self.entries[i - 1].right.as_deref(),
        }
    }

    fn gap_mut(&mut self, i: usize) -> &mut Link {
        match i {
            0 => &mut self.left,
            _ => &mut self.entries[i - 1].right,
        }
    }

    /// The smallest key of the subtree.
    fn first_key(&self) -> Option<&str> {
        match &self.left {
            Some(left) => left.first_key(),
            None => self.entries.first().map(|e| &*e.key),
        }
    }

    /// The largest key of the subtree.
    fn last_key(&self) -> Option<&str> {
        match self.gap(self.entries.len()) {
            Some(last) => last.last_key(),
            None => self.entries.last().map(|e| &*e.key),
        }
    }

    /// The node's block, encoding it (and any stale descendant) on first
    /// use since it last changed.
    fn encoded(&self, encoded: &Cell<u64>) -> &MstNode {
        self.enc.get_or_init(|| {
            let left = self.left.as_ref().map(|child| child.encoded(encoded).cid);
            let mut prev: Option<&str> = None;
            let entries: Vec<PendingEntry<'_>> = self
                .entries
                .iter()
                .map(|entry| {
                    let prefix = prev.map_or(0, |p| common_prefix_len(p, &entry.key));
                    prev = Some(&entry.key);
                    PendingEntry {
                        prefix,
                        key: &entry.key,
                        value: entry.value,
                        subtree: entry.right.as_ref().map(|child| child.encoded(encoded).cid),
                    }
                })
                .collect();
            let bytes = encode_node(left, &entries, self.layer, true);
            encoded.set(encoded.get() + 1);
            MstNode {
                cid: Cid::for_cbor(&bytes),
                bytes,
            }
        })
    }

    /// Every block of the subtree in post-order (children before parents).
    fn blocks<'a>(&'a self, encoded: &Cell<u64>, out: &mut Vec<&'a MstNode>) {
        if let Some(left) = &self.left {
            left.blocks(encoded, out);
        }
        for entry in &self.entries {
            if let Some(right) = &entry.right {
                right.blocks(encoded, out);
            }
        }
        out.push(self.encoded(encoded));
    }

    /// The fresh nodes' blocks in post-order, marking them committed (and
    /// trimming their entry lists: a tree lives as long as its repository).
    fn commit(&mut self, encoded: &Cell<u64>, out: &mut Vec<MstNode>) {
        if !self.fresh {
            return;
        }
        self.entries.shrink_to_fit();
        if let Some(left) = &mut self.left {
            left.commit(encoded, out);
        }
        for entry in &mut self.entries {
            if let Some(right) = &mut entry.right {
                right.commit(encoded, out);
            }
        }
        self.fresh = false;
        out.push(self.encoded(encoded).clone());
    }

    /// `(key, value, layer)` of every key of the subtree, in key order.
    fn items<'a>(&'a self, out: &mut Vec<(&'a str, Cid, u32)>) {
        if let Some(left) = &self.left {
            left.items(out);
        }
        for entry in &self.entries {
            out.push((&entry.key, entry.value, self.layer));
            if let Some(right) = &entry.right {
                right.items(out);
            }
        }
    }
}

/// Split a subtree around `key` (absent from it) into the parts below and
/// above it, both on the subtree's layer. Only the nodes the key falls
/// inside change; a part that holds no keys is absent.
fn split(link: Link, key: &str, replaced: &mut Vec<Cid>) -> (Link, Link) {
    let Some(mut node) = link else {
        return (None, None);
    };
    if node.last_key().is_none_or(|last| last < key) {
        return (Some(node), None);
    }
    if node.first_key().is_none_or(|first| first > key) {
        return (None, Some(node));
    }
    node.touch(replaced);
    let i = node.search(key).unwrap_or_else(|i| i);
    let (below, above) = split(node.gap_mut(i).take(), key, replaced);
    *node.gap_mut(i) = below;
    let mut upper = Box::new(Node::new(node.layer));
    upper.entries = node.entries.split_off(i);
    upper.left = above;
    (Some(node), Some(upper))
}

/// Join two subtrees on the same layer, every key of `low` below every key
/// of `high`: the facing edge gaps merge one layer down.
fn merge(low: Link, high: Link, replaced: &mut Vec<Cid>) -> Link {
    let (mut low, mut high) = match (low, high) {
        (None, high) => return high,
        (low, None) => return low,
        (Some(low), Some(high)) => (low, high),
    };
    low.touch(replaced);
    high.touch(replaced);
    let edge = low.entries.len();
    let seam = merge(low.gap_mut(edge).take(), high.left.take(), replaced);
    *low.gap_mut(edge) = seam;
    low.entries.append(&mut high.entries);
    Some(low)
}

/// Insert a key absent from the tree into `node`, whose layer is at least
/// the key's.
fn insert_into(node: &mut Node, key: &str, key_layer: u32, value: Cid, replaced: &mut Vec<Cid>) {
    node.touch(replaced);
    let i = node.search(key).unwrap_or_else(|i| i);
    if node.layer == key_layer {
        let (below, above) = split(node.gap_mut(i).take(), key, replaced);
        *node.gap_mut(i) = below;
        node.entries.insert(
            i,
            Entry {
                key: key.into(),
                value,
                right: above,
            },
        );
    } else {
        let layer = node.layer - 1;
        let child = node
            .gap_mut(i)
            .get_or_insert_with(|| Box::new(Node::new(layer)));
        insert_into(child, key, key_layer, value, replaced);
    }
}

/// Replace the value of a key present in the tree.
fn update_in(node: &mut Node, key: &str, value: Cid, replaced: &mut Vec<Cid>) {
    node.touch(replaced);
    match node.search(key) {
        Ok(i) => node.entries[i].value = value,
        Err(i) => {
            let child = node.gap_mut(i).as_mut().expect("key present below");
            update_in(child, key, value, replaced);
        }
    }
}

/// Remove a key present in the tree.
fn remove_from(node: &mut Node, key: &str, replaced: &mut Vec<Cid>) {
    node.touch(replaced);
    match node.search(key) {
        Ok(i) => {
            let entry = node.entries.remove(i);
            let below = node.gap_mut(i).take();
            *node.gap_mut(i) = merge(below, entry.right, replaced);
        }
        Err(i) => {
            let gap = node.gap_mut(i);
            let child = gap.as_mut().expect("key present below");
            remove_from(child, key, replaced);
            if child.is_empty() {
                *gap = None;
            }
        }
    }
}

/// Wrap a subtree in entry-less nodes until it sits on layer `to`.
fn lift(mut link: Link, to: u32) -> Link {
    while let Some(node) = link.take() {
        if node.layer >= to {
            return Some(node);
        }
        let mut parent = Node::new(node.layer + 1);
        parent.left = Some(node);
        link = Some(Box::new(parent));
    }
    None
}

/// A content-addressed key→CID index: a persistent MST whose nodes cache
/// their encoded blocks (see the module docs).
#[derive(Debug, Clone)]
pub struct Mst {
    /// The root: the empty layer-0 node when the tree holds no keys.
    root: Box<Node>,
    len: usize,
    /// CIDs of committed nodes changed or dropped since the last commit.
    replaced: Vec<Cid>,
    /// Node blocks encoded over the tree's lifetime.
    nodes_encoded: Cell<u64>,
}

impl Default for Mst {
    fn default() -> Mst {
        Mst {
            root: Box::new(Node::new(0)),
            len: 0,
            replaced: Vec::new(),
            nodes_encoded: Cell::new(0),
        }
    }
}

impl PartialEq for Mst {
    fn eq(&self, other: &Mst) -> bool {
        // Cached encodings and commit state are derived; two trees are
        // equal iff their contents are.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Mst {}

/// A single change between two MST states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MstDiffOp {
    /// Key present in the new tree but not the old one.
    Created {
        /// The key.
        key: String,
        /// The new value.
        cid: Cid,
    },
    /// Key present in both but with a different value.
    Updated {
        /// The key.
        key: String,
        /// The previous value.
        old: Cid,
        /// The new value.
        new: Cid,
    },
    /// Key removed in the new tree.
    Deleted {
        /// The key.
        key: String,
        /// The value it previously had.
        cid: Cid,
    },
}

impl MstDiffOp {
    /// The key this operation concerns.
    pub fn key(&self) -> &str {
        match self {
            MstDiffOp::Created { key, .. }
            | MstDiffOp::Updated { key, .. }
            | MstDiffOp::Deleted { key, .. } => key,
        }
    }
}

/// An encoded tree node block.
#[derive(Debug, Clone, PartialEq)]
pub struct MstNode {
    /// CID of this node's encoded block.
    pub cid: Cid,
    /// The encoded DAG-CBOR bytes of the node.
    pub bytes: Vec<u8>,
}

/// What changed in the tree since the previous [`Mst::commit`].
#[derive(Debug, Clone, PartialEq)]
pub struct MstCommit {
    /// The root CID.
    pub root: Cid,
    /// Node blocks of the tree that the previous commit's tree lacked,
    /// children before parents (the full tree's post-order).
    pub created: Vec<MstNode>,
    /// CIDs of the previous commit's nodes that are gone from the tree,
    /// sorted.
    pub removed: Vec<Cid>,
}

/// In-order iterator over a tree's entries: a stack of `(node, index of
/// the next entry to yield)`, the gap before that entry stacked above it.
struct Iter<'a> {
    stack: Vec<(&'a Node, usize)>,
}

impl<'a> Iter<'a> {
    /// Start at the first key not below `lower`.
    fn seek(root: &'a Node, lower: &str) -> Iter<'a> {
        let mut stack = Vec::new();
        let mut link = Some(root);
        while let Some(node) = link {
            let i = node.entries.partition_point(|e| &*e.key < lower);
            stack.push((node, i));
            link = node.gap(i);
        }
        Iter { stack }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a Cid);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, next) = self.stack.last_mut()?;
            let node: &'a Node = node;
            let Some(entry) = node.entries.get(*next) else {
                self.stack.pop();
                continue;
            };
            *next += 1;
            let mut link = entry.right.as_deref();
            while let Some(child) = link {
                self.stack.push((child, 0));
                link = child.left.as_deref();
            }
            return Some((&entry.key, &entry.value));
        }
    }
}

impl Mst {
    /// Create an empty tree.
    pub fn new() -> Mst {
        Mst::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node blocks encoded over the tree's lifetime — a deterministic
    /// measure of the tree's hashing work.
    pub fn nodes_encoded(&self) -> u64 {
        self.nodes_encoded.get()
    }

    /// Insert or replace a key, returning the previous value if any.
    pub fn insert(&mut self, key: &str, cid: Cid) -> Result<Option<Cid>> {
        validate_key(key)?;
        Ok(self.insert_valid(key, cid))
    }

    fn insert_valid(&mut self, key: &str, cid: Cid) -> Option<Cid> {
        if let Some(old) = self.get(key).copied() {
            if old != cid {
                update_in(&mut self.root, key, cid, &mut self.replaced);
            }
            return Some(old);
        }
        let replaced = &mut self.replaced;
        let layer = key_layer(key);
        if self.len == 0 || layer > self.root.layer {
            // The key tops the tree: it becomes the only entry of a new
            // root, the old tree split around it and lifted underneath.
            let mut old = std::mem::replace(&mut self.root, Box::new(Node::new(layer)));
            let (below, above) = if self.len == 0 {
                old.touch(replaced);
                (None, None)
            } else {
                split(Some(old), key, replaced)
            };
            let to = layer.saturating_sub(1);
            self.root.left = lift(below, to);
            self.root.entries.push(Entry {
                key: key.into(),
                value: cid,
                right: lift(above, to),
            });
        } else {
            insert_into(&mut self.root, key, layer, cid, replaced);
        }
        self.len += 1;
        None
    }

    /// Remove a key, returning its value if it was present.
    pub fn remove(&mut self, key: &str) -> Option<Cid> {
        let old = *self.get(key)?;
        let replaced = &mut self.replaced;
        remove_from(&mut self.root, key, replaced);
        self.len -= 1;
        // A root left without entries gives way to its only child (the
        // empty tree is the empty layer-0 node).
        while self.root.entries.is_empty() {
            let next = match self.root.left.take() {
                Some(child) => child,
                None if self.root.layer == 0 => break,
                None => Box::new(Node::new(0)),
            };
            self.root.touch(replaced);
            self.root = next;
        }
        Some(old)
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Cid> {
        let mut node = &*self.root;
        loop {
            match node.search(key) {
                Ok(i) => return Some(&node.entries[i].value),
                Err(i) => node = node.gap(i)?,
            }
        }
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate all `(key, cid)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Cid)> {
        Iter::seek(&self.root, "")
    }

    /// Iterate the keys of a single collection (keys beginning with
    /// `<collection>/`).
    pub fn iter_collection<'a>(
        &'a self,
        collection: &str,
    ) -> impl Iterator<Item = (&'a str, &'a Cid)> + 'a {
        let prefix = format!("{collection}/");
        let end = format!("{collection}0"); // '0' sorts just after '/'
        Iter::seek(&self.root, &prefix).take_while(move |(key, _)| *key < end.as_str())
    }

    /// Compute the differences needed to go from `old` to `self`.
    pub fn diff(&self, old: &Mst) -> Vec<MstDiffOp> {
        let mut ops = Vec::new();
        for (key, cid) in self.iter() {
            match old.get(key) {
                None => ops.push(MstDiffOp::Created {
                    key: key.to_string(),
                    cid: *cid,
                }),
                Some(prev) if prev != cid => ops.push(MstDiffOp::Updated {
                    key: key.to_string(),
                    old: *prev,
                    new: *cid,
                }),
                Some(_) => {}
            }
        }
        for (key, cid) in old.iter() {
            if !self.contains(key) {
                ops.push(MstDiffOp::Deleted {
                    key: key.to_string(),
                    cid: *cid,
                });
            }
        }
        ops.sort_by(|a, b| a.key().cmp(b.key()));
        ops
    }

    /// The root CID.
    pub fn root_cid(&self) -> Cid {
        self.root.encoded(&self.nodes_encoded).cid
    }

    /// Every node block of the tree, children before parents (for CAR
    /// export), borrowed from the node caches.
    pub fn node_blocks(&self) -> Vec<&MstNode> {
        let mut out = Vec::new();
        self.root.blocks(&self.nodes_encoded, &mut out);
        out
    }

    /// All node blocks of the tree (for CAR export and sync).
    pub fn blocks(&self) -> Vec<MstNode> {
        self.node_blocks().into_iter().cloned().collect()
    }

    /// The root CID and every node block.
    pub fn root_and_blocks(&self) -> (Cid, Vec<MstNode>) {
        (self.root_cid(), self.blocks())
    }

    /// Close the current commit: encode the nodes changed since the last
    /// one and report them, with the nodes they replaced.
    ///
    /// A node changed and then changed back (a no-op rewrite, a rolled-back
    /// batch) re-encodes to a CID the previous tree already had; it lands in
    /// neither list.
    pub fn commit(&mut self) -> MstCommit {
        let mut created = Vec::new();
        self.root.commit(&self.nodes_encoded, &mut created);
        let mut removed = std::mem::take(&mut self.replaced);
        removed.sort_unstable();
        let kept: Vec<Cid> = created
            .iter()
            .map(|node| node.cid)
            .filter(|cid| removed.binary_search(cid).is_ok())
            .collect();
        if !kept.is_empty() {
            created.retain(|node| !kept.contains(&node.cid));
            removed.retain(|cid| !kept.contains(cid));
        }
        MstCommit {
            root: self.root_cid(),
            created,
            removed,
        }
    }

    /// The MST diff walk at the node level: the tree node blocks of `self`
    /// that are **not** nodes of `old`. Because nodes are content-addressed,
    /// these are exactly the structural blocks a sync consumer is missing
    /// after it has already fetched `old` — the node portion of a
    /// `com.atproto.sync.getRepo(did, since)` delta. The empty diff (equal
    /// trees) yields an empty vector.
    ///
    /// This is the *reference* form of the walk (it lists both trees, O(n));
    /// the repository layer serves deltas from its O(churn) per-commit node
    /// log instead, and a test in `repo.rs` pins the two equal.
    pub fn node_delta(&self, old: &Mst) -> Vec<MstNode> {
        let old_cids: std::collections::BTreeSet<Cid> =
            old.node_blocks().iter().map(|n| n.cid).collect();
        self.node_blocks()
            .into_iter()
            .filter(|n| !old_cids.contains(&n.cid))
            .cloned()
            .collect()
    }

    /// Total serialized size of all node blocks in bytes (prefix-compressed
    /// wire encoding).
    pub fn structural_size(&self) -> usize {
        self.node_blocks().iter().map(|n| n.bytes.len()).sum()
    }

    /// What the node blocks would occupy under the legacy full-key encoding
    /// (every entry carries its whole key, no `p` field). Kept purely as the
    /// measurement baseline for the prefix-compression win; nothing encodes
    /// this form on the wire anymore.
    pub fn structural_size_uncompressed(&self) -> usize {
        self.build_with(false).1.iter().map(|n| n.bytes.len()).sum()
    }

    /// Build the whole tree from the sorted key list, independently of the
    /// persistent nodes: the root CID and every node block in post-order.
    pub(crate) fn build_with(&self, compress: bool) -> (Cid, Vec<MstNode>) {
        let mut blocks = Vec::new();
        let mut items = Vec::with_capacity(self.len);
        self.root.items(&mut items);
        let top_layer = items.iter().map(|(_, _, l)| *l).max().unwrap_or(0);
        let root = Self::build_node(&items, top_layer, &mut blocks, compress);
        (root, blocks)
    }

    /// Recursively build the node covering `items` at `layer`.
    fn build_node(
        items: &[(&str, Cid, u32)],
        layer: u32,
        blocks: &mut Vec<MstNode>,
        compress: bool,
    ) -> Cid {
        // Entries at this layer, in order; the gaps between them (and at both
        // ends) become child subtrees at layer - 1.
        let mut node_entries: Vec<PendingEntry<'_>> = Vec::new();
        let mut segment_start = 0usize;
        let mut left_child: Option<Cid> = None;
        let mut first_entry_seen = false;
        // Prefix compression state: the previous entry's full key within
        // *this* node (compression never crosses node boundaries).
        let mut prev_key: Option<&str> = None;

        let flush_segment = |start: usize, end: usize, blocks: &mut Vec<MstNode>| -> Option<Cid> {
            if start >= end {
                return None;
            }
            if layer == 0 {
                // Cannot descend further; at layer 0 every item must be an
                // entry, which the layer computation guarantees.
                return None;
            }
            Some(Self::build_node(
                &items[start..end],
                layer - 1,
                blocks,
                compress,
            ))
        };

        for (idx, &(key, cid, item_layer)) in items.iter().enumerate() {
            if item_layer >= layer {
                // Subtree of everything since the previous entry.
                let subtree = flush_segment(segment_start, idx, blocks);
                if !first_entry_seen {
                    left_child = subtree;
                } else if let Some(sub) = subtree {
                    // Attach as the "tree" of the previous entry.
                    if let Some(prev) = node_entries.last_mut() {
                        prev.subtree = Some(sub);
                    }
                }
                first_entry_seen = true;
                let shared = if compress {
                    prev_key
                        .map(|prev| common_prefix_len(prev, key))
                        .unwrap_or(0)
                } else {
                    0
                };
                node_entries.push(PendingEntry {
                    prefix: shared,
                    key,
                    value: cid,
                    subtree: None,
                });
                prev_key = Some(key);
                segment_start = idx + 1;
            }
        }
        // Trailing subtree.
        let trailing = flush_segment(segment_start, items.len(), blocks);
        if !first_entry_seen {
            left_child = trailing;
        } else if let Some(sub) = trailing {
            if let Some(prev) = node_entries.last_mut() {
                prev.subtree = Some(sub);
            }
        }

        let bytes = encode_node(left_child, &node_entries, layer, compress);
        let cid = Cid::for_cbor(&bytes);
        blocks.push(MstNode { cid, bytes });
        cid
    }
}

/// A node entry awaiting encoding: the full key plus the prefix length
/// shared with the previous entry (0 and unused when uncompressed).
struct PendingEntry<'a> {
    prefix: usize,
    key: &'a str,
    value: Cid,
    subtree: Option<Cid>,
}

/// Encode one MST node block directly, without building an intermediate
/// [`Value`] tree — byte-identical to encoding the equivalent `Value`
/// (map keys emitted in DAG-CBOR canonical order: length first, then
/// bytewise), pinned by the `direct_encoding_matches_value_encoding` test.
fn encode_node(
    left_child: Option<Cid>,
    entries: &[PendingEntry<'_>],
    layer: u32,
    compress: bool,
) -> Vec<u8> {
    use crate::cbor::raw;
    let mut out = Vec::with_capacity(64 + entries.len() * 64);
    raw::map_head(3, &mut out);
    // "e" < "l" < "layer" in canonical order.
    raw::text("e", &mut out);
    raw::array_head(entries.len() as u64, &mut out);
    for entry in entries {
        // Entry keys are all one byte, so canonical order is bytewise:
        // "k" < "p" < "t" < "v" (no "p" when uncompressed).
        let fields = 2 + usize::from(compress) + usize::from(entry.subtree.is_some());
        raw::map_head(fields as u64, &mut out);
        raw::text("k", &mut out);
        raw::text(&entry.key[entry.prefix..], &mut out);
        if compress {
            raw::text("p", &mut out);
            raw::uint(entry.prefix as u64, &mut out);
        }
        if let Some(subtree) = entry.subtree {
            raw::text("t", &mut out);
            raw::link(&subtree, &mut out);
        }
        raw::text("v", &mut out);
        raw::link(&entry.value, &mut out);
    }
    raw::text("l", &mut out);
    match left_child {
        Some(cid) => raw::link(&cid, &mut out),
        None => raw::null(&mut out),
    }
    raw::text("layer", &mut out);
    raw::uint(layer as u64, &mut out);
    out
}

/// Number of leading bytes two keys share. Keys are ASCII (enforced by
/// [`validate_key`]), so a byte index is always a char boundary.
fn common_prefix_len(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

/// One entry of a decoded node, with the full key reconstructed from the
/// prefix compression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MstNodeEntry {
    /// The full record key.
    pub key: String,
    /// The record block CID.
    pub value: Cid,
    /// Link to the subtree between this entry and the next, if any.
    pub tree: Option<Cid>,
}

/// A decoded MST node block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedMstNode {
    /// Link to the subtree left of the first entry.
    pub left: Option<Cid>,
    /// The node's layer.
    pub layer: u32,
    /// Entries in key order.
    pub entries: Vec<MstNodeEntry>,
}

/// Decode a node block, undoing the per-entry key prefix compression. An
/// entry without a `p` field decodes as an uncompressed (full-key) entry,
/// so both wire forms parse.
pub fn decode_node(bytes: &[u8]) -> Result<DecodedMstNode> {
    let value = crate::cbor::decode(bytes)?;
    let raw_entries = value
        .get("e")
        .and_then(Value::as_array)
        .ok_or_else(|| AtError::RepoError("MST node missing entry array".into()))?;
    let left = value.get("l").and_then(Value::as_link).copied();
    let layer = value.get("layer").and_then(Value::as_int).unwrap_or(0) as u32;
    let mut entries = Vec::with_capacity(raw_entries.len());
    let mut prev = String::new();
    for entry in raw_entries {
        let prefix = entry.get("p").and_then(Value::as_int).unwrap_or(0) as usize;
        let suffix = entry
            .get("k")
            .and_then(Value::as_text)
            .ok_or_else(|| AtError::RepoError("MST entry missing key".into()))?;
        if prefix > prev.len() {
            return Err(AtError::RepoError(format!(
                "MST entry prefix {prefix} exceeds previous key length {}",
                prev.len()
            )));
        }
        let key = format!("{}{}", &prev[..prefix], suffix);
        let value_cid = *entry
            .get("v")
            .and_then(Value::as_link)
            .ok_or_else(|| AtError::RepoError("MST entry missing value".into()))?;
        let tree = entry.get("t").and_then(Value::as_link).copied();
        prev.clone_from(&key);
        entries.push(MstNodeEntry {
            key,
            value: value_cid,
            tree,
        });
    }
    Ok(DecodedMstNode {
        left,
        layer,
        entries,
    })
}

impl FromIterator<(String, Cid)> for Mst {
    fn from_iter<T: IntoIterator<Item = (String, Cid)>>(iter: T) -> Self {
        let mut mst = Mst::new();
        for (key, cid) in iter {
            mst.insert_valid(&key, cid);
        }
        mst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cid_for(n: u32) -> Cid {
        Cid::for_cbor(&n.to_be_bytes())
    }

    /// The direct node encoder must emit exactly what encoding the
    /// equivalent `Value` tree emits — the wire bytes (and so every node
    /// CID and repo commit) must not shift with the encoding fast path.
    #[test]
    fn direct_encoding_matches_value_encoding() {
        let mut mst = Mst::new();
        for n in 0..300u32 {
            mst.insert(&key_for(n), cid_for(n)).unwrap();
        }
        for compress in [true, false] {
            for node in mst.build_with(compress).1 {
                let decoded = decode_node(&node.bytes).unwrap();
                let mut prev: Option<String> = None;
                let entries: Vec<Value> = decoded
                    .entries
                    .iter()
                    .map(|entry| {
                        let shared = if compress {
                            prev.as_deref()
                                .map(|p| common_prefix_len(p, &entry.key))
                                .unwrap_or(0)
                        } else {
                            0
                        };
                        let mut pairs = vec![
                            ("k".to_string(), Value::text(&entry.key[shared..])),
                            ("v".to_string(), Value::Link(entry.value)),
                        ];
                        if compress {
                            pairs.push(("p".to_string(), Value::Int(shared as i64)));
                        }
                        if let Some(tree) = entry.tree {
                            pairs.push(("t".to_string(), Value::Link(tree)));
                        }
                        prev = Some(entry.key.clone());
                        Value::map(pairs)
                    })
                    .collect();
                let value = Value::map([
                    (
                        "l",
                        match decoded.left {
                            Some(cid) => Value::Link(cid),
                            None => Value::Null,
                        },
                    ),
                    ("e", Value::Array(entries)),
                    ("layer", Value::Int(decoded.layer as i64)),
                ]);
                assert_eq!(
                    crate::cbor::encode(&value),
                    node.bytes,
                    "direct encoding diverged (compress: {compress})"
                );
            }
        }
    }

    /// Mutations drop the cached encodings on their path; reads after a
    /// mutation see the new tree, and a no-op replace re-encodes nothing.
    #[test]
    fn build_memo_tracks_mutations() {
        let mut mst = Mst::new();
        mst.insert(&key_for(1), cid_for(1)).unwrap();
        let root1 = mst.root_cid();
        let encoded = mst.nodes_encoded();
        assert_eq!(mst.root_cid(), root1, "cached read is stable");
        mst.insert(&key_for(1), cid_for(1)).unwrap(); // no-op replace
        assert_eq!(mst.root_cid(), root1);
        assert_eq!(
            mst.nodes_encoded(),
            encoded,
            "reads and no-ops encode nothing"
        );
        mst.insert(&key_for(2), cid_for(2)).unwrap();
        let root2 = mst.root_cid();
        assert_ne!(root2, root1, "insert drops the cached root");
        mst.remove(&key_for(2)).unwrap();
        assert_eq!(mst.root_cid(), root1, "remove drops the cached root");
    }

    /// A commit reports exactly the nodes that changed: after a first
    /// commit of a large tree, one appended key re-encodes a handful of
    /// path nodes, not the tree.
    #[test]
    fn commit_reencodes_only_the_touched_path() {
        let mut mst = Mst::new();
        for n in 0..2_000u32 {
            mst.insert(&key_for(n), cid_for(n)).unwrap();
        }
        let first = mst.commit();
        assert_eq!(first.created.len(), mst.blocks().len());
        assert!(first.removed.is_empty());
        let before = mst.nodes_encoded();
        mst.insert(&key_for(5_000), cid_for(5_000)).unwrap();
        let next = mst.commit();
        let encoded = mst.nodes_encoded() - before;
        assert!(encoded <= 8, "an append re-encoded {encoded} nodes");
        assert_eq!(next.created.len() as u64, encoded);
        assert_eq!(next.root, mst.build_with(true).0);
        // Nothing changed since: an empty commit.
        let idle = mst.commit();
        assert!(idle.created.is_empty() && idle.removed.is_empty());
        assert_eq!(idle.root, next.root);
    }

    fn key_for(n: u32) -> String {
        format!("app.bsky.feed.post/rkey{n:06}")
    }

    #[test]
    fn insert_get_remove() {
        let mut mst = Mst::new();
        assert!(mst.is_empty());
        assert_eq!(mst.insert(&key_for(1), cid_for(1)).unwrap(), None);
        assert_eq!(
            mst.insert(&key_for(1), cid_for(2)).unwrap(),
            Some(cid_for(1))
        );
        assert_eq!(mst.get(&key_for(1)), Some(&cid_for(2)));
        assert!(mst.contains(&key_for(1)));
        assert_eq!(mst.len(), 1);
        assert_eq!(mst.remove(&key_for(1)), Some(cid_for(2)));
        assert!(mst.is_empty());
    }

    #[test]
    fn key_validation() {
        assert!(validate_key("app.bsky.feed.post/3kdgeujwlq32y").is_ok());
        assert!(validate_key("nokey").is_err());
        assert!(validate_key("/empty-collection").is_err());
        assert!(validate_key("collection/").is_err());
        assert!(validate_key("has space/abc").is_err());
        let mut mst = Mst::new();
        assert!(mst.insert("bad key", cid_for(0)).is_err());
    }

    #[test]
    fn root_is_independent_of_insertion_order() {
        let n = 500;
        let mut a = Mst::new();
        for i in 0..n {
            a.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let mut b = Mst::new();
        for i in (0..n).rev() {
            b.insert(&key_for(i), cid_for(i)).unwrap();
        }
        // Insert and remove extra keys in b; final contents are identical.
        b.insert(&key_for(10_000), cid_for(1)).unwrap();
        b.remove(&key_for(10_000));
        assert_eq!(a.root_cid(), b.root_cid());
        assert_eq!(a, b);
    }

    #[test]
    fn root_changes_with_content() {
        let mut a = Mst::new();
        a.insert(&key_for(1), cid_for(1)).unwrap();
        let root1 = a.root_cid();
        a.insert(&key_for(2), cid_for(2)).unwrap();
        let root2 = a.root_cid();
        assert_ne!(root1, root2);
        // Changing a value (not a key) also changes the root.
        a.insert(&key_for(2), cid_for(3)).unwrap();
        assert_ne!(a.root_cid(), root2);
        // Empty tree has a root too (the empty node).
        assert_ne!(Mst::new().root_cid(), root1);
    }

    #[test]
    fn blocks_contain_all_values_reachable() {
        let mut mst = Mst::new();
        for i in 0..200 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let blocks = mst.blocks();
        assert!(!blocks.is_empty());
        // Decode every node and collect every referenced value CID.
        let mut value_cids = Vec::new();
        for node in &blocks {
            let value = crate::cbor::decode(&node.bytes).unwrap();
            assert_eq!(Cid::for_cbor(&node.bytes), node.cid);
            for entry in value.get("e").unwrap().as_array().unwrap() {
                value_cids.push(*entry.get("v").unwrap().as_link().unwrap());
            }
        }
        value_cids.sort();
        let mut expected: Vec<Cid> = (0..200).map(cid_for).collect();
        expected.sort();
        assert_eq!(value_cids, expected);
        assert!(mst.structural_size() > 0);
    }

    #[test]
    fn layers_spread_keys() {
        // Most keys land on layer 0; a minority on deeper layers, so the tree
        // actually has internal structure for a few hundred keys.
        let layers: Vec<u32> = (0..2000).map(|i| key_layer(&key_for(i))).collect();
        let zero = layers.iter().filter(|&&l| l == 0).count();
        let nonzero = layers.len() - zero;
        assert!(zero > nonzero, "layer 0 should dominate");
        assert!(nonzero > 0, "some keys should promote to higher layers");
    }

    #[test]
    fn collection_iteration_respects_boundaries() {
        let mut mst = Mst::new();
        mst.insert("app.bsky.feed.post/aaa", cid_for(1)).unwrap();
        mst.insert("app.bsky.feed.post/bbb", cid_for(2)).unwrap();
        mst.insert("app.bsky.feed.like/aaa", cid_for(3)).unwrap();
        mst.insert("app.bsky.graph.follow/aaa", cid_for(4)).unwrap();
        let posts: Vec<&str> = mst
            .iter_collection("app.bsky.feed.post")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            posts,
            vec!["app.bsky.feed.post/aaa", "app.bsky.feed.post/bbb"]
        );
        let likes: Vec<&str> = mst
            .iter_collection("app.bsky.feed.like")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(likes, vec!["app.bsky.feed.like/aaa"]);
        assert_eq!(mst.iter_collection("app.bsky.feed").count(), 0);
    }

    #[test]
    fn node_delta_of_identical_trees_is_empty() {
        let mut mst = Mst::new();
        for i in 0..100 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        assert!(mst.node_delta(&mst.clone()).is_empty());
        // The empty tree diffed against itself is also empty.
        assert!(Mst::new().node_delta(&Mst::new()).is_empty());
    }

    #[test]
    fn node_delta_for_single_record_add() {
        let mut old = Mst::new();
        for i in 0..200 {
            old.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let mut new = old.clone();
        new.insert(&key_for(1_000), cid_for(1_000)).unwrap();
        let delta = new.node_delta(&old);
        // The add rewrites the path from the leaf to the root — a handful of
        // nodes, far fewer than the whole tree.
        assert!(!delta.is_empty());
        assert!(delta.len() < new.blocks().len());
        // Every delta node is a node of the new tree, and together with the
        // old nodes they cover the new tree completely.
        let new_cids: BTreeMap<Cid, ()> = new.blocks().iter().map(|n| (n.cid, ())).collect();
        assert!(delta.iter().all(|n| new_cids.contains_key(&n.cid)));
        let mut covered: std::collections::BTreeSet<Cid> =
            old.blocks().iter().map(|n| n.cid).collect();
        covered.extend(delta.iter().map(|n| n.cid));
        assert!(new.blocks().iter().all(|n| covered.contains(&n.cid)));
    }

    #[test]
    fn node_delta_after_delete_and_readd_under_same_key() {
        let mut old = Mst::new();
        for i in 0..50 {
            old.insert(&key_for(i), cid_for(i)).unwrap();
        }
        // Delete + re-add with the *same* value: the tree is content-
        // addressed, so the final state is identical and the delta is empty.
        let mut same = old.clone();
        same.remove(&key_for(7));
        same.insert(&key_for(7), cid_for(7)).unwrap();
        assert_eq!(same.root_cid(), old.root_cid());
        assert!(same.node_delta(&old).is_empty());
        // Delete + re-add with a *different* value rewrites the leaf path.
        let mut changed = old.clone();
        changed.remove(&key_for(7));
        changed.insert(&key_for(7), cid_for(700)).unwrap();
        assert_ne!(changed.root_cid(), old.root_cid());
        assert!(!changed.node_delta(&old).is_empty());
    }

    #[test]
    fn node_decode_reconstructs_prefix_compressed_keys() {
        let mut mst = Mst::new();
        for i in 0..300 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        mst.insert("app.bsky.feed.like/aaa111", cid_for(9_001))
            .unwrap();
        mst.insert("app.bsky.graph.follow/zz9", cid_for(9_002))
            .unwrap();
        // Decode every node and collect all (key, value) pairs: the tree's
        // full mapping must come back exactly, despite the compression.
        let mut decoded: BTreeMap<String, Cid> = BTreeMap::new();
        for node in mst.blocks() {
            let parsed = decode_node(&node.bytes).unwrap();
            for entry in parsed.entries {
                assert!(validate_key(&entry.key).is_ok(), "bad key {}", entry.key);
                decoded.insert(entry.key, entry.value);
            }
        }
        let expected: BTreeMap<String, Cid> =
            mst.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn prefix_compression_shrinks_node_blocks() {
        let mut mst = Mst::new();
        for i in 0..500 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let compressed = mst.structural_size();
        let uncompressed = mst.structural_size_uncompressed();
        assert!(
            compressed < uncompressed,
            "prefix compression must shrink nodes: {compressed} vs {uncompressed}"
        );
        // Sibling keys share `app.bsky.feed.post/rkey…`, so the win is
        // substantial, not marginal.
        assert!(
            (compressed as f64) < 0.9 * uncompressed as f64,
            "expected a >10% structural win, got {compressed} vs {uncompressed}"
        );
        // Both encodings represent the same mapping.
        assert_eq!(mst.blocks().len(), mst.build_with(false).1.len());
    }

    #[test]
    fn decode_node_rejects_malformed_blocks() {
        assert!(decode_node(b"junk").is_err());
        // A map without the entry array.
        let no_entries = crate::cbor::encode(&Value::map([("l", Value::Null)]));
        assert!(decode_node(&no_entries).is_err());
        // A prefix longer than the previous key is corrupt.
        let bad_prefix = crate::cbor::encode(&Value::map([
            ("l", Value::Null),
            (
                "e",
                Value::Array(vec![Value::map([
                    ("p", Value::Int(5)),
                    ("k", Value::text("x/y")),
                    ("v", Value::Link(cid_for(1))),
                ])]),
            ),
            ("layer", Value::Int(0)),
        ]));
        assert!(decode_node(&bad_prefix).is_err());
        assert_eq!(common_prefix_len("abc/def", "abc/xyz"), 4);
        assert_eq!(common_prefix_len("", "abc"), 0);
    }

    #[test]
    fn diff_reports_all_changes() {
        let mut old = Mst::new();
        old.insert(&key_for(1), cid_for(1)).unwrap();
        old.insert(&key_for(2), cid_for(2)).unwrap();
        old.insert(&key_for(3), cid_for(3)).unwrap();
        let mut new = old.clone();
        new.remove(&key_for(1));
        new.insert(&key_for(2), cid_for(20)).unwrap();
        new.insert(&key_for(4), cid_for(4)).unwrap();
        let ops = new.diff(&old);
        assert_eq!(ops.len(), 3);
        assert!(ops.contains(&MstDiffOp::Deleted {
            key: key_for(1),
            cid: cid_for(1)
        }));
        assert!(ops.contains(&MstDiffOp::Updated {
            key: key_for(2),
            old: cid_for(2),
            new: cid_for(20)
        }));
        assert!(ops.contains(&MstDiffOp::Created {
            key: key_for(4),
            cid: cid_for(4)
        }));
        assert!(new.diff(&new).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;
    use std::collections::BTreeMap;

    fn arb_entries(rng: &mut TestRng) -> BTreeMap<String, u32> {
        let count = rng.below(64) as usize;
        (0..count)
            .map(|_| {
                let key = format!("app.bsky.feed.post/{}", rng.lowercase(1, 8));
                (key, rng.next_u64() as u32)
            })
            .collect()
    }

    #[test]
    fn root_depends_only_on_contents() {
        let mut rng = TestRng::new(0x357);
        for _ in 0..40 {
            let entries = arb_entries(&mut rng);
            let order_seed = rng.next_u64();
            let mut forward = Mst::new();
            for (k, v) in &entries {
                forward.insert(k, Cid::for_cbor(&v.to_be_bytes())).unwrap();
            }
            // Insert in a pseudo-shuffled order.
            let mut keys: Vec<_> = entries.keys().cloned().collect();
            keys.sort_by_key(|k| crate::crypto::sha256(format!("{order_seed}{k}").as_bytes()));
            let mut shuffled = Mst::new();
            for k in keys {
                let v = entries[&k];
                shuffled
                    .insert(&k, Cid::for_cbor(&v.to_be_bytes()))
                    .unwrap();
            }
            assert_eq!(forward.root_cid(), shuffled.root_cid());
        }
    }

    /// A key pool of `size` keys over three collections that is sure to
    /// hold keys on layers 2 and 3, so the tree grows and loses layers.
    fn key_pool(size: usize) -> Vec<String> {
        let collections = [
            "app.bsky.feed.post",
            "app.bsky.feed.like",
            "app.bsky.graph.follow",
        ];
        let mut pool: Vec<String> = (0..size)
            .map(|n| format!("{}/k{n:05}", collections[n % 3]))
            .collect();
        for min_layer in [2, 3] {
            let high = (0..)
                .map(|n| format!("app.bsky.feed.post/h{n}"))
                .find(|key| key_layer(key) >= min_layer)
                .expect("some key reaches the layer");
            pool.push(high);
        }
        pool
    }

    /// Random insert / update / remove / re-insert batches, the tree grown
    /// and drained to zero keys in turn: after every batch the incremental
    /// tree must equal a full rebuild (root, block bytes and order), and
    /// its commit must report exactly the rebuilds' node set difference,
    /// new nodes in the rebuild's post-order.
    fn incremental_tree_matches_rebuild(seed: u64, draws: usize, max_keys: usize) {
        let mut rng = TestRng::new(seed);
        let pool = key_pool(max_keys);
        let max_batch = (max_keys / 100).max(8) as u64;
        let mut mst = Mst::new();
        let mut model: BTreeMap<String, Cid> = BTreeMap::new();
        let mut before: std::collections::BTreeSet<Cid> = std::collections::BTreeSet::new();
        let (mut target, mut draining) = (1 + rng.below(max_keys as u64) as usize, false);
        let (mut drained, mut top_layer, mut max_len) = (0, 0, 0);
        for _ in 0..draws {
            if !draining && model.len() >= target {
                draining = true;
            } else if draining && model.is_empty() {
                draining = false;
                drained += 1;
                target = 1 + rng.below(max_keys as u64) as usize;
            }
            let batch = if rng.below(2) == 0 {
                1
            } else {
                1 + rng.below(max_batch)
            };
            for _ in 0..batch {
                let value = Cid::for_cbor(&rng.next_u64().to_be_bytes());
                let present = (!model.is_empty()).then(|| {
                    let nth = rng.below(model.len() as u64) as usize;
                    model.keys().nth(nth).cloned().expect("in range")
                });
                match (rng.below(10), present) {
                    (_, Some(key)) if draining => {
                        assert_eq!(mst.remove(&key), model.remove(&key));
                    }
                    (0..=5, _) => {
                        // Mostly a key not yet present; now and then one
                        // of the high-layer keys at the pool's tail.
                        let start = match rng.below(6) {
                            0 => pool.len() - 1 - rng.below(2) as usize,
                            _ => rng.below(pool.len() as u64) as usize,
                        };
                        let key = pool[start..]
                            .iter()
                            .chain(&pool[..start])
                            .find(|key| !model.contains_key(*key))
                            .unwrap_or(&pool[start]);
                        let previous = mst.insert(key, value).unwrap();
                        assert_eq!(previous, model.insert(key.clone(), value));
                    }
                    (6, Some(key)) => {
                        // Update, or a no-op replace with the same value.
                        let value = if rng.below(2) == 0 {
                            model[&key]
                        } else {
                            value
                        };
                        mst.insert(&key, value).unwrap();
                        model.insert(key, value);
                    }
                    (7..=8, Some(key)) => {
                        assert_eq!(mst.remove(&key), model.remove(&key));
                    }
                    (_, Some(key)) => {
                        // Re-insert: remove and add back, same value or not.
                        let old = mst.remove(&key).expect("present");
                        let value = if rng.below(2) == 0 { old } else { value };
                        mst.insert(&key, value).unwrap();
                        model.insert(key, value);
                    }
                    (_, None) => {}
                }
            }
            assert_eq!(mst.len(), model.len());
            assert!(mst
                .iter()
                .map(|(k, v)| (k, *v))
                .eq(model.iter().map(|(k, v)| (k.as_str(), *v))));
            let commit = mst.commit();
            let (root, nodes) = mst.build_with(true);
            assert_eq!(commit.root, root);
            assert_eq!(mst.root_and_blocks(), (root, nodes.clone()));
            let after: std::collections::BTreeSet<Cid> = nodes.iter().map(|n| n.cid).collect();
            let created: Vec<MstNode> = nodes
                .iter()
                .filter(|n| !before.contains(&n.cid))
                .cloned()
                .collect();
            assert_eq!(commit.created, created);
            let removed: Vec<Cid> = before.difference(&after).copied().collect();
            assert_eq!(commit.removed, removed);
            before = after;
            top_layer = top_layer.max(mst.root.layer);
            max_len = max_len.max(mst.len());
        }
        assert!(drained >= 1, "the tree must empty and refill");
        assert!(
            max_len >= max_keys / 2,
            "the tree must grow large: {max_len}"
        );
        assert!(top_layer >= 3, "keys on higher layers must be covered");
    }

    #[test]
    fn incremental_mst_matches_full_rebuild() {
        incremental_tree_matches_rebuild(0x3571, 300, 160);
    }

    #[test]
    #[ignore = "heavy: run with --release -- --ignored mst"]
    fn incremental_mst_matches_full_rebuild_heavy() {
        incremental_tree_matches_rebuild(0x3572, 2_000, 5_000);
    }

    #[test]
    fn diff_then_apply_restores_equality() {
        let mut rng = TestRng::new(0x358);
        for _ in 0..40 {
            let a = arb_entries(&mut rng);
            let b = arb_entries(&mut rng);
            let make = |m: &BTreeMap<String, u32>| -> Mst {
                m.iter()
                    .map(|(k, v)| (k.clone(), Cid::for_cbor(&v.to_be_bytes())))
                    .collect()
            };
            let old = make(&a);
            let new = make(&b);
            // Applying the diff to `old` must produce `new`.
            let mut patched = old.clone();
            for op in new.diff(&old) {
                match op {
                    MstDiffOp::Created { key, cid } | MstDiffOp::Updated { key, new: cid, .. } => {
                        patched.insert(&key, cid).unwrap();
                    }
                    MstDiffOp::Deleted { key, .. } => {
                        patched.remove(&key);
                    }
                }
            }
            assert_eq!(patched.root_cid(), new.root_cid());
        }
    }
}
