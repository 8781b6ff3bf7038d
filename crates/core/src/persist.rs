//! Persistence: serializing an index into the paged storage substrate.
//!
//! Every index node maps onto one page whose size class follows the paper's
//! ladder — level 0 nodes on 1 KB pages, level 1 on 2 KB pages, and so on —
//! so the on-disk layout is exactly the variable-node-size structure of
//! paper §2.1.2. (A node that overflowed elastically is placed on the
//! smallest page that fits it.)
//!
//! Two layers of durability sit on top of [`save`]/[`load`]:
//!
//! * [`commit`] writes the tree, points the disk manager's committed-root
//!   pointer at its metadata page, and syncs — one atomic step, so a crash
//!   at any write boundary leaves either the previous committed tree or the
//!   new one, never a mix.
//! * [`recover`] runs after [`DiskManager::open_repair`] has quarantined
//!   corrupt pages: it reloads the committed tree if it survived intact, or
//!   rebuilds a fresh tree from every surviving node page (leaf entries and
//!   spanning records alike are re-inserted) and commits the rebuild.

use crate::config::{
    CoalesceConfig, IndexConfig, SplitAlgorithm, ENTRY_BYTES, MAX_SIZE_DOUBLINGS, MIN_FILL_RATIO,
};
use crate::entry::{Branch, LeafEntry, SpanningEntry};
use crate::id::{NodeId, RecordId};
use crate::node::{Arena, Node, NodeKind};
use crate::tree::Tree;
use segidx_geom::Rect;
use segidx_storage::{
    ByteReader, ByteWriter, DiskManager, PageId, RepairReport, Result, SizeClass, StorageError,
};
use std::collections::HashMap;
use std::convert::Infallible;

const TREE_MAGIC: u32 = 0x5347_5452; // "SGTR"
const FORMAT_VERSION: u32 = 1;

/// Writes the tree to `disk`, returning the id of its metadata page.
/// Call [`DiskManager::sync`] afterwards for durability.
pub fn save<const D: usize>(tree: &Tree<D>, disk: &DiskManager) -> Result<PageId> {
    // Allocate one page per node first so child references can be encoded.
    let mut page_of: HashMap<NodeId, PageId> = HashMap::with_capacity(tree.node_count());
    let mut order: Vec<NodeId> = Vec::with_capacity(tree.node_count());
    for (id, node) in tree.arena.iter() {
        // Child page ids are fixed-width, so a placeholder sizes the page.
        let payload_len = encode_node(node, |_| PageId(0)).len();
        let class = size_class_for(&tree.config, node.level, payload_len)?;
        let page = disk.allocate(class)?;
        page_of.insert(id, page);
        order.push(id);
    }
    for id in order {
        let node = tree.arena.get(id);
        let payload = encode_node(node, |child| page_of[&child]);
        let page_id = page_of[&id];
        let class = disk.size_class_of(page_id)?;
        let mut page = segidx_storage::Page::new(page_id, class);
        page.set_payload(&payload)?;
        disk.write_page(&page)?;
    }

    // Metadata page.
    let mut w = ByteWriter::with_capacity(128);
    w.put_u32(TREE_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(D as u32);
    w.put_u64(page_of[&tree.root].raw());
    w.put_u64(tree.len as u64);
    w.put_u64(tree.entry_count as u64);
    encode_config(&mut w, &tree.config);
    let class = SizeClass::fitting(w.len()).ok_or_else(|| {
        StorageError::BadMeta("tree metadata exceeds the largest page size".into())
    })?;
    let meta_id = disk.allocate(class)?;
    let mut page = segidx_storage::Page::new(meta_id, class);
    page.set_payload(w.as_bytes())?;
    disk.write_page(&page)?;
    Ok(meta_id)
}

/// Reads a tree back from `disk` given its metadata page id.
pub fn load<const D: usize>(disk: &DiskManager, meta: PageId) -> Result<Tree<D>> {
    let meta = TreeMeta::decode(disk.read_page(meta)?.payload(), Some(D))?;
    let mut arena: Arena<D> = Arena::new();
    let mut node_of: HashMap<PageId, NodeId> = HashMap::new();
    let root = load_node(disk, meta.root, &mut arena, &mut node_of)?;
    let mut tree = Tree::from_parts(meta.config, arena, root);
    tree.len = meta.len;
    tree.entry_count = meta.entry_count;
    Ok(tree)
}

/// A decoded tree metadata page: everything [`save`] writes after the node
/// pages.
pub(crate) struct TreeMeta {
    pub(crate) dims: usize,
    pub(crate) root: PageId,
    pub(crate) len: usize,
    pub(crate) entry_count: usize,
    pub(crate) config: IndexConfig,
}

impl TreeMeta {
    /// The one parser of the tree metadata page: magic, format version,
    /// dimensionality (which must be `dims`, if given), root page, logical
    /// length, entry count and the config, which must pass
    /// [`IndexConfig::validate`]. [`load`], the salvage in [`recover`],
    /// [`free_tree`] and [`PagedSearcher::open`](crate::PagedSearcher::open)
    /// all read the page through it.
    pub(crate) fn decode(payload: &[u8], dims: Option<usize>) -> Result<Self> {
        let mut r = ByteReader::new(payload);
        let magic = r.get_u32()?;
        if magic != TREE_MAGIC {
            return Err(StorageError::BadMeta(format!("bad tree magic {magic:#x}")));
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(StorageError::BadMeta(format!(
                "unsupported tree format {version}"
            )));
        }
        let found = r.get_u32()? as usize;
        if let Some(want) = dims.filter(|&want| want != found) {
            return Err(StorageError::BadMeta(format!(
                "tree has {found} dimensions, expected {want}"
            )));
        }
        Ok(Self {
            dims: found,
            root: PageId(r.get_u64()?),
            len: r.get_u64()? as usize,
            entry_count: r.get_u64()? as usize,
            config: decode_config(&mut r)?,
        })
    }
}

/// What [`recover`] did to bring the index back after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The metadata page of the recovered (and committed) tree.
    pub meta: PageId,
    /// Whether the tree had to be rebuilt from surviving pages. `false`
    /// means the committed tree survived intact and was loaded as-is.
    pub rebuilt: bool,
    /// Entries (leaf entries plus spanning records) salvaged into the
    /// rebuilt tree. Equals the tree's entry count when `rebuilt`.
    pub entries_recovered: usize,
    /// Pages quarantined by the repair-mode open; the entries they held
    /// directly are gone.
    pub pages_lost: usize,
}

/// Writes `tree` to `disk` and makes it the committed tree, atomically.
///
/// The previous committed tree's pages are freed first (their extents are
/// recycled only once this commit is durable, so a crash mid-commit still
/// reopens on the previous tree), then the new tree is saved, the disk
/// manager's root pointer is set to its metadata page, and everything is
/// synced under one meta commit. Returns the new metadata page id.
pub fn commit<const D: usize>(tree: &Tree<D>, disk: &DiskManager) -> Result<PageId> {
    if let Some(old) = disk.root() {
        free_tree(disk, old);
    }
    let meta = save(tree, disk)?;
    disk.set_root(Some(meta));
    disk.sync()?;
    Ok(meta)
}

/// Brings the committed index back after a crash or corruption.
///
/// Call after [`DiskManager::open_repair`], passing its [`RepairReport`].
/// If the committed tree (the disk manager's root pointer) loads cleanly it
/// is returned untouched. Otherwise every surviving node page is scavenged:
/// leaf entries and spanning records are re-inserted into a fresh tree
/// (using the on-disk config when the tree metadata page survived), the old
/// pages are freed, and the rebuild is committed so the next open is clean.
///
/// The third argument is always `None`: it keeps the call's shape for
/// existing callers, and what a recovery finds (whether it rebuilt, the
/// entries recovered, the pages lost) is in the returned [`RecoveryReport`].
///
/// Returns [`StorageError::BadMeta`] if the disk has no committed tree.
pub fn recover<const D: usize>(
    disk: &DiskManager,
    repair: &RepairReport,
    _none: Option<Infallible>,
) -> Result<(Tree<D>, RecoveryReport)> {
    let root = disk
        .root()
        .ok_or_else(|| StorageError::BadMeta("no committed tree to recover".into()))?;
    if repair.is_clean() {
        // Pure crash, no corruption: the committed tree must load.
        let tree = load::<D>(disk, root)?;
        let entries = tree.entry_count();
        return Ok((
            tree,
            RecoveryReport {
                meta: root,
                rebuilt: false,
                entries_recovered: entries,
                pages_lost: 0,
            },
        ));
    }
    // Quarantine happened; the committed tree may still be whole (the
    // corrupt pages could belong to an uncommitted successor).
    if let Ok(tree) = load::<D>(disk, root) {
        let entries = tree.entry_count();
        return Ok((
            tree,
            RecoveryReport {
                meta: root,
                rebuilt: false,
                entries_recovered: entries,
                pages_lost: repair.quarantined.len(),
            },
        ));
    }
    // Salvage: collect (rect, record) pairs from every page that still
    // parses as a node of this dimensionality, then rebuild.
    let config = disk
        .read_page(root)
        .and_then(|page| TreeMeta::decode(page.payload(), None))
        .map_or_else(|_| IndexConfig::srtree(), |meta| meta.config);
    let mut salvaged: Vec<(Rect<D>, RecordId)> = Vec::new();
    let pages = disk.pages();
    for (id, _) in &pages {
        if let Ok(page) = disk.read_page(*id) {
            salvage_node::<D>(page.payload(), &mut salvaged);
        }
    }
    let mut tree: Tree<D> = Tree::new(config);
    for (rect, record) in &salvaged {
        tree.insert(*rect, *record);
    }
    // Drop every old page (extents recycle only after the commit below is
    // durable) and commit the rebuild.
    for (id, _) in &pages {
        let _ = disk.free(*id);
    }
    let meta = save(&tree, disk)?;
    disk.set_root(Some(meta));
    disk.sync()?;
    Ok((
        tree,
        RecoveryReport {
            meta,
            rebuilt: true,
            entries_recovered: salvaged.len(),
            pages_lost: repair.quarantined.len(),
        },
    ))
}

/// If `payload` parses fully as a node image of dimensionality `D`
/// ([`decode_node`] is strict), appends its directly-held entries (leaf
/// entries, or an internal node's spanning records) to `out`. Tree metadata
/// pages and nodes of other dimensionalities fail the parse and contribute
/// nothing.
fn salvage_node<const D: usize>(payload: &[u8], out: &mut Vec<(Rect<D>, RecordId)>) {
    match decode_node::<D>(payload).map(|image| image.kind) {
        Ok(NodeImageKind::Leaf(entries)) => out.extend(entries),
        Ok(NodeImageKind::Internal { spanning, .. }) => {
            out.extend(spanning.into_iter().map(|(rect, record, _)| (rect, record)));
        }
        Err(_) => {}
    }
}

/// Best-effort walk freeing every page of the tree rooted at `meta`.
/// Unreadable subtrees are skipped (their pages leak rather than fail the
/// caller); dimensionality is read from the metadata page, so this works
/// for any `D`. Freed extents recycle only after the next durable commit,
/// so callers replacing a committed tree (or tier set) may free the old
/// pages before writing the new ones.
pub fn free_tree(disk: &DiskManager, meta: PageId) {
    fn free_node(disk: &DiskManager, page_id: PageId, dims: usize) {
        let Ok(page) = disk.read_page(page_id) else {
            return;
        };
        let mut r = ByteReader::new(page.payload());
        let children = (|| -> Result<Vec<PageId>> {
            let _level = r.get_u32()?;
            let is_leaf = r.get_u8()? == 1;
            let _mod_count = r.get_u64()?;
            let mut children = Vec::new();
            if !is_leaf {
                let branch_count = r.get_u32()? as usize;
                let _span_count = r.get_u32()?;
                for _ in 0..branch_count {
                    r.get_bytes(16 * dims)?;
                    children.push(PageId(r.get_u64()?));
                }
            }
            Ok(children)
        })()
        .unwrap_or_default();
        for child in children {
            free_node(disk, child, dims);
        }
        let _ = disk.free(page_id);
    }

    let decoded = disk
        .read_page(meta)
        .and_then(|page| TreeMeta::decode(page.payload(), None));
    if let Ok(TreeMeta { root, dims, .. }) = decoded {
        free_node(disk, root, dims);
    }
    let _ = disk.free(meta);
}

fn load_node<const D: usize>(
    disk: &DiskManager,
    page_id: PageId,
    arena: &mut Arena<D>,
    node_of: &mut HashMap<PageId, NodeId>,
) -> Result<NodeId> {
    let page = disk.read_page(page_id)?;
    let NodeImage {
        level,
        mod_count,
        kind,
    } = decode_node::<D>(page.payload())?;
    let id = match kind {
        NodeImageKind::Leaf(entries) => {
            let mut node = Node::leaf(entries.len());
            node.level = level;
            node.mod_count = mod_count;
            for (rect, record) in entries {
                node.entries_mut().push(LeafEntry { rect, record });
            }
            arena.alloc(node)
        }
        NodeImageKind::Internal { branches, spanning } => {
            let mut node = Node::internal(level.max(1), branches.len());
            node.level = level;
            node.mod_count = mod_count;
            let id = arena.alloc(node);
            for (rect, child_page) in branches {
                let child = load_node(disk, child_page, arena, node_of)?;
                arena.get_mut(child).parent = Some(id);
                arena
                    .get_mut(id)
                    .branches_mut()
                    .push(Branch { rect, child });
            }
            for (rect, record, linked_page) in spanning {
                let linked_child =
                    *node_of
                        .get(&linked_page)
                        .ok_or_else(|| StorageError::Corrupt {
                            page: page_id,
                            reason: "spanning record linked to unknown child page".into(),
                        })?;
                arena.get_mut(id).spanning_mut().push(SpanningEntry {
                    rect,
                    record,
                    linked_child,
                });
            }
            id
        }
    };
    node_of.insert(page_id, id);
    Ok(id)
}

/// The node page image, child and linked nodes written as `resolve` maps
/// them to pages.
fn encode_node<const D: usize>(node: &Node<D>, resolve: impl Fn(NodeId) -> PageId) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + node.occupancy() * (16 * D + 16));
    w.put_u32(node.level);
    w.put_u8(u8::from(node.is_leaf()));
    w.put_u64(node.mod_count);
    match &node.kind {
        NodeKind::Leaf { entries } => {
            w.put_u32(entries.len() as u32);
            for e in entries.iter() {
                write_rect(&mut w, &e.rect);
                w.put_u64(e.record.raw());
            }
        }
        NodeKind::Internal { branches, spanning } => {
            w.put_u32(branches.len() as u32);
            w.put_u32(spanning.len() as u32);
            for b in branches.iter() {
                write_rect(&mut w, &b.rect);
                w.put_u64(resolve(b.child).raw());
            }
            for s in spanning.iter() {
                write_rect(&mut w, &s.rect);
                w.put_u64(s.record.raw());
                w.put_u64(resolve(s.linked_child).raw());
            }
        }
    }
    w.into_bytes()
}

/// One decoded node page: what [`encode_node`] wrote.
pub(crate) struct NodeImage<const D: usize> {
    pub(crate) level: u32,
    pub(crate) mod_count: u64,
    pub(crate) kind: NodeImageKind<D>,
}

/// The entries of a [`NodeImage`], child and linked nodes by page id.
pub(crate) enum NodeImageKind<const D: usize> {
    Leaf(Vec<(Rect<D>, RecordId)>),
    Internal {
        branches: Vec<(Rect<D>, PageId)>,
        /// `(rect, record, linked child page)`.
        spanning: Vec<(Rect<D>, RecordId, PageId)>,
    },
}

/// The one parser of the node page image. Strict: the payload must be
/// exactly one node of dimensionality `D` — a leaf flag other than 0/1, an
/// invalid rectangle or trailing bytes is an error, which is how
/// [`recover`]'s salvage tells node pages from everything else. Buffers are
/// sized from the payload, never past what it can hold.
pub(crate) fn decode_node<const D: usize>(payload: &[u8]) -> Result<NodeImage<D>> {
    let mut r = ByteReader::new(payload);
    let level = r.get_u32()?;
    let is_leaf = r.get_u8()?;
    let mod_count = r.get_u64()?;
    let kind = match is_leaf {
        1 => {
            let count = r.get_u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(r.remaining() / (16 * D + 8)));
            for _ in 0..count {
                let rect = read_rect::<D>(&mut r)?;
                entries.push((rect, RecordId(r.get_u64()?)));
            }
            NodeImageKind::Leaf(entries)
        }
        0 => {
            let branch_count = r.get_u32()? as usize;
            let span_count = r.get_u32()? as usize;
            let mut branches = Vec::with_capacity(branch_count.min(r.remaining() / (16 * D + 8)));
            for _ in 0..branch_count {
                let rect = read_rect::<D>(&mut r)?;
                branches.push((rect, PageId(r.get_u64()?)));
            }
            let mut spanning = Vec::with_capacity(span_count.min(r.remaining() / (16 * D + 16)));
            for _ in 0..span_count {
                let rect = read_rect::<D>(&mut r)?;
                let record = RecordId(r.get_u64()?);
                spanning.push((rect, record, PageId(r.get_u64()?)));
            }
            NodeImageKind::Internal { branches, spanning }
        }
        _ => return Err(StorageError::Decode("not a node image".into())),
    };
    if !r.is_exhausted() {
        return Err(StorageError::Decode("trailing bytes".into()));
    }
    Ok(NodeImage {
        level,
        mod_count,
        kind,
    })
}

fn write_rect<const D: usize>(w: &mut ByteWriter, rect: &Rect<D>) {
    for d in 0..D {
        w.put_f64(rect.lo(d));
    }
    for d in 0..D {
        w.put_f64(rect.hi(d));
    }
}

fn read_rect<const D: usize>(r: &mut ByteReader<'_>) -> Result<Rect<D>> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for v in lo.iter_mut() {
        *v = r.get_f64()?;
    }
    for v in hi.iter_mut() {
        *v = r.get_f64()?;
    }
    Rect::checked(lo, hi).ok_or_else(|| StorageError::Decode("invalid rect bounds".into()))
}

/// The page size class for a node at `level`: the paper's ladder, enlarged
/// if an elastic overflow made the payload bigger.
fn size_class_for(config: &IndexConfig, level: u32, payload_len: usize) -> Result<SizeClass> {
    let base = config.size_doublings(level) as u8;
    let mut class =
        SizeClass::checked(base).unwrap_or(SizeClass::new(segidx_storage::MAX_SIZE_CLASS));
    while class.payload_capacity() < payload_len {
        let next = class.raw() + 1;
        class = SizeClass::checked(next).ok_or_else(|| StorageError::PayloadTooLarge {
            requested: payload_len,
            capacity: class.payload_capacity(),
            size_class: class,
        })?;
    }
    Ok(class)
}

/// Writes the config in the format-1 layout. The entry size, minimum fill
/// ratio and size-doubling cap are constants, still written in their slots
/// so the layout keeps its bytes and older readers keep reading it. The
/// last two slots, the R\* overlap chooser and forced reinsertion, are
/// retired: both are written as 0, "off".
fn encode_config(w: &mut ByteWriter, c: &IndexConfig) {
    w.put_u64(c.leaf_node_bytes as u64);
    w.put_u8(u8::from(c.vary_node_size));
    w.put_u8(MAX_SIZE_DOUBLINGS);
    w.put_u64(ENTRY_BYTES as u64);
    w.put_f64(MIN_FILL_RATIO);
    w.put_f64(c.branch_fraction);
    w.put_u8(u8::from(c.segment));
    w.put_u8(match c.split {
        SplitAlgorithm::Quadratic => 0,
        SplitAlgorithm::RStar => 2, // 1 was Guttman's linear split
    });
    match &c.coalesce {
        None => w.put_u8(0),
        Some(cc) => {
            w.put_u8(1);
            w.put_u64(cc.check_interval);
            w.put_u64(cc.lfm_candidates as u64);
        }
    }
    w.put_u8(0);
    w.put_u8(0);
}

/// The two retired slots at the end of the config, in order.
const RETIRED_SLOTS: [&str; 2] = ["choose_subtree_overlap", "forced_reinsert"];

/// Reads what [`encode_config`] wrote, and validates it. A folded slot
/// holding anything but its constant, a one-byte flag or tag other than 0
/// or 1, a retired slot set, an unknown split tag (1, the deleted linear
/// split, included) or a config [`IndexConfig::validate`] rejects is a
/// [`StorageError::Decode`]: this build cannot honour the tree's layout.
fn decode_config(r: &mut ByteReader<'_>) -> Result<IndexConfig> {
    let leaf_node_bytes = r.get_u64()? as usize;
    let vary_node_size = get_flag(r, "vary_node_size")?;
    let folded = [
        (
            "max_size_doublings",
            f64::from(r.get_u8()?),
            MAX_SIZE_DOUBLINGS.into(),
        ),
        ("entry_bytes", r.get_u64()? as f64, ENTRY_BYTES as f64),
        ("min_fill_ratio", r.get_f64()?, MIN_FILL_RATIO),
    ];
    if let Some((name, got, want)) = folded.into_iter().find(|(_, got, want)| got != want) {
        return Err(StorageError::Decode(format!(
            "tree config has {name} {got}, this format fixes it at {want}"
        )));
    }
    let branch_fraction = r.get_f64()?;
    let segment = get_flag(r, "segment")?;
    let split = match r.get_u8()? {
        0 => SplitAlgorithm::Quadratic,
        2 => SplitAlgorithm::RStar,
        other => {
            return Err(StorageError::Decode(format!(
                "unknown split algorithm {other}"
            )))
        }
    };
    let coalesce = if get_flag(r, "coalesce")? {
        Some(CoalesceConfig {
            check_interval: r.get_u64()?,
            lfm_candidates: r.get_u64()? as usize,
        })
    } else {
        None
    };
    for slot in RETIRED_SLOTS {
        if get_flag(r, slot)? {
            return Err(StorageError::Decode(format!(
                "tree config sets {slot}, which this build no longer implements"
            )));
        }
    }
    let config = IndexConfig {
        leaf_node_bytes,
        vary_node_size,
        branch_fraction,
        segment,
        split,
        coalesce,
    };
    config
        .validate()
        .map_err(|e| StorageError::Decode(format!("invalid tree config: {e}")))?;
    Ok(config)
}

/// Reads a one-byte flag or tag of the config: 0 or 1, and anything else
/// is a [`StorageError::Decode`] naming its `slot`.
fn get_flag(r: &mut ByteReader<'_>, slot: &str) -> Result<bool> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(StorageError::Decode(format!(
            "tree config has {slot} {other}, not 0 or 1"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "segidx-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn build_tree(config: IndexConfig, n: u64) -> Tree<2> {
        let mut t: Tree<2> = Tree::new(config);
        for i in 0..n {
            let x = ((i * 37) % 5_000) as f64;
            let y = ((i * 113) % 5_000) as f64;
            let len = if i % 9 == 0 { 2_000.0 } else { 25.0 };
            t.insert(Rect::new([x, y], [x + len, y]), RecordId(i));
        }
        t
    }

    /// The config the server builds its index with.
    fn served() -> IndexConfig {
        IndexConfig {
            split: SplitAlgorithm::RStar,
            ..IndexConfig::srtree()
        }
    }

    /// [`served`]'s config slots as [`encode_config`] writes them: one byte
    /// each for the flags and tags at offsets 8 (`vary_node_size`), 34
    /// (`segment`), 35 (split), 36 (`coalesce`, 0: no parameters follow),
    /// 37 and 38 (the retired slots).
    fn served_config_bytes() -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_config(&mut w, &served());
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 39);
        assert_eq!(
            decode_config(&mut ByteReader::new(&bytes)).unwrap(),
            served()
        );
        bytes
    }

    /// The message of the [`StorageError::Decode`] that `bytes` must raise.
    fn decode_error(bytes: &[u8]) -> String {
        match decode_config(&mut ByteReader::new(bytes)) {
            Err(StorageError::Decode(message)) => message,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn config_flag_other_than_0_or_1_refused() {
        for (offset, slot) in [
            (8, "vary_node_size"),
            (34, "segment"),
            (36, "coalesce"),
            (37, RETIRED_SLOTS[0]),
            (38, RETIRED_SLOTS[1]),
        ] {
            let mut bytes = served_config_bytes();
            bytes[offset] = 2;
            let message = decode_error(&bytes);
            assert!(message.contains(slot), "{slot}: {message}");
        }
    }

    #[test]
    fn config_with_a_retired_slot_set_refused() {
        for (offset, slot) in [(37, RETIRED_SLOTS[0]), (38, RETIRED_SLOTS[1])] {
            let mut bytes = served_config_bytes();
            bytes[offset] = 1;
            let message = decode_error(&bytes);
            assert!(message.contains(slot), "{slot}: {message}");
        }
    }

    /// The tail the removed R\*-Tree preset wrote (split 2, both retired
    /// slots set, reinsertion fraction 0.3) is refused, not read back as a
    /// plain R\* split.
    #[test]
    fn old_rstar_config_refused() {
        let mut bytes = served_config_bytes();
        bytes.truncate(34);
        let tail = "0002000101333333333333d33f";
        bytes.extend(
            (0..tail.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&tail[i..i + 2], 16).unwrap()),
        );
        let message = decode_error(&bytes);
        assert!(message.contains(RETIRED_SLOTS[0]), "{message}");
    }

    #[test]
    fn roundtrip_preserves_structure_and_results() {
        for config in [IndexConfig::rtree(), IndexConfig::srtree()] {
            let disk = DiskManager::create(temp(&format!("rt-{}.db", config.segment))).unwrap();
            let tree = build_tree(config, 2_000);
            let meta = save(&tree, &disk).unwrap();
            disk.sync().unwrap();
            let back: Tree<2> = load(&disk, meta).unwrap();
            back.assert_invariants();
            assert_eq!(back.len(), tree.len());
            assert_eq!(back.entry_count(), tree.entry_count());
            assert_eq!(back.node_count(), tree.node_count());
            assert_eq!(back.height(), tree.height());
            let q = Rect::new([100.0, 100.0], [3_000.0, 3_000.0]);
            assert_eq!(back.search(&q), tree.search(&q));
        }
    }

    #[test]
    fn page_sizes_follow_level_ladder() {
        let tree = build_tree(IndexConfig::rtree(), 3_000);
        let disk = DiskManager::create(temp("ladder.db")).unwrap();
        let _ = save(&tree, &disk).unwrap();
        // Leaf pages are 1 KB; at least one larger page exists for the
        // upper levels.
        let classes: Vec<u8> = disk.pages().iter().map(|(_, c)| c.raw()).collect();
        assert!(classes.contains(&0), "leaf pages at 1 KB");
        assert!(classes.iter().any(|&c| c >= 1), "larger upper-level pages");
        // Every node sits at least on its level's rung, however few entries
        // it holds (the meta page is not a node image).
        for (id, class) in disk.pages() {
            let page = disk.read_page(id).unwrap();
            if let Ok(node) = decode_node::<2>(page.payload()) {
                assert!(u32::from(class.raw()) >= node.level, "{id:?}");
            }
        }
    }

    /// The meta page of a 40-record tree under two configs, byte for byte
    /// as the encoder wrote it while `max_size_doublings`, `entry_bytes`,
    /// `min_fill_ratio` and the two retired R\* options were fields: the
    /// constants kept their slots, and the retired slots read "off".
    #[test]
    fn meta_page_bytes_are_format_1() {
        const HEADER: &str = "5254475301000000020000000200000000000000\
                              2800000000000000280000000000000000040000\
                              00000000010a28000000000000009a9999999999\
                              d93f555555555555e53f";
        for (config, tail) in [
            (IndexConfig::srtree(), "0100000000"),
            (served(), "0102000000"),
        ] {
            let tree = build_tree(config, 40);
            let disk = DiskManager::create(temp(&format!("golden-{tail}.db"))).unwrap();
            let meta = save(&tree, &disk).unwrap();
            let page = disk.read_page(meta).unwrap();
            let hex: String = page.payload().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, format!("{HEADER}{tail}"));
        }
    }

    #[test]
    fn wrong_dimension_rejected() {
        let tree = build_tree(IndexConfig::rtree(), 100);
        let disk = DiskManager::create(temp("dims.db")).unwrap();
        let meta = save(&tree, &disk).unwrap();
        let err = load::<3>(&disk, meta).unwrap_err();
        assert!(err.to_string().contains("dimensions"));
    }

    #[test]
    fn empty_tree_roundtrip() {
        let tree: Tree<2> = Tree::new(IndexConfig::srtree());
        let disk = DiskManager::create(temp("empty.db")).unwrap();
        let meta = save(&tree, &disk).unwrap();
        let back: Tree<2> = load(&disk, meta).unwrap();
        assert!(back.is_empty());
        back.assert_invariants();
        assert!(back.config().segment);
    }

    #[test]
    fn commit_sets_root_and_survives_reopen() {
        let path = temp("commit.db");
        let tree = build_tree(IndexConfig::srtree(), 500);
        {
            let disk = DiskManager::create(&path).unwrap();
            let meta = commit(&tree, &disk).unwrap();
            assert_eq!(disk.root(), Some(meta));
        }
        let disk = DiskManager::open(&path).unwrap();
        let back: Tree<2> = load(&disk, disk.root().unwrap()).unwrap();
        assert_eq!(back.entry_count(), tree.entry_count());
        let q = Rect::new([0.0, 0.0], [5_000.0, 5_000.0]);
        assert_eq!(back.search(&q), tree.search(&q));
    }

    #[test]
    fn commit_replaces_previous_tree_without_leaking_pages() {
        let path = temp("recommit.db");
        let disk = DiskManager::create(&path).unwrap();
        let first = build_tree(IndexConfig::rtree(), 1_000);
        commit(&first, &disk).unwrap();
        let pages_after_first = disk.pages().len();
        // Re-committing a same-sized tree frees the old one; the page count
        // must not grow commit over commit.
        for _ in 0..3 {
            let again = build_tree(IndexConfig::rtree(), 1_000);
            commit(&again, &disk).unwrap();
            assert_eq!(disk.pages().len(), pages_after_first);
        }
    }

    #[test]
    fn crash_between_commits_reopens_on_previous_tree() {
        use segidx_storage::{DiskManagerConfig, ScriptedFault};
        use std::sync::Arc;
        let path = temp("crash-commit.db");
        let small = build_tree(IndexConfig::srtree(), 200);
        let observe = Arc::new(ScriptedFault::observer());
        {
            let cfg = DiskManagerConfig {
                fault_injector: Some(observe.clone() as Arc<_>),
            };
            let disk = DiskManager::create_with(&path, cfg).unwrap();
            commit(&small, &disk).unwrap();
        }
        let committed_writes = observe.writes_seen();
        // Cut power partway into the *second* commit: reopen must land on
        // the first tree, whole.
        {
            let cut = Arc::new(ScriptedFault::power_cut(committed_writes + 3, Some(64)));
            let cfg = DiskManagerConfig {
                fault_injector: Some(cut as Arc<_>),
            };
            let disk = DiskManager::create_with(temp("crash-commit-b.db"), cfg).unwrap();
            commit(&small, &disk).unwrap();
            let bigger = build_tree(IndexConfig::srtree(), 2_000);
            assert!(commit(&bigger, &disk).is_err(), "power cut mid-commit");
            drop(disk);
            let (disk, report) = DiskManager::open_repair(
                temp("crash-commit-b.db"),
                DiskManagerConfig::default(),
                None,
            )
            .unwrap();
            assert!(report.is_clean(), "a pure power cut corrupts nothing");
            let (back, rr) = recover::<2>(&disk, &report, None).unwrap();
            assert!(!rr.rebuilt);
            assert_eq!(back.entry_count(), small.entry_count());
        }
    }

    #[test]
    fn recover_rebuilds_from_surviving_pages_after_corruption() {
        use segidx_storage::DiskManagerConfig;
        use std::io::{Seek, SeekFrom, Write};

        let path = temp("recover.db");
        let tree = build_tree(IndexConfig::srtree(), 1_500);
        {
            let disk = DiskManager::create(&path).unwrap();
            commit(&tree, &disk).unwrap();
        }
        // Corrupt one 1 KB leaf extent's stored payload.
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(5 * 1024 + 40)).unwrap();
            f.write_all(&[0x5A; 16]).unwrap();
        }
        let (disk, report) =
            DiskManager::open_repair(&path, DiskManagerConfig::default(), None).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        let (back, rr) = recover::<2>(&disk, &report, None).unwrap();
        assert!(rr.rebuilt);
        assert_eq!(rr.pages_lost, 1);
        back.assert_invariants();
        assert!(back.config().segment, "config recovered from tree meta");
        // The rebuilt tree answers with a subset of the original results —
        // only entries on the quarantined page may be missing, and nothing
        // fabricated appears.
        assert!(rr.entries_recovered < tree.entry_count());
        assert!(rr.entries_recovered > 0);
        let q = Rect::new([0.0, 0.0], [5_000.0, 5_000.0]);
        let full: std::collections::BTreeSet<_> = tree.search(&q).into_iter().collect();
        let got: std::collections::BTreeSet<_> = back.search(&q).into_iter().collect();
        assert!(got.is_subset(&full), "no fabricated results");
        // Recovery committed the rebuild: a clean reopen sees it.
        drop(disk);
        let disk = DiskManager::open(&path).unwrap();
        let clean: Tree<2> = load(&disk, disk.root().unwrap()).unwrap();
        assert_eq!(clean.entry_count(), back.entry_count());
    }

    #[test]
    fn recover_without_committed_tree_is_typed() {
        let path = temp("noroot.db");
        {
            DiskManager::create(&path).unwrap().sync().unwrap();
        }
        let (disk, report) = DiskManager::open_repair(&path, Default::default(), None).unwrap();
        let err = recover::<2>(&disk, &report, None).unwrap_err();
        assert!(matches!(err, StorageError::BadMeta(_)));
    }
}
