//! Model-based property tests for the one-block entry stores: every
//! `LeafStore` / `BranchStore` / `SpanningStore` operation is mirrored on a
//! plain `Vec<Entry>` and the store must agree with it after each step —
//! through its entry views, through the coordinate planes the scan kernels
//! read, and through `union_all` / `PartialEq`, whatever the block's
//! stride and however much dead capacity earlier operations left behind.
//! After every step the block's layout is checked as well: its planes lie
//! back to back at the live count, not the capacity. Plus the
//! copy-on-write contract of the node arena: a fixed example at store
//! level, and a model-based test of its chunked slot table under
//! interleaved snapshots.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_core::entry::{Branch, BranchStore, LeafEntry, LeafStore, SpanningEntry, SpanningStore};
use segidx_core::node::{Arena, Node};
use segidx_core::{NodeId, RecordId};
use segidx_geom::Rect;

/// Store-independent entry material: a rectangle, a record id (any bit
/// pattern, NaN-shaped ones included) and an index into the node-id pool.
#[derive(Clone, Copy, Debug)]
struct Raw {
    rect: Rect<2>,
    id: u64,
    node: usize,
}

#[derive(Clone, Debug)]
enum Op {
    Push(Raw),
    SwapRemove(usize),
    /// Keep entries whose key is not `residue` modulo `modulus`.
    Retain {
        modulus: u64,
        residue: u64,
    },
    Truncate(usize),
    TakeVec,
    Assign(Vec<Raw>),
    SetRect(usize, Rect<2>),
    Extend(Vec<Raw>),
}

fn rect_strategy() -> impl Strategy<Value = Rect<2>> {
    (
        -500.0..500.0f64,
        -500.0..500.0f64,
        0.0..300.0f64,
        0.0..300.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

fn raw_strategy() -> impl Strategy<Value = Raw> {
    (rect_strategy(), any::<u64>(), 0usize..POOL).prop_map(|(rect, id, node)| Raw {
        rect,
        id,
        node,
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => raw_strategy().prop_map(Op::Push),
        3 => any::<usize>().prop_map(Op::SwapRemove),
        1 => (2u64..5, 0u64..5).prop_map(|(modulus, residue)| Op::Retain { modulus, residue }),
        1 => (0usize..40).prop_map(Op::Truncate),
        1 => Just(Op::TakeVec),
        1 => vec(raw_strategy(), 0..40).prop_map(Op::Assign),
        2 => (any::<usize>(), rect_strategy()).prop_map(|(i, r)| Op::SetRect(i, r)),
        2 => vec(raw_strategy(), 0..20).prop_map(Op::Extend),
    ]
}

/// Node ids can only be minted by an arena; the pool gives the tests a
/// fixed set of distinct ones.
const POOL: usize = 16;

fn node_pool() -> Vec<NodeId> {
    let mut arena: Arena<2> = Arena::new();
    (0..POOL).map(|_| arena.alloc(Node::leaf(0))).collect()
}

/// The surface shared by the three macro-generated stores, so one model
/// loop drives them all.
trait Store:
    Clone + PartialEq + std::fmt::Debug + FromIterator<Self::Entry> + Extend<Self::Entry>
{
    type Entry: Copy + PartialEq + std::fmt::Debug;
    fn entry(raw: &Raw, pool: &[NodeId]) -> Self::Entry;
    fn rect_of(e: &Self::Entry) -> Rect<2>;
    fn set_entry_rect(e: &mut Self::Entry, rect: Rect<2>);
    /// What `Retain` filters on.
    fn key(e: &Self::Entry) -> u64;
    fn with_capacity(slots: usize) -> Self;
    fn len(&self) -> usize;
    fn capacity(&self) -> usize;
    fn to_vec(&self) -> Vec<Self::Entry>;
    fn push(&mut self, e: Self::Entry);
    fn swap_remove(&mut self, i: usize) -> Self::Entry;
    fn retain(&mut self, pred: impl FnMut(&Self::Entry) -> bool);
    fn truncate(&mut self, len: usize);
    fn take_vec(&mut self) -> Vec<Self::Entry>;
    fn assign(&mut self, entries: Vec<Self::Entry>);
    fn set_rect(&mut self, i: usize, rect: &Rect<2>);
    fn planes(&self) -> ([&[f64]; 2], [&[f64]; 2]);
    fn union_all(&self) -> Option<Rect<2>>;
}

macro_rules! impl_store {
    ($store:ident, $entry:ident, |$raw:ident, $pool:ident| $make:expr, |$e:ident| $key:expr) => {
        impl Store for $store<2> {
            type Entry = $entry<2>;
            fn entry($raw: &Raw, $pool: &[NodeId]) -> Self::Entry {
                $make
            }
            fn rect_of(e: &Self::Entry) -> Rect<2> {
                e.rect
            }
            fn set_entry_rect(e: &mut Self::Entry, rect: Rect<2>) {
                e.rect = rect;
            }
            fn key($e: &Self::Entry) -> u64 {
                $key
            }
            fn with_capacity(slots: usize) -> Self {
                $store::with_capacity(slots)
            }
            fn len(&self) -> usize {
                $store::len(self)
            }
            fn capacity(&self) -> usize {
                $store::capacity(self)
            }
            fn to_vec(&self) -> Vec<Self::Entry> {
                self.iter().collect()
            }
            fn push(&mut self, e: Self::Entry) {
                $store::push(self, e)
            }
            fn swap_remove(&mut self, i: usize) -> Self::Entry {
                $store::swap_remove(self, i)
            }
            fn retain(&mut self, pred: impl FnMut(&Self::Entry) -> bool) {
                $store::retain(self, pred)
            }
            fn truncate(&mut self, len: usize) {
                $store::truncate(self, len)
            }
            fn take_vec(&mut self) -> Vec<Self::Entry> {
                $store::take_vec(self)
            }
            fn assign(&mut self, entries: Vec<Self::Entry>) {
                $store::assign(self, entries)
            }
            fn set_rect(&mut self, i: usize, rect: &Rect<2>) {
                $store::set_rect(self, i, rect)
            }
            fn planes(&self) -> ([&[f64]; 2], [&[f64]; 2]) {
                $store::planes(self)
            }
            fn union_all(&self) -> Option<Rect<2>> {
                $store::union_all(self)
            }
        }
    };
}

impl_store!(
    LeafStore,
    LeafEntry,
    |raw, _pool| LeafEntry {
        rect: raw.rect,
        record: RecordId(raw.id),
    },
    |e| e.record.raw()
);
impl_store!(
    BranchStore,
    Branch,
    |raw, pool| Branch {
        rect: raw.rect,
        child: pool[raw.node],
    },
    |e| u64::from(e.child.raw())
);
impl_store!(
    SpanningStore,
    SpanningEntry,
    |raw, pool| SpanningEntry {
        rect: raw.rect,
        record: RecordId(raw.id),
        linked_child: pool[raw.node],
    },
    |e| e.record.raw() ^ u64::from(e.linked_child.raw())
);

/// The block lays its planes at the live count: consecutive planes start
/// exactly `stride` slots apart, with `len ≤ stride < len + 2`, read from
/// the addresses of the slices `planes()` returns.
fn check_layout<S: Store>(store: &S, step: usize) -> Result<(), TestCaseError> {
    let (los, his) = store.planes();
    let starts: Vec<usize> = los
        .iter()
        .chain(his.iter())
        .map(|p| p.as_ptr() as usize)
        .collect();
    let slot = std::mem::size_of::<f64>();
    let gap = starts[1].checked_sub(starts[0]);
    prop_assert!(gap.is_some(), "planes out of order at step {}", step);
    let stride_bytes = gap.unwrap();
    prop_assert_eq!(
        stride_bytes % slot,
        0,
        "plane gap not whole slots, step {}",
        step
    );
    for (p, w) in starts.windows(2).enumerate() {
        prop_assert_eq!(
            w[1].checked_sub(w[0]),
            Some(stride_bytes),
            "planes {} and {} apart by other than the stride, step {}",
            p,
            p + 1,
            step
        );
    }
    let (stride, len) = (stride_bytes / slot, store.len());
    prop_assert!(
        len <= stride && stride < len + 2,
        "stride {} for {} entries at step {}",
        stride,
        len,
        step
    );
    prop_assert!(
        stride <= store.capacity(),
        "stride past capacity at step {}",
        step
    );
    Ok(())
}

/// Everything the store exposes must equal the model, and nothing it
/// exposes may come from a slot past `len`.
fn check<S: Store>(store: &S, model: &[S::Entry], step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), model.len(), "len at step {}", step);
    prop_assert!(store.capacity() >= store.len(), "capacity at step {}", step);
    check_layout(store, step)?;
    prop_assert_eq!(store.to_vec(), model.to_vec(), "views at step {}", step);

    let (los, his) = store.planes();
    for d in 0..2 {
        prop_assert_eq!(
            los[d].len(),
            model.len(),
            "lo plane {} length, step {}",
            d,
            step
        );
        prop_assert_eq!(
            his[d].len(),
            model.len(),
            "hi plane {} length, step {}",
            d,
            step
        );
        for (i, e) in model.iter().enumerate() {
            let r = S::rect_of(e);
            prop_assert_eq!(los[d][i], r.lo(d), "lo[{}][{}] at step {}", d, i, step);
            prop_assert_eq!(his[d][i], r.hi(d), "hi[{}][{}] at step {}", d, i, step);
        }
    }

    let union = model.iter().map(S::rect_of).reduce(|a, b| a.union(&b));
    prop_assert_eq!(store.union_all(), union, "union_all at step {}", step);

    // A store rebuilt from the model has an exact-fit block and no history;
    // equality must not see the difference.
    let fresh: S = model.iter().copied().collect();
    prop_assert_eq!(store, &fresh, "PartialEq at step {}", step);
    prop_assert_eq!(&fresh, store, "PartialEq (reversed) at step {}", step);
    Ok(())
}

fn run<S: Store>(initial_slots: usize, ops: &[Op], pool: &[NodeId]) -> Result<(), TestCaseError> {
    let mut store = S::with_capacity(initial_slots);
    let mut model: Vec<S::Entry> = Vec::new();
    let entries =
        |raws: &[Raw]| -> Vec<S::Entry> { raws.iter().map(|r| S::entry(r, pool)).collect() };
    check(&store, &model, 0)?;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Push(raw) => {
                let e = S::entry(raw, pool);
                store.push(e);
                model.push(e);
            }
            Op::SwapRemove(i) => {
                if model.is_empty() {
                    continue;
                }
                let i = i % model.len();
                prop_assert_eq!(store.swap_remove(i), model.swap_remove(i));
            }
            Op::Retain { modulus, residue } => {
                store.retain(|e| S::key(e) % modulus != *residue);
                model.retain(|e| S::key(e) % modulus != *residue);
            }
            Op::Truncate(len) => {
                store.truncate(*len);
                model.truncate(*len);
            }
            Op::TakeVec => {
                prop_assert_eq!(store.take_vec(), std::mem::take(&mut model));
            }
            Op::Assign(raws) => {
                model = entries(raws);
                store.assign(model.clone());
            }
            Op::SetRect(i, rect) => {
                if model.is_empty() {
                    continue;
                }
                let i = i % model.len();
                store.set_rect(i, rect);
                S::set_entry_rect(&mut model[i], *rect);
            }
            Op::Extend(raws) => {
                let more = entries(raws);
                store.extend(more.iter().copied());
                model.extend(more);
            }
        }
        check(&store, &model, step + 1)?;
    }
    // A clone is an independent block that reads back equal, laid out the
    // same: mutating it leaves the original be.
    let mut copy = store.clone();
    check(&copy, &model, usize::MAX)?;
    prop_assert_eq!(copy.capacity(), store.capacity());
    copy.truncate(model.len() / 2);
    copy.push(S::entry(
        &Raw {
            rect: Rect::new([9.0, 9.0], [9.0, 9.0]),
            id: u64::MAX,
            node: 0,
        },
        pool,
    ));
    check(&store, &model, usize::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Initial strides 0..=5 straddle the first-allocation floor of 4 and
    /// put growth boundaries at different operation counts per case.
    #[test]
    fn stores_match_vec_model(slots in 0usize..6, ops in vec(op_strategy(), 1..120)) {
        let pool = node_pool();
        run::<LeafStore<2>>(slots, &ops, &pool)?;
        run::<BranchStore<2>>(slots, &ops, &pool)?;
        run::<SpanningStore<2>>(slots, &ops, &pool)?;
    }
}

/// Pushes one entry at a time across the capacity boundary (the block
/// grows), then `assign`s and `extend`s batches of every size from 0 to
/// twice the capacity onto stores at several fills: the layout holds after
/// each step, and each batch matches the model.
fn batches_across_capacity<S: Store>(cap: usize, pool: &[NodeId]) -> Result<(), TestCaseError> {
    let raw = |i: usize| Raw {
        rect: Rect::new([i as f64, 0.0], [i as f64 + 0.5, 1.0]),
        id: i as u64,
        node: i % POOL,
    };
    let mut store = S::with_capacity(cap);
    let mut model = Vec::new();
    for i in 0..2 * cap + 3 {
        let e = S::entry(&raw(i), pool);
        store.push(e);
        model.push(e);
        check(&store, &model, i)?;
    }
    for fill in [0, 1, cap / 2, cap] {
        for n in 0..=2 * cap {
            let head: Vec<S::Entry> = (0..fill).map(|i| S::entry(&raw(i), pool)).collect();
            let batch: Vec<S::Entry> = (0..n).map(|i| S::entry(&raw(100 + i), pool)).collect();

            let mut assigned = S::with_capacity(cap);
            assigned.assign(head.clone());
            check(&assigned, &head, fill)?;
            assigned.assign(batch.clone());
            check(&assigned, &batch, n)?;

            let mut extended = S::with_capacity(cap);
            extended.extend(head.iter().copied());
            extended.extend(batch.iter().copied());
            let both: Vec<S::Entry> = head.iter().chain(&batch).copied().collect();
            check(&extended, &both, fill + n)?;
        }
    }
    Ok(())
}

#[test]
fn layout_follows_len_across_capacity_and_batches() {
    let pool = node_pool();
    for cap in [0, 1, 2, 3, 4, 7, 26, 27] {
        batches_across_capacity::<LeafStore<2>>(cap, &pool).unwrap();
        batches_across_capacity::<BranchStore<2>>(cap, &pool).unwrap();
        batches_across_capacity::<SpanningStore<2>>(cap, &pool).unwrap();
    }
}

fn leaf(x: f64, id: u64) -> LeafEntry<2> {
    LeafEntry {
        rect: Rect::new([x, 0.0], [x + 1.0, 1.0]),
        record: RecordId(id),
    }
}

#[test]
#[should_panic]
fn rect_past_len_panics_even_inside_the_block() {
    let mut s: LeafStore<2> = (0..8).map(|i| leaf(i as f64, i)).collect();
    s.truncate(3);
    assert!(s.capacity() >= 8, "slot 5 is still inside the block");
    let _ = s.rect(5);
}

#[test]
#[should_panic]
fn payload_past_len_panics_even_inside_the_block() {
    let mut s: LeafStore<2> = (0..8).map(|i| leaf(i as f64, i)).collect();
    s.swap_remove(0);
    let _ = s.record(7);
}

#[test]
fn arena_copy_on_write_is_per_node_and_leaves_the_snapshot_alone() {
    let mut arena: Arena<2> = Arena::new();
    let ids: Vec<NodeId> = (0..4)
        .map(|n| {
            let mut node = Node::leaf(4);
            for i in 0..3 {
                node.entries_mut()
                    .push(leaf((10 * n + i) as f64, (10 * n + i) as u64));
            }
            arena.alloc(node)
        })
        .collect();
    assert_eq!(arena.shared_nodes(), 0);

    let snapshot = arena.clone();
    assert_eq!(arena.shared_nodes(), 4);
    let planes_before: Vec<Vec<f64>> = {
        let (los, his) = snapshot.get(ids[1]).entries().planes();
        los.iter().chain(his.iter()).map(|p| p.to_vec()).collect()
    };

    // Mutating one node through `get_mut` copies that node alone…
    let entries = arena.get_mut(ids[1]).entries_mut();
    entries.set_rect(0, &Rect::new([-7.0, -7.0], [-6.0, -6.0]));
    entries.push(leaf(99.0, 99));
    entries.swap_remove(1);
    assert_eq!(arena.shared_nodes(), 3);
    assert_eq!(snapshot.shared_nodes(), 3);

    // …and the snapshot still reads the planes it read before.
    let (los, his) = snapshot.get(ids[1]).entries().planes();
    let planes_after: Vec<Vec<f64>> = los.iter().chain(his.iter()).map(|p| p.to_vec()).collect();
    assert_eq!(planes_after, planes_before);
    assert_eq!(snapshot.get(ids[1]).entries().len(), 3);
    assert_eq!(arena.get(ids[1]).entries().rect(0).lo(0), -7.0);

    // Freeing a shared node drops the writer's reference only.
    arena.dealloc(ids[2]);
    assert_eq!(snapshot.shared_nodes(), 2);
    assert_eq!(snapshot.get(ids[2]).entries().len(), 3);
}

#[test]
fn copy_on_write_clone_of_a_restrided_node_reads_back_equal() {
    // A 27-slot leaf (the paper's 26 plus the overflow slot) that has been
    // widened and narrowed: 17 entries sit at stride 18 inside the block.
    let mut arena: Arena<2> = Arena::new();
    let mut node = Node::leaf(27);
    for i in 0..21 {
        node.entries_mut().push(leaf(i as f64, i));
    }
    for i in [3, 0, 11, 5] {
        node.entries_mut().swap_remove(i);
    }
    let id = arena.alloc(node);
    let snapshot = arena.clone();
    let before: Vec<LeafEntry<2>> = snapshot.get(id).entries().iter().collect();

    // `get_mut` under the snapshot copies the node; the copy reads back
    // equal to the original, plane for plane, before anything changes.
    let copy = arena.get_mut(id).entries().clone();
    assert_eq!(arena.shared_nodes(), 0);
    let (original, copied) = (snapshot.get(id).entries(), arena.get(id).entries());
    assert_eq!(copied, original);
    assert_eq!(copied.planes(), original.planes());
    assert_eq!(copied.capacity(), 27);
    assert_eq!(copy, *original);
    check_layout(copied, 0).unwrap();

    // Restriding the copy up and down leaves the snapshot's node alone.
    let entries = arena.get_mut(id).entries_mut();
    entries.push(leaf(50.0, 50));
    entries.push(leaf(51.0, 51));
    entries.swap_remove(2);
    assert_eq!(
        snapshot.get(id).entries().iter().collect::<Vec<_>>(),
        before
    );
    check_layout(snapshot.get(id).entries(), 1).unwrap();
    check_layout(arena.get(id).entries(), 2).unwrap();
}

/// Slots per chunk of the arena's slot table (a private constant of
/// `node.rs`); the model test below starts from sizes that straddle it.
const K: usize = 16;
const START_SIZES: [usize; 6] = [0, 1, K - 1, K, K + 1, 3 * K + 2];

#[derive(Clone, Debug)]
enum ArenaOp {
    Alloc,
    Dealloc(usize),
    GetMut(usize),
    Snapshot,
    DropSnapshot,
}

fn arena_op_strategy() -> impl Strategy<Value = (usize, ArenaOp)> {
    let op = prop_oneof![
        4 => Just(ArenaOp::Alloc),
        3 => any::<usize>().prop_map(ArenaOp::Dealloc),
        4 => any::<usize>().prop_map(ArenaOp::GetMut),
        2 => Just(ArenaOp::Snapshot),
        1 => Just(ArenaOp::DropSnapshot),
    ];
    (any::<usize>(), op)
}

/// The flat slot vector the arena used to be: ids are slot indexes, a
/// freed slot goes on a LIFO free list, a fresh id is the vector's length.
#[derive(Clone, Default)]
struct ArenaModel {
    slots: Vec<Option<Node<2>>>,
    free: Vec<usize>,
}

impl ArenaModel {
    fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

/// A leaf that no other step of the run produces.
fn stamped(stamp: u64) -> Node<2> {
    let mut node = Node::leaf(0);
    node.mod_count = stamp;
    node.entries_mut().push(leaf(stamp as f64, stamp));
    node
}

fn same_node(a: &Node<2>, b: &Node<2>) -> bool {
    a.mod_count == b.mod_count && a.parent == b.parent && a.entries() == b.entries()
}

fn check_arena(arena: &Arena<2>, model: &ArenaModel, what: &str) -> Result<(), TestCaseError> {
    let live = model.live();
    prop_assert_eq!(arena.len(), live.len(), "len, {}", what);
    prop_assert_eq!(arena.is_empty(), live.is_empty(), "is_empty, {}", what);
    let seen: Vec<usize> = arena.iter().map(|(id, _)| id.raw() as usize).collect();
    prop_assert_eq!(&seen, &live, "iter order, {}", what);
    for (id, node) in arena.iter() {
        let expect = model.slots[id.raw() as usize].as_ref().unwrap();
        prop_assert!(same_node(node, expect), "iter node {:?}, {}", id, what);
        prop_assert!(same_node(arena.get(id), expect), "get {:?}, {}", id, what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    /// Up to four arenas that are clones of one another, each mutated on
    /// its own, each mirrored by its own flat-vector model: ids and slot
    /// reuse order are those of the flat vector, and no arena ever
    /// observes what another did after they parted.
    #[test]
    fn arena_matches_flat_vector_model_under_snapshots(
        start in 0usize..START_SIZES.len(),
        ops in vec(arena_op_strategy(), 1..160),
    ) {
        let mut stamp = 0u64;
        let mut arenas: Vec<(Arena<2>, ArenaModel)> = vec![Default::default()];
        for _ in 0..START_SIZES[start] {
            stamp += 1;
            let id = arenas[0].0.alloc(stamped(stamp));
            prop_assert_eq!(id.raw() as usize, arenas[0].1.slots.len());
            arenas[0].1.slots.push(Some(stamped(stamp)));
        }
        for (step, (which, op)) in ops.iter().enumerate() {
            let which = which % arenas.len();
            let (arena, model) = &mut arenas[which];
            stamp += 1;
            match op {
                ArenaOp::Alloc => {
                    let expect = model.free.pop().unwrap_or(model.slots.len());
                    if expect == model.slots.len() {
                        model.slots.push(None);
                    }
                    model.slots[expect] = Some(stamped(stamp));
                    let id = arena.alloc(stamped(stamp));
                    prop_assert_eq!(id.raw() as usize, expect, "alloc id at step {}", step);
                }
                ArenaOp::Dealloc(pick) | ArenaOp::GetMut(pick) => {
                    let live = model.live();
                    if live.is_empty() {
                        continue;
                    }
                    let slot = live[pick % live.len()];
                    let id = arena.iter().nth(pick % live.len()).unwrap().0;
                    prop_assert_eq!(id.raw() as usize, slot);
                    if matches!(op, ArenaOp::Dealloc(_)) {
                        arena.dealloc(id);
                        model.slots[slot] = None;
                        model.free.push(slot);
                    } else {
                        for node in [arena.get_mut(id), model.slots[slot].as_mut().unwrap()] {
                            node.mod_count = stamp;
                            node.entries_mut().push(leaf(-(stamp as f64), stamp));
                        }
                    }
                }
                ArenaOp::Snapshot => {
                    if arenas.len() < 4 {
                        let copy = arenas[which].clone();
                        arenas.push(copy);
                    }
                }
                ArenaOp::DropSnapshot => {
                    if arenas.len() > 1 {
                        arenas.swap_remove(which);
                    }
                }
            }
            for (i, (arena, model)) in arenas.iter().enumerate() {
                check_arena(arena, model, &format!("arena {i} after step {step}"))?;
            }
        }
        // Alone again, nothing is shared whatever the others left behind.
        arenas.truncate(1);
        prop_assert_eq!(arenas[0].0.shared_nodes(), 0);
    }
}
