//! The mutable memtable: where recent intervals live before a seal.
//!
//! A flat append buffer of rows until the seal drains it — O(1) inserts,
//! and the seal sorts once. Queries scan the buffer linearly, bounded by
//! the seal threshold.

use super::{Payload, Row};
use segidx_core::RecordId;
use segidx_geom::Rect;
use std::collections::HashSet;

/// The mutable tier. Not thread-safe; the owning index serializes access.
#[derive(Debug)]
pub struct Memtable<const D: usize, P> {
    entries: Vec<Row<D, P>>,
    ids: HashSet<RecordId>,
    /// Bounding box of every entry inserted since the last drain (`None`
    /// when there has been none). Deletes leave it as it is: a box that is
    /// too large costs a scan, one that is too small loses an answer.
    fence: Option<Rect<D>>,
}

impl<const D: usize, P: Payload> Memtable<D, P> {
    /// Creates an empty memtable with room for `capacity` entries (the
    /// seal threshold: the buffer is drained before it would grow).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            ids: HashSet::new(),
            fence: None,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `record` currently lives in the memtable.
    pub fn contains(&self, record: RecordId) -> bool {
        self.ids.contains(&record)
    }

    /// Every row, in no particular order.
    pub fn rows(&self) -> &[Row<D, P>] {
        &self.entries
    }

    /// Adds a row. Record ids must be unique among live entries (the
    /// temporal table guarantees this; duplicate ids would make shadowing
    /// checks ambiguous).
    pub fn insert(&mut self, row: Row<D, P>) {
        debug_assert!(!self.ids.contains(&row.id), "duplicate live record id");
        self.ids.insert(row.id);
        self.fence = Some(self.fence.map_or(row.rect, |f| f.union(&row.rect)));
        self.entries.push(row);
    }

    /// Physically removes an entry. `rect` must be the exact rectangle the
    /// entry was inserted with. Returns whether it was present.
    pub fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        if !self.ids.remove(&record) {
            return false;
        }
        // Scan from the tail: deletes overwhelmingly target recent entries
        // (a table update closes the version it just opened). Order is free
        // here — seals sort by id and queries scan everything.
        let at = self
            .entries
            .iter()
            .rposition(|r| r.id == record)
            .expect("id table said the entry was present");
        let stored = self.entries.swap_remove(at);
        debug_assert_eq!(stored.rect, *rect, "deleted with another rectangle");
        true
    }

    /// Rows intersecting `query`, each once, in no particular order: the
    /// owning index filters and sorts them with the tiers' hits. A query
    /// that misses the fence is answered without looking at an entry.
    pub fn search(&self, query: &Rect<D>) -> Vec<Row<D, P>> {
        if !self.fence.is_some_and(|f| f.intersects(query)) {
            return Vec::new();
        }
        self.entries
            .iter()
            .filter(|r| r.rect.intersects(query))
            .copied()
            .collect()
    }

    /// Takes every entry out, leaving an empty buffer of the same capacity.
    pub fn drain(&mut self) -> Vec<Row<D, P>> {
        self.ids.clear();
        self.fence = None;
        let fresh = Vec::with_capacity(self.entries.capacity());
        std::mem::replace(&mut self.entries, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_grows_on_insert_stays_on_delete_resets_on_drain() {
        let mut m = Memtable::<2, ()>::new(64);
        let row = |rect, id| Row::new(RecordId(id), rect, ());
        assert_eq!(m.fence, None);
        let a = Rect::new([0.0, 0.0], [1.0, 0.0]);
        let b = Rect::new([10.0, 5.0], [12.0, 5.0]);
        m.insert(row(a, 1));
        m.insert(row(b, 2));
        assert_eq!(m.fence, Some(Rect::new([0.0, 0.0], [12.0, 5.0])));
        let beside = Rect::new([12.5, 0.0], [13.0, 5.0]);
        assert!(m.search(&beside).is_empty());
        assert_eq!(m.search(&Rect::new([12.0, 5.0], [13.0, 6.0])), [row(b, 2)]);

        // Conservative: the box may outlive the entry that stretched it.
        assert!(m.delete(&b, RecordId(2)));
        assert_eq!(m.fence, Some(Rect::new([0.0, 0.0], [12.0, 5.0])));
        assert!(m.search(&b).is_empty());

        assert_eq!(m.drain(), [row(a, 1)]);
        assert_eq!(m.fence, None);
        assert!(m.search(&a).is_empty());
    }
}
