//! Coverage for the smaller public APIs: entry iteration, level profiles,
//! and region accessors.

use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::Rect;

fn seg(x0: f64, x1: f64, y: f64) -> Rect<2> {
    Rect::new([x0, y], [x1, y])
}

#[test]
fn iter_entries_covers_every_portion() {
    let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    for i in 0..900u64 {
        let x = (i % 30) as f64 * 10.0;
        let y = (i / 30) as f64 * 10.0;
        let len = if i % 6 == 0 { 250.0 } else { 4.0 };
        t.insert(seg(x, x + len, y), RecordId(i));
    }
    let entries: Vec<_> = t.iter_entries().collect();
    assert_eq!(entries.len(), t.entry_count());
    // Every logical record appears at least once.
    let mut ids: Vec<u64> = entries.iter().map(|(_, id)| id.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), t.len());
    // Cut records appear more than once iff cuts happened.
    if t.stats().cuts > 0 {
        assert!(entries.len() > t.len());
    }
}

#[test]
fn level_profile_sums_to_node_count() {
    let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
    for i in 0..2_000u64 {
        t.insert(seg(i as f64, i as f64 + 1.0, (i % 50) as f64), RecordId(i));
    }
    let profile = t.level_profile();
    assert_eq!(profile.iter().sum::<usize>(), t.node_count());
    assert_eq!(profile.len(), t.height() as usize);
    assert_eq!(*profile.last().unwrap(), 1, "one root");
    // Monotone non-increasing from leaves to root for a packed-ish tree.
    assert!(profile[0] > *profile.last().unwrap());
}

#[test]
fn root_region_tracks_contents() {
    let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
    assert!(t.root_region().is_none(), "empty tree has no region");
    t.insert(seg(10.0, 20.0, 5.0), RecordId(1));
    assert_eq!(t.root_region(), Some(seg(10.0, 20.0, 5.0)));
    t.insert(seg(100.0, 250.0, 80.0), RecordId(2));
    let region = t.root_region().unwrap();
    assert!(region.contains_rect(&seg(10.0, 20.0, 5.0)));
    assert!(region.contains_rect(&seg(100.0, 250.0, 80.0)));
}

#[test]
fn spanning_count_tracks_live_records() {
    let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    for i in 0..800u64 {
        let x = (i % 40) as f64 * 10.0;
        let y = (i / 40) as f64 * 10.0;
        t.insert(seg(x, x + 5.0, y), RecordId(i));
    }
    assert_eq!(t.spanning_count(), 0, "short segments: no spanning records");
    let long = seg(0.0, 400.0, 100.0);
    t.insert(long, RecordId(9_999));
    let live = t.spanning_count();
    assert!(live >= 1);
    // Leaf entries + spanning records = total physical entries.
    assert_eq!(
        t.entry_count(),
        t.iter_entries().count(),
        "iterator agrees with the counter"
    );
    // Deleting the long record removes its spanning portions.
    assert!(t.delete(&long, RecordId(9_999)));
    assert_eq!(t.spanning_count(), 0);
}
