//! The parse layer's heap use, counted by a global allocator: a statement
//! without points parses without allocating, and one with points makes
//! exactly one allocation per point. Error paths may allocate.

use segidx_server::parse;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) of the calling thread, so
/// tests running side by side do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `parse(text)` makes, the statement's drop aside.
fn allocations(text: &str) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let parsed = parse(text);
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert!(parsed.is_ok(), "{text}: {parsed:?}");
    made
}

#[test]
fn statements_without_points_parse_without_allocating() {
    for text in [
        "RECORD 7 VALUE 41000.5 AT 1979.25",
        "record 18446744073709551615 value -3e2 at 1e3;",
        "AS OF 1977.5",
        "as of 12;",
        "WITHIN (1975.0, 1980.0) DURATION 0.5 4",
        "FLUSH",
        "ping;",
        "PING",
        "STATS",
        "METRICS",
    ] {
        assert_eq!(allocations(text), 0, "{text}");
    }
}

#[test]
fn statements_with_points_allocate_once_per_point() {
    for (text, points) in [
        ("INSERT RECT (1.0, 2.0) (3.0, 4.0) ID 7", 2),
        ("delete id 9007199254740993 rect (0, 0) (1, 1);", 2),
        ("SEARCH WINDOW (-5.5, -5.5) (5.5, 5.5)", 2),
        ("STAB POINT (0.1, 0.2)", 1),
        ("NEAREST POINT (7, 8) K 12", 1),
    ] {
        assert_eq!(allocations(text), points, "{text}");
    }
}
