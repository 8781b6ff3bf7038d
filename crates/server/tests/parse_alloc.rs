//! The parse layer's heap use, counted by a global allocator: every
//! statement form parses without allocating. Error paths may allocate.

use segidx_server::parse;
use segidx_server::parser::OPS;
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

/// Heap allocations `parse(text)` makes, and the kind it parsed to.
fn allocations(text: &str) -> (u64, &'static str) {
    let before = ALLOCATIONS.with(Cell::get);
    let parsed = parse(text);
    let made = ALLOCATIONS.with(Cell::get) - before;
    let op = OPS[parsed.unwrap_or_else(|e| panic!("{text}: {e}")).op()];
    (made, op)
}

#[test]
fn every_statement_form_parses_without_allocating() {
    let forms = [
        "SEARCH WINDOW (-5.5, -5.5) (5.5, 5.5)",
        "STAB POINT (0.1, 0.2)",
        "NEAREST POINT (7, 8) K 12",
        "INSERT RECT (1.0, 2.0) (3.0, 4.0) ID 7",
        "DELETE ID 9007199254740993 RECT (0, 0) (1, 1)",
        "RECORD 18446744073709551615 VALUE -3e2 AT 1979.25",
        "AS OF 1977.5",
        "WITHIN (1975.0, 1980.0) DURATION 0.5 4",
        "FLUSH",
        "PING",
        "STATS",
        "METRICS",
    ];
    let mut seen = Vec::new();
    for form in forms {
        for text in [
            form.to_string(),
            form.to_ascii_lowercase(),
            format!("{form};"),
        ] {
            let (made, op) = allocations(&text);
            assert_eq!(made, 0, "{text}");
            seen.push(op);
        }
    }
    seen.sort_unstable();
    seen.dedup();
    let mut ops = OPS.to_vec();
    ops.sort_unstable();
    assert_eq!(seen, ops, "every form in OPS is covered");
}
