//! Rule locks over a one-dimensional index (paper §2.2).
//!
//! The paper's third motivation: a single index holding both *interval*
//! predicates (Rule 1: salary in (10K, 20K]) and *point* predicates
//! (Rule 2: salary = 100K), as POSTGRES-style rule locks. A 1-D SR-Tree is
//! "a special case of the K-dimensional Segment R-Tree".
//!
//! ```sh
//! cargo run --release --example rule_locks
//! ```

use segment_indexes::core::{IndexConfig, RecordId, Tree};
use segment_indexes::geom::{Interval, Rect};

/// A rule predicate over the salary domain.
struct Rule {
    name: &'static str,
    action: &'static str,
    predicate: Interval,
}

fn main() {
    let rules = [
        Rule {
            name: "rule-1",
            action: "office has at least 1 window",
            // 10K < salary ≤ 20K
            predicate: Interval::new(10_000.0, 20_000.0),
        },
        Rule {
            name: "rule-2",
            action: "office has at least 4 windows",
            // salary = 100K: an *event* (point) predicate.
            predicate: Interval::point(100_000.0),
        },
        Rule {
            name: "rule-3",
            action: "eligible for bonus plan B",
            predicate: Interval::new(45_000.0, 80_000.0),
        },
        Rule {
            name: "rule-4",
            action: "audit flag",
            predicate: Interval::new(0.0, 250_000.0), // a very long interval
        },
    ];

    // A one-dimensional SR-Tree: rule predicates are the indexed intervals.
    // Long predicates (rule-4) become spanning records high in the index;
    // point predicates live in leaves — both in the same structure, which
    // is exactly the mixed interval/event requirement of §2.2.
    let mut index = Tree::<1>::new(IndexConfig::srtree());
    for (i, rule) in rules.iter().enumerate() {
        index.insert(Rect::from_intervals([rule.predicate]), RecordId(i as u64));
    }

    // Incoming tuples: which rules fire for each salary?
    for salary in [5_000.0, 15_000.0, 60_000.0, 100_000.0] {
        let fired = index.search(&Rect::from_intervals([Interval::point(salary)]));
        println!("salary ${salary:>9.0}:");
        if fired.is_empty() {
            println!("  no rules fire");
        }
        for id in fired {
            let rule = &rules[id.raw() as usize];
            println!("  {} fires → {}", rule.name, rule.action);
        }
    }

    // Scale check: 100,000 rules with mixed interval/point predicates.
    let mut big = Tree::<1>::new(IndexConfig::srtree());
    for i in 0..100_000u64 {
        let lo = (i % 97_000) as f64;
        let len = match i % 13 {
            0 => 0.0,      // point predicate
            1 => 50_000.0, // very wide predicate
            _ => 10.0 + (i % 500) as f64,
        };
        big.insert(
            Rect::from_intervals([Interval::new(lo, lo + len)]),
            RecordId(i),
        );
    }
    let probe = Rect::from_intervals([Interval::point(42_000.0)]);
    let fired = big.search(&probe);
    let accesses = big.count_search_accesses(&probe);
    println!(
        "\n100K mixed predicates: probe at 42K fires {} rules, touching {} of {} nodes (height {})",
        fired.len(),
        accesses,
        big.node_count(),
        big.height()
    );
    let snap = big.stats();
    println!(
        "spanning records stored: {}, promotions: {}, demotions: {}",
        snap.spanning_stores, snap.promotions, snap.demotions
    );
    assert!(big.check_invariants().is_empty());
}
