//! The paper's motivating scenario (Figure 1): employee salary histories.
//!
//! Salary periods are horizontal segments in (time, salary) space: most
//! employees get frequent raises (short segments), a few go years without
//! (very long segments) — exactly the skewed interval-length distribution
//! Segment Indexes target.
//!
//! ```sh
//! cargo run --release --example salary_history
//! ```

use segment_indexes::core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
use segment_indexes::geom::{Point, Rect};

/// One salary period of one employee.
#[derive(Debug, Clone)]
struct SalaryPeriod {
    employee: &'static str,
    salary: f64,
    from: f64,
    to: f64,
}

impl SalaryPeriod {
    fn rect(&self) -> Rect<2> {
        Rect::new([self.from, self.salary], [self.to, self.salary])
    }
}

fn main() {
    let history = vec![
        SalaryPeriod {
            employee: "mike",
            salary: 28_000.0,
            from: 1975.0,
            to: 1977.0,
        },
        SalaryPeriod {
            employee: "mike",
            salary: 34_000.0,
            from: 1977.0,
            to: 1979.5,
        },
        SalaryPeriod {
            employee: "mike",
            salary: 41_000.0,
            from: 1979.5,
            to: 1984.0,
        },
        SalaryPeriod {
            employee: "mike",
            salary: 55_000.0,
            from: 1984.0,
            to: 1991.0,
        },
        // Curtis rarely got raises: one very long interval.
        SalaryPeriod {
            employee: "curtis",
            salary: 30_000.0,
            from: 1974.0,
            to: 1989.0,
        },
        SalaryPeriod {
            employee: "curtis",
            salary: 52_000.0,
            from: 1989.0,
            to: 1991.0,
        },
        SalaryPeriod {
            employee: "gene",
            salary: 24_000.0,
            from: 1980.0,
            to: 1981.0,
        },
        SalaryPeriod {
            employee: "gene",
            salary: 27_000.0,
            from: 1981.0,
            to: 1982.5,
        },
        SalaryPeriod {
            employee: "gene",
            salary: 31_000.0,
            from: 1982.5,
            to: 1985.0,
        },
        SalaryPeriod {
            employee: "gene",
            salary: 36_000.0,
            from: 1985.0,
            to: 1987.0,
        },
        SalaryPeriod {
            employee: "gene",
            salary: 43_000.0,
            from: 1987.0,
            to: 1991.0,
        },
    ];

    // An SR-Tree over the history; ids are offsets into `history`.
    let mut index = Tree::<2>::new(IndexConfig::srtree());
    for (i, p) in history.iter().enumerate() {
        index.insert(p.rect(), RecordId(i as u64));
    }

    // Temporal stab query: "who earned what at the start of 1985?"
    println!("salaries in effect at 1985.0:");
    let at_1985 = Point::new([1985.0, 0.0]);
    let t = Rect::new([1985.0, 0.0], [1985.0, 1_000_000.0]);
    for id in index.search(&t) {
        let p = &history[id.raw() as usize];
        println!("  {:>7} earned ${:>7.0}", p.employee, p.salary);
    }
    let _ = at_1985;

    // Range query: "which salary periods overlapped 1978–1983 with a salary
    // between 25K and 40K?" (the shaded window of paper Figure 1).
    println!("\nperiods overlapping 1978-1983 with salary in [25K, 40K]:");
    let window = Rect::new([1978.0, 25_000.0], [1983.0, 40_000.0]);
    for id in index.search(&window) {
        let p = &history[id.raw() as usize];
        println!(
            "  {:>7}: ${:>7.0} from {:.1} to {:.1}",
            p.employee, p.salary, p.from, p.to
        );
    }

    // A realistic scale: 50,000 periods across 5,000 employees, with a
    // skewed duration distribution, indexed by a Skeleton SR-Tree with
    // distribution prediction from the first 2,500 periods.
    let mut records: Vec<(Rect<2>, RecordId)> = Vec::new();
    let mut periods = 0u64;
    for emp in 0..5_000u64 {
        let mut year = 1970.0 + (emp % 30) as f64;
        let mut salary = 18_000.0 + (emp % 700) as f64 * 100.0;
        // A deterministic mix: most periods 1-3 years, some decades long.
        while year < 2025.0 {
            let dur = match (emp * 31 + periods) % 11 {
                0 => 20.0,
                1..=3 => 6.0,
                _ => 1.0 + ((emp + periods) % 3) as f64,
            };
            let to = (year + dur).min(2026.0);
            records.push((Rect::new([year, salary], [to, salary]), RecordId(periods)));
            periods += 1;
            year = to;
            salary *= 1.07;
            if salary > 240_000.0 {
                salary = 240_000.0;
            }
        }
    }
    let domain = Rect::new([1970.0, 15_000.0], [2026.0, 250_000.0]);
    let spec = SkeletonSpec::predict(domain, 50_000, &records[..2_500]);
    let mut big = build_skeleton(IndexConfig::skeleton_srtree(), &spec);
    for (rect, id) in records {
        big.insert(rect, id);
    }
    println!("\nindexed {periods} salary periods for 5,000 employees");
    let q = Rect::new([1999.5, 60_000.0], [2000.5, 90_000.0]);
    let hits = big.search(&q);
    let accesses = big.count_search_accesses(&q);
    println!(
        "\"who earned 60-90K during 2000?\" → {} periods, {} of {} index nodes accessed",
        hits.len(),
        accesses,
        big.node_count()
    );
    let snap = big.stats();
    println!(
        "index adapted: {} spanning records stored, {} cuts, {} coalesces, {} node accesses/search avg",
        snap.spanning_stores,
        snap.cuts,
        snap.coalesces,
        accesses
    );
    assert!(big.check_invariants().is_empty());
}
