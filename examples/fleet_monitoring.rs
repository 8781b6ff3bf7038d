//! Valid-time monitoring with the temporal table layer.
//!
//! A fleet of servers reports configuration changes (CPU quota). Most
//! servers are re-tuned frequently; a long tail never changes — the paper's
//! skewed interval-length regime in an operational setting. The temporal
//! table answers "what was the fleet running as of T?" and "which quota
//! settings overlapped the incident window?"
//!
//! ```sh
//! cargo run --release --example fleet_monitoring
//! ```

use segment_indexes::geom::Interval;
use segment_indexes::temporal::{TemporalConfig, TemporalTable};

fn main() {
    let mut fleet = TemporalTable::new(TemporalConfig {
        time_horizon: 100_000.0, // minutes since epoch for this sim
        ..TemporalConfig::default()
    });

    // 2,000 servers; server id = key, CPU quota (%) = the tracked value.
    // Deterministic churn: "hot" servers are re-tuned every few minutes,
    // "cold" ones keep their initial quota forever.
    let mut changes = 0u64;
    for server in 0..2_000u64 {
        let mut t = (server % 500) as f64;
        let hot = server % 5 != 0; // 80% hot, 20% never touched again
        let mut quota = 10.0 + (server % 80) as f64;
        fleet.insert(server, quota, t);
        changes += 1;
        if hot {
            while t < 90_000.0 {
                t += 30.0 + (server % 97) as f64 * 7.0;
                quota = 10.0 + ((quota as u64 * 31 + server) % 90) as f64;
                fleet.insert(server, quota, t);
                changes += 1;
            }
        }
    }
    println!(
        "{changes} configuration changes across {} servers ({} versions indexed)",
        fleet.key_count(),
        fleet.version_count()
    );

    // As-of query: full fleet state at minute 45,000.
    let snapshot = fleet.as_of(45_000.0);
    println!(
        "\nas of minute 45000: {} servers had an active quota",
        snapshot.len()
    );
    let mean: f64 = snapshot.iter().map(|(_, v)| v.value).sum::<f64>() / snapshot.len() as f64;
    println!("mean quota at that instant: {mean:.1}%");

    // Incident forensics: which settings of 60%+ quota overlapped the
    // incident window [50_000, 50_180]?
    let suspicious = fleet.range(
        Interval::new(50_000.0, 50_180.0),
        Interval::new(60.0, 100.0),
    );
    println!(
        "\nincident window [50000, 50180]: {} high-quota (≥60%) versions overlapped",
        suspicious.len()
    );
    let long_lived = suspicious
        .iter()
        .filter(|(_, v)| v.to.unwrap_or(100_000.0) - v.from > 10_000.0)
        .count();
    println!("of which {long_lived} had been in effect for over 10,000 minutes");

    // One server's full audit trail.
    let trail = fleet.history_of(42);
    println!("\nserver 42 audit trail ({} versions):", trail.len());
    for (_, v) in trail.iter().take(5) {
        println!(
            "  {:>8.0} → {:>8}  quota {:>3.0}%",
            v.from,
            v.to.map_or("open".into(), |t| format!("{t:.0}")),
            v.value
        );
    }
    if trail.len() > 5 {
        println!("  … {} more", trail.len() - 5);
    }

    // The index holds the closed versions as keyed rows: a memtable sealed
    // into immutable tiers, merged level by level, each answering time
    // through a frozen HINT. The open versions are in none of them.
    let index = fleet.tiered_index();
    println!(
        "\nindex: {} closed versions in {} tiers, {} in the memtable",
        index.len(),
        index.tier_count(),
        index.memtable_len()
    );
    for (seq, level, entries) in index.tier_profile() {
        println!("  tier {seq:>3}: level {level}, {entries:>6} rows");
    }
    assert_eq!(index.len() + fleet.key_count(), fleet.version_count());
    index.assert_invariants();
}
