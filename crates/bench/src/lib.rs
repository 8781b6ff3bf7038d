//! Experiment harness reproducing the evaluation of *Segment Indexes*
//! (Kolovson & Stonebraker, SIGMOD 1991, §5).
//!
//! For each of the paper's Graphs 1–6 (plus the two exponential-centroid
//! rectangle experiments it mentions but omits), the harness:
//!
//! 1. generates the input distribution (I1–I4, R1, R2, RE1, RE2);
//! 2. builds all four index variants — R-Tree, SR-Tree, Skeleton R-Tree,
//!    Skeleton SR-Tree — with the paper's parameters (1 KB leaves doubling
//!    per level, 2/3 branch reservation, distribution prediction over the
//!    first 10,000 tuples, coalescing every 1,000 insertions among the 10
//!    least-frequently-modified nodes);
//! 3. inserts the data in random order;
//! 4. sweeps the thirteen QAR values with 100 area-10⁶ queries each,
//!    recording the average number of index nodes accessed per search;
//! 5. prints the series the paper plots and checks the qualitative shape
//!    claims.
//!
//! `reproduce --ablate <axis>` asks the design questions the same way: it
//! reruns the four variants at each value of one [`Axis`] (split, branch
//! fraction, node size, construction) and writes the rows as
//! `ablation_<axis>.csv`. Every number is a count or a ratio of counts,
//! exact per seed; the reproduction times nothing.
//!
//! Run `cargo run --release -p segidx-bench --bin reproduce -- --help`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crash;
mod experiment;
pub mod gates;
pub mod interleave;
pub mod metrics;
mod metrics_check;
mod report;
mod runner;
mod shape;
pub mod temporal_crash;

pub use experiment::{
    Ablation, Axis, Construction, Experiment, Graph, Variant, PAPER_PREDICTION_BUFFER,
};
pub use metrics::{metrics_snapshot, write_metrics_json};
pub use report::{
    ablation_csv, graph_csv, median, median_ratio, render_ablation, render_table, write_csv,
};
pub use runner::{
    inspect_variants, run_ablation, run_experiment, BuildInfo, GraphResult, Series, SweepPoint,
};
pub use shape::{check_exponential_lower, check_paper_shape, render_checks, ShapeCheck};
