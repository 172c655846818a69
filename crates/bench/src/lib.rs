//! # fusion3d-bench
//!
//! The experiment harness of the Fusion-3D reproduction: one module
//! per table and figure of the paper's evaluation, each regenerating
//! the corresponding rows or series from the simulators and the
//! algorithm substrate. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! Run individual experiments by name with, e.g.:
//!
//! ```text
//! cargo run -p fusion3d-bench --release --bin experiments -- table3
//! ```
//!
//! or everything at once with `--bin experiments -- all`. The `perf`,
//! `serve` and `breakdown` binaries take their own arguments and write
//! report files.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod support;
