//! The repository's benchmark: end-to-end runs of the paper's figures
//! and of the `mcast serve` daemon (the `perfbench` binary), and a
//! traced in-process run that times each layer (the `perfbench-trace`
//! binary, the only part that calls layer functions).
//! `python3 perfbench/run.py` builds and runs them;
//! `perfbench/README.md` describes the workloads and metrics.

pub mod alloc;
pub mod cli;
pub mod daemon;
pub mod measure;
pub mod refs;
pub mod stats;
pub mod streams;
pub mod trace;
