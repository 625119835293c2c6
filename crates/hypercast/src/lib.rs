//! # hypercast — collective data distribution in all-port wormhole-routed hypercubes
//!
//! A from-scratch implementation of the multicast algorithms and
//! contention theory of Robinson, Judd, McKinley & Cheng, *Efficient
//! Collective Data Distribution in All-Port Wormhole-Routed Hypercubes*
//! (Supercomputing '93):
//!
//! * [`Algorithm`] — the four compared tree-construction algorithms
//!   (**U-cube**, **Maxport**, **Combine**, **W-sort**) plus the
//!   separate-addressing and store-and-forward baselines, all scheduled
//!   under either [`PortModel`];
//! * [`algorithms::weighted_sort`] — the Figure 7 permutation with
//!   Theorem 5's guarantees;
//! * [`contention`] — the exact Definition 4 contention-freedom checker;
//! * [`verify`] — structural tree validation shared by the test suites;
//! * [`repair`] — fault-tolerant tree repair around dead links and nodes
//!   (robustness extension beyond the paper);
//! * [`bounds`] — step lower bounds and an exact port-limited optimum for
//!   small instances;
//! * [`collectives`] — broadcast / reduction / barrier plus the full
//!   MPI-style suite (allgather, reduce-scatter, allreduce) on cube and
//!   torus (extension beyond the paper);
//! * [`bine`] — the Jacobsthal-distance bine broadcast tree, an
//!   alternative tree family benchmarked against the paper's;
//! * [`oracle`] — a symbolic data oracle that replays collective
//!   schedules and asserts every node ends with exactly the right
//!   blocks.
//!
//! Timing-level evaluation (the paper's Figures 11–14) lives in the
//! companion `wormsim` crate, which replays these trees through a
//! discrete-event wormhole network model.
//!
//! ## Quick example
//!
//! ```
//! use hcube::{Cube, NodeId, Resolution};
//! use hypercast::{Algorithm, PortModel};
//!
//! // The multicast of the paper's Figure 3: source 0000, 8 destinations.
//! let dests: Vec<NodeId> = [0b0001u32, 0b0011, 0b0101, 0b0111,
//!                           0b1011, 0b1100, 0b1110, 0b1111]
//!     .into_iter().map(NodeId).collect();
//! let tree = Algorithm::WSort
//!     .build(Cube::of(4), Resolution::HighToLow, PortModel::AllPort,
//!            NodeId(0), &dests)
//!     .unwrap();
//! assert_eq!(tree.steps, 2); // Figure 3(e): optimal on all-port
//! assert!(hypercast::contention::is_contention_free(&tree)); // Theorem 6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod bine;
pub mod bounds;
pub mod cache;
pub mod collectives;
pub mod contention;
pub mod oracle;
pub mod protocol;
pub mod repair;
pub mod schedule;
pub mod tree;
pub mod verify;

pub use algorithms::Algorithm;
pub use bine::bine_broadcast;
pub use cache::{CacheStats, TreeCache};
pub use collectives::{
    CollectiveKind, CollectiveOp, CollectiveSchedule, Segments, Transfer, TreeFamily,
};
pub use protocol::RetryPolicy;
pub use repair::{NetworkFaults, RepairOutcome};
pub use schedule::PortModel;
pub use tree::{MulticastTree, Unicast};
