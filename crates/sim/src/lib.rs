#![warn(missing_docs)]

//! Simulation substrate for the IPSO reproduction.
//!
//! The paper's measurements come from Amazon EC2/EMR clusters; this crate
//! is the foundation of the simulated substitute. It provides:
//!
//! * [`time`] — a virtual-clock time type with total ordering;
//! * [`resource`] — FIFO single/multi-server resources for modelling
//!   serialization points (master NIC, centralized scheduler);
//! * [`rng`] — seeded random-number helpers so every simulated experiment
//!   is reproducible run-to-run;
//! * [`stats`] — online statistics and percentile helpers for metrics.
//!
//! # Example
//!
//! ```
//! use ipso_sim::{ServerPool, SimTime};
//!
//! // Three tasks on two servers: the third waits for the first to free.
//! let mut pool = ServerPool::new(2);
//! pool.submit(SimTime::ZERO, 1.5);
//! pool.submit(SimTime::ZERO, 0.5);
//! let grant = pool.submit(SimTime::ZERO, 1.0);
//! assert_eq!(grant.start.as_secs(), 0.5);
//! assert_eq!(pool.makespan().as_secs(), 1.5);
//! ```

pub mod par;
pub mod resource;
pub mod rng;
pub mod special;
pub mod stats;
pub mod time;

pub use par::{ordered_map_indexed, resolve_threads};
pub use resource::{FifoServer, ServerPool};
pub use rng::{stream_seed, SimRng};
pub use special::{harmonic, ln_beta, ln_gamma, pareto_expected_max};
pub use stats::{percentile, OnlineStats};
pub use time::SimTime;
