//! # impress-sim
//!
//! A deterministic, single-threaded discrete-event simulation (DES) substrate
//! used to replay virtual-time HPC cluster executions.
//!
//! The IMPRESS paper evaluates its middleware on a real cluster node where a
//! single experiment takes 27–38 wall-clock *hours* (Table I). This crate lets
//! the pilot runtime replay the exact same scheduling decisions in virtual
//! time, so the paper's utilization and makespan figures regenerate in
//! milliseconds and are bit-reproducible across runs and machines.
//!
//! Components:
//!
//! * [`time`] — virtual time points and durations with microsecond resolution.
//! * [`event`] — the deterministic event queue (ordered by `(time, seq)`).
//! * [`rng`] — seedable, forkable deterministic random streams.
//! * [`slab`] — arena storage with `u32` handles for hot-path records.
//! * [`stats`] — summary statistics (median, std-dev, quantiles) used by the
//!   experiment harnesses.
//!
//! There is no event loop here: `impress-pilot`'s virtual-time backends
//! drive [`EventQueue`]s of typed events themselves. Everything in this
//! crate is single-threaded by design — determinism is the point; real-time
//! execution is provided by `impress-pilot`'s threaded backend instead.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc_probe;
pub mod event;
pub mod props;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use slab::{Slab, SlotId};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};

#[cfg(test)]
#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;
