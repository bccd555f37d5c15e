//! # impress-pilot
//!
//! A pilot-job runtime for heterogeneous (CPU + GPU) task execution — the
//! role RADICAL-Pilot plays in the IMPRESS paper (§II-D). A *pilot* acquires
//! a resource allocation (here: a virtual cluster node) once, then schedules
//! many small tasks onto it directly, avoiding per-task batch-queue waits
//! and enabling the concurrent, asynchronous execution the paper's adaptive
//! protocol needs.
//!
//! Components:
//!
//! * [`resources`] — node specification and slot allocations (cores + GPUs).
//! * `states` — the task state model (mirrors RP's `NEW → … → DONE`),
//!   with a validated transition table.
//! * [`task`] — task descriptions: resource request, virtual cost, optional
//!   real work closure, bookkeeping tags.
//! * [`scheduler`] — per-node free core and GPU counters and backfill
//!   placement.
//! * [`backend`] — execution backends behind one trait:
//!   [`backend::SimulatedBackend`] replays runs in deterministic virtual
//!   time, one event at a time (used for every paper figure),
//!   [`backend::ShardedBackend`] drives the same discrete-event core —
//!   the identical event stream — on sharded queues sized for 10k-node
//!   campaigns, and
//!   [`backend::ThreadedBackend`] drives it once more with task closures
//!   on real threads and the virtual clock paced to real time.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]: transient
//!   task failures, hangs, node crash/recover schedules) and the
//!   [`RetryPolicy`] with which the pilot resubmits faulted attempts.
//! * [`control`] — the seeded control plane: message-layer faults
//!   ([`LinkFaults`]: drops, duplicates, delays, partitions) on
//!   coordinator↔node traffic, plus the counters behind heartbeat failure
//!   detection, lease fencing and idempotent dedup.
//! * [`pilot`] — pilot lifecycle phases (Bootstrap → Exec setup → Running,
//!   the Fig. 5 breakdown) and their timing configuration.
//! * [`profiler`] — the one utilization accountant every backend books
//!   into: integer device-microseconds in 10-minute bins, distinguishing
//!   *slot occupancy* (what RP's profiler sees) from *hardware busy* time
//!   (what `nvidia-smi` sees) — the distinction behind the paper's 61% vs
//!   1% GPU utilization gap.
//! * [`session`] — a consistent point-in-time observation of a backend.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod control;
pub mod fault;
pub mod pilot;
pub mod profiler;
pub mod resources;
pub mod runtime;
pub mod scheduler;
pub mod session;
mod states;
pub mod task;

pub use backend::{Completion, ExecutionBackend, TaskError};
pub use control::ControlStats;
pub use fault::{
    FaultConfig, FaultPlan, HedgePolicy, LinkFaults, LinkFaultsError, QuarantinePolicy,
    RetryPolicy, ScriptedCrash, ScriptedPartition, ScriptedSlowdown,
};
pub use impress_telemetry::Label;
pub use pilot::{PhaseBreakdown, PilotConfig};
pub use profiler::{UtilizationReport, SERIES_BIN};
pub use resources::{Allocation, ClusterSpec, NodeSpec, ResourceRequest};
pub use runtime::RuntimeConfig;
pub use scheduler::{PlacementPolicy, Scheduler};
pub use session::{Observation, Session};
pub use task::{TaskDescription, TaskId, TaskKind};

#[cfg(test)]
#[global_allocator]
static ALLOC: impress_sim::alloc_probe::CountingAlloc = impress_sim::alloc_probe::CountingAlloc;
