//! # impress-workflow
//!
//! The pipeline abstraction and the pipelines coordinator — the layer the
//! IMPRESS paper adds on top of RADICAL-Pilot (§II-B, §II-D):
//!
//! > "RP does not provide an abstraction of a pipeline nor a workflow;
//! > thus, we implemented a Pipeline class to bind a set of tasks that can
//! > be executed in a particular order and supported at runtime."
//!
//! * [`pipeline`] — [`pipeline::PipelineLogic`]: a pipeline is a state
//!   machine that emits *stages* (groups of one or more task descriptions)
//!   and consumes their completions, until it reports an outcome. Stage 6's
//!   loop back to Stage 4 is just the state machine emitting another Stage-4
//!   task group.
//! * [`stage`] — the [`stage::Step`] protocol between a pipeline and the
//!   coordinator, plus the in-flight stage buffer.
//! * [`coordinator`] — [`coordinator::Coordinator`]: submits pipelines
//!   concurrently to the one execution backend it drives, routes task
//!   completions back to their pipelines (the paper's "completed tasks"
//!   channel), and forwards finished pipelines to a decision engine that
//!   may spawn sub-pipelines (the paper's "new pipeline instances"
//!   channel). Its pipeline ledger (name, parentage, stages completed)
//!   is what a decision reads, through [`CoordinatorView`].
//! * [`decision`] — the [`decision::DecisionEngine`] trait: the adaptive
//!   brain. `impress-core` implements the paper's quality-ranked re-process
//!   policy; [`decision::NoDecisions`] gives the non-adaptive behaviour.
//! * [`report`] — the run report the Table I harness consumes.
//! * [`linear`] — a ready-made stage chain for users who don't need a
//!   custom state machine.
//! * [`journal`] — the crash-consistency layer: a write-ahead journal of
//!   coordinator state transitions with snapshot compaction, and the replay
//!   plan [`Coordinator::resume`] uses to reconstruct an interrupted
//!   campaign byte-identically.
//! * [`service`] — the multi-tenant campaign service: thousands of
//!   concurrent campaigns behind a typed submission API, multiplexed over
//!   one shared cluster with admission control, per-tenant quotas, weighted
//!   fair share and priority preemption.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod coordinator;
pub mod decision;
pub mod journal;
pub mod linear;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod stage;

pub use coordinator::{Coordinator, CoordinatorView};
pub use decision::{DecisionEngine, NoDecisions};
pub use journal::{
    load_plan, FileJournal, Journal, JournalError, JournalRecord, JournalStore, LoadedJournal,
    MemoryJournal, ReplayPlan, TaskMeta, JOURNAL_FORMAT_VERSION,
};
pub use linear::LinearPipeline;
pub use pipeline::{BoxedPipeline, PipelineId, PipelineLogic};
pub use report::RunReport;
pub use service::{
    AdmissionError, CampaignHandle, CampaignResult, CampaignService, CampaignSpec, CampaignStatus,
    TenantId, TenantQuota,
};
pub use stage::Step;

#[cfg(test)]
#[global_allocator]
static ALLOC: impress_sim::alloc_probe::CountingAlloc = impress_sim::alloc_probe::CountingAlloc;
