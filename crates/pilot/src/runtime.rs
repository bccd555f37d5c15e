//! [`RuntimeConfig`]: one builder for everything a backend can be
//! configured with.
//!
//! Historically each concern grew its own constructor on each backend —
//! `new`, `with_faults`, `with_time_scale`, plus a chained
//! `with_deadline` — and adding telemetry would have doubled the zoo.
//! `RuntimeConfig` collapses them: build one value describing the run
//! (pilot sizing, fault plan + retry policy, walltime deadline, threaded
//! clock pacing, telemetry handle), then hand it to any backend. The
//! old constructors shipped as deprecated shims for one release and have
//! since been removed; `RuntimeConfig` is the only way to configure a
//! backend beyond `new`.
//!
//! ```
//! use impress_pilot::{PilotConfig, RuntimeConfig};
//! use impress_sim::SimTime;
//!
//! let backend = RuntimeConfig::new(PilotConfig::with_seed(7))
//!     .deadline(SimTime::from_micros(3_600_000_000))
//!     .simulated();
//! # let _ = backend;
//! ```

use crate::backend::{ShardedBackend, SimulatedBackend, ThreadedBackend};
use crate::fault::{FaultPlan, HedgePolicy, QuarantinePolicy, RetryPolicy};
use crate::pilot::PilotConfig;
use impress_sim::SimTime;
use impress_telemetry::Telemetry;

/// Everything a backend can be configured with, in one builder.
///
/// Knobs that only one backend honors are documented as such and are
/// silently inert on the others (`time_scale` is threaded-only; the
/// virtual-time backends never wait for a clock).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Pilot sizing and timing (node shape, bootstrap, per-task setup,
    /// seed).
    pub pilot: PilotConfig,
    /// Deterministic fault-injection plan (default: no faults).
    pub faults: FaultPlan,
    /// Retry policy for faulted attempts (default: no retries).
    pub retry: RetryPolicy,
    /// Walltime deadline, a point on the modeled clock on every backend:
    /// tasks whose modeled span would cross it are held instead of
    /// launched (default: none).
    pub deadline: Option<SimTime>,
    /// Threaded backend only: paces the virtual clock to this many wall
    /// seconds per virtual second (`0.0` = unpaced: the run takes as long
    /// as its work closures do).
    pub time_scale: f64,
    /// Telemetry handle; the default disabled handle records nothing and
    /// costs one branch per instrumentation point.
    pub telemetry: Telemetry,
    /// Sharded backend only: number of event-queue shards (clamped to at
    /// least 1). Inert on the other backends.
    pub shards: usize,
    /// Sharded backend only: drive the shard queues on worker threads
    /// instead of in-process. The event stream is bit-identical either
    /// way; this only changes who owns the priority queues.
    pub parallel_shards: bool,
    /// Hedged speculative execution policy (default: off). `None` is a
    /// strict no-op: no hedge checks are scheduled and the backend behaves
    /// byte-identically to the pre-hedging engine.
    pub hedge: Option<HedgePolicy>,
    /// Poison-task quarantine policy (default: off). `None` is a strict
    /// no-op: no failed-node bookkeeping, no circuit breaker.
    pub quarantine: Option<QuarantinePolicy>,
}

impl RuntimeConfig {
    /// A fault-free, deadline-free, telemetry-off runtime over `pilot`.
    pub fn new(pilot: PilotConfig) -> Self {
        RuntimeConfig {
            pilot,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            deadline: None,
            time_scale: 0.0,
            telemetry: Telemetry::disabled(),
            shards: 8,
            parallel_shards: false,
            hedge: None,
            quarantine: None,
        }
    }

    /// Inject `faults`, retrying failed attempts under `retry`.
    pub fn faults(mut self, faults: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = faults;
        self.retry = retry;
        self
    }

    /// Hold tasks whose modeled span would cross `deadline`.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Pace the virtual clock to `scale` wall seconds per virtual second
    /// (threaded backend only).
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Record spans through `telemetry`.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Use `n` event-queue shards in the sharded backend (clamped to at
    /// least 1 at construction).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Drive the shard queues on worker threads (sharded backend only).
    pub fn parallel_shards(mut self, on: bool) -> Self {
        self.parallel_shards = on;
        self
    }

    /// Hedge straggling attempts with speculative duplicates under
    /// `policy`.
    pub fn hedge(mut self, policy: HedgePolicy) -> Self {
        self.hedge = Some(policy);
        self
    }

    /// Quarantine poison tasks under `policy`.
    pub fn quarantine(mut self, policy: QuarantinePolicy) -> Self {
        self.quarantine = Some(policy);
        self
    }

    /// Build a [`SimulatedBackend`] from this configuration.
    pub fn simulated(self) -> SimulatedBackend {
        SimulatedBackend::from_config(self)
    }

    /// Build a [`ShardedBackend`] from this configuration.
    pub fn sharded(self) -> ShardedBackend {
        ShardedBackend::from_config(self)
    }

    /// Build a [`ThreadedBackend`] from this configuration.
    pub fn threaded(self) -> ThreadedBackend {
        ThreadedBackend::from_config(self)
    }
}

impl From<PilotConfig> for RuntimeConfig {
    fn from(pilot: PilotConfig) -> Self {
        RuntimeConfig::new(pilot)
    }
}
