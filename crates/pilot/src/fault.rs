//! Deterministic fault injection and retry policy.
//!
//! Long campaigns on real clusters face three failure classes the paper's
//! Amarel runs had to survive: transient task failures (OOM kills, flaky
//! filesystems), task hangs (stragglers), and node crash/recover cycles
//! (drains, hardware faults). This module models all three behind a
//! [`FaultPlan`] that both backends consult, plus a [`RetryPolicy`] the
//! pilot applies transparently before surfacing a failure to the workflow
//! layer.
//!
//! Beyond the binary crash model, the plan also expresses *gray* failures:
//! per-node slowdown windows ([`FaultPlan::slowdown_windows`]) during which
//! every attempt hosted by the node runs [`SlowWindow::factor`] × slower —
//! the degraded-NIC/thermal-throttle/shared-filesystem-contention class of
//! fault that never shows up as a crash. Backends counter them with two
//! policies configured on the runtime: [`HedgePolicy`] (speculative
//! duplicate attempts for stragglers) and [`QuarantinePolicy`]
//! (distinct-node poison verdicts plus a per-shape circuit breaker).
//!
//! Determinism: every decision is drawn from a labelled [`SimRng`] fork
//! keyed on stable identities — `(task id, attempt)` for per-attempt faults,
//! node index for crash schedules — never on the order in which the backend
//! happens to ask. Forking is position-independent, so the same plan with
//! the same seed produces the same fault sequence on both backends and
//! across runs. A [`FaultPlan::none`] plan draws no randomness at all and is
//! a strict no-op: backends constructed with it behave byte-identically to
//! backends without fault support.

use impress_sim::{SimDuration, SimRng, SimTime};
use std::fmt;

/// The fault class an attempt draws from the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFault {
    /// No injected fault: the attempt runs normally.
    None,
    /// Transient failure: the attempt occupies its slots for the full
    /// declared duration and then fails (OOM kill at the end of a long
    /// computation — the expensive kind).
    Transient,
    /// Hang: the attempt runs [`FaultConfig::hang_factor`] × its declared
    /// duration. With a walltime limit set, this surfaces as
    /// [`crate::backend::TaskError::TimedOut`]; without one it is a
    /// straggler that still terminates.
    Hang,
}

/// A scripted node outage, for tests and reproducible scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedCrash {
    /// Which node crashes.
    pub node: u32,
    /// When it crashes (virtual time).
    pub at: SimTime,
    /// How long it stays down before recovering.
    pub outage: SimDuration,
}

/// A scripted node slowdown, the gray analogue of [`ScriptedCrash`]: the
/// node stays up and keeps its residents, but every attempt it hosts runs
/// `factor` × slower for the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedSlowdown {
    /// Which node degrades.
    pub node: u32,
    /// When the degradation starts (virtual time).
    pub at: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Runtime multiplier while degraded (clamped to ≥ 1 at realization).
    pub factor: f64,
}

/// One realized slowdown window on a node: attempts overlapping
/// `[start, end)` make progress at `1/factor` of their nominal rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Runtime multiplier inside the window (≥ 1).
    pub factor: f64,
}

/// A scripted control-plane partition window: messages between the
/// coordinator side and nodes `first_node..=last_node` are dropped for the
/// window's duration (retransmissions deliver them after it heals). Hub
/// traffic (submit, cancel, retry verdicts) never partitions — partitions
/// model the coordinator↔agent network split of the paper's client/agent
/// architecture, not a client outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedPartition {
    /// First node (inclusive) on the far side of the partition.
    pub first_node: u32,
    /// Last node (inclusive) on the far side of the partition.
    pub last_node: u32,
    /// When the partition opens (virtual time).
    pub at: SimTime,
    /// How long it lasts before healing.
    pub duration: SimDuration,
}

impl ScriptedPartition {
    /// Whether a message to/from `node` sent at `t` falls inside the window.
    pub fn blocks(&self, node: u32, t: SimTime) -> bool {
        node >= self.first_node && node <= self.last_node && t >= self.at && t < self.at + self.duration
    }
}

/// Message-layer fault model for the control plane: per-message drop,
/// duplication, delay and reorder probabilities, scripted partition
/// windows, and the heartbeat failure-detector knobs. All control traffic
/// (submit, cancel, completion reports, retry verdicts, heartbeats) is
/// routed through a seeded [`crate::control::ControlPlane`] realizing this
/// config; [`LinkFaults::none`] routes nothing, draws no randomness, and
/// leaves every backend byte-identical to the pre-control-plane engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Per-transmission probability a message is dropped (clamped below 1;
    /// delivery is at-least-once — dropped transmissions retransmit after
    /// [`LinkFaults::retransmit_timeout`]).
    pub drop_rate: f64,
    /// Per-message probability the delivered message arrives twice.
    pub duplicate_rate: f64,
    /// Base one-way latency added to every delivered message.
    pub delay: SimDuration,
    /// Uniform extra latency in `[0, jitter]` per delivered message.
    pub jitter: SimDuration,
    /// Per-message probability of a reorder penalty: the message draws a
    /// second jitter span on top, letting later sends overtake it.
    pub reorder_rate: f64,
    /// Sender retransmission interval for undelivered messages.
    pub retransmit_timeout: SimDuration,
    /// Scripted coordinator↔node-group partition windows.
    pub partitions: Vec<ScriptedPartition>,
    /// Node heartbeat period (`None` disables the failure detector).
    pub heartbeat_interval: Option<SimDuration>,
    /// Silence span after which a node is suspected (must exceed the
    /// worst-case heartbeat latency or healthy nodes get suspected).
    pub heartbeat_timeout: Option<SimDuration>,
}

impl LinkFaults {
    /// The lossless link: nothing is routed, no randomness is drawn.
    pub fn none() -> Self {
        LinkFaults {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            reorder_rate: 0.0,
            retransmit_timeout: SimDuration::from_secs(1),
            partitions: Vec::new(),
            heartbeat_interval: None,
            heartbeat_timeout: None,
        }
    }

    /// Whether this link config models nothing at all.
    pub fn is_none(&self) -> bool {
        self.drop_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && self.delay == SimDuration::ZERO
            && self.jitter == SimDuration::ZERO
            && self.reorder_rate <= 0.0
            && self.partitions.is_empty()
            && self.heartbeat_interval.is_none()
    }

    /// Check the failure-detector knobs: the interval and the timeout
    /// come as a pair, and neither may be zero (a zero interval would
    /// tick forever inside one instant).
    pub fn validate(&self) -> Result<(), LinkFaultsError> {
        match (self.heartbeat_interval, self.heartbeat_timeout) {
            (None, None) => Ok(()),
            (Some(_), None) => Err(LinkFaultsError::HeartbeatIntervalWithoutTimeout),
            (None, Some(_)) => Err(LinkFaultsError::HeartbeatTimeoutWithoutInterval),
            (Some(SimDuration::ZERO), Some(_)) => Err(LinkFaultsError::ZeroHeartbeatInterval),
            (Some(_), Some(SimDuration::ZERO)) => Err(LinkFaultsError::ZeroHeartbeatTimeout),
            (Some(_), Some(_)) => Ok(()),
        }
    }
}

/// Why a [`LinkFaults`] config cannot be realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultsError {
    /// [`LinkFaults::heartbeat_interval`] is zero.
    ZeroHeartbeatInterval,
    /// [`LinkFaults::heartbeat_timeout`] is zero.
    ZeroHeartbeatTimeout,
    /// A heartbeat interval without a timeout: nodes would beat with
    /// nothing listening.
    HeartbeatIntervalWithoutTimeout,
    /// A heartbeat timeout without an interval: nothing would ever beat.
    HeartbeatTimeoutWithoutInterval,
}

impl fmt::Display for LinkFaultsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkFaultsError::ZeroHeartbeatInterval => "heartbeat_interval is zero",
            LinkFaultsError::ZeroHeartbeatTimeout => "heartbeat_timeout is zero",
            LinkFaultsError::HeartbeatIntervalWithoutTimeout => {
                "heartbeat_interval is set but heartbeat_timeout is not"
            }
            LinkFaultsError::HeartbeatTimeoutWithoutInterval => {
                "heartbeat_timeout is set but heartbeat_interval is not"
            }
        })
    }
}

impl std::error::Error for LinkFaultsError {}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// Configuration of the injected fault environment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-attempt probability of a transient failure.
    pub task_failure_rate: f64,
    /// Per-attempt probability of a hang.
    pub task_hang_rate: f64,
    /// Duration multiplier applied to hung attempts.
    pub hang_factor: f64,
    /// Mean time between node failures (exponential inter-crash gaps).
    /// `None` disables stochastic node crashes.
    pub node_mtbf: Option<SimDuration>,
    /// Downtime of a crashed node before it recovers.
    pub node_outage: SimDuration,
    /// Upper bound on stochastic crashes sampled per node (keeps the crash
    /// schedule finite and rules out requeue livelock).
    pub max_crashes_per_node: u32,
    /// Explicit outages injected in addition to the stochastic schedule.
    pub scripted_crashes: Vec<ScriptedCrash>,
    /// Mean time between node *slowdown* onsets (exponential gaps).
    /// `None` disables stochastic slowdowns.
    pub node_slowdown_mtbf: Option<SimDuration>,
    /// Length of each stochastic slowdown window.
    pub slowdown_duration: SimDuration,
    /// Runtime multiplier inside stochastic slowdown windows.
    pub slowdown_factor: f64,
    /// Upper bound on stochastic slowdowns sampled per node.
    pub max_slowdowns_per_node: u32,
    /// Explicit slowdowns injected in addition to the stochastic schedule.
    pub scripted_slowdowns: Vec<ScriptedSlowdown>,
    /// Message-layer faults on the coordinator↔node control plane.
    pub link: LinkFaults,
}

impl FaultConfig {
    /// The fault-free environment (the default for both backends).
    pub fn none() -> Self {
        FaultConfig {
            task_failure_rate: 0.0,
            task_hang_rate: 0.0,
            hang_factor: 8.0,
            node_mtbf: None,
            node_outage: SimDuration::from_mins(10),
            max_crashes_per_node: 8,
            scripted_crashes: Vec::new(),
            node_slowdown_mtbf: None,
            slowdown_duration: SimDuration::from_mins(30),
            slowdown_factor: 10.0,
            max_slowdowns_per_node: 4,
            scripted_slowdowns: Vec::new(),
            link: LinkFaults::none(),
        }
    }

    /// Whether this configuration injects nothing.
    pub fn is_none(&self) -> bool {
        self.task_failure_rate <= 0.0
            && self.task_hang_rate <= 0.0
            && self.node_mtbf.is_none()
            && self.scripted_crashes.is_empty()
            && !self.has_slowdowns()
            && self.link.is_none()
    }

    /// Whether any gray (slowdown) injection is configured.
    fn has_slowdowns(&self) -> bool {
        self.node_slowdown_mtbf.is_some() || !self.scripted_slowdowns.is_empty()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// A deterministic, seeded realization of a [`FaultConfig`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: SimRng,
}

impl FaultPlan {
    /// Realize `config` under `seed`, or say why its link section cannot
    /// be realized. A plan only ever holds a config that passed
    /// [`LinkFaults::validate`], which is what lets the backends build
    /// their failure detector without checking again.
    pub fn try_new(config: FaultConfig, seed: u64) -> Result<Self, LinkFaultsError> {
        config.link.validate()?;
        Ok(FaultPlan {
            config,
            rng: SimRng::from_seed(seed).fork("fault-plan"),
        })
    }

    /// Realize `config` under `seed`.
    ///
    /// # Panics
    ///
    /// If `config.link` fails [`LinkFaults::validate`]. Use
    /// [`FaultPlan::try_new`] for a config that was not written by hand.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        match Self::try_new(config, seed) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid link faults: {e}"),
        }
    }

    /// The fault-free plan: injects nothing, draws no randomness.
    pub fn none() -> Self {
        Self::new(FaultConfig::none(), 0)
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.config.is_none()
    }

    /// The configuration this plan realizes.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The seeded RNG root for this plan's control plane. A labelled fork
    /// of the plan's own RNG, so one seed governs the whole fault
    /// environment and the link-fault stream is independent of the
    /// task/node fault streams.
    pub fn control_rng(&self) -> SimRng {
        self.rng.fork("control-plane")
    }

    /// The fault drawn by attempt `attempt` (0-based) of task `task`.
    /// Deterministic in `(task, attempt)`; independent of call order.
    pub fn attempt_fault(&self, task: u64, attempt: u32) -> AttemptFault {
        let c = &self.config;
        if c.task_failure_rate <= 0.0 && c.task_hang_rate <= 0.0 {
            return AttemptFault::None;
        }
        let mut rng = self
            .rng
            .fork_idx("attempt", task.wrapping_mul(0x1_0000).wrapping_add(attempt as u64));
        let u = rng.uniform();
        if u < c.task_failure_rate {
            AttemptFault::Transient
        } else if u < c.task_failure_rate + c.task_hang_rate {
            AttemptFault::Hang
        } else {
            AttemptFault::None
        }
    }

    /// The `(crash, recover)` windows for `node`, sorted and merged so they
    /// never overlap: scripted outages plus up to
    /// [`FaultConfig::max_crashes_per_node`] stochastic ones with
    /// exponential inter-crash gaps of mean [`FaultConfig::node_mtbf`].
    pub fn crash_windows(&self, node: u32) -> Vec<(SimTime, SimTime)> {
        let mut windows: Vec<(SimTime, SimTime)> = self
            .config
            .scripted_crashes
            .iter()
            .filter(|s| s.node == node)
            .map(|s| (s.at, s.at + s.outage))
            .collect();
        if let Some(mtbf) = self.config.node_mtbf {
            let mut rng = self.rng.fork_idx("node-crash", node as u64);
            let mut t = SimTime::ZERO;
            for _ in 0..self.config.max_crashes_per_node {
                // Inverse-CDF exponential draw; uniform() < 1 keeps ln finite.
                let gap = mtbf.mul_f64(-(1.0 - rng.uniform()).ln());
                t = t + gap;
                let end = t + self.config.node_outage;
                windows.push((t, end));
                t = end;
            }
        }
        windows.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (start, end) in windows {
            match merged.last_mut() {
                Some((_, prev_end)) if start <= *prev_end => {
                    *prev_end = (*prev_end).max(end);
                }
                _ => merged.push((start, end)),
            }
        }
        merged
    }

    /// The slowdown windows for `node`, sorted and clipped so they never
    /// overlap: scripted slowdowns plus up to
    /// [`FaultConfig::max_slowdowns_per_node`] stochastic ones with
    /// exponential inter-onset gaps of mean
    /// [`FaultConfig::node_slowdown_mtbf`]. Unlike crash windows the
    /// factors can differ per window, so overlapping windows are clipped
    /// (earlier window wins the overlap) rather than merged. Draws no
    /// randomness when no stochastic slowdowns are configured, and returns
    /// an empty schedule — a strict no-op under [`dilate_span`] — when the
    /// config has no slowdowns at all.
    pub fn slowdown_windows(&self, node: u32) -> Vec<SlowWindow> {
        let mut windows: Vec<SlowWindow> = self
            .config
            .scripted_slowdowns
            .iter()
            .filter(|s| s.node == node)
            .map(|s| SlowWindow {
                start: s.at,
                end: s.at + s.duration,
                factor: s.factor.max(1.0),
            })
            .collect();
        if let Some(mtbf) = self.config.node_slowdown_mtbf {
            let mut rng = self.rng.fork_idx("node-slow", node as u64);
            let mut t = SimTime::ZERO;
            for _ in 0..self.config.max_slowdowns_per_node {
                let gap = mtbf.mul_f64(-(1.0 - rng.uniform()).ln());
                t = t + gap;
                let end = t + self.config.slowdown_duration;
                windows.push(SlowWindow {
                    start: t,
                    end,
                    factor: self.config.slowdown_factor.max(1.0),
                });
                t = end;
            }
        }
        windows.sort_by_key(|w| (w.start, w.end));
        let mut clipped: Vec<SlowWindow> = Vec::with_capacity(windows.len());
        for mut w in windows {
            if let Some(prev) = clipped.last() {
                if w.start < prev.end {
                    w.start = prev.end;
                }
            }
            if w.start < w.end {
                clipped.push(w);
            }
        }
        clipped
    }
}

/// How long a span of `nominal` work takes on a node with the given
/// slowdown schedule, starting at `start`: progress accrues at the nominal
/// rate outside windows and at `1/factor` inside them. With an empty
/// schedule the result is exactly `nominal` — the disabled path is a
/// strict no-op, which is what keeps gray-failure-free runs byte-identical
/// to the pre-slowdown engine. Deterministic integer-microsecond
/// arithmetic; all three backends share this one function.
pub fn dilate_span(windows: &[SlowWindow], start: SimTime, nominal: SimDuration) -> SimDuration {
    if windows.is_empty() || nominal == SimDuration::ZERO {
        return nominal;
    }
    let mut t = start;
    let mut remaining = nominal.as_micros();
    for w in windows {
        if remaining == 0 {
            break;
        }
        if w.end <= t {
            continue;
        }
        if w.start > t {
            // Full-speed segment before the window opens.
            let free = w.start.since(t).as_micros();
            if remaining <= free {
                t = t + SimDuration::from_micros(remaining);
                return t.since(start);
            }
            remaining -= free;
            t = w.start;
        }
        // Degraded segment: real time stretches by the window's factor.
        let span_us = w.end.since(t).as_micros();
        let need = (remaining as f64 * w.factor).round();
        if need <= span_us as f64 {
            t = t + SimDuration::from_micros(need as u64);
            return t.since(start);
        }
        let done = (span_us as f64 / w.factor).floor() as u64;
        remaining = remaining.saturating_sub(done);
        t = w.end;
    }
    (t + SimDuration::from_micros(remaining)).since(start)
}

/// Hedged speculative execution policy: when a running attempt exceeds
/// `threshold` × the running estimate of its shape-class runtime, the
/// backend places a duplicate attempt on a *different* node; the first
/// completion wins and the loser's occupancy is booked as hedge waste
/// (separately from retry waste). Until `min_samples` completions of the
/// shape class have been observed, the attempt's own nominal modeled span
/// stands in for the estimate. Disabled (`None` on the runtime config) the
/// backends schedule no hedge checks and behave byte-identically to the
/// pre-hedging engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Straggler threshold `k`: hedge when elapsed ≥ k × estimate.
    pub threshold: f64,
    /// Shape-class completions required before the running estimate
    /// replaces the nominal span.
    pub min_samples: u32,
}

impl HedgePolicy {
    /// The conventional policy: hedge at `k` × the shape-class estimate,
    /// trusting the estimate after 4 completions.
    pub fn k(threshold: f64) -> Self {
        HedgePolicy {
            threshold: threshold.max(1.0),
            min_samples: 4,
        }
    }
}

/// Poison-task quarantine policy: a task whose retryable attempts have
/// failed on `distinct_nodes` *distinct* nodes is classified poisoned and
/// quarantined — surfaced as [`crate::backend::TaskError::Poisoned`]
/// instead of burning the rest of its retry budget. A per-shape circuit
/// breaker trips after `shape_trip` poisoned lineages of one `(cores,
/// gpus)` shape class (0 = breaker disabled) and sheds subsequent tasks of
/// that shape with [`crate::backend::TaskError::ShapeCircuitOpen`].
/// While quarantine is active, retries are steered away from nodes the
/// task already failed on, so the verdict is reached in exactly
/// `distinct_nodes` attempts when capacity allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Distinct failed nodes that prove a task poisoned (min 2).
    pub distinct_nodes: u32,
    /// Poisoned lineages of one shape class before the breaker opens
    /// (0 = breaker disabled).
    pub shape_trip: u32,
}

impl QuarantinePolicy {
    /// Quarantine after failures on `n` distinct nodes, breaker disabled.
    pub fn distinct(n: u32) -> Self {
        QuarantinePolicy {
            distinct_nodes: n.max(2),
            shape_trip: 0,
        }
    }

    /// Trip the per-shape breaker after `n` poisoned lineages.
    pub fn with_shape_trip(mut self, n: u32) -> Self {
        self.shape_trip = n;
        self
    }
}

/// How the pilot resubmits attempts that fail before their work ran:
/// injected transient faults, walltime expiries, and node-crash preemptions.
/// (A work closure that panicked is never retried — the closure is consumed
/// by running it, and a deterministic panic would recur anyway.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Resubmission budget per task: total attempts = `1 + max_retries`.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Exponential growth factor per additional retry.
    pub backoff_multiplier: f64,
    /// Backoff ceiling (`ZERO` = uncapped).
    pub backoff_cap: SimDuration,
    /// Multiplicative jitter half-width as a fraction of the delay
    /// (`0.25` → delay scaled by a uniform factor in `[0.875, 1.125]`).
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries: every failed attempt surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: SimDuration::ZERO,
            backoff_multiplier: 2.0,
            backoff_cap: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// A sensible default budget: `n` retries, 30 s base backoff doubling
    /// to a 30 min cap, ±12.5 % jitter.
    pub fn retries(n: u32) -> Self {
        RetryPolicy {
            max_retries: n,
            backoff_base: SimDuration::from_secs(30),
            backoff_multiplier: 2.0,
            backoff_cap: SimDuration::from_mins(30),
            jitter: 0.25,
        }
    }

    /// The delay before resubmitting attempt `attempt` (1-based: the first
    /// retry is attempt 1). Draws jitter from `rng` only when both the base
    /// delay and the jitter are non-zero.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        if self.backoff_base == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let exp = self
            .backoff_multiplier
            .powi(attempt.saturating_sub(1).min(63) as i32);
        // Cap *before* multiplying: multiplier^63 can exceed f64 range
        // (`powi` → +inf), and `SimDuration::mul_f64` clamps non-finite
        // products to ZERO — which would collapse the largest backoffs to
        // no delay at all. Comparing the exponent against the cap/base
        // ratio short-circuits to the ceiling without ever forming the
        // overflowing product; the in-range path is arithmetically
        // unchanged.
        let cap_micros = if self.backoff_cap > SimDuration::ZERO {
            self.backoff_cap.as_micros()
        } else {
            u64::MAX
        };
        let mut delay = if !exp.is_finite()
            || self.backoff_base.as_micros() as f64 * exp >= cap_micros as f64
        {
            SimDuration::from_micros(cap_micros)
        } else {
            let d = self.backoff_base.mul_f64(exp);
            if self.backoff_cap > SimDuration::ZERO && d > self.backoff_cap {
                self.backoff_cap
            } else {
                d
            }
        };
        if self.jitter > 0.0 {
            delay = delay.mul_f64(1.0 + self.jitter * (rng.uniform() - 0.5));
        }
        delay
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for t in 0..100u64 {
            assert_eq!(plan.attempt_fault(t, 0), AttemptFault::None);
        }
        assert!(plan.crash_windows(0).is_empty());
    }

    #[test]
    fn attempt_faults_are_deterministic_and_attempt_sensitive() {
        let cfg = FaultConfig {
            task_failure_rate: 0.3,
            task_hang_rate: 0.2,
            ..FaultConfig::none()
        };
        let a = FaultPlan::new(cfg.clone(), 42);
        let b = FaultPlan::new(cfg, 42);
        let mut differs_by_attempt = false;
        for t in 0..200u64 {
            assert_eq!(a.attempt_fault(t, 0), b.attempt_fault(t, 0));
            assert_eq!(a.attempt_fault(t, 1), b.attempt_fault(t, 1));
            if a.attempt_fault(t, 0) != a.attempt_fault(t, 1) {
                differs_by_attempt = true;
            }
        }
        assert!(differs_by_attempt, "retries must draw fresh faults");
    }

    #[test]
    fn fault_rates_are_roughly_honored() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 0.25,
                ..FaultConfig::none()
            },
            7,
        );
        let fails = (0..2000u64)
            .filter(|&t| plan.attempt_fault(t, 0) == AttemptFault::Transient)
            .count();
        assert!((400..600).contains(&fails), "~25% expected, got {fails}/2000");
    }

    #[test]
    fn crash_windows_are_sorted_disjoint_and_bounded() {
        let plan = FaultPlan::new(
            FaultConfig {
                node_mtbf: Some(SimDuration::from_hours(4)),
                node_outage: SimDuration::from_mins(15),
                max_crashes_per_node: 5,
                ..FaultConfig::none()
            },
            3,
        );
        let w = plan.crash_windows(0);
        assert!(!w.is_empty() && w.len() <= 5);
        for pair in w.windows(2) {
            assert!(pair[0].1 < pair[1].0, "windows must not overlap");
        }
        assert_ne!(plan.crash_windows(0), plan.crash_windows(1), "per-node schedules");
        assert_eq!(w, plan.crash_windows(0), "deterministic");
    }

    #[test]
    fn scripted_crashes_merge_with_stochastic_ones() {
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_crashes: vec![
                    ScriptedCrash {
                        node: 0,
                        at: SimTime::from_micros(5_000_000),
                        outage: SimDuration::from_secs(10),
                    },
                    ScriptedCrash {
                        node: 0,
                        at: SimTime::from_micros(20_000_000),
                        outage: SimDuration::from_secs(10),
                    },
                    ScriptedCrash {
                        node: 1,
                        at: SimTime::from_micros(1_000_000),
                        outage: SimDuration::from_secs(1),
                    },
                ],
                ..FaultConfig::none()
            },
            0,
        );
        assert_eq!(plan.crash_windows(0).len(), 2);
        assert_eq!(plan.crash_windows(1).len(), 1);
        assert!(plan.crash_windows(2).is_empty());
    }

    #[test]
    fn overlapping_windows_are_merged() {
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_crashes: vec![
                    ScriptedCrash {
                        node: 0,
                        at: SimTime::from_micros(1_000_000),
                        outage: SimDuration::from_secs(10),
                    },
                    ScriptedCrash {
                        node: 0,
                        at: SimTime::from_micros(5_000_000),
                        outage: SimDuration::from_secs(10),
                    },
                ],
                ..FaultConfig::none()
            },
            0,
        );
        let w = plan.crash_windows(0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, SimTime::from_micros(1_000_000));
        assert_eq!(w[0].1, SimTime::from_micros(15_000_000));
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::retries(10)
        };
        let mut rng = SimRng::from_seed(0);
        let d1 = p.backoff(1, &mut rng);
        let d2 = p.backoff(2, &mut rng);
        let d3 = p.backoff(3, &mut rng);
        assert_eq!(d1, SimDuration::from_secs(30));
        assert_eq!(d2, SimDuration::from_secs(60));
        assert_eq!(d3, SimDuration::from_secs(120));
        assert_eq!(p.backoff(40, &mut rng), SimDuration::from_mins(30), "capped");
    }

    #[test]
    fn none_policy_never_delays_or_draws() {
        let p = RetryPolicy::none();
        let mut rng = SimRng::from_seed(1);
        let before = rng.clone().next_u64();
        assert_eq!(p.backoff(1, &mut rng), SimDuration::ZERO);
        assert_eq!(rng.next_u64(), before, "no randomness consumed");
    }

    #[test]
    fn backoff_is_monotone_then_capped_for_all_small_attempts() {
        // Property: with jitter off, delay(attempt) is non-decreasing for
        // attempts 0..64 and pinned at the cap once reached — including
        // multipliers whose powi overflows f64 to +inf.
        for &mult in &[1.5, 2.0, 10.0, 1e6] {
            let p = RetryPolicy {
                max_retries: 64,
                backoff_base: SimDuration::from_secs(30),
                backoff_multiplier: mult,
                backoff_cap: SimDuration::from_mins(30),
                jitter: 0.0,
            };
            let mut rng = SimRng::from_seed(0);
            let mut prev = SimDuration::ZERO;
            let mut capped = false;
            for attempt in 0..64u32 {
                let d = p.backoff(attempt, &mut rng);
                assert!(d >= prev, "mult {mult} attempt {attempt}: {d} < {prev}");
                assert!(d <= p.backoff_cap, "mult {mult} attempt {attempt}: over cap");
                if capped {
                    assert_eq!(d, p.backoff_cap, "once capped, stays capped");
                }
                capped = d == p.backoff_cap;
                prev = d;
            }
            assert!(capped, "mult {mult}: 64 attempts must reach the cap");
        }
    }

    #[test]
    fn uncapped_backoff_saturates_instead_of_collapsing_to_zero() {
        // multiplier^62 = inf at mult 1e6; before the overflow guard this
        // fed SimDuration::mul_f64(inf) which clamps to ZERO.
        let p = RetryPolicy {
            max_retries: 64,
            backoff_base: SimDuration::from_secs(30),
            backoff_multiplier: 1e6,
            backoff_cap: SimDuration::ZERO,
            jitter: 0.0,
        };
        let mut rng = SimRng::from_seed(0);
        let mut prev = SimDuration::ZERO;
        for attempt in 0..64u32 {
            let d = p.backoff(attempt, &mut rng);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev} (overflow collapse)");
            prev = d;
        }
        assert_eq!(prev, SimDuration::from_micros(u64::MAX), "saturated");
    }

    #[test]
    fn slowdown_windows_are_deterministic_per_node_and_clipped() {
        let plan = FaultPlan::new(
            FaultConfig {
                node_slowdown_mtbf: Some(SimDuration::from_hours(2)),
                slowdown_duration: SimDuration::from_mins(20),
                slowdown_factor: 10.0,
                max_slowdowns_per_node: 4,
                ..FaultConfig::none()
            },
            11,
        );
        let w = plan.slowdown_windows(0);
        assert!(!w.is_empty() && w.len() <= 4);
        for pair in w.windows(2) {
            assert!(pair[0].end <= pair[1].start, "windows must not overlap");
        }
        assert_ne!(plan.slowdown_windows(0), plan.slowdown_windows(1));
        assert_eq!(w, plan.slowdown_windows(0), "deterministic");
        assert!(w.iter().all(|x| x.factor >= 1.0));
    }

    #[test]
    fn scripted_slowdowns_clip_overlaps_keeping_the_earlier_factor() {
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_slowdowns: vec![
                    ScriptedSlowdown {
                        node: 0,
                        at: SimTime::from_micros(1_000_000),
                        duration: SimDuration::from_secs(10),
                        factor: 4.0,
                    },
                    ScriptedSlowdown {
                        node: 0,
                        at: SimTime::from_micros(5_000_000),
                        duration: SimDuration::from_secs(10),
                        factor: 2.0,
                    },
                ],
                ..FaultConfig::none()
            },
            0,
        );
        let w = plan.slowdown_windows(0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].end, SimTime::from_micros(11_000_000));
        assert_eq!(w[1].start, SimTime::from_micros(11_000_000), "clipped");
        assert_eq!(w[1].end, SimTime::from_micros(15_000_000));
        assert!(plan.slowdown_windows(1).is_empty());
        assert!(!plan.is_none(), "slowdowns make the config non-trivial");
    }

    #[test]
    fn dilate_span_is_exact_identity_without_windows() {
        let d = SimDuration::from_secs(50);
        assert_eq!(dilate_span(&[], SimTime::ZERO, d), d);
        assert_eq!(dilate_span(&[], SimTime::from_micros(123), SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn dilate_span_stretches_work_inside_windows() {
        let w = [SlowWindow {
            start: SimTime::from_micros(10_000_000),
            end: SimTime::from_micros(30_000_000),
            factor: 10.0,
        }];
        // Entirely before the window: untouched.
        assert_eq!(
            dilate_span(&w, SimTime::ZERO, SimDuration::from_secs(10)),
            SimDuration::from_secs(10)
        );
        // Entirely inside: 1 s of work takes 10 s.
        assert_eq!(
            dilate_span(&w, SimTime::from_micros(10_000_000), SimDuration::from_secs(1)),
            SimDuration::from_secs(10)
        );
        // Straddling: 5 s free + 15 s of work; 2 s of it fits in the
        // window (20 s real), the last 13 s run after it ends.
        assert_eq!(
            dilate_span(&w, SimTime::from_micros(5_000_000), SimDuration::from_secs(20)),
            SimDuration::from_secs(5 + 20 + 13)
        );
        // Work starting after the window is untouched.
        assert_eq!(
            dilate_span(&w, SimTime::from_micros(30_000_000), SimDuration::from_secs(7)),
            SimDuration::from_secs(7)
        );
    }

    #[test]
    fn dilate_span_walks_multiple_windows() {
        let w = [
            SlowWindow {
                start: SimTime::from_micros(0),
                end: SimTime::from_micros(10_000_000),
                factor: 2.0,
            },
            SlowWindow {
                start: SimTime::from_micros(20_000_000),
                end: SimTime::from_micros(30_000_000),
                factor: 5.0,
            },
        ];
        // 20 s of work from t=0: 5 s done in window 1 (10 s real), 10 s
        // free (10 s done), window 2 opens with 5 s left → 25 s real, but
        // only 2 s of work fits in its 10 s → 3 s left after t=30 s.
        assert_eq!(
            dilate_span(&w, SimTime::ZERO, SimDuration::from_secs(20)),
            SimDuration::from_secs(10 + 10 + 10 + 3)
        );
    }

    #[test]
    fn hedge_and_quarantine_policies_clamp_sensibly() {
        let h = HedgePolicy::k(0.5);
        assert_eq!(h.threshold, 1.0, "threshold below 1 would hedge instantly");
        let q = QuarantinePolicy::distinct(1).with_shape_trip(3);
        assert_eq!(q.distinct_nodes, 2, "one node can never be distinct evidence");
        assert_eq!(q.shape_trip, 3);
    }

    #[test]
    fn jitter_stays_within_the_advertised_band() {
        let p = RetryPolicy::retries(3);
        let mut rng = SimRng::from_seed(9);
        for _ in 0..100 {
            let d = p.backoff(1, &mut rng).as_secs_f64();
            assert!((30.0 * 0.875..=30.0 * 1.125).contains(&d), "{d}");
        }
    }
}
