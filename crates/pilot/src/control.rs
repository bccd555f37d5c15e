//! The seeded control plane: a message-layer fault model for
//! coordinator↔node traffic.
//!
//! The paper's middleware splits the design loop (client) from the pilot
//! runtime (agent) across a real network; every control message — task
//! submission, cancellation, completion reports, retry verdicts,
//! heartbeats — can be dropped, duplicated, delayed or reordered, and a
//! partition can sever the coordinator from a whole node group for
//! minutes. [`ControlPlane`] realizes a [`LinkFaults`] config as *pure,
//! seeded per-message verdicts*: given a stable message identity (a label
//! plus a numeric key), it answers "when does this message arrive, and
//! does it arrive twice?" deterministically, independent of call order.
//! All three backends route their control traffic through one of these,
//! so a single seed produces the same message history everywhere.
//!
//! Two delivery disciplines:
//!
//! * [`ControlPlane::deliveries`] — at-least-once: a dropped or
//!   partitioned transmission retransmits every
//!   [`LinkFaults::retransmit_timeout`] until one gets through (messages
//!   are never lost, only late — the dedup layer above makes the *effects*
//!   exactly-once). Used for submits, completion reports, cancels and
//!   retry verdicts.
//! * [`ControlPlane::best_effort`] — fire-and-forget: a dropped or
//!   partitioned heartbeat is simply gone. That silence is the signal the
//!   failure detector thrives on.
//!
//! Determinism: each message forks the plane's RNG on
//! `(label, key)` — never on the order backends happen to ask — so the
//! three backends draw identical verdicts for identical traffic.
//!
//! The heartbeat failure detector built on `best_effort` is
//! [`FailureDetector`]: a lane driven by one engine event per tick that
//! puts on the queue only what can be observed. It is the one heartbeat
//! clock, ticked by the shared core (`backend::des`) on every driver; what
//! an arrival or a check *does* is the core's too. Its reference, the
//! event-per-heartbeat detector it replaced, lives on as the model in
//! this module's tests.

use crate::fault::{FaultPlan, LinkFaults};
use impress_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Upper bound on modeled transmissions per message: a backstop against a
/// partition window that never heals combining with a saturated drop rate.
/// At the default 1 s retransmit timeout this forces delivery within ~68
/// virtual minutes.
const MAX_TRANSMISSIONS: u32 = 4096;

/// Control-plane resilience counters, exposed via
/// [`crate::backend::ExecutionBackend::control_stats`]. All-zero when link
/// faults are disabled — the counters both feed the partition study and
/// prove (in tests) that the disabled path never engages the machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Messages routed through at-least-once delivery.
    pub messages: u64,
    /// Extra transmissions beyond the first (drops + partition stalls).
    pub retransmits: u64,
    /// Messages that arrived twice (duplicate deliveries scheduled).
    pub duplicates: u64,
    /// Heartbeats emitted by live nodes.
    pub heartbeats_sent: u64,
    /// Heartbeats that will reach the coordinator: counted at send time,
    /// from the delivery verdict, not at arrival.
    pub heartbeats_delivered: u64,
    /// Nodes declared suspect by the failure detector.
    pub suspicions: u64,
    /// False suspicions healed by a late heartbeat (partition heal resync).
    pub resyncs: u64,
    /// Running attempts evicted because their lease expired under
    /// suspicion (each consumed one retry).
    pub lease_expiries: u64,
    /// Late completions from old lease-holders fenced out by their epoch.
    pub fenced_completions: u64,
    /// Duplicate message arrivals suppressed by idempotent dedup.
    pub dedup_hits: u64,
}

/// A message's resolved delivery schedule under at-least-once routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deliveries {
    /// When the first successful transmission arrives.
    pub primary: SimTime,
    /// A second arrival of the same message, if it was duplicated.
    pub duplicate: Option<SimTime>,
    /// Total transmissions modeled (1 = got through first try).
    pub transmissions: u32,
}

/// A seeded realization of [`LinkFaults`]: pure per-message delivery
/// verdicts. See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    link: LinkFaults,
    rng: SimRng,
}

impl ControlPlane {
    /// Realize `link` under an explicit RNG root.
    pub fn new(link: LinkFaults, rng: SimRng) -> Self {
        ControlPlane { link, rng }
    }

    /// The control plane a fault plan calls for: `Some` exactly when the
    /// plan's [`LinkFaults`] section models anything. `None` is the strict
    /// no-op contract — backends route directly, schedule no control
    /// events, and stay byte-identical to the pre-control-plane engine.
    pub fn from_plan(plan: &FaultPlan) -> Option<Self> {
        let link = plan.config().link.clone();
        if link.is_none() {
            return None;
        }
        Some(ControlPlane::new(link, plan.control_rng()))
    }

    /// The link config this plane realizes.
    pub fn link(&self) -> &LinkFaults {
        &self.link
    }

    /// Whether a message to/from `node` at instant `t` is inside a
    /// scripted partition window.
    pub fn partitioned(&self, node: u32, t: SimTime) -> bool {
        self.link.partitions.iter().any(|p| p.blocks(node, t))
    }

    /// The RNG for one message, keyed on its stable identity.
    fn message_rng(&self, label: &str, key: u64) -> SimRng {
        self.rng.fork(label).fork_idx("msg", key)
    }

    /// One-way latency draw: base delay, plus uniform jitter, plus (with
    /// probability [`LinkFaults::reorder_rate`]) a second jitter span that
    /// lets later sends overtake this message.
    fn latency(&self, rng: &mut SimRng) -> SimDuration {
        let mut l = self.link.delay;
        if self.link.jitter > SimDuration::ZERO {
            l = l.saturating_add(self.link.jitter.mul_f64(rng.uniform()));
        }
        if self.link.reorder_rate > 0.0 && rng.uniform() < self.link.reorder_rate {
            let span = if self.link.jitter > SimDuration::ZERO {
                self.link.jitter
            } else {
                self.link.delay
            };
            l = l.saturating_add(span.mul_f64(rng.uniform()));
        }
        l
    }

    /// At-least-once delivery of the message `(label, key)` sent at
    /// `sent`. `node` selects the partitionable coordinator↔node link;
    /// `None` is the hub link (client↔coordinator), which drops and delays
    /// but never partitions. Transmissions blocked by a partition or a
    /// drop draw retransmit after [`LinkFaults::retransmit_timeout`];
    /// the first one through fixes the arrival.
    pub fn deliveries(
        &self,
        label: &str,
        key: u64,
        node: Option<u32>,
        sent: SimTime,
    ) -> Deliveries {
        let mut rng = self.message_rng(label, key);
        // A saturated drop rate would make the retransmit loop the whole
        // story; clamp so every message still terminates quickly.
        let drop = self.link.drop_rate.clamp(0.0, 0.95);
        let rto = self
            .link
            .retransmit_timeout
            .max(SimDuration::from_micros(1));
        let mut t = sent;
        let mut transmissions = 0u32;
        let through = loop {
            transmissions += 1;
            let blocked = node.is_some_and(|n| self.partitioned(n, t));
            let dropped = drop > 0.0 && rng.uniform() < drop;
            if (!blocked && !dropped) || transmissions >= MAX_TRANSMISSIONS {
                break t;
            }
            t = t + rto;
        };
        let primary = through + self.latency(&mut rng);
        let duplicate =
            if self.link.duplicate_rate > 0.0 && rng.uniform() < self.link.duplicate_rate {
                Some(through + self.latency(&mut rng))
            } else {
                None
            };
        Deliveries {
            primary,
            duplicate,
            transmissions,
        }
    }

    /// Fire-and-forget delivery (heartbeats): `Some(arrival)` if the
    /// single transmission gets through, `None` if it is partitioned away
    /// or dropped.
    pub fn best_effort(&self, label: &str, key: u64, node: u32, sent: SimTime) -> Option<SimTime> {
        if self.partitioned(node, sent) {
            return None;
        }
        let mut rng = self.message_rng(label, key);
        let drop = self.link.drop_rate.clamp(0.0, 0.95);
        if drop > 0.0 && rng.uniform() < drop {
            return None;
        }
        Some(sent + self.latency(&mut rng))
    }
}

/// Order keys a round reserves per node: its arrival, its check and its
/// next send, in the order the event-per-heartbeat form schedules them.
const KEYS_PER_NODE: u64 = 3;

/// Which handler a [`Wake`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeKind {
    /// A heartbeat arrival that may resync its node.
    Arrive,
    /// A suspicion check that may fire.
    Check,
}

/// A lane event that has to exist on the engine's real queue, with the
/// order key that sorts it where its event-per-heartbeat twin would sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wake {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) node: u32,
    pub(crate) kind: WakeKind,
}

/// What one heartbeat round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Round {
    /// Heartbeats emitted (uncrashed nodes).
    pub(crate) sent: u64,
    /// Of those, the ones whose verdict was "delivered".
    pub(crate) delivered: u64,
    /// When the next round is due, and its order key.
    pub(crate) next: (SimTime, u64),
}

/// A heartbeat arrival kept in the lane instead of on the event queue.
#[derive(Debug, Clone, Copy)]
struct Folded {
    at: SimTime,
    key: u64,
}

#[derive(Debug, Clone)]
struct NodeLane {
    /// Latest arrival applied so far.
    last_heard: SimTime,
    /// Heartbeat sequence number (message identity).
    hb_seq: u64,
    /// At most one folded arrival. It counts as heard from `at` on.
    pending: Option<Folded>,
}

/// The check instant one round armed for every node, and that round's
/// first order key.
#[derive(Debug, Clone, Copy)]
struct Armed {
    check: SimTime,
    base: u64,
}

/// The heartbeat failure detector as a lane: every node's send, arrival
/// and timeout check for one tick, driven by ONE engine event per tick.
///
/// The event-per-heartbeat form (this module's tests keep it as the
/// model) schedules three queue events per node per tick. Almost all of them
/// touch nothing but detector-private state: an arrival at an unsuspected
/// node only moves `last_heard`, a check that finds a recent arrival does
/// nothing. The lane keeps those in itself and hands the engine a
/// [`Wake`] only for what can be observed:
///
/// * an **arrival** is *folded* into its node's one slot unless the node
///   is suspected (it would resync), the slot still holds an arrival in
///   the future, or it lands exactly on an earlier round's check instant
///   (that check sorts before it, so it must not count as heard there);
///   [`FailureDetector::unfold`] hands a still-future fold back when its
///   node becomes suspected, so the resync lands at its exact instant;
/// * a **check** is scheduled only if the lane already knows of no arrival
///   that defuses it. A round decides every check due by the next round:
///   all arrivals that sort before such a check were sent by now. Unknown
///   to the lane are only things that refresh a node (a real arrival, a
///   recovery), and the scheduled check evaluates
///   [`FailureDetector::silent`] at fire time, so a stale "might fire"
///   costs one no-op event and never a wrong verdict.
///
/// **Order keys.** Engines order same-instant events by a scheduling
/// sequence number, and a wake is scheduled later than its twin would
/// have been. So each round reserves [`FailureDetector::keys_per_round`]
/// consecutive numbers from the engine, laid out as the event-per-
/// heartbeat form lays out its events (per node: arrival, check, next
/// send), and every wake carries the number its twin would have had. The
/// round itself takes the place of the *last* node's send, so that
/// everything the previous round scheduled for this instant has run
/// before it.
#[derive(Debug, Clone)]
pub(crate) struct FailureDetector {
    interval: SimDuration,
    timeout: SimDuration,
    /// `timeout mod interval`, in microseconds.
    phase: u64,
    lanes: Vec<NodeLane>,
    /// Check instants not yet decided, oldest first.
    armed: VecDeque<Armed>,
    live: bool,
}

impl FailureDetector {
    /// The detector `link` calls for: `Some` when a heartbeat interval and
    /// timeout are configured ([`LinkFaults::validate`] has made sure it
    /// is both or neither, and neither is zero).
    pub(crate) fn new(link: &LinkFaults, nodes: usize) -> Option<Self> {
        let (interval, timeout) = (link.heartbeat_interval?, link.heartbeat_timeout?);
        debug_assert!(interval > SimDuration::ZERO && timeout > SimDuration::ZERO);
        Some(FailureDetector {
            interval,
            timeout,
            phase: timeout.as_micros() % interval.as_micros(),
            lanes: vec![
                NodeLane {
                    last_heard: SimTime::ZERO,
                    hb_seq: 0,
                    pending: None,
                };
                nodes
            ],
            armed: VecDeque::new(),
            live: false,
        })
    }

    /// Whether rounds are ticking. They stop at the first round that finds
    /// the coordinator idle and restart on the next submit.
    pub(crate) fn live(&self) -> bool {
        self.live
    }

    /// Order keys the engine reserves for [`FailureDetector::start`].
    pub(crate) fn keys_per_start(&self) -> u64 {
        self.lanes.len() as u64
    }

    /// Order keys the engine reserves for each [`FailureDetector::round`].
    pub(crate) fn keys_per_round(&self) -> u64 {
        KEYS_PER_NODE * self.lanes.len() as u64
    }

    /// (Re)start the detector at `now`: every node gets a fresh grace
    /// period, since nothing can be suspected for silence that predates
    /// the detector. `base` is the first of the reserved keys. Returns
    /// the first round's instant and key.
    pub(crate) fn start(&mut self, now: SimTime, base: u64) -> (SimTime, u64) {
        self.live = true;
        for lane in &mut self.lanes {
            lane.last_heard = now;
        }
        (now + self.interval, base + self.keys_per_start() - 1)
    }

    /// Stop ticking: a round found nothing in flight. Undecided checks
    /// are dropped: none of them can fire with nothing in flight, and a
    /// later submit restarts the detector at an instant `r` after their
    /// rounds, so `last_heard + timeout` stays beyond them.
    pub(crate) fn retire(&mut self) {
        self.live = false;
        self.armed.clear();
    }

    /// `node` was heard from at `now`: a scheduled arrival fired, or the
    /// node recovered.
    pub(crate) fn heard(&mut self, node: u32, now: SimTime) {
        self.lanes[node as usize].last_heard = now;
    }

    /// Whether `node` has been silent for a full timeout at `now`: the
    /// verdict of a scheduled check.
    pub(crate) fn silent(&self, node: u32, now: SimTime) -> bool {
        self.lanes[node as usize].heard_by(now) + self.timeout <= now
    }

    /// `node` became suspected at `now`: hand back its folded arrival if
    /// that is still to come, for the engine to schedule.
    pub(crate) fn unfold(&mut self, node: u32, now: SimTime) -> Option<Wake> {
        let lane = &mut self.lanes[node as usize];
        let fold = lane.pending.filter(|f| f.at > now)?;
        lane.pending = None;
        Some(Wake {
            at: fold.at,
            key: fold.key,
            node,
            kind: WakeKind::Arrive,
        })
    }

    /// Whether an arrival `lat` microseconds after its send lands exactly
    /// on the check instant of an earlier round: `lat = timeout - d *
    /// interval` for some `d >= 1`. (`lat = 0` lands on this round's own
    /// instant, where every earlier round's check has already run.)
    fn lands_on_earlier_check(&self, lat: u64) -> bool {
        let interval = self.interval.as_micros();
        let residue = if lat < interval { lat } else { lat % interval };
        lat > 0 && lat < self.timeout.as_micros() && residue == self.phase
    }

    /// One heartbeat round at `now`, for all nodes in order: draw each
    /// uncrashed node's delivery `verdict(node, message key)`, fold or
    /// schedule the arrival, arm this round's check, and decide every
    /// check due by the next round. `base` is the first of the reserved
    /// keys; what needs a queue event is pushed onto `wakes`.
    pub(crate) fn round(
        &mut self,
        now: SimTime,
        base: u64,
        crashed: &[bool],
        suspected: &[bool],
        mut verdict: impl FnMut(u32, u64) -> Option<SimTime>,
        wakes: &mut Vec<Wake>,
    ) -> Round {
        self.armed.push_back(Armed {
            check: now + self.timeout,
            base,
        });
        let next = now + self.interval;
        let due = self.armed.iter().take_while(|a| a.check <= next).count();
        let (mut sent, mut delivered) = (0, 0);
        for i in 0..self.lanes.len() {
            let node = i as u32;
            let node_base = base + KEYS_PER_NODE * i as u64;
            let lane = &mut self.lanes[i];
            if let Some(fold) = lane.pending.filter(|f| f.at <= now) {
                lane.last_heard = lane.last_heard.max(fold.at);
                lane.pending = None;
            }
            let seq = lane.hb_seq;
            lane.hb_seq += 1;
            // A crashed node emits nothing this tick; rounds keep ticking
            // so heartbeats resume the instant it recovers.
            if !crashed[i] {
                sent += 1;
                if let Some(at) = verdict(node, (u64::from(node) << 32) | seq) {
                    delivered += 1;
                    let occupied = self.lanes[i].pending.is_some();
                    if suspected[i]
                        || occupied
                        || self.lands_on_earlier_check(at.since(now).as_micros())
                    {
                        wakes.push(Wake {
                            at,
                            key: node_base,
                            node,
                            kind: WakeKind::Arrive,
                        });
                    } else {
                        self.lanes[i].pending = Some(Folded { at, key: node_base });
                    }
                }
            }
            let lane = &self.lanes[i];
            for armed in self.armed.iter().take(due) {
                if lane.heard_by(armed.check) + self.timeout <= armed.check {
                    wakes.push(Wake {
                        at: armed.check,
                        key: armed.base + KEYS_PER_NODE * i as u64 + 1,
                        node,
                        kind: WakeKind::Check,
                    });
                }
            }
        }
        self.armed.drain(..due);
        Round {
            sent,
            delivered,
            next: (next, base + self.keys_per_round() - 1),
        }
    }
}

impl NodeLane {
    /// The latest arrival at or before `t` the lane knows of.
    fn heard_by(&self, t: SimTime) -> SimTime {
        match self.pending {
            Some(fold) if fold.at <= t => self.last_heard.max(fold.at),
            _ => self.last_heard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, ScriptedPartition};

    fn lossy() -> LinkFaults {
        LinkFaults {
            drop_rate: 0.3,
            duplicate_rate: 0.2,
            delay: SimDuration::from_micros(50_000),
            jitter: SimDuration::from_micros(20_000),
            reorder_rate: 0.1,
            ..LinkFaults::none()
        }
    }

    fn plane(link: LinkFaults, seed: u64) -> ControlPlane {
        ControlPlane::new(link, SimRng::from_seed(seed).fork("control-plane"))
    }

    #[test]
    fn verdicts_are_keyed_not_order_dependent() {
        let p = plane(lossy(), 7);
        let a1 = p.deliveries("done", 42, Some(1), SimTime::from_micros(1_000));
        let _ = p.deliveries("done", 99, Some(2), SimTime::from_micros(5));
        let _ = p.best_effort("hb", 3, 0, SimTime::ZERO);
        let a2 = p.deliveries("done", 42, Some(1), SimTime::from_micros(1_000));
        assert_eq!(a1, a2, "same message identity, same verdict");
        let b = p.deliveries("retry", 42, Some(1), SimTime::from_micros(1_000));
        assert_ne!(a1, b, "labels separate the streams");
    }

    /// Verdicts recorded before `SimRng` kept its seed as key words: the
    /// stream each message draws from, and the order it draws in, are
    /// pinned.
    /// Never re-record them to make a change pass.
    #[test]
    fn verdicts_are_pinned() {
        let link = LinkFaults {
            partitions: vec![ScriptedPartition {
                first_node: 0,
                last_node: 1,
                at: SimTime::ZERO,
                duration: SimDuration::from_secs(10),
            }],
            ..lossy()
        };
        let p = plane(link, 2025);
        let heartbeats = [
            ((0, 0), 11_000_000, Some(11_058_302)),
            ((2, 0), 11_000_000, None),
            ((2, 1), 12_000_000, None),
            ((3, 5), 16_000_000, None),
            ((5, 9), 20_000_000, Some(20_050_499)),
            ((7, 2), 13_000_000, None),
            ((9, 40), 51_000_000, None),
            ((1, 3), 14_000_000, Some(14_069_416)),
            // Inside the partition: lost whatever the draw.
            ((0, 3), 5_000_000, None),
        ];
        for ((node, seq), sent, arrives) in heartbeats {
            let key = (u64::from(node) << 32) | seq;
            let verdict = p.best_effort("hb", key, node, SimTime::from_micros(sent));
            assert_eq!(verdict.map(SimTime::as_micros), arrives, "hb {node}/{seq}");
        }
        let messages = [
            (("done", 1 << 8, Some(0)), (11_053_283, None, 10)),
            (("done", 5 << 8 | 1, Some(3)), (2_080_959, None, 1)),
            (("submit", 2 << 8, None), (2_069_297, None, 1)),
            (("retry", 9 << 8 | 2, None), (2_065_501, None, 1)),
            (("cancel", 4 << 8, None), (3_068_897, Some(3_067_867), 2)),
            (("hedge", 6 << 8 | 1, Some(1)), (10_067_538, None, 9)),
            (("done", 77 << 8, Some(4)), (2_051_467, Some(2_068_374), 1)),
            (("submit", 3 << 8, None), (3_055_545, None, 2)),
        ];
        for ((label, key, node), (primary, duplicate, transmissions)) in messages {
            let d = p.deliveries(label, key, node, SimTime::from_micros(2_000_000));
            assert_eq!(
                (
                    d.primary.as_micros(),
                    d.duplicate.map(SimTime::as_micros),
                    d.transmissions
                ),
                (primary, duplicate, transmissions),
                "{label} {key}"
            );
        }
    }

    #[test]
    fn delivery_is_at_least_once_even_at_saturated_drop() {
        let p = plane(
            LinkFaults {
                drop_rate: 1.0, // clamped to 0.95
                ..LinkFaults::none()
            },
            3,
        );
        for key in 0..64 {
            let d = p.deliveries("m", key, None, SimTime::ZERO);
            assert!(d.transmissions < MAX_TRANSMISSIONS);
            assert!(d.primary >= SimTime::ZERO);
        }
    }

    #[test]
    fn partition_stalls_node_traffic_until_heal_but_not_hub_traffic() {
        let heal = SimTime::from_micros(60_000_000);
        let p = plane(
            LinkFaults {
                partitions: vec![ScriptedPartition {
                    first_node: 0,
                    last_node: 3,
                    at: SimTime::ZERO,
                    duration: SimDuration::from_micros(60_000_000),
                }],
                retransmit_timeout: SimDuration::from_secs(1),
                ..LinkFaults::none()
            },
            9,
        );
        let node = p.deliveries("done", 1, Some(2), SimTime::from_micros(10));
        assert!(node.primary >= heal, "partitioned message waits for heal");
        assert!(node.transmissions > 1);
        let outside = p.deliveries("done", 1, Some(7), SimTime::from_micros(10));
        assert_eq!(outside.transmissions, 1, "node outside the window is fine");
        let hub = p.deliveries("submit", 1, None, SimTime::from_micros(10));
        assert_eq!(hub.transmissions, 1, "hub link never partitions");
        assert!(p
            .best_effort("hb", 5, 2, SimTime::from_micros(10))
            .is_none());
        assert!(p
            .best_effort("hb", 5, 2, heal + SimDuration::from_micros(1))
            .is_some());
    }

    #[test]
    fn disabled_link_yields_no_plane() {
        let plan = FaultPlan::new(FaultConfig::none(), 11);
        assert!(ControlPlane::from_plan(&plan).is_none());
        let mut on = FaultConfig::none();
        on.link.drop_rate = 0.1;
        assert!(ControlPlane::from_plan(&FaultPlan::new(on, 11)).is_some());
    }

    const SEC: u64 = 1_000_000;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A detector over `nodes` nodes, started at `t = 0` with keys from 0.
    fn detector(nodes: usize, interval_s: u64, timeout_s: u64) -> FailureDetector {
        let link = LinkFaults {
            heartbeat_interval: Some(SimDuration::from_secs(interval_s)),
            heartbeat_timeout: Some(SimDuration::from_secs(timeout_s)),
            ..LinkFaults::none()
        };
        let mut fd = FailureDetector::new(&link, nodes).expect("both knobs set");
        assert_eq!(fd.keys_per_start(), nodes as u64);
        assert_eq!(
            fd.start(SimTime::ZERO, 0),
            (at(interval_s * SEC), nodes as u64 - 1),
            "the first round stands in for the last node's first send"
        );
        fd
    }

    /// One round with every node up and unsuspected; `latency[node]` is
    /// the heartbeat's one-way latency in microseconds, `None` a drop.
    fn round(
        fd: &mut FailureDetector,
        now: u64,
        base: u64,
        latency: &[Option<u64>],
    ) -> (Round, Vec<Wake>) {
        let up = vec![false; latency.len()];
        let mut wakes = Vec::new();
        let r = fd.round(
            at(now),
            base,
            &up,
            &up,
            |node, _| latency[node as usize].map(|l| at(now + l)),
            &mut wakes,
        );
        (r, wakes)
    }

    #[test]
    fn detector_needs_both_knobs() {
        let mut link = LinkFaults::none();
        assert!(FailureDetector::new(&link, 4).is_none());
        link.heartbeat_interval = Some(SimDuration::from_secs(1));
        link.heartbeat_timeout = Some(SimDuration::from_secs(3));
        assert!(FailureDetector::new(&link, 4).is_some());
    }

    #[test]
    fn quiet_rounds_fold_every_arrival_and_schedule_nothing() {
        let mut fd = detector(3, 10, 30);
        for tick in 1..=20u64 {
            let base = 100 * tick;
            let (r, wakes) = round(&mut fd, tick * 10 * SEC, base, &[Some(50_000); 3]);
            assert_eq!((r.sent, r.delivered), (3, 3));
            assert_eq!(
                r.next,
                (at((tick + 1) * 10 * SEC), base + fd.keys_per_round() - 1)
            );
            assert_eq!(wakes, [], "tick {tick}");
        }
    }

    #[test]
    fn arrival_is_scheduled_for_a_suspected_node_or_an_occupied_slot() {
        let mut fd = detector(3, 10, 30);
        let mut wakes = Vec::new();
        // Node 1 is suspected: its arrival may resync, so it is an event,
        // under the key its event-per-heartbeat twin would have had.
        fd.round(
            at(10 * SEC),
            100,
            &[false; 3],
            &[false, true, false],
            |_, _| Some(at(10 * SEC + 7)),
            &mut wakes,
        );
        let arrive = |node: u32, t: u64, key: u64| Wake {
            at: at(t),
            key,
            node,
            kind: WakeKind::Arrive,
        };
        assert_eq!(wakes, [arrive(1, 10 * SEC + 7, 100 + 3)]);
        // Node 0's next heartbeat takes 15 s: still folded at the round
        // after, whose own arrival therefore cannot be.
        let (_, wakes) = round(&mut fd, 20 * SEC, 200, &[Some(15 * SEC), Some(7), Some(7)]);
        assert_eq!(wakes, []);
        let (_, wakes) = round(&mut fd, 30 * SEC, 300, &[Some(7); 3]);
        assert_eq!(wakes, [arrive(0, 30 * SEC + 7, 300)]);
        // Once the slow one has landed the slot is free again.
        let (_, wakes) = round(&mut fd, 40 * SEC, 400, &[Some(7); 3]);
        assert_eq!(wakes, []);
    }

    #[test]
    fn a_check_is_scheduled_exactly_when_silence_is_certain() {
        // Node 0's heartbeat of the first round arrives with no latency,
        // node 1's a microsecond late; both then go silent.
        let mut fd = detector(2, 10, 30);
        let (_, wakes) = round(&mut fd, 10 * SEC, 100, &[Some(0), Some(1)]);
        assert_eq!(wakes, []);
        let (_, wakes) = round(&mut fd, 20 * SEC, 200, &[None, None]);
        assert_eq!(wakes, []);
        // The round at 30 s decides the check armed at 10 s (due at 40 s,
        // by the next round): `heard + timeout <= check` holds for node 0
        // to the microsecond and fails for node 1 by one.
        let (_, wakes) = round(&mut fd, 30 * SEC, 300, &[None, None]);
        let check = |node: u32, t: u64, key: u64| Wake {
            at: at(t),
            key,
            node,
            kind: WakeKind::Check,
        };
        assert_eq!(wakes, [check(0, 40 * SEC, 100 + 1)]);
        assert!(fd.silent(0, at(40 * SEC)));
        assert!(!fd.silent(1, at(40 * SEC)));
        // One round on, the check armed at 20 s finds both silent.
        let (_, wakes) = round(&mut fd, 40 * SEC, 400, &[None, None]);
        assert_eq!(
            wakes,
            [check(0, 50 * SEC, 200 + 1), check(1, 50 * SEC, 200 + 3 + 1)]
        );
        assert!(fd.silent(1, at(50 * SEC)));
    }

    #[test]
    fn a_timeout_shorter_than_the_interval_is_decided_by_its_own_round() {
        let mut fd = detector(2, 10, 4);
        // Arrival after 3 s beats the 4 s check; a drop does not.
        let (_, wakes) = round(&mut fd, 10 * SEC, 100, &[Some(3 * SEC), None]);
        assert_eq!(
            wakes,
            [Wake {
                at: at(14 * SEC),
                key: 100 + 3 + 1,
                node: 1,
                kind: WakeKind::Check,
            }]
        );
        assert!(fd.silent(1, at(14 * SEC)));
        assert!(!fd.silent(0, at(14 * SEC)));
    }

    #[test]
    fn an_arrival_on_an_earlier_check_instant_is_never_folded() {
        // interval 10 s, timeout 30 s: the heartbeat sent at 30 s with
        // 10 s latency lands on 40 s, where the check armed at 10 s runs
        // BEFORE it. Folded, it would count as heard at that check.
        let mut fd = detector(1, 10, 30);
        for tick in 1..=2 {
            round(&mut fd, tick * 10 * SEC, 100 * tick, &[None]);
        }
        let (_, wakes) = round(&mut fd, 30 * SEC, 300, &[Some(10 * SEC)]);
        assert_eq!(wakes.len(), 2, "{wakes:?}");
        assert_eq!(
            (wakes[0].kind, wakes[0].at, wakes[0].key),
            (WakeKind::Arrive, at(40 * SEC), 300)
        );
        assert_eq!(
            (wakes[1].kind, wakes[1].at, wakes[1].key),
            (WakeKind::Check, at(40 * SEC), 100 + 1)
        );
        assert!(wakes[1].key < wakes[0].key, "the check sorts first");
        assert!(fd.silent(0, at(40 * SEC)));
        // A heartbeat with no latency is a different matter: every earlier
        // round's check at its instant has run before the round does.
        let (_, wakes) = round(&mut fd, 40 * SEC, 400, &[Some(0)]);
        assert_eq!(wakes, []);
    }

    #[test]
    fn suspicion_unfolds_an_arrival_that_is_still_to_come() {
        let mut fd = detector(1, 10, 30);
        round(&mut fd, 10 * SEC, 100, &[Some(5 * SEC)]);
        // Suspected at 12 s: the fold (due at 15 s) becomes an event with
        // the key it was folded under. It is handed back once.
        assert_eq!(
            fd.unfold(0, at(12 * SEC)),
            Some(Wake {
                at: at(15 * SEC),
                key: 100,
                node: 0,
                kind: WakeKind::Arrive,
            })
        );
        assert_eq!(fd.unfold(0, at(12 * SEC)), None);
        // One that has landed already was heard: nothing to hand back.
        round(&mut fd, 20 * SEC, 200, &[Some(SEC)]);
        assert_eq!(fd.unfold(0, at(25 * SEC)), None);
        assert!(!fd.silent(0, at(50 * SEC)), "heard at 21 s");
        assert!(fd.silent(0, at(51 * SEC)));
    }

    #[test]
    fn a_crashed_node_sends_nothing_and_a_recovery_counts_as_heard() {
        let mut fd = detector(2, 10, 30);
        let mut keys = Vec::new();
        let mut wakes = Vec::new();
        for tick in 1..=4u64 {
            let r = fd.round(
                at(tick * 10 * SEC),
                100 * tick,
                &[false, true],
                &[false, false],
                |node, key| {
                    keys.push((node, key));
                    Some(at(tick * 10 * SEC))
                },
                &mut wakes,
            );
            assert_eq!((r.sent, r.delivered), (1, 1));
        }
        assert_eq!(
            keys,
            [(0, 0), (0, 1), (0, 2), (0, 3)],
            "only node 0 draws a verdict"
        );
        // Node 1's silence is certain from the check armed at 10 s on.
        assert!(
            wakes
                .iter()
                .all(|w| w.node == 1 && w.kind == WakeKind::Check),
            "{wakes:?}"
        );
        assert_eq!(
            wakes.iter().map(|w| w.at).collect::<Vec<_>>(),
            [at(40 * SEC), at(50 * SEC)]
        );
        assert!(fd.silent(1, at(40 * SEC)));
        // It recovers at 45 s: a fresh grace period, and its sequence
        // numbers kept counting through the outage.
        fd.heard(1, at(45 * SEC));
        assert!(!fd.silent(1, at(50 * SEC)));
        let mut seen = Vec::new();
        let mut wakes = Vec::new();
        fd.round(
            at(50 * SEC),
            500,
            &[false, false],
            &[false, false],
            |node, key| {
                seen.push((node, key));
                Some(at(50 * SEC))
            },
            &mut wakes,
        );
        assert_eq!(seen, [(0, 4), (1, (1 << 32) | 4)]);
        assert_eq!(
            wakes,
            [],
            "the check armed at 30 s finds node 1 heard at 45 s"
        );
    }

    #[test]
    fn retire_drops_undecided_checks_and_restart_grants_fresh_grace() {
        let mut fd = detector(1, 10, 30);
        round(&mut fd, 10 * SEC, 100, &[None]);
        round(&mut fd, 20 * SEC, 200, &[None]);
        assert!(fd.live());
        fd.retire();
        assert!(!fd.live());
        // Restarted at 33 s: nothing is suspected for silence that
        // predates the restart, ...
        assert_eq!(fd.start(at(33 * SEC), 900), (at(43 * SEC), 900));
        assert!(
            !fd.silent(0, at(40 * SEC)),
            "a stale check from before the restart is a no-op"
        );
        assert!(!fd.silent(0, at(50 * SEC)));
        // ... the first rounds decide nothing (the checks armed at 10 s and
        // 20 s are gone), and message keys carry on where they stopped.
        let mut keys = Vec::new();
        let mut wakes = Vec::new();
        for tick in 0..2u64 {
            fd.round(
                at((43 + 10 * tick) * SEC),
                1_000 + 100 * tick,
                &[false],
                &[false],
                |_, key| {
                    keys.push(key);
                    None
                },
                &mut wakes,
            );
        }
        assert_eq!(keys, [2, 3]);
        assert_eq!(wakes, []);
        assert!(fd.silent(0, at(63 * SEC)), "33 s + timeout");
    }

    #[test]
    fn lossless_plane_adds_only_configured_delay() {
        let p = plane(
            LinkFaults {
                delay: SimDuration::from_micros(1_000),
                ..LinkFaults::none()
            },
            5,
        );
        let d = p.deliveries("m", 0, Some(0), SimTime::from_micros(500));
        assert_eq!(d.primary, SimTime::from_micros(1_500));
        assert_eq!(d.duplicate, None);
        assert_eq!(d.transmissions, 1);
    }

    /// The reference the lane is proved against: the event-per-heartbeat
    /// detector, every send, arrival and check an event of its own. Both
    /// run over the same kind of queue — an ordered map keyed by (instant,
    /// order key) — under the same script of crashes, recoveries and busy
    /// and idle spells, and must leave the same effects under the same
    /// keys.
    mod model {
        use super::*;
        use impress_sim::props;
        use std::collections::BTreeMap;

        /// What a detector does that the rest of the engine can see.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Effect {
            /// A heartbeat left `node`; when it arrives, unless it is lost.
            Sent { node: u32, arrives: Option<SimTime> },
            /// A check found `node` silent for a full timeout.
            Suspect(u32),
            /// An arrival cleared `node`'s suspicion.
            Resync(u32),
        }

        /// What happens around the detector.
        #[derive(Debug, Clone, Copy)]
        enum Env {
            Crash(u32),
            Recover(u32),
            /// Work is in flight: (re)start the detector.
            Busy,
            /// Nothing is in flight: the next tick retires the detector.
            Idle,
        }

        #[derive(Debug, Clone, Copy)]
        enum Ev {
            /// Per event: one node's heartbeat tick.
            Tick(u32),
            /// Lane: one tick for every node.
            Round,
            Arrive(u32),
            Check(u32),
            /// The script's entry at this index.
            Env(usize),
        }

        /// One effect, at its instant, under the key of the event it
        /// belongs to.
        type Trace = Vec<(SimTime, u64, Effect)>;

        struct Case {
            nodes: usize,
            link: LinkFaults,
            /// Time-ordered; the last entry is `Idle`.
            script: Vec<(SimTime, Env)>,
            /// `(node, from, to)`: every heartbeat sent inside is lost.
            silences: Vec<(u32, SimTime, SimTime)>,
            drop: f64,
            /// One-way latency, or `None` for a fresh draw below
            /// `2 × interval` per heartbeat.
            latency: Option<SimDuration>,
            seed: u64,
        }

        impl Case {
            /// The seeded, order-independent fate of heartbeat `key` sent
            /// by `node` at `now`.
            fn verdict(&self, node: u32, key: u64, now: SimTime) -> Option<SimTime> {
                let silenced = self
                    .silences
                    .iter()
                    .any(|&(n, from, to)| n == node && from <= now && now < to);
                let mut rng = SimRng::from_seed(self.seed).fork_idx("hb", key);
                if silenced || rng.uniform() < self.drop {
                    return None;
                }
                let interval = self.link.heartbeat_interval.expect("set").as_micros();
                let latency = self.latency.unwrap_or_else(|| {
                    SimDuration::from_micros(rng.below(2 * interval as usize) as u64)
                });
                Some(now + latency)
            }
        }

        /// The queue and what a detector may read but not change.
        struct Cell<'a> {
            case: &'a Case,
            queue: BTreeMap<(SimTime, u64), Ev>,
            next_key: u64,
            crashed: Vec<bool>,
            suspected: Vec<bool>,
            busy: bool,
            trace: Trace,
        }

        impl Cell<'_> {
            fn reserve(&mut self, n: u64) -> u64 {
                self.next_key += n;
                self.next_key - n
            }

            fn schedule(&mut self, at: SimTime, ev: Ev) {
                let key = self.reserve(1);
                self.keyed(at, key, ev);
            }

            fn keyed(&mut self, at: SimTime, key: u64, ev: Ev) {
                let taken = self.queue.insert((at, key), ev);
                assert!(taken.is_none(), "two events under ({at}, {key})");
            }
        }

        /// A heartbeat clock: its ticks, and the liveness it keeps.
        trait Clock {
            /// Start ticking at `now` unless already ticking.
            fn start(&mut self, cell: &mut Cell, now: SimTime);
            /// A [`Ev::Tick`] or [`Ev::Round`] fired under `key`.
            fn tick(&mut self, cell: &mut Cell, now: SimTime, key: u64, ev: Ev);
            fn heard(&mut self, node: u32, now: SimTime);
            fn silent(&self, node: u32, now: SimTime) -> bool;
            /// `node` became suspected at `now`.
            fn suspect(&mut self, _cell: &mut Cell, _node: u32, _now: SimTime) {}
        }

        /// The event-per-heartbeat detector. Every send schedules its
        /// arrival, its check and its next send under three consecutive
        /// keys. Numbering by queue id would skip the key of an arrival
        /// that never comes; keeping it moves no event's order and makes
        /// the two clocks' keys comparable.
        struct PerEvent {
            interval: SimDuration,
            timeout: SimDuration,
            live: bool,
            last_heard: Vec<SimTime>,
            hb_seq: Vec<u64>,
        }

        impl Clock for PerEvent {
            fn start(&mut self, cell: &mut Cell, now: SimTime) {
                if std::mem::replace(&mut self.live, true) {
                    return;
                }
                self.last_heard.fill(now);
                for node in 0..cell.case.nodes as u32 {
                    cell.schedule(now + self.interval, Ev::Tick(node));
                }
            }

            fn tick(&mut self, cell: &mut Cell, now: SimTime, key: u64, ev: Ev) {
                let Ev::Tick(node) = ev else {
                    unreachable!("{ev:?}")
                };
                if !cell.busy {
                    self.live = false;
                    return;
                }
                let i = node as usize;
                let seq = self.hb_seq[i];
                self.hb_seq[i] += 1;
                let base = cell.reserve(KEYS_PER_NODE);
                if !cell.crashed[i] {
                    let arrives = cell.case.verdict(node, (u64::from(node) << 32) | seq, now);
                    cell.trace.push((now, key, Effect::Sent { node, arrives }));
                    if let Some(at) = arrives {
                        cell.keyed(at, base, Ev::Arrive(node));
                    }
                }
                cell.keyed(now + self.timeout, base + 1, Ev::Check(node));
                cell.keyed(now + self.interval, base + 2, Ev::Tick(node));
            }

            fn heard(&mut self, node: u32, now: SimTime) {
                self.last_heard[node as usize] = now;
            }

            fn silent(&self, node: u32, now: SimTime) -> bool {
                self.last_heard[node as usize] + self.timeout <= now
            }
        }

        /// The lane under test.
        struct Lane {
            fd: FailureDetector,
            /// Keys between two nodes' sends in the tick the next round
            /// stands for: 1 after a start, 3 after a round.
            stride: u64,
        }

        impl Clock for Lane {
            fn start(&mut self, cell: &mut Cell, now: SimTime) {
                if self.fd.live() {
                    return;
                }
                let base = cell.reserve(self.fd.keys_per_start());
                let (at, key) = self.fd.start(now, base);
                self.stride = 1;
                cell.keyed(at, key, Ev::Round);
            }

            fn tick(&mut self, cell: &mut Cell, now: SimTime, key: u64, _: Ev) {
                if !cell.busy {
                    self.fd.retire();
                    return;
                }
                let base = cell.reserve(self.fd.keys_per_round());
                let case = cell.case;
                let (mut sends, mut wakes) = (Vec::new(), Vec::new());
                let round = self.fd.round(
                    now,
                    base,
                    &cell.crashed,
                    &cell.suspected,
                    |node, msg| {
                        let arrives = case.verdict(node, msg, now);
                        sends.push((node, arrives));
                        arrives
                    },
                    &mut wakes,
                );
                let delivered = sends.iter().filter(|(_, a)| a.is_some()).count();
                assert_eq!(
                    (round.sent, round.delivered),
                    (sends.len() as u64, delivered as u64)
                );
                // The round stands in for the last node's send; each other
                // node's send sits `stride` keys before the next one's.
                let last = case.nodes as u64 - 1;
                for (node, arrives) in sends {
                    let at = key - self.stride * (last - u64::from(node));
                    cell.trace.push((now, at, Effect::Sent { node, arrives }));
                }
                self.stride = KEYS_PER_NODE;
                for wake in wakes {
                    let ev = match wake.kind {
                        WakeKind::Arrive => Ev::Arrive(wake.node),
                        WakeKind::Check => Ev::Check(wake.node),
                    };
                    cell.keyed(wake.at, wake.key, ev);
                }
                cell.keyed(round.next.0, round.next.1, Ev::Round);
            }

            fn heard(&mut self, node: u32, now: SimTime) {
                self.fd.heard(node, now);
            }

            fn silent(&self, node: u32, now: SimTime) -> bool {
                self.fd.silent(node, now)
            }

            fn suspect(&mut self, cell: &mut Cell, node: u32, now: SimTime) {
                if let Some(wake) = self.fd.unfold(node, now) {
                    cell.keyed(wake.at, wake.key, Ev::Arrive(node));
                }
            }
        }

        /// Run `case` under `clock`; what an arrival, a check and the
        /// script do is the engine's (`backend::des`), written once here.
        fn run(case: &Case, clock: &mut impl Clock) -> Trace {
            let mut cell = Cell {
                case,
                queue: BTreeMap::new(),
                next_key: 0,
                crashed: vec![false; case.nodes],
                suspected: vec![false; case.nodes],
                busy: false,
                trace: Vec::new(),
            };
            cell.schedule(case.script[0].0, Ev::Env(0));
            while let Some(((now, key), ev)) = cell.queue.pop_first() {
                match ev {
                    Ev::Tick(_) | Ev::Round => clock.tick(&mut cell, now, key, ev),
                    Ev::Arrive(node) => {
                        clock.heard(node, now);
                        let i = node as usize;
                        if cell.suspected[i] && !cell.crashed[i] {
                            cell.suspected[i] = false;
                            cell.trace.push((now, key, Effect::Resync(node)));
                        }
                    }
                    Ev::Check(node) => {
                        let i = node as usize;
                        if cell.busy
                            && !cell.suspected[i]
                            && !cell.crashed[i]
                            && clock.silent(node, now)
                        {
                            cell.suspected[i] = true;
                            cell.trace.push((now, key, Effect::Suspect(node)));
                            clock.suspect(&mut cell, node, now);
                        }
                    }
                    Ev::Env(i) => {
                        match case.script[i].1 {
                            Env::Crash(node) => cell.crashed[node as usize] = true,
                            Env::Recover(node) => {
                                cell.crashed[node as usize] = false;
                                cell.suspected[node as usize] = false;
                                clock.heard(node, now);
                            }
                            Env::Busy => {
                                cell.busy = true;
                                clock.start(&mut cell, now);
                            }
                            Env::Idle => cell.busy = false,
                        }
                        // Scheduled as it comes due, so script entries take
                        // keys among the detector's own.
                        if let Some(&(at, _)) = case.script.get(i + 1) {
                            cell.schedule(at, Ev::Env(i + 1));
                        }
                    }
                }
            }
            // The lane records a tick's sends at its round, under the keys
            // of the sends it stands in for.
            cell.trace.sort();
            cell.trace
        }

        fn draw(rng: &mut SimRng) -> Case {
            let nodes = 1 + rng.below(6);
            let interval = (1 + rng.below(4) as u64) * SEC;
            let us = |rng: &mut SimRng, below: u64| rng.below(below as usize) as u64;
            let timeout = match rng.below(3) {
                // Multiples, the interval itself included: checks land on
                // round instants.
                0 => interval * (1 + us(rng, 6)),
                // Off the grid.
                1 => interval * (1 + us(rng, 4)) + 1 + us(rng, interval - 1),
                // Shorter than the interval: decided by its own round.
                _ => 1 + us(rng, interval - 1),
            };
            let latency = match rng.below(6) {
                0 => Some(0),
                1 => Some(1 + us(rng, interval - 1)),
                2 => Some(interval * (1 + us(rng, 2))),
                3 => Some(interval + 1 + us(rng, interval)),
                // On the instant of an earlier round's check.
                4 if timeout > interval => {
                    let earlier = 1 + us(rng, (timeout - 1) / interval);
                    Some(timeout - earlier * interval)
                }
                _ => None,
            };
            // Script instants on the round grid half the time.
            let instant = |rng: &mut SimRng, from: u64, span: u64| {
                let t = from + us(rng, span / SEC + 1) * SEC;
                SimTime::from_micros(if rng.below(2) == 0 {
                    t
                } else {
                    t + us(rng, SEC)
                })
            };
            let horizon = 60 * interval;
            let mut script = vec![(SimTime::ZERO, Env::Busy)];
            let mut t = 0;
            for _ in 0..rng.below(4) {
                let idle = instant(rng, t, horizon / 4);
                let busy = instant(rng, idle.as_micros(), 4 * interval);
                script.push((idle, Env::Idle));
                script.push((busy, Env::Busy));
                t = busy.as_micros();
            }
            for _ in 0..rng.below(4) {
                let node = rng.below(nodes) as u32;
                let crash = instant(rng, 0, horizon);
                let recover = instant(rng, crash.as_micros() + 1, 10 * interval);
                script.push((crash, Env::Crash(node)));
                script.push((recover, Env::Recover(node)));
            }
            script.sort_by_key(|&(at, _)| at);
            let end = instant(
                rng,
                script.last().expect("busy at 0").0.as_micros(),
                horizon,
            );
            script.push((end, Env::Idle));
            let silences = (0..rng.below(4))
                .map(|_| {
                    let from = instant(rng, 0, horizon);
                    let to = instant(rng, from.as_micros(), 12 * interval);
                    (rng.below(nodes) as u32, from, to)
                })
                .collect();
            Case {
                nodes,
                link: LinkFaults {
                    heartbeat_interval: Some(SimDuration::from_micros(interval)),
                    heartbeat_timeout: Some(SimDuration::from_micros(timeout)),
                    ..LinkFaults::none()
                },
                script,
                silences,
                drop: [0.0, 0.1, 0.4][rng.below(3)],
                latency: latency.map(SimDuration::from_micros),
                seed: rng.next_u64(),
            }
        }

        /// The model's trace and the lane's.
        fn both(case: &Case) -> (Trace, Trace) {
            let fd = FailureDetector::new(&case.link, case.nodes).expect("both knobs set");
            let mut per_event = PerEvent {
                interval: fd.interval,
                timeout: fd.timeout,
                live: false,
                last_heard: vec![SimTime::ZERO; case.nodes],
                hb_seq: vec![0; case.nodes],
            };
            let mut lane = Lane { fd, stride: 1 };
            (run(case, &mut per_event), run(case, &mut lane))
        }

        props! {
            /// Random detectors, scripts and links: the lane suspects,
            /// resyncs, sends and delivers exactly what the event-per-
            /// heartbeat model does, each under the same key.
            fn the_lane_leaves_the_trace_of_an_event_per_heartbeat_detector(rng) {
                let case = draw(rng);
                let (model, lane) = both(&case);
                assert_eq!(model, lane);
            }
        }

        /// The draw reaches what the property is about: suspicions,
        /// resyncs, lost heartbeats and restarts after a retire.
        #[test]
        fn the_drawn_cases_suspect_resync_and_restart() {
            let mut rng = SimRng::from_seed(11);
            let (mut suspects, mut resyncs, mut lost, mut restarts) = (0, 0, 0, 0);
            for _ in 0..64 {
                let case = draw(&mut rng);
                let (trace, _) = both(&case);
                for (_, _, effect) in &trace {
                    match effect {
                        Effect::Suspect(_) => suspects += 1,
                        Effect::Resync(_) => resyncs += 1,
                        Effect::Sent { arrives: None, .. } => lost += 1,
                        Effect::Sent { .. } => {}
                    }
                }
                restarts += case
                    .script
                    .iter()
                    .filter(|(_, e)| matches!(e, Env::Busy))
                    .count()
                    - 1;
            }
            assert!(
                suspects > 1000 && resyncs > 1000 && lost > 1000 && restarts > 50,
                "{suspects} suspicions, {resyncs} resyncs, {lost} lost, {restarts} restarts"
            );
        }
    }
}
