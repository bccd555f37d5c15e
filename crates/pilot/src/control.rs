//! The seeded control plane: a message-layer fault model for
//! coordinator↔node traffic.
//!
//! The paper's middleware splits the design loop (client) from the pilot
//! runtime (agent) across a real network; every control message — task
//! submission, cancellation, completion reports, retry verdicts,
//! heartbeats — can be dropped, duplicated, delayed or reordered, and a
//! partition can sever the coordinator from a whole node group for
//! minutes. `ControlPlane` realizes a [`LinkFaults`] config as *pure,
//! seeded per-message verdicts*: given a stable message identity (a label
//! plus a numeric key), it answers "when does this message arrive, and
//! does it arrive twice?" deterministically, independent of call order.
//! All three backends route their control traffic through one of these,
//! so a single seed produces the same message history everywhere.
//!
//! Two delivery disciplines:
//!
//! * `ControlPlane::deliveries` — at-least-once: a dropped or
//!   partitioned transmission retransmits every
//!   `RETRANSMIT_TIMEOUT` (one second) until one gets through (messages
//!   are never lost, only late — the dedup layer above makes the *effects*
//!   exactly-once). Used for submits, completion reports, cancels and
//!   retry verdicts.
//! * `ControlPlane::best_effort` — fire-and-forget: a dropped or
//!   partitioned heartbeat is simply gone. That silence is the signal the
//!   failure detector thrives on.
//!
//! Determinism: each message forks the plane's RNG on
//! `(label, key)` — never on the order backends happen to ask — so the
//! three backends draw identical verdicts for identical traffic.
//!
//! The heartbeat failure detector built on `best_effort` is
//! `FailureDetector`: a lane driven by one engine event per tick that
//! puts on the queue only what can be observed and draws a heartbeat's
//! verdict only when a decision needs it. It is the one heartbeat
//! clock, ticked by the shared core (`backend::des`) on every driver; what
//! an arrival or a check *does* is the core's too. Its reference, the
//! event-per-heartbeat detector it replaced, lives on as the model in
//! this module's tests.

use crate::fault::{FaultPlan, LinkFaults, RETRANSMIT_TIMEOUT};
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
pub(crate) struct Deliveries {
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
pub(crate) struct ControlPlane {
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
    pub(crate) fn from_plan(plan: &FaultPlan) -> Option<Self> {
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
    pub(crate) fn partitioned(&self, node: u32, t: SimTime) -> bool {
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
    /// drop draw retransmit after [`RETRANSMIT_TIMEOUT`];
    /// the first one through fixes the arrival.
    pub(crate) fn deliveries(
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
        let mut t = sent;
        let mut transmissions = 0u32;
        let through = loop {
            transmissions += 1;
            let blocked = node.is_some_and(|n| self.partitioned(n, t));
            let dropped = drop > 0.0 && rng.uniform() < drop;
            if (!blocked && !dropped) || transmissions >= MAX_TRANSMISSIONS {
                break t;
            }
            t += RETRANSMIT_TIMEOUT;
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
    pub(crate) fn best_effort(
        &self,
        label: &str,
        key: u64,
        node: u32,
        sent: SimTime,
    ) -> Option<SimTime> {
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

/// The most a heartbeat can take to arrive under `link`:
/// [`ControlPlane::latency`]'s base delay, its jitter, and its reorder span
/// when reordering is on.
fn max_latency(link: &LinkFaults) -> SimDuration {
    let span = if link.reorder_rate > 0.0 {
        if link.jitter > SimDuration::ZERO {
            link.jitter
        } else {
            link.delay
        }
    } else {
        SimDuration::ZERO
    };
    link.delay.saturating_add(link.jitter).saturating_add(span)
}

/// Order keys a round reserves per node: its arrival, its check and its
/// next send, in the order the event-per-heartbeat form schedules them.
const KEYS_PER_NODE: u64 = 3;

/// The `visit` of a node that every round visits.
const EVERY_ROUND: u64 = u64::MAX;

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
    /// Heartbeats emitted: one per uncrashed node.
    pub(crate) sent: u64,
    /// When the next round is due, and its order key.
    pub(crate) next: (SimTime, u64),
}

/// A drawn heartbeat that lands, kept in the lane instead of on the
/// event queue.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    sent: SimTime,
    /// The order key of its event-per-heartbeat twin.
    key: u64,
}

impl Arrival {
    /// Whether the check due at `check` hears this arrival: it lands in
    /// the window `(check - timeout, check]` and sorts before the check.
    /// On the check's own instant it does so exactly when it was sent no
    /// later than the round that armed the check, whose keys come first.
    fn heard_by(&self, check: SimTime, timeout: SimDuration) -> bool {
        self.at + timeout > check
            && (self.at < check || (self.at == check && self.sent + timeout <= check))
    }
}

/// A round whose sends may still land in a check's window: its instant
/// and the first of its reserved keys.
#[derive(Debug, Clone, Copy)]
struct Tick {
    at: SimTime,
    base: u64,
}

#[derive(Debug, Clone)]
struct NodeLane {
    /// Latest arrival, recovery or restart known to have happened.
    last_heard: SimTime,
    /// Drawn arrivals at or after the lane's last look, unscheduled.
    known: Vec<Arrival>,
    /// The node's draw bits are current for every round before this one.
    mark: u64,
    /// The round that visits the node next, or [`EVERY_ROUND`].
    visit: u64,
    /// Suspected, as far as the lane knows: its arrivals are scheduled,
    /// since any of them may resync it.
    suspected: bool,
}

impl NodeLane {
    /// Whether what the lane knows of this node defuses the check due at
    /// `check`.
    fn covers(&self, check: SimTime, timeout: SimDuration) -> bool {
        self.last_heard + timeout > check || self.known.iter().any(|a| a.heard_by(check, timeout))
    }
}

/// The check instant one round armed for every node, and that round's
/// first order key.
#[derive(Debug, Clone, Copy)]
struct Armed {
    check: SimTime,
    base: u64,
}

/// Which sends the lane has drawn: per node, `words` words of a ring over
/// round numbers. A set bit is a send already drawn, or one never made
/// (the node was down in that round).
#[derive(Debug, Clone)]
struct Draws {
    bits: Vec<u64>,
    words: usize,
}

impl Draws {
    fn slot(&self, node: usize, round: u64) -> (usize, u64) {
        let at = (round % (64 * self.words as u64)) as usize;
        (node * self.words + at / 64, 1 << (at % 64))
    }

    /// Mark `node`'s sends from `*mark` up to `round` (exclusive)
    /// undrawn: rounds that did not visit it saw it up.
    fn catch_up(&mut self, node: usize, mark: &mut u64, round: u64) {
        let from = (*mark).max(round.saturating_sub(64 * self.words as u64));
        for r in from..round {
            let (word, bit) = self.slot(node, r);
            self.bits[word] &= !bit;
        }
        *mark = round;
    }

    /// Whether `node`'s send in `round` is drawn (or was never made).
    fn drawn(&self, node: usize, round: u64) -> bool {
        let (word, bit) = self.slot(node, round);
        self.bits[word] & bit != 0
    }

    /// Mark `node`'s send in `round` drawn; whether it was not before.
    fn take(&mut self, node: usize, round: u64) -> bool {
        let fresh = !self.drawn(node, round);
        let (word, bit) = self.slot(node, round);
        self.bits[word] |= bit;
        fresh
    }
}

/// The heartbeat failure detector as a lane: every node's send, arrival
/// and timeout check for one tick, driven by ONE engine event per tick,
/// drawing a heartbeat's verdict only when a decision needs it.
///
/// The event-per-heartbeat form (this module's tests keep it as the
/// model) schedules three queue events per node per tick and draws every
/// verdict. Almost none of it is observed: an arrival at an unsuspected
/// node only moves `last_heard`, and one arrival defuses every check
/// whose window `(check - timeout, check]` holds it. The lane decides
/// each node's checks in order and hands the engine a [`Wake`] only for
/// what can be observed:
///
/// * **Cover and skip.** A round decides every check due by the next
///   round (all arrivals that sort before such a check were sent by now).
///   A node's known arrivals *cover* it for every check they land in; a
///   round visits a node only when its cover ends, and skips it
///   otherwise — no visit, no draw. Its sends are only counted.
/// * **Draw on demand.** A check the known arrivals do not cover draws
///   the node's undrawn sends newest first, `verdict(node, message key,
///   sent)`, and stops at the first one it hears. What lands is kept as a
///   known arrival. If none defuses the check, it is scheduled; it
///   evaluates [`FailureDetector::silent`] at fire time, which draws what
///   could still land in its window, so a stale "might fire" costs one
///   no-op event and never a wrong verdict.
/// * **Resyncs.** A suspected node draws every send at its round, and its
///   arrivals are scheduled, since any of them may resync it. When a node
///   becomes suspected, [`FailureDetector::unfold`] schedules its kept
///   arrivals still to come; the check that suspected it has just drawn
///   every send that could land from then on.
/// * **Crashes.** A crashed node sends nothing: every round visits it
///   until it is back, marking its send as never made. Its checks armed
///   before the round are not decided: the recovery that must come before
///   any of them could fire covers it.
/// * **Bounded state.** A send older than `now - timeout - max latency`
///   (the latency bound of [`LinkFaults`]: delay, jitter and the reorder
///   span) can land in no open window and is forgotten.
///
/// A drawn verdict is the model's verdict for the same send, so every
/// suspicion and resync is exact; only sends that decide nothing are
/// never drawn.
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
    /// Upper bound on a heartbeat's one-way latency.
    reach: SimDuration,
    /// Rounds run so far: the next round's message sequence number.
    seq: u64,
    /// Rounds whose sends may still land in a window, oldest first; the
    /// last is round `seq - 1`.
    ticks: VecDeque<Tick>,
    /// Check instants not yet decided, oldest first.
    armed: VecDeque<Armed>,
    lanes: Vec<NodeLane>,
    draws: Draws,
    /// Nodes to visit, in a ring of buckets indexed by round.
    calendar: Vec<Vec<u32>>,
    /// Nodes every round visits: crashed or suspected ones.
    watch: Vec<u32>,
    /// Each node's crash state as the last round saw it.
    down: Vec<bool>,
    /// Uncrashed nodes as the last round saw them.
    up: u64,
    live: bool,
}

impl FailureDetector {
    /// The detector `link` calls for: `Some` when a heartbeat interval and
    /// timeout are configured ([`LinkFaults::validate`] has made sure it
    /// is both or neither, and neither is zero).
    pub(crate) fn new(link: &LinkFaults, nodes: usize) -> Option<Self> {
        let (interval, timeout) = (link.heartbeat_interval?, link.heartbeat_timeout?);
        debug_assert!(interval > SimDuration::ZERO && timeout > SimDuration::ZERO);
        let reach = max_latency(link);
        // Rounds spaced at least an interval apart that a send stays
        // relevant for, and how far ahead a node's next visit can be.
        let span = ((reach + timeout).as_micros() / interval.as_micros()) as usize;
        let words = (span + 2).div_ceil(64);
        Some(FailureDetector {
            interval,
            timeout,
            reach,
            seq: 0,
            ticks: VecDeque::new(),
            armed: VecDeque::new(),
            lanes: vec![
                NodeLane {
                    last_heard: SimTime::ZERO,
                    known: Vec::new(),
                    mark: 0,
                    visit: 0,
                    suspected: false,
                };
                nodes
            ],
            draws: Draws {
                bits: vec![0; nodes * words],
                words,
            },
            calendar: vec![Vec::new(); span + 3],
            watch: Vec::new(),
            down: vec![false; nodes],
            up: nodes as u64,
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
    /// the detector, and is first visited by the round that decides the
    /// first check. `base` is the first of the reserved keys. Returns the
    /// first round's instant and key.
    pub(crate) fn start(&mut self, now: SimTime, base: u64) -> (SimTime, u64) {
        self.live = true;
        let first = self.seq + self.timeout.as_micros().div_ceil(self.interval.as_micros()) - 1;
        self.calendar.iter_mut().for_each(Vec::clear);
        let bucket = self.bucket(first);
        for (node, lane) in self.lanes.iter_mut().enumerate() {
            lane.last_heard = now;
            if lane.visit != EVERY_ROUND {
                lane.visit = first;
                self.calendar[bucket].push(node as u32);
            }
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
        let lane = &mut self.lanes[node as usize];
        lane.last_heard = lane.last_heard.max(now);
    }

    /// Whether `node`, which is not suspected, has been silent for a full
    /// timeout at `now`: the verdict of a scheduled check. Draws what
    /// could land in the check's window until it hears something.
    pub(crate) fn silent(
        &mut self,
        node: u32,
        now: SimTime,
        mut verdict: impl FnMut(u32, u64, SimTime) -> Option<SimTime>,
    ) -> bool {
        self.look(node as usize, now);
        self.lanes[node as usize].suspected = false;
        !self.hears(node, now, now, &mut verdict)
    }

    /// `node` became suspected at `now`: hand every arrival still to come
    /// to the engine, and from here to its resync draw each of its sends
    /// at its round. The check that found the node silent at `now` has
    /// drawn every send that could land from `now - timeout` on, so what
    /// is still to come is all kept; one on this instant sorts after that
    /// check, since one that sorted first would have defused it.
    pub(crate) fn unfold(&mut self, node: u32, now: SimTime, wakes: &mut Vec<Wake>) {
        let i = node as usize;
        self.look(i, now);
        debug_assert!(
            self.ticks.iter().enumerate().all(|(k, tick)| {
                let round = self.seq - self.ticks.len() as u64 + k as u64;
                tick.at + self.reach < now || self.draws.drawn(i, round)
            }),
            "a suspicion follows a check that drew every send still to land"
        );
        self.watch_node(i);
        let lane = &mut self.lanes[i];
        lane.suspected = true;
        wakes.extend(lane.known.drain(..).map(|a| arrive(node, a)));
    }

    /// One heartbeat round at `now`: count the uncrashed nodes' sends,
    /// arm this round's check, and decide every check due by the next
    /// round for the nodes whose cover ends here, plus the crashed and
    /// suspected ones (a suspected node's send is drawn at once). `base`
    /// is the first of the reserved keys; what needs a queue event is
    /// pushed onto `wakes`.
    pub(crate) fn round(
        &mut self,
        now: SimTime,
        base: u64,
        crashed: &[bool],
        suspected: &[bool],
        mut verdict: impl FnMut(u32, u64, SimTime) -> Option<SimTime>,
        wakes: &mut Vec<Wake>,
    ) -> Round {
        let round = self.seq;
        self.seq += 1;
        self.ticks.push_back(Tick { at: now, base });
        while self
            .ticks
            .front()
            .is_some_and(|t| t.at + self.reach + self.timeout < now)
        {
            self.ticks.pop_front();
        }
        self.armed.push_back(Armed {
            check: now + self.timeout,
            base,
        });
        let next = now + self.interval;
        let due = self.armed.iter().take_while(|a| a.check <= next).count();
        // A node that crashed since the last round sends nothing from this
        // one on; every round visits it until it is back.
        if crashed != self.down.as_slice() {
            for (i, &down) in crashed.iter().enumerate() {
                if down != self.down[i] {
                    self.down[i] = down;
                    if down {
                        self.up -= 1;
                        self.watch_node(i);
                    } else {
                        self.up += 1;
                    }
                }
            }
        }
        let mut watch = std::mem::take(&mut self.watch);
        watch.retain(|&node| {
            let i = node as usize;
            self.lanes[i].suspected &= suspected[i];
            self.visit(node, round, now, due, crashed[i], &mut verdict, wakes);
            let kept = crashed[i] || self.lanes[i].suspected;
            if !kept {
                self.plan(i, round, now, due);
            }
            kept
        });
        self.watch = watch;
        let slot = self.bucket(round);
        let mut bucket = std::mem::take(&mut self.calendar[slot]);
        for &node in &bucket {
            if self.lanes[node as usize].visit == round {
                self.visit(node, round, now, due, false, &mut verdict, wakes);
                self.plan(node as usize, round, now, due);
            }
        }
        bucket.clear();
        self.calendar[slot] = bucket;
        self.armed.drain(..due);
        Round {
            sent: self.up,
            next: (next, base + self.keys_per_round() - 1),
        }
    }

    fn bucket(&self, round: u64) -> usize {
        (round % self.calendar.len() as u64) as usize
    }

    /// Have every round visit node `i` from the next one on.
    fn watch_node(&mut self, i: usize) {
        if self.lanes[i].visit != EVERY_ROUND {
            self.lanes[i].visit = EVERY_ROUND;
            self.watch.push(i as u32);
        }
    }

    /// Bring node `i` up to `now`: sends since its last visit are
    /// undrawn, and kept arrivals that have landed are heard.
    fn look(&mut self, i: usize, now: SimTime) {
        let lane = &mut self.lanes[i];
        self.draws.catch_up(i, &mut lane.mark, self.seq);
        let mut heard = lane.last_heard;
        lane.known.retain(|a| {
            let landed = a.at < now;
            if landed {
                heard = heard.max(a.at);
            }
            !landed
        });
        lane.last_heard = heard;
    }

    /// Visit `node` in `round` at `now`: its send (none if it is
    /// `crashed`, drawn at once if it is suspected) and its `due` checks.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &mut self,
        node: u32,
        round: u64,
        now: SimTime,
        due: usize,
        crashed: bool,
        verdict: &mut impl FnMut(u32, u64, SimTime) -> Option<SimTime>,
        wakes: &mut Vec<Wake>,
    ) {
        let i = node as usize;
        self.look(i, now);
        let key = KEYS_PER_NODE * i as u64;
        if crashed {
            self.draws.take(i, round);
        } else if self.lanes[i].suspected && self.draws.take(i, round) {
            if let Some(at) = verdict(node, message(node, round), now) {
                let base = self.ticks.back().expect("this round").base;
                wakes.push(Wake {
                    at,
                    key: base + key,
                    node,
                    kind: WakeKind::Arrive,
                });
            }
        }
        for d in 0..due {
            let armed = self.armed[d];
            // A crashed node stays silent until it recovers, and a
            // recovery at `r >= now` sets `last_heard = r`, which covers
            // every check armed before `now`; only this round's own check
            // (a recovery later in this instant) can find it silent.
            if crashed && armed.check < now + self.timeout {
                continue;
            }
            if !self.hears(node, armed.check, now, verdict) {
                wakes.push(Wake {
                    at: armed.check,
                    key: armed.base + key + 1,
                    node,
                    kind: WakeKind::Check,
                });
            }
        }
    }

    /// Whether the check due at `check` hears from `node`, asked at
    /// `now`: what the lane knows first, then the undrawn sends that could
    /// land in the window, newest first, up to the first that does.
    fn hears(
        &mut self,
        node: u32,
        check: SimTime,
        now: SimTime,
        verdict: &mut impl FnMut(u32, u64, SimTime) -> Option<SimTime>,
    ) -> bool {
        let (i, timeout) = (node as usize, self.timeout);
        let lane = &mut self.lanes[i];
        if lane.covers(check, timeout) {
            return true;
        }
        let first = self.seq - self.ticks.len() as u64;
        for (k, tick) in self.ticks.iter().enumerate().rev() {
            let round = first + k as u64;
            if tick.at + self.reach + timeout <= check {
                break;
            }
            if !self.draws.take(i, round) {
                continue;
            }
            let Some(at) = verdict(node, message(node, round), tick.at) else {
                continue;
            };
            let a = Arrival {
                at,
                sent: tick.at,
                key: tick.base + KEYS_PER_NODE * i as u64,
            };
            if at < now {
                lane.last_heard = lane.last_heard.max(at);
            } else {
                debug_assert!(!lane.suspected, "a suspected node's arrivals are scheduled");
                lane.known.push(a);
            }
            if a.heard_by(check, timeout) {
                return true;
            }
        }
        false
    }

    /// After a visit in `round` at `now`, book node `i`'s next: the round
    /// that decides the first check its known arrivals do not cover.
    fn plan(&mut self, i: usize, round: u64, now: SimTime, due: usize) {
        let (interval, timeout) = (self.interval, self.timeout);
        let lane = &self.lanes[i];
        let check = self
            .armed
            .iter()
            .skip(due)
            .map(|a| a.check)
            .find(|&c| !lane.covers(c, timeout))
            .unwrap_or_else(|| {
                let mut c = now + interval + timeout;
                while lane.covers(c, timeout) {
                    c += interval;
                }
                c
            });
        // The round `k` ahead decides the checks due by `now + (k + 1) *
        // interval`. Visiting early is safe, so the ring's length caps it.
        let k = (check - now).as_micros().div_ceil(interval.as_micros()) - 1;
        let at = round + k.clamp(1, self.calendar.len() as u64 - 1);
        self.lanes[i].visit = at;
        let bucket = self.bucket(at);
        self.calendar[bucket].push(i as u32);
    }
}

/// The message key of `node`'s heartbeat in `round`.
fn message(node: u32, round: u64) -> u64 {
    (u64::from(node) << 32) | round
}

fn arrive(node: u32, a: Arrival) -> Wake {
    Wake {
        at: a.at,
        key: a.key,
        node,
        kind: WakeKind::Arrive,
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

    /// A detector under a script of heartbeat latencies (`lat[round]
    /// [node]` in microseconds, `None` a drop), recording every verdict
    /// it draws.
    struct Rig {
        fd: FailureDetector,
        lat: Vec<Vec<Option<u64>>>,
        drawn: Vec<(u32, u64)>,
    }

    impl Rig {
        /// Over `nodes` nodes, started at `t = 0` with keys from 0, on a
        /// link whose latency bound (20 s) covers every script here.
        fn new(nodes: usize, interval_s: u64, timeout_s: u64) -> Rig {
            let link = LinkFaults {
                delay: SimDuration::from_secs(20),
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
            Rig {
                fd,
                lat: Vec::new(),
                drawn: Vec::new(),
            }
        }

        /// The round at `now` whose sends take `latency`.
        fn round_with(
            &mut self,
            now: u64,
            base: u64,
            latency: &[Option<u64>],
            crashed: &[bool],
            suspected: &[bool],
        ) -> (Round, Vec<Wake>) {
            self.lat.push(latency.to_vec());
            let Rig { fd, lat, drawn } = self;
            let mut wakes = Vec::new();
            let r = fd.round(
                at(now),
                base,
                crashed,
                suspected,
                |node, key, sent| fate(lat, drawn, node, key, sent),
                &mut wakes,
            );
            (r, wakes)
        }

        /// The same with every node up and unsuspected.
        fn round(&mut self, now: u64, base: u64, latency: &[Option<u64>]) -> (Round, Vec<Wake>) {
            let up = vec![false; latency.len()];
            self.round_with(now, base, latency, &up, &up)
        }

        fn silent(&mut self, node: u32, now: u64) -> bool {
            let Rig { fd, lat, drawn } = self;
            fd.silent(node, at(now), |node, key, sent| {
                fate(lat, drawn, node, key, sent)
            })
        }

        fn unfold(&mut self, node: u32, now: u64) -> Vec<Wake> {
            let mut wakes = Vec::new();
            self.fd.unfold(node, at(now), &mut wakes);
            wakes
        }
    }

    fn fate(
        lat: &[Vec<Option<u64>>],
        drawn: &mut Vec<(u32, u64)>,
        node: u32,
        key: u64,
        sent: SimTime,
    ) -> Option<SimTime> {
        assert_eq!(key >> 32, u64::from(node));
        drawn.push((node, key));
        lat[key as u32 as usize][node as usize].map(|l| sent + SimDuration::from_micros(l))
    }

    fn arrive(node: u32, t: u64, key: u64) -> Wake {
        Wake {
            at: at(t),
            key,
            node,
            kind: WakeKind::Arrive,
        }
    }

    fn check(node: u32, t: u64, key: u64) -> Wake {
        Wake {
            at: at(t),
            key,
            node,
            kind: WakeKind::Check,
        }
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
    fn quiet_rounds_draw_one_send_a_cover_and_schedule_nothing() {
        let mut rig = Rig::new(3, 10, 30);
        for tick in 1..=20u64 {
            let base = 100 * tick;
            let (r, wakes) = rig.round(tick * 10 * SEC, base, &[Some(50_000); 3]);
            assert_eq!(r.sent, 3);
            assert_eq!(
                r.next,
                (
                    at((tick + 1) * 10 * SEC),
                    base + rig.fd.keys_per_round() - 1
                )
            );
            assert_eq!(wakes, [], "tick {tick}");
        }
        // The round at 30 s decides the first check (due at 40 s) and
        // draws the send it has just made. It lands at 30.05 s, inside
        // the windows of the checks due at 40, 50 and 60 s: the next
        // visit is the round at 60 s, which decides the one due at 70 s.
        let drawn: Vec<(u32, u64)> = [2, 5, 8, 11, 14, 17]
            .into_iter()
            .flat_map(|round| (0..3).map(move |node| (node, message(node, round))))
            .collect();
        assert_eq!(rig.drawn, drawn);
    }

    #[test]
    fn a_suspected_node_draws_every_send_and_schedules_its_arrivals() {
        let mut rig = Rig::new(3, 10, 30);
        // Suspected before any send: nothing to hand back.
        assert_eq!(rig.unfold(1, 5 * SEC), []);
        // Its arrival may resync it, so it is drawn at the round and is an
        // event, under the key its event-per-heartbeat twin would have had.
        let (_, wakes) = rig.round_with(
            10 * SEC,
            100,
            &[Some(7); 3],
            &[false; 3],
            &[false, true, false],
        );
        assert_eq!(wakes, [arrive(1, 10 * SEC + 7, 100 + 3)]);
        assert_eq!(rig.drawn, [(1, message(1, 0))]);
        // Resynced: from the next round on it is drawn on demand again.
        let (_, wakes) = rig.round(20 * SEC, 200, &[Some(7); 3]);
        assert_eq!(wakes, []);
        assert_eq!(rig.drawn.len(), 1);
    }

    #[test]
    fn a_check_is_scheduled_exactly_when_silence_is_certain() {
        // Node 0's heartbeat of the first round arrives with no latency,
        // node 1's a microsecond late; both then go silent.
        let mut rig = Rig::new(2, 10, 30);
        let (_, wakes) = rig.round(10 * SEC, 100, &[Some(0), Some(1)]);
        assert_eq!(wakes, []);
        let (_, wakes) = rig.round(20 * SEC, 200, &[None, None]);
        assert_eq!(wakes, []);
        // The round at 30 s decides the check armed at 10 s (due at 40 s,
        // by the next round), drawing newest first down to the first
        // send: `heard + timeout <= check` holds for node 0 to the
        // microsecond and fails for node 1 by one.
        let (_, wakes) = rig.round(30 * SEC, 300, &[None, None]);
        assert_eq!(wakes, [check(0, 40 * SEC, 100 + 1)]);
        assert_eq!(rig.drawn.len(), 6);
        assert!(rig.silent(0, 40 * SEC));
        assert!(!rig.silent(1, 40 * SEC));
        // One round on, the check armed at 20 s finds both silent.
        let (_, wakes) = rig.round(40 * SEC, 400, &[None, None]);
        assert_eq!(
            wakes,
            [check(0, 50 * SEC, 200 + 1), check(1, 50 * SEC, 200 + 3 + 1)]
        );
        assert!(rig.silent(1, 50 * SEC));
        assert_eq!(rig.drawn.len(), 8, "each send is drawn once");
    }

    #[test]
    fn a_timeout_shorter_than_the_interval_is_decided_by_its_own_round() {
        let mut rig = Rig::new(2, 10, 4);
        // Arrival after 3 s beats the 4 s check; a drop does not.
        let (_, wakes) = rig.round(10 * SEC, 100, &[Some(3 * SEC), None]);
        assert_eq!(wakes, [check(1, 14 * SEC, 100 + 3 + 1)]);
        assert!(rig.silent(1, 14 * SEC));
        assert!(!rig.silent(0, 14 * SEC));
    }

    #[test]
    fn an_arrival_on_an_earlier_check_instant_is_never_folded() {
        // interval 10 s, timeout 30 s: the heartbeat sent at 30 s with
        // 10 s latency lands on 40 s, where the check armed at 10 s runs
        // BEFORE it. Counted as heard there, it would defuse that check.
        let mut rig = Rig::new(1, 10, 30);
        for tick in 1..=2 {
            rig.round(tick * 10 * SEC, 100 * tick, &[None]);
        }
        let (_, wakes) = rig.round(30 * SEC, 300, &[Some(10 * SEC)]);
        assert_eq!(wakes, [check(0, 40 * SEC, 100 + 1)]);
        assert!(rig.silent(0, 40 * SEC));
        // The suspicion hands the kept arrival back under its own key,
        // which sorts after the check: the node resyncs on it.
        assert_eq!(rig.unfold(0, 40 * SEC), [arrive(0, 40 * SEC, 300)]);
        assert_eq!(rig.drawn.len(), 3, "each send is drawn once");
    }

    #[test]
    fn suspicion_unfolds_an_arrival_that_is_still_to_come() {
        // A 4 s timeout under a 10 s interval: the round at 10 s decides
        // the check due at 14 s. Its send lands at 15 s, too late: the
        // check is scheduled, and the arrival kept.
        let mut rig = Rig::new(1, 10, 4);
        let (_, wakes) = rig.round(10 * SEC, 100, &[Some(5 * SEC)]);
        assert_eq!(wakes, [check(0, 14 * SEC, 100 + 1)]);
        assert!(rig.silent(0, 14 * SEC));
        // Suspected at 14 s: the kept arrival becomes an event with its
        // twin's key. It is handed back once.
        assert_eq!(rig.unfold(0, 14 * SEC), [arrive(0, 15 * SEC, 100)]);
        assert_eq!(rig.unfold(0, 14 * SEC), []);
        // Resynced by it; the next send lands at 21 s and defuses the
        // check due at 24 s, the one after is lost.
        rig.fd.heard(0, at(15 * SEC));
        let (_, wakes) = rig.round(20 * SEC, 200, &[Some(SEC)]);
        assert_eq!(wakes, []);
        let (_, wakes) = rig.round(30 * SEC, 300, &[None]);
        assert_eq!(wakes, [check(0, 34 * SEC, 300 + 1)]);
        assert!(rig.silent(0, 34 * SEC));
        // One that has landed already was heard: nothing to hand back.
        assert_eq!(rig.unfold(0, 34 * SEC), []);
        assert_eq!(rig.drawn.len(), 3, "each send is drawn once");
    }

    #[test]
    fn a_crashed_node_sends_nothing_and_a_recovery_counts_as_heard() {
        let mut rig = Rig::new(2, 10, 30);
        let mut wakes = Vec::new();
        for tick in 1..=4u64 {
            let (r, w) = rig.round_with(
                tick * 10 * SEC,
                100 * tick,
                &[Some(0); 2],
                &[false, true],
                &[false, false],
            );
            assert_eq!(r.sent, 1);
            wakes.extend(w);
        }
        // Node 0's send at 30 s covers it through the check due at 50 s.
        assert_eq!(rig.drawn, [(0, message(0, 2))], "node 1 sends nothing");
        // Node 1 is silent from the check armed at 10 s on, but no round
        // schedules a check for it while it is down: the recovery any of
        // them would need first covers it.
        assert_eq!(wakes, []);
        assert!(rig.silent(1, 40 * SEC));
        // It recovers at 45 s: a fresh grace period.
        rig.fd.heard(1, at(45 * SEC));
        assert!(!rig.silent(1, 50 * SEC));
        let (r, wakes) = rig.round(50 * SEC, 500, &[Some(0); 2]);
        assert_eq!(r.sent, 2);
        assert_eq!(
            wakes,
            [],
            "the check armed at 30 s finds node 1 heard at 45 s"
        );
        // Silent again by 80 s: the check draws its send at 50 s, under
        // the sequence number that kept counting through the outage.
        assert!(rig.silent(1, 80 * SEC));
        assert_eq!(rig.drawn[2..], [(1, message(1, 4))]);
    }

    #[test]
    fn retire_drops_undecided_checks_and_restart_grants_fresh_grace() {
        let mut rig = Rig::new(1, 10, 30);
        rig.round(10 * SEC, 100, &[None]);
        rig.round(20 * SEC, 200, &[None]);
        assert!(rig.fd.live());
        rig.fd.retire();
        assert!(!rig.fd.live());
        // Restarted at 33 s: nothing is suspected for silence that
        // predates the restart, ...
        assert_eq!(rig.fd.start(at(33 * SEC), 900), (at(43 * SEC), 900));
        assert!(
            !rig.silent(0, 40 * SEC),
            "a stale check from before the restart is a no-op"
        );
        assert!(!rig.silent(0, 50 * SEC));
        // ... the first rounds decide nothing (the checks armed at 10 s and
        // 20 s are gone), ...
        for tick in 0..2u64 {
            let (_, wakes) = rig.round((43 + 10 * tick) * SEC, 1_000 + 100 * tick, &[None]);
            assert_eq!(wakes, []);
        }
        assert_eq!(rig.drawn, []);
        // ... and message keys carry on where they stopped: the check at
        // 63 s draws the sends that could land after 33 s, the one made
        // at 20 s included.
        assert!(rig.silent(0, 63 * SEC), "33 s + timeout");
        assert_eq!(
            rig.drawn,
            [(0, message(0, 3)), (0, message(0, 2)), (0, message(0, 1))]
        );
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
    /// detector, every send, arrival and check an event of its own, every
    /// verdict drawn at its send. Both run over the same kind of queue —
    /// an ordered map keyed by (instant, order key) — under the same
    /// script of crashes, recoveries and busy and idle spells, and must
    /// leave the same effects under the same keys; every verdict the lane
    /// draws must be the model's for that heartbeat.
    mod model {
        use super::*;
        use impress_sim::props;
        use std::collections::BTreeMap;

        /// What a detector does that the rest of the engine can see.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Effect {
            /// A heartbeat left `node`.
            Sent(u32),
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

        /// Every verdict drawn, by message key: when the heartbeat
        /// arrives, or `None` if it is lost.
        type Verdicts = BTreeMap<u64, Option<SimTime>>;

        /// Where a heartbeat's fate comes from.
        enum Fate {
            /// The model's own draw: a drop rate and a one-way latency, or
            /// `None` for a fresh draw below `2 × interval` per heartbeat.
            Drawn {
                drop: f64,
                latency: Option<SimDuration>,
                seed: u64,
            },
            /// A seeded control plane, as the engine draws it.
            Plane(ControlPlane),
        }

        struct Case {
            nodes: usize,
            /// The detector's knobs and the latency bound the fate draws
            /// under.
            link: LinkFaults,
            /// Time-ordered; the last entry is `Idle`.
            script: Vec<(SimTime, Env)>,
            /// `(node, from, to)`: every heartbeat sent inside is lost.
            silences: Vec<(u32, SimTime, SimTime)>,
            fate: Fate,
        }

        impl Case {
            /// The seeded, order-independent fate of heartbeat `key` sent
            /// by `node` at `now`.
            fn verdict(&self, node: u32, key: u64, now: SimTime) -> Option<SimTime> {
                let silenced = self
                    .silences
                    .iter()
                    .any(|&(n, from, to)| n == node && from <= now && now < to);
                match &self.fate {
                    _ if silenced => None,
                    Fate::Plane(plane) => plane.best_effort("hb", key, node, now),
                    &Fate::Drawn {
                        drop,
                        latency,
                        seed,
                    } => {
                        let mut rng = SimRng::from_seed(seed).fork_idx("hb", key);
                        if rng.uniform() < drop {
                            return None;
                        }
                        let interval = self.link.heartbeat_interval.expect("set").as_micros();
                        let latency = latency.unwrap_or_else(|| {
                            SimDuration::from_micros(rng.below(2 * interval as usize) as u64)
                        });
                        Some(now + latency)
                    }
                }
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
            verdicts: Verdicts,
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

        /// Draw heartbeat `key`'s verdict for `case`, once.
        fn draw_once(
            case: &Case,
            verdicts: &mut Verdicts,
            node: u32,
            key: u64,
            sent: SimTime,
        ) -> Option<SimTime> {
            let arrives = case.verdict(node, key, sent);
            let again = verdicts.insert(key, arrives);
            assert!(again.is_none(), "heartbeat {key:#x} drawn twice");
            arrives
        }

        /// A heartbeat clock: its ticks, and the liveness it keeps.
        trait Clock {
            /// Start ticking at `now` unless already ticking.
            fn start(&mut self, cell: &mut Cell, now: SimTime);
            /// A [`Ev::Tick`] or [`Ev::Round`] fired under `key`.
            fn tick(&mut self, cell: &mut Cell, now: SimTime, key: u64, ev: Ev);
            fn heard(&mut self, node: u32, now: SimTime);
            fn silent(&mut self, cell: &mut Cell, node: u32, now: SimTime) -> bool;
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
                    cell.trace.push((now, key, Effect::Sent(node)));
                    let msg = message(node, seq);
                    if let Some(at) = draw_once(cell.case, &mut cell.verdicts, node, msg, now) {
                        cell.keyed(at, base, Ev::Arrive(node));
                    }
                }
                cell.keyed(now + self.timeout, base + 1, Ev::Check(node));
                cell.keyed(now + self.interval, base + 2, Ev::Tick(node));
            }

            fn heard(&mut self, node: u32, now: SimTime) {
                self.last_heard[node as usize] = now;
            }

            fn silent(&mut self, _: &mut Cell, node: u32, now: SimTime) -> bool {
                self.last_heard[node as usize] + self.timeout <= now
            }
        }

        /// The lane under test.
        struct Lane {
            fd: FailureDetector,
            /// Keys between two nodes' sends in the tick the next round
            /// stands for: 1 after a start, 3 after a round.
            stride: u64,
            /// Checks a round scheduled for a node crashed at that round.
            crashed_checks: usize,
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
                let mut wakes = Vec::new();
                let round = self.fd.round(
                    now,
                    base,
                    &cell.crashed,
                    &cell.suspected,
                    |node, msg, sent| draw_once(case, &mut cell.verdicts, node, msg, sent),
                    &mut wakes,
                );
                // The round stands in for the last node's send; each other
                // node's send sits `stride` keys before the next one's.
                let last = case.nodes as u64 - 1;
                let mut sent = 0;
                for node in (0..case.nodes as u32).filter(|&n| !cell.crashed[n as usize]) {
                    let at = key - self.stride * (last - u64::from(node));
                    cell.trace.push((now, at, Effect::Sent(node)));
                    sent += 1;
                }
                assert_eq!(round.sent, sent);
                self.stride = KEYS_PER_NODE;
                for wake in wakes {
                    let ev = match wake.kind {
                        WakeKind::Arrive => Ev::Arrive(wake.node),
                        WakeKind::Check => {
                            self.crashed_checks += usize::from(cell.crashed[wake.node as usize]);
                            Ev::Check(wake.node)
                        }
                    };
                    cell.keyed(wake.at, wake.key, ev);
                }
                cell.keyed(round.next.0, round.next.1, Ev::Round);
            }

            fn heard(&mut self, node: u32, now: SimTime) {
                self.fd.heard(node, now);
            }

            fn silent(&mut self, cell: &mut Cell, node: u32, now: SimTime) -> bool {
                let case = cell.case;
                self.fd.silent(node, now, |node, msg, sent| {
                    draw_once(case, &mut cell.verdicts, node, msg, sent)
                })
            }

            fn suspect(&mut self, cell: &mut Cell, node: u32, now: SimTime) {
                let mut wakes = Vec::new();
                self.fd.unfold(node, now, &mut wakes);
                for wake in wakes {
                    assert_eq!(wake.kind, WakeKind::Arrive);
                    cell.keyed(wake.at, wake.key, Ev::Arrive(node));
                }
            }
        }

        /// Run `case` under `clock`; what an arrival, a check and the
        /// script do is the engine's (`backend::des`), written once here.
        fn run(case: &Case, clock: &mut impl Clock) -> (Trace, Verdicts) {
            let mut cell = Cell {
                case,
                queue: BTreeMap::new(),
                next_key: 0,
                crashed: vec![false; case.nodes],
                suspected: vec![false; case.nodes],
                busy: false,
                trace: Vec::new(),
                verdicts: BTreeMap::new(),
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
                            && clock.silent(&mut cell, node, now)
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
            (cell.trace, cell.verdicts)
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
            let drop = [0.0, 0.1, 0.4][rng.below(3)];
            // The lane is told the bound each latency family draws under:
            // the fixed latency as the link's delay, the fresh draw below
            // `2 × interval` as its jitter.
            let (delay, jitter) = match latency {
                Some(l) => (l, 0),
                None => (0, 2 * interval),
            };
            Case {
                nodes,
                link: LinkFaults {
                    delay: SimDuration::from_micros(delay),
                    jitter: SimDuration::from_micros(jitter),
                    heartbeat_interval: Some(SimDuration::from_micros(interval)),
                    heartbeat_timeout: Some(SimDuration::from_micros(timeout)),
                    ..LinkFaults::none()
                },
                script,
                silences,
                fate: Fate::Drawn {
                    drop,
                    latency: latency.map(SimDuration::from_micros),
                    seed: rng.next_u64(),
                },
            }
        }

        /// The model's trace and the lane's, and the verdicts each drew.
        fn both(case: &Case) -> ((Trace, Verdicts), (Trace, Verdicts)) {
            let fd = FailureDetector::new(&case.link, case.nodes).expect("both knobs set");
            let mut per_event = PerEvent {
                interval: fd.interval,
                timeout: fd.timeout,
                live: false,
                last_heard: vec![SimTime::ZERO; case.nodes],
                hb_seq: vec![0; case.nodes],
            };
            let mut lane = Lane {
                fd,
                stride: 1,
                crashed_checks: 0,
            };
            (run(case, &mut per_event), run(case, &mut lane))
        }

        /// The lane's trace is the model's, and every verdict it drew is
        /// the model's verdict for that heartbeat. Returns how many of the
        /// model's heartbeats the lane drew.
        fn assert_lane_matches_model(case: &Case) -> (usize, usize) {
            let ((model, sends), (lane, drawn)) = both(case);
            assert_eq!(model, lane);
            for (key, arrives) in &drawn {
                assert_eq!(sends.get(key), Some(arrives), "heartbeat {key:#x}");
            }
            (drawn.len(), sends.len())
        }

        props! {
            /// Random detectors, scripts and links: the lane sends,
            /// suspects and resyncs exactly what the event-per-heartbeat
            /// model does, each under the same key, and draws only the
            /// model's verdicts.
            fn the_lane_leaves_the_trace_of_an_event_per_heartbeat_detector(rng) {
                let case = draw(rng);
                assert_lane_matches_model(&case);
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
                let ((trace, sends), _) = both(&case);
                for (_, _, effect) in &trace {
                    match effect {
                        Effect::Suspect(_) => suspects += 1,
                        Effect::Resync(_) => resyncs += 1,
                        Effect::Sent(_) => {}
                    }
                }
                lost += sends.values().filter(|a| a.is_none()).count();
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

        /// The saving, as a count: on a `des_faulty`-shaped link (1,000
        /// nodes, 30 s / 120 s, drop 0.10, delay 50 ms, jitter 100 ms,
        /// reorder 0.05, no crashes) the lane draws at most 35 % of the
        /// verdicts the model draws over 200 rounds, with the same trace.
        /// A lane that draws every send reads 100 %.
        #[test]
        fn a_des_faulty_shaped_lane_draws_a_third_of_its_heartbeats() {
            let link = LinkFaults {
                drop_rate: 0.10,
                delay: SimDuration::from_millis(50),
                jitter: SimDuration::from_millis(100),
                reorder_rate: 0.05,
                heartbeat_interval: Some(SimDuration::from_secs(30)),
                heartbeat_timeout: Some(SimDuration::from_secs(120)),
                ..LinkFaults::none()
            };
            let case = Case {
                nodes: 1_000,
                link: link.clone(),
                script: vec![
                    (SimTime::ZERO, Env::Busy),
                    (at(200 * 30 * SEC + 1), Env::Idle),
                ],
                silences: Vec::new(),
                fate: Fate::Plane(plane(link, 2025)),
            };
            let (drawn, sent) = assert_lane_matches_model(&case);
            assert_eq!(sent, 200 * 1_000);
            assert!(drawn * 100 <= sent * 35, "{drawn} of {sent} verdicts drawn");
        }

        /// The same shape with 100 nodes crashed for 20 rounds each: a
        /// crashed node is silent until its recovery, which covers every
        /// check armed before it, so no round schedules a check for a
        /// crashed node, and the trace is the model's.
        #[test]
        fn a_des_faulty_shaped_lane_schedules_no_check_at_a_crashed_node() {
            let link = LinkFaults {
                drop_rate: 0.10,
                delay: SimDuration::from_millis(50),
                jitter: SimDuration::from_millis(100),
                reorder_rate: 0.05,
                heartbeat_interval: Some(SimDuration::from_secs(30)),
                heartbeat_timeout: Some(SimDuration::from_secs(120)),
                ..LinkFaults::none()
            };
            let mut script = vec![(SimTime::ZERO, Env::Busy)];
            for k in 0..100 {
                let crash = at((k + 1) * 50 * SEC + k * 7);
                script.push((crash, Env::Crash(10 * k as u32)));
                script.push((
                    crash + SimDuration::from_secs(600),
                    Env::Recover(10 * k as u32),
                ));
            }
            script.push((at(200 * 30 * SEC + 1), Env::Idle));
            script.sort_by_key(|&(at, _)| at);
            let case = Case {
                nodes: 1_000,
                link: link.clone(),
                script,
                silences: Vec::new(),
                fate: Fate::Plane(plane(link, 2025)),
            };
            let (_, sent) = assert_lane_matches_model(&case);
            assert_eq!(
                sent,
                200 * 1_000 - 100 * 20,
                "each crash silences 20 rounds"
            );
            let mut lane = Lane {
                fd: FailureDetector::new(&case.link, case.nodes).expect("both knobs set"),
                stride: 1,
                crashed_checks: 0,
            };
            run(&case, &mut lane);
            assert_eq!(lane.crashed_checks, 0);
        }
    }
}
