//! The five workloads: what one unit of each does, its inputs, its checks.
//!
//! Every workload is a closed loop with one client on one thread: a unit
//! starts when the previous one has returned. A unit is the smallest piece
//! that is set up, run and checked as a whole — a campaign pair, a journal
//! cycle, a service cell, a drain — and holds one or more *ops*, the pieces
//! whose latency is sampled (for the drains, blocks of consecutive
//! completions). Inputs come from the run seed; the program receives only
//! what was generated from it.

use crate::adapter::{
    self, CellResult, ControlCounts, DesCell, Engine, FrontDoor, JournalInputs, PaperInputs,
    ServiceShape, TaskSpec, TelemetryMode, Traced,
};
use crate::metrics::Values;
use crate::stats::timed;
use std::path::{Path, PathBuf};

pub const PAPER_CAMPAIGN: &str = "paper_campaign";
pub const JOURNAL_RESUME: &str = "journal_resume";
pub const SERVICE_CELL: &str = "service_cell";
pub const DES_CLEAN: &str = "des_clean";
pub const DES_FAULTY: &str = "des_faulty";

pub const NAMES: [&str; 5] = [
    PAPER_CAMPAIGN,
    JOURNAL_RESUME,
    SERVICE_CELL,
    DES_CLEAN,
    DES_FAULTY,
];

/// What one unit reports back to the runner.
pub struct Unit {
    pub result: CellResult,
    /// Host seconds of the unit's timed region.
    pub wall_s: f64,
    /// Host milliseconds of each op in the unit.
    pub op_ms: Vec<f64>,
    /// Named per-layer samples the unit took itself (phase timers, counters
    /// the tracer cannot see). The runner reports the median of a timing
    /// over the untraced units and an exact count as the first traced unit
    /// gave it.
    pub samples: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Run unit `index` through the front door, or with the decorators.
    /// `pause` is the runner's: a unit of several ops calls it after each of
    /// them, a unit that is one long op every tenth of a second or so, always
    /// outside the timed regions.
    fn unit(&mut self, index: u64, traced: bool, pause: &mut dyn FnMut()) -> Unit;
    /// Variants and probes that run once, in the traced run only.
    fn variants(&mut self, _out: &mut Values) {}
    /// A line for the ledger document saying how large the inputs are.
    fn size(&self) -> String;
}

/// The warm-up drain is this much smaller than a measured one.
const WARMUP_SHRINK: f64 = 1.0 / 50.0;

/// Index of the warm-up unit, so that it shares no inputs with a measured one.
const WARMUP_INDEX: u64 = u64::MAX;

fn scaled(full: usize, scale: f64, floor: usize) -> usize {
    ((full as f64 * scale).round() as usize).max(floor)
}

/// Set a workload up from `seed` at `scale` (1.0 = the sizes the ledger is
/// measured at) and run its warm-up unit. `scratch` is a directory the
/// workload may write files in.
pub fn setup(name: &str, seed: u64, scale: f64, scratch: &Path) -> Option<Box<dyn Workload>> {
    let mut workload: Box<dyn Workload> = match name {
        PAPER_CAMPAIGN => Box::new(PaperCampaign {
            seed,
            inputs: adapter::paper_inputs(seed),
        }),
        JOURNAL_RESUME => Box::new(JournalResume {
            seed,
            inputs: adapter::journal_inputs(seed, scaled(256, scale, 8), 8),
            scratch: scratch.to_path_buf(),
        }),
        SERVICE_CELL => Box::new(ServiceCell::new(seed, scale)),
        DES_CLEAN | DES_FAULTY => Box::new(Des::new(name, seed, scale)),
        _ => return None,
    };
    let warmup = workload.unit(WARMUP_INDEX, false, &mut || {});
    assert!(
        warmup.result.failures.is_empty(),
        "warm-up failed: {:?}",
        warmup.result.failures
    );
    Some(workload)
}

// ---------------------------------------------------------------------------

/// One CONT-V and one IM-RP campaign over the four named PDZ domains, four
/// cycles, one Amarel node, engine defaults, nothing attached.
struct PaperCampaign {
    seed: u64,
    inputs: PaperInputs,
}

impl Workload for PaperCampaign {
    fn unit(&mut self, index: u64, traced: bool, _after_op: &mut dyn FnMut()) -> Unit {
        let op_seed = adapter::op_seed(self.seed, PAPER_CAMPAIGN, index);
        let (wall_s, result) = timed(|| {
            if traced {
                adapter::paper_traced(&self.inputs, op_seed)
            } else {
                adapter::paper_front_door(&self.inputs, op_seed)
            }
        });
        Unit {
            result,
            wall_s,
            op_ms: vec![wall_s * 1e3],
            samples: Vec::new(),
        }
    }

    fn size(&self) -> String {
        "4 named PDZ domains x 4 cycles, CONT-V + IM-RP, 1 node (28 cores, 4 GPUs)".into()
    }
}

// ---------------------------------------------------------------------------

/// A synthetic campaign of trivial stages with a realistic outcome record,
/// run bare, journaled to a file, loaded, resumed whole and resumed from
/// half the file.
struct JournalResume {
    seed: u64,
    inputs: JournalInputs,
    scratch: PathBuf,
}

impl Workload for JournalResume {
    fn unit(&mut self, index: u64, traced: bool, _after_op: &mut dyn FnMut()) -> Unit {
        let op_seed = adapter::op_seed(self.seed, JOURNAL_RESUME, index);
        let op = if traced {
            adapter::journal_op::<Traced>(&self.inputs, op_seed, &self.scratch)
        } else {
            adapter::journal_op::<FrontDoor>(&self.inputs, op_seed, &self.scratch)
        };
        // The op is its five phases; cutting the crash image between them is
        // input preparation.
        let p = op.phases;
        let wall_s =
            (p.bare_ms + p.write_ms + p.load_ms + p.resume_full_ms + p.resume_half_ms) / 1e3;
        Unit {
            result: op.result,
            wall_s,
            op_ms: vec![wall_s * 1e3],
            samples: vec![
                ("workflow.journal.bare_ms", p.bare_ms),
                ("workflow.journal.write_ms", p.write_ms),
                (
                    "workflow.journal.overhead_frac",
                    (p.write_ms - p.bare_ms) / p.bare_ms,
                ),
                ("workflow.journal.load_ms", p.load_ms),
                ("workflow.resume_full_ms", p.resume_full_ms),
                ("workflow.resume_half_ms", p.resume_half_ms),
            ],
        }
    }

    fn variants(&mut self, out: &mut Values) {
        let (ser_ns, de_ns) = adapter::probe_json(&self.inputs);
        out.set("json.ser_ns_per_record", ser_ns);
        out.set("json.de_ns_per_record", de_ns);
    }

    fn size(&self) -> String {
        format!(
            "{} tasks per campaign x 4 campaigns (bare, journaled, resume-full, resume-half), 8 nodes",
            self.inputs.tasks_per_campaign()
        )
    }
}

// ---------------------------------------------------------------------------

/// Build a campaign service, submit every campaign over equal-weight
/// tenants on one shared cluster, run it dry, take every result.
struct ServiceCell {
    seed: u64,
    shape: ServiceShape,
    /// A tenth of the campaigns on the same cluster: the warm-up unit, and
    /// the base of `workflow.service.scale_ratio`.
    tenth: ServiceShape,
}

impl ServiceCell {
    fn new(seed: u64, scale: f64) -> Self {
        // At least eight campaigns per tenant: the fairness check compares
        // delivered usage, which is only equal when submitted load is.
        let shape = |scale: f64, nodes_scale: f64| ServiceShape {
            campaigns: scaled(10_000, scale, 200),
            tenants: 25,
            nodes: scaled(1_000, nodes_scale, 4) as u32,
        };
        ServiceCell {
            seed,
            shape: shape(scale, scale),
            tenth: shape(scale / 10.0, scale),
        }
    }

    fn run(
        shape: ServiceShape,
        op_seed: u64,
        traced: bool,
        pause: &mut dyn FnMut(),
    ) -> adapter::ServiceOp {
        if traced {
            adapter::service_op::<Traced>(shape, op_seed, pause)
        } else {
            adapter::service_op::<FrontDoor>(shape, op_seed, pause)
        }
    }
}

impl Workload for ServiceCell {
    fn unit(&mut self, index: u64, traced: bool, pause: &mut dyn FnMut()) -> Unit {
        let op_seed = adapter::op_seed(self.seed, SERVICE_CELL, index);
        let shape = if index == WARMUP_INDEX {
            self.tenth
        } else {
            self.shape
        };
        let mut op = Self::run(shape, op_seed, traced, pause);
        let wall_s = op.wall_s;
        if index != WARMUP_INDEX && op.result.model.jain < 0.99 {
            op.result.failures.push(format!(
                "tenants were served unevenly: Jain index {}",
                op.result.model.jain
            ));
        }
        let per_campaign = 1e6 / shape.campaigns as f64;
        Unit {
            result: op.result,
            wall_s,
            op_ms: vec![wall_s * 1e3],
            samples: vec![
                (
                    "workflow.service.submit_us_per_campaign",
                    op.submit_s * per_campaign,
                ),
                (
                    "workflow.service.run_us_per_campaign",
                    op.run_s * per_campaign,
                ),
            ],
        }
    }

    fn variants(&mut self, out: &mut Values) {
        let op_seed = adapter::op_seed(self.seed, SERVICE_CELL, 0);
        let full = Self::run(self.shape, op_seed, false, &mut || {});
        let tenth = Self::run(self.tenth, op_seed, false, &mut || {});
        let full_us = full.run_s * 1e6 / self.shape.campaigns as f64;
        let tenth_us = tenth.run_s * 1e6 / self.tenth.campaigns as f64;
        out.set("workflow.service.run_us_per_campaign_1k", tenth_us);
        out.set("workflow.service.scale_ratio", full_us / tenth_us);
    }

    fn size(&self) -> String {
        format!(
            "{} campaigns (2 pipelines x 3 one-core stages) over {} tenants on {} nodes x 4 cores",
            self.shape.campaigns, self.shape.tenants, self.shape.nodes
        )
    }
}

// ---------------------------------------------------------------------------

/// Submit the whole heterogeneous mix at virtual t = 0 and drain it; an op
/// is a block of consecutive completions. `des_clean` runs the engine bare,
/// `des_faulty` under composed adversity with a recording telemetry handle.
struct Des {
    name: &'static str,
    cell: DesCell,
    mix: Vec<TaskSpec>,
    block: usize,
    warmup_cell: DesCell,
    warmup_tasks: usize,
    /// One tenth of the clean headline cell: what the engine variants drain.
    variant_nodes: u32,
    variant_tasks: usize,
    /// What the first drain reported; every later drain of the same inputs
    /// must report the same.
    first: Option<(u64, ControlCounts)>,
}

impl Des {
    fn new(name: &str, seed: u64, scale: f64) -> Self {
        let faulty = name == DES_FAULTY;
        let (name, full_nodes, full_tasks) = if faulty {
            (DES_FAULTY, 1_000, 100_000)
        } else {
            (DES_CLEAN, 10_000, 1_000_000)
        };
        let cell = |scale: f64| {
            let nodes = scaled(full_nodes, scale, 4) as u32;
            if faulty {
                DesCell::faulty(nodes, seed)
            } else {
                DesCell::clean(nodes, seed)
            }
        };
        let tasks = scaled(full_tasks, scale, 400);
        Des {
            name,
            cell: cell(scale),
            mix: adapter::des_task_mix(seed, tasks),
            block: scaled(10_000, scale, 100).min(tasks),
            warmup_cell: cell(scale * WARMUP_SHRINK),
            warmup_tasks: scaled(full_tasks, scale * WARMUP_SHRINK, 400).min(tasks),
            variant_nodes: scaled(1_000, scale, 4) as u32,
            variant_tasks: scaled(100_000, scale, 400).min(tasks),
            first: None,
        }
    }

    fn drain(
        cell: &DesCell,
        mix: &[TaskSpec],
        block: usize,
        traced: bool,
        after_block: &mut dyn FnMut(),
    ) -> adapter::DesDrain {
        if traced {
            adapter::des_drain::<Traced>(cell, mix, block, after_block)
        } else {
            adapter::des_drain::<FrontDoor>(cell, mix, block, after_block)
        }
    }

    /// Tasks per host second of one untraced drain of a variant cell.
    fn variant_rate(&self, cell: &DesCell, tasks: usize) -> f64 {
        let drain = Self::drain(cell, &self.mix[..tasks], tasks, false, &mut || {});
        assert!(
            drain.result.failures.is_empty(),
            "variant {cell:?} failed: {:?}",
            drain.result.failures
        );
        drain.result.tasks as f64 / drain.wall_s
    }
}

impl Workload for Des {
    fn unit(&mut self, index: u64, traced: bool, after_op: &mut dyn FnMut()) -> Unit {
        if index == WARMUP_INDEX {
            let mix = &self.mix[..self.warmup_tasks];
            let drain = Self::drain(&self.warmup_cell, mix, mix.len(), traced, after_op);
            return Unit {
                result: drain.result,
                wall_s: drain.wall_s,
                op_ms: drain.block_ms,
                samples: Vec::new(),
            };
        }
        let mut drain = Self::drain(&self.cell, &self.mix, self.block, traced, after_op);
        // Every drain replays the same mix under the same seed.
        let print = (drain.result.digest, drain.control);
        let first = *self.first.get_or_insert(print);
        if first != print {
            drain.result.failures.push(format!(
                "this drain differs from the first drain of the same inputs: {print:x?} vs {first:x?}"
            ));
        }
        let c = drain.control;
        Unit {
            result: drain.result,
            wall_s: drain.wall_s,
            op_ms: drain.block_ms,
            samples: vec![
                ("pilot.control.messages", c.messages as f64),
                ("pilot.control.retransmits", c.retransmits as f64),
                ("pilot.control.heartbeats_sent", c.heartbeats_sent as f64),
                (
                    "pilot.control.fenced_completions",
                    c.fenced_completions as f64,
                ),
                ("pilot.control.dedup_hits", c.dedup_hits as f64),
                ("telemetry.dropped", drain.telemetry_dropped as f64),
            ],
        }
    }

    fn variants(&mut self, out: &mut Values) {
        if self.name == DES_CLEAN {
            let base = DesCell::clean(self.variant_nodes, self.cell.seed);
            for (metric, engine) in [
                ("pilot.engine.simulated.tasks_per_s", Engine::Simulated),
                (
                    "pilot.engine.sharded1.tasks_per_s",
                    Engine::Sharded {
                        shards: 1,
                        parallel: false,
                    },
                ),
                (
                    "pilot.engine.sharded8.tasks_per_s",
                    Engine::Sharded {
                        shards: 8,
                        parallel: false,
                    },
                ),
                (
                    "pilot.engine.sharded2_parallel.tasks_per_s",
                    Engine::Sharded {
                        shards: 2,
                        parallel: true,
                    },
                ),
            ] {
                let cell = DesCell { engine, ..base };
                out.set(metric, self.variant_rate(&cell, self.variant_tasks));
            }
            out.set(
                "pilot.scheduler.place_release_ns",
                adapter::probe_scheduler_place_release_ns(),
            );
            out.set(
                "sim.event_queue_ns_per_event",
                adapter::probe_event_queue_ns_per_event(),
            );
        } else {
            let tasks = self.mix.len();
            let with = |f: fn(&mut DesCell)| {
                let mut cell = self.cell;
                f(&mut cell);
                self.variant_rate(&cell, tasks)
            };
            let ring = with(|_| {});
            let disabled = with(|c| c.telemetry = TelemetryMode::Disabled);
            let null = with(|c| c.telemetry = TelemetryMode::Null);
            out.set("telemetry.ring_overhead_frac", disabled / ring - 1.0);
            out.set("telemetry.null_overhead_frac", disabled / null - 1.0);
            out.set(
                "pilot.nolink_variant.tasks_per_s",
                with(|c| c.link_faults = false),
            );
            out.set(
                "pilot.faultfree_variant.tasks_per_s",
                with(|c| {
                    c.link_faults = false;
                    c.task_faults = false;
                }),
            );
        }
    }

    fn size(&self) -> String {
        format!(
            "{} nodes x {} tasks per drain, ops are blocks of {} completions{}",
            self.cell.nodes,
            self.mix.len(),
            self.block,
            if self.name == DES_FAULTY {
                ", task + node + link faults, retries, hedging, quarantine, heartbeats, ring telemetry"
            } else {
                ""
            }
        )
    }
}
