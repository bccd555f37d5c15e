//! The metric registry: every name the ledger prints, with its unit, the
//! direction that counts as better, and whether it must repeat exactly.
//!
//! `BENCHMARK.json` is the contract a change is judged by; this table is
//! what the program actually prints. A test and `perf check` keep the two
//! equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for a fixed seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: [Def; 4] = [
    timing("setup_s", "s", Lower),
    timing("tasks_per_s", "1/s", Higher),
    timing("op_ms_p50", "ms", Lower),
    timing("peak_rss_mb", "MB", Lower),
];

/// Single layers, from the traced run. Times (`*_s`) are mean host seconds
/// per traced unit of work; exact counts are those of the first traced unit.
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [Def; 71] = [
    // pilot: backend engines, scheduler, fault handling, control plane.
    exact("pilot.calls", "count", Lower),
    timing("pilot.submit_s", "s", Lower),
    timing("pilot.drain_s", "s", Lower),
    timing("pilot.self_s", "s", Lower),
    timing("pilot.self_ns_per_task", "ns", Lower),
    exact("pilot.tasks_completed", "count", Higher),
    exact("pilot.tasks_failed_terminal", "count", Lower),
    exact("pilot.attempts_per_task", "ratio", Lower),
    exact("pilot.hedged_completions", "count", Lower),
    exact("pilot.control.messages", "count", Lower),
    exact("pilot.control.retransmits", "count", Lower),
    exact("pilot.control.heartbeats_sent", "count", Lower),
    exact("pilot.control.fenced_completions", "count", Lower),
    exact("pilot.control.dedup_hits", "count", Lower),
    timing("pilot.faultfree_variant.tasks_per_s", "1/s", Higher),
    timing("pilot.nolink_variant.tasks_per_s", "1/s", Higher),
    timing("pilot.engine.simulated.tasks_per_s", "1/s", Higher),
    timing("pilot.engine.sharded1.tasks_per_s", "1/s", Higher),
    timing("pilot.engine.sharded8.tasks_per_s", "1/s", Higher),
    timing("pilot.engine.sharded2_parallel.tasks_per_s", "1/s", Higher),
    timing("pilot.scheduler.place_release_ns", "ns", Lower),
    timing("sim.event_queue_ns_per_event", "ns", Lower),
    // proteins: the work closures, split by task name.
    timing("proteins.work_s", "s", Lower),
    exact("proteins.work_calls", "count", Lower),
    timing("proteins.mpnn_generate_s", "s", Lower),
    timing("proteins.af2_msa_s", "s", Lower),
    timing("proteins.af2_inference_s", "s", Lower),
    timing("proteins.select_assess_s", "s", Lower),
    // core: protocol state machine and adaptive policy.
    timing("core.pipeline_logic_s", "s", Lower),
    exact("core.pipeline_logic_calls", "count", Lower),
    timing("core.decision_s", "s", Lower),
    exact("core.decision_calls", "count", Lower),
    exact("core.spawns", "count", Higher),
    // workflow: the remainder no public seam separates.
    timing("workflow.self_s", "s", Lower),
    timing("workflow.self_ns_per_task", "ns", Lower),
    timing("workflow.service.submit_us_per_campaign", "us", Lower),
    timing("workflow.service.run_us_per_campaign", "us", Lower),
    timing("workflow.service.run_us_per_campaign_1k", "us", Lower),
    timing("workflow.service.scale_ratio", "ratio", Lower),
    // workflow::journal and json.
    timing("workflow.journal_store_s", "s", Lower),
    exact("workflow.journal_store_calls", "count", Lower),
    exact("workflow.journal_bytes", "B", Lower),
    exact("workflow.journal_records", "count", Lower),
    timing("workflow.journal.bare_ms", "ms", Lower),
    timing("workflow.journal.write_ms", "ms", Lower),
    timing("workflow.journal.overhead_frac", "ratio", Lower),
    timing("workflow.journal.load_ms", "ms", Lower),
    timing("workflow.resume_full_ms", "ms", Lower),
    timing("workflow.resume_half_ms", "ms", Lower),
    timing("json.ser_ns_per_record", "ns", Lower),
    timing("json.de_ns_per_record", "ns", Lower),
    // telemetry: the recording sink.
    exact("telemetry.events", "count", Lower),
    exact("telemetry.dropped", "count", Lower),
    timing("telemetry.sink_s", "s", Lower),
    timing("telemetry.sink_ns_per_event", "ns", Lower),
    timing("telemetry.ring_overhead_frac", "ratio", Lower),
    timing("telemetry.null_overhead_frac", "ratio", Lower),
    // model: simulated statistics; any change is a behaviour change.
    exact("model.virt_makespan_s", "s", Lower),
    exact("model.cpu_util", "ratio", Higher),
    exact("model.gpu_util", "ratio", Higher),
    exact("model.tasks", "count", Higher),
    exact("model.sub_pipelines", "count", Higher),
    exact("model.p50_campaign_latency_s", "s", Lower),
    exact("model.p99_campaign_latency_s", "s", Lower),
    exact("model.jain", "ratio", Higher),
    // harness: the benchmark's own bookkeeping.
    timing("harness.ops", "count", Higher),
    timing("harness.traced_ops", "count", Higher),
    timing("harness.op_ms_p90", "ms", Lower),
    timing("harness.op_ms_max", "ms", Lower),
    timing("harness.allocs_per_task", "count", Lower),
    timing("harness.trace_overhead_frac", "ratio", Lower),
];

/// One measured value of every metric of a table, in table order.
#[derive(Debug, Clone, PartialEq)]
pub struct Values {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Values {
    /// All zero: what a workload that does not exercise a layer reports.
    pub fn zeroed(defs: &'static [Def]) -> Values {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Panics on a name the table does not have: a metric cannot be printed
    /// without being declared.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        self.values[at] = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let at = self.defs.iter().position(|d| d.name == name)?;
        Some(self.values[at])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(def.name, 64, "_.-"), "name {:?}", def.name);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(def.unit, 16, "_/%.-"), "unit {:?}", def.unit);
            assert!(seen.insert(def.name), "{} is declared twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn values_are_keyed_by_declared_names() {
        let mut v = Values::zeroed(&END_TO_END);
        v.set("op_ms_p50", 1.5);
        assert_eq!(v.get("op_ms_p50"), Some(1.5));
        assert_eq!(v.get("setup_s"), Some(0.0));
        assert_eq!(v.get("nope"), None);
        assert_eq!(v.iter().count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn an_undeclared_metric_cannot_be_set() {
        Values::zeroed(&PER_LAYER).set("pilot.typo", 1.0);
    }
}
