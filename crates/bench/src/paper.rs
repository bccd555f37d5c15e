//! The paper's evaluation as study rows: Table I, Figs. 2–5, the strong
//! scaling extension and the design-choice ablations, each a function from
//! size and seed to its document, plus the claims and figures that read
//! those documents.

use crate::harness::{
    bar_panel, expanded_experiment, named_domains, paper_experiment, task_stream,
};
use crate::study::{at, num, rows, Size};
use impress_core::adaptive::AdaptivePolicy;
use impress_core::{CampaignSpec, IterationSeries, ProtocolConfig};
use impress_json::{FromJson, Json};
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{ExecutionBackend, PilotConfig, TaskDescription, SERIES_BIN};
use impress_proteins::datasets::mined_pdz_complexes;
use impress_proteins::MetricKind;
use impress_sim::SimDuration;

/// Table I: CONT-V vs IM-RP on the 4 named PDZ domains.
pub(crate) fn table1(_: Size, seed: u64) -> Json {
    let (cont, imrp) = paper_experiment(seed).table1();
    let (ptm, plddt, pae) = imrp.improvement_over(&cont);
    Json::object()
        .field("seed", seed)
        .field("cont_v", &cont)
        .field("imrp", &imrp)
        .field(
            "improvement_pct",
            Json::object()
                .field("ptm", ptm)
                .field("plddt", plddt)
                .field("pae", pae)
                .build(),
        )
        .build()
}

/// Fig. 2: per-iteration pLDDT/pTM/ipAE medians ± σ/2 of both arms.
pub(crate) fn fig2(_: Size, seed: u64) -> Json {
    let exp = paper_experiment(seed);
    Json::object()
        .field("seed", seed)
        .field(
            "cont_v",
            Json::array(MetricKind::ALL.map(|m| exp.cont_v.series(m))),
        )
        .field(
            "imrp",
            Json::array(MetricKind::ALL.map(|m| exp.imrp.series(m))),
        )
        .build()
}

/// Fig. 3: the expanded IM-RP run (70 mined complexes, 20 at smoke size)
/// with adaptivity disabled in the final cycle.
pub(crate) fn fig3(size: Size, seed: u64) -> Json {
    let n = match size {
        Size::Paper => 70,
        Size::Smoke => 20,
    };
    let result = expanded_experiment(seed, n);
    Json::object()
        .field("seed", seed)
        .field("complexes", n)
        .field("trajectories", result.trajectories)
        .field("sub_pipelines", result.run.sub_pipelines)
        .field(
            "series",
            Json::array(MetricKind::ALL.map(|m| result.series(m))),
        )
        .build()
}

/// The width of one Fig. 4/5 series point, in minutes.
const BIN_MINUTES: u64 = SERIES_BIN.as_micros() / 60_000_000;

/// Fig. 4: CONT-V utilization in 10-minute bins, and its makespan.
pub(crate) fn fig4(_: Size, seed: u64) -> Json {
    let r = &paper_experiment(seed).cont_v;
    Json::object()
        .field("seed", seed)
        .field("bin_minutes", BIN_MINUTES)
        .field("cpu_series", &r.cpu_series)
        .field("gpu_hw_series", &r.gpu_hw_series)
        .field("avg_cpu", r.run.cpu_utilization)
        .field("avg_gpu_hw", r.run.gpu_hardware_utilization)
        .field("makespan_hours", r.run.makespan.as_hours_f64())
        .build()
}

/// Fig. 5: IM-RP utilization, makespan and pilot phase breakdown.
pub(crate) fn fig5(_: Size, seed: u64) -> Json {
    let r = &paper_experiment(seed).imrp;
    Json::object()
        .field("seed", seed)
        .field("bin_minutes", BIN_MINUTES)
        .field("cpu_series", &r.cpu_series)
        .field("gpu_slot_series", &r.gpu_slot_series)
        .field("gpu_hw_series", &r.gpu_hw_series)
        .field("avg_cpu", r.run.cpu_utilization)
        .field("avg_gpu_slot", r.run.gpu_slot_utilization)
        .field("makespan_hours", r.run.makespan.as_hours_f64())
        .field("phases", r.run.phases)
        .build()
}

/// Strong scaling (beyond the paper): the expanded IM-RP cohort on 1..32
/// Amarel-shaped nodes, then a synthetic task stream through a 16-node
/// pilot at queue depths the protocol never reaches. Every number is
/// virtual time; wall-clock throughput is the perf ledger's.
pub(crate) fn scaling(size: Size, seed: u64) -> Json {
    let (n, stream_tasks) = match size {
        Size::Paper => (24, 10_000),
        Size::Smoke => (6, 500),
    };
    let targets = mined_pdz_complexes(seed, n);
    let mut baseline_h = None;
    let mut rows = Vec::new();
    for nodes in [1u32, 2, 4, 8, 16, 32] {
        let pilot = PilotConfig {
            nodes,
            ..PilotConfig::with_seed(seed)
        };
        let result = CampaignSpec::imrp(&targets, ProtocolConfig::imrp(seed))
            .policy(AdaptivePolicy { sub_budget: n / 3 })
            .pilot(pilot)
            .run()
            .expect("no resume plan to reject")
            .result;
        let h = result.run.makespan.as_hours_f64();
        let speedup = *baseline_h.get_or_insert(h) / h;
        rows.push(
            Json::object()
                .field("nodes", nodes)
                .field("makespan_hours", h)
                .field("speedup", speedup)
                .field("efficiency", speedup / nodes as f64)
                .field("cpu", result.run.cpu_utilization)
                .field("gpu_slot", result.run.gpu_slot_utilization)
                .field("trajectories", result.trajectories)
                .build(),
        );
    }
    Json::object()
        .field("seed", seed)
        .field("complexes", n)
        .field("rows", Json::array(rows))
        .field("task_stream", task_stream_section(seed, 16, stream_tasks))
        .build()
}

/// Drive `n` synthetic tasks (the standard heterogeneous request stream,
/// deterministic pseudo-varied durations) through a `nodes`-node pilot.
fn task_stream_section(seed: u64, nodes: u32, n: usize) -> Json {
    let mut backend = SimulatedBackend::new(PilotConfig {
        nodes,
        ..PilotConfig::with_seed(seed)
    });
    for (i, req) in task_stream(n).into_iter().enumerate() {
        let secs = 60 + (i as u64 * 37) % 600;
        backend.submit(TaskDescription::new(
            format!("s{i}"),
            req,
            SimDuration::from_secs(secs),
        ));
    }
    let mut completed = 0u64;
    while let Some(c) = backend.next_completion() {
        assert!(c.result.is_ok());
        completed += 1;
    }
    let makespan_h = backend.now().as_secs_f64() / 3600.0;
    let util = backend.utilization();
    Json::object()
        .field("nodes", nodes)
        .field("tasks", completed)
        .field("makespan_hours", makespan_h)
        .field("cpu", util.cpu)
        .field("gpu_slot", util.gpu_slot)
        .field("tasks_per_virtual_hour", completed as f64 / makespan_h)
        .build()
}

/// The design-choice ablations (`impress_core::standard_suite`) on the
/// named PDZ domains: all four at paper size, two at smoke size.
pub(crate) fn ablations(size: Size, seed: u64) -> Json {
    let targets = named_domains(size, seed);
    let rows = impress_core::standard_suite(&targets, seed);
    Json::object()
        .field("seed", seed)
        .field("structures", targets.len())
        .field("rows", Json::array(&rows))
        .build()
}

// ------------------------------------------------------- claims, figures

/// `key` of the ablation row labelled `variant`, NaN if there is none.
pub(crate) fn variant(doc: &Json, variant: &str, key: &str) -> f64 {
    let labelled = |r: &&Json| at(r, "variant").as_str() == Some(variant);
    rows(doc, "rows")
        .iter()
        .find(labelled)
        .map_or(f64::NAN, |r| num(r, key))
}

/// The per-metric series at `key` (empty if the document has none).
fn series(doc: &Json, key: &str) -> Vec<IterationSeries> {
    Vec::from_json(at(doc, key)).unwrap_or_default()
}

/// The median of `metric` at `iteration`, NaN if the series lacks it.
fn median(series: &[IterationSeries], metric: MetricKind, iteration: u32) -> f64 {
    let Some(s) = series.iter().find(|s| s.metric == metric) else {
        return f64::NAN;
    };
    let at = s.iterations.iter().position(|&it| it == iteration);
    at.map_or(f64::NAN, |p| s.summaries[p].median)
}

/// `a` is better than `b` on `metric`.
fn better(metric: MetricKind, a: f64, b: f64) -> bool {
    if metric.higher_is_better() {
        a > b
    } else {
        a < b
    }
}

const PLDDT_PTM: [MetricKind; 2] = [MetricKind::Plddt, MetricKind::Ptm];

pub(crate) fn imrp_leads_through_iteration_four(doc: &Json) -> bool {
    let (cont, imrp) = (series(doc, "cont_v"), series(doc, "imrp"));
    PLDDT_PTM
        .iter()
        .all(|&m| (1..=4).all(|it| better(m, median(&imrp, m, it), median(&cont, m, it))))
}

pub(crate) fn one_root_per_complex(doc: &Json) -> bool {
    let roots = |s: &IterationSeries| s.summaries.first().map(|f| f.n as f64);
    series(doc, "series")
        .iter()
        .all(|s| roots(s) == Some(num(doc, "complexes")))
}

pub(crate) fn improves_through_iteration_three(doc: &Json) -> bool {
    let s = series(doc, "series");
    MetricKind::ALL
        .iter()
        .all(|&m| (1..3).all(|it| better(m, median(&s, m, it + 1), median(&s, m, it))))
}

pub(crate) fn dips_at_iteration_four(doc: &Json) -> bool {
    let s = series(doc, "series");
    PLDDT_PTM
        .iter()
        .all(|&m| median(&s, m, 4) < median(&s, m, 3))
}

/// Medians and half standard deviations of `s` at `iterations`.
fn bars(s: &IterationSeries, iterations: &[u32]) -> (Vec<f64>, Vec<f64>) {
    let at = |it: &u32| {
        &s.summaries[s
            .iterations
            .iter()
            .position(|x| x == it)
            .expect("an iteration of the series")]
    };
    let meds = iterations.iter().map(|it| at(it).median).collect();
    let errs = iterations.iter().map(|it| at(it).half_std()).collect();
    (meds, errs)
}

/// Fig. 2's bar panels (CONT-V then IM-RP; whiskers ±σ/2) at the
/// iterations both arms reach.
pub(crate) fn fig2_figure(doc: &Json) -> String {
    let (cont, imrp) = (series(doc, "cont_v"), series(doc, "imrp"));
    let mut out = String::new();
    for (c, i) in cont.iter().zip(&imrp) {
        let common: Vec<u32> = c
            .iterations
            .iter()
            .copied()
            .filter(|it| i.iterations.contains(it))
            .collect();
        let ((cm, ce), (im, ie)) = (bars(c, &common), bars(i, &common));
        let groups = [("CONT-V", cm, ce), ("IM-RP", im, ie)];
        out.push_str(&bar_panel(c.metric, &common, &groups, 12));
        out.push('\n');
    }
    out
}

/// Fig. 3's bar panels over iterations 1-4 (later sub-pipeline iterations
/// exist but are sparse).
pub(crate) fn fig3_figure(doc: &Json) -> String {
    let mut out = String::new();
    for s in series(doc, "series") {
        let iterations: Vec<u32> = s.iterations.iter().copied().filter(|&i| i <= 4).collect();
        let (meds, errs) = bars(&s, &iterations);
        out.push_str(&bar_panel(
            s.metric,
            &iterations,
            &[("IM-RP", meds, errs)],
            12,
        ));
        out.push('\n');
    }
    out
}
