//! Paper-shape regression tests: the qualitative results of §III asserted
//! at reduced scale, so `cargo test` guards the reproduction.

use impress_bench::harness::expanded_experiment;
use impress_core::adaptive::AdaptivePolicy;
use impress_core::experiment::run_imrp;
use impress_core::{CampaignSpec, ProtocolConfig};
use impress_pilot::PilotConfig;
use impress_proteins::datasets::{mined_pdz_complexes, named_pdz_domains};
use impress_proteins::MetricKind;

/// Fig. 3's scale relations at a reduced cohort: every root pipeline,
/// sub-pipeline budget proportional to the paper's 96/70, trajectories
/// exceeding 4 × roots only through sub-pipelines.
#[test]
fn expanded_run_scale_relations() {
    let n = 20;
    let result = expanded_experiment(2025, n);
    assert_eq!(result.run.root_pipelines, n);
    assert!(result.run.sub_pipelines > 0);
    assert!(result.run.sub_pipelines <= n * 96 / 70);
    // Trajectories: roots contribute up to 4 each; subs extend further.
    assert!(
        result.trajectories as usize >= 3 * n,
        "{}",
        result.trajectories
    );
    assert!(
        result.trajectories as usize <= 4 * n + result.run.sub_pipelines,
        "{} trajectories vs {} subs",
        result.trajectories,
        result.run.sub_pipelines
    );
}

/// Fig. 3's improvement trend: iterations 1→3 improve monotonically in the
/// median for every metric (the dip at 4 is asserted at full scale by the
/// fig3 harness; at reduced n it is within noise, so only the robust part
/// is a test invariant).
#[test]
fn expanded_run_improves_through_iteration_three() {
    let result = expanded_experiment(2025, 20);
    for metric in MetricKind::ALL {
        let s = result.series(metric);
        let med = |it: u32| -> f64 {
            let p = s.iterations.iter().position(|&x| x == it).unwrap();
            s.summaries[p].median
        };
        let (m1, m2, m3) = (med(1), med(2), med(3));
        if metric.higher_is_better() {
            assert!(m2 > m1, "{metric}: iter2 {m2} ≤ iter1 {m1}");
            assert!(m3 > m2, "{metric}: iter3 {m3} ≤ iter2 {m2}");
        } else {
            assert!(m2 < m1, "{metric}: iter2 {m2} ≥ iter1 {m1}");
            assert!(m3 < m2, "{metric}: iter3 {m3} ≥ iter2 {m2}");
        }
    }
}

/// The speculative-width knob changes utilization but never the science:
/// the same designs are accepted at widths 1 and 4.
#[test]
fn speculation_width_does_not_change_accepted_designs() {
    let targets: Vec<_> = named_pdz_domains(5).into_iter().take(2).collect();
    let run = |width: u32| {
        let mut config = ProtocolConfig::imrp(5);
        config.speculation = width;
        run_imrp(
            &targets,
            config,
            AdaptivePolicy {
                sub_budget: 0,
                ..AdaptivePolicy::default()
            },
        )
    };
    let narrow = run(1);
    let wide = run(4);
    let by_label = |r: &impress_core::ExperimentResult| {
        let mut o = r.outcomes.clone();
        o.sort_by(|a, b| a.label.cmp(&b.label));
        o
    };
    for (a, b) in by_label(&narrow).iter().zip(&by_label(&wide)) {
        assert_eq!(a.final_receptor, b.final_receptor, "{}", a.target);
        assert_eq!(a.iterations, b.iterations);
    }
    // Wide speculation executes at least as many evaluations.
    assert!(wide.evaluations >= narrow.evaluations);
}

/// Multi-node strong scaling: more nodes, shorter makespan, same science.
#[test]
fn multi_node_scaling_shortens_makespan() {
    let targets = mined_pdz_complexes(3, 10);
    let run = |nodes: u32| {
        CampaignSpec::imrp(&targets, ProtocolConfig::imrp(3))
            .policy(AdaptivePolicy {
                sub_budget: 4,
                ..AdaptivePolicy::default()
            })
            .pilot(PilotConfig {
                nodes,
                ..PilotConfig::with_seed(3)
            })
            .run()
            .expect("no resume plan to reject")
            .result
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four.run.makespan.as_hours_f64() < one.run.makespan.as_hours_f64() * 0.45,
        "4 nodes: {:.1}h vs 1 node: {:.1}h",
        four.run.makespan.as_hours_f64(),
        one.run.makespan.as_hours_f64()
    );
    // Science identical across cluster sizes (RNG is stream-keyed, not
    // schedule-keyed). Compare root lineages by label; sub-pipeline spawn
    // decisions can legitimately differ with completion order.
    let roots = |r: &impress_core::ExperimentResult| {
        let mut o: Vec<_> = r
            .outcomes
            .iter()
            .filter(|o| o.label.ends_with("/root"))
            .cloned()
            .collect();
        o.sort_by(|a, b| a.label.cmp(&b.label));
        o
    };
    for (a, b) in roots(&one).iter().zip(&roots(&four)) {
        assert_eq!(a.final_receptor, b.final_receptor, "{}", a.label);
    }
}
