//! The coordinator-level adaptive policy (IM-RP's decision engine).
//!
//! "The coordinator maintains a global perspective on each pipeline's
//! results and the quality of the resulting sequences, which are later used
//! to determine if there is a need to re-process 'low-quality' sequences
//! with a new pipeline" (§II-B). This engine implements that policy:
//!
//! * every completed lineage whose final score trails the best score seen
//!   so far is re-processed by a refinement **sub-pipeline** continuing the
//!   lineage for a few more cycles;
//! * lineages that terminated early (retry budget exhausted) are
//!   re-processed with a higher sampling temperature — exploration instead
//!   of refinement;
//! * a sub-pipeline budget bounds the total extra work.

use crate::config::ProtocolConfig;
use crate::protocol::{DesignOutcome, DesignPipeline};
use crate::toolkit::TargetToolkit;
use impress_proteins::Structure;
use impress_workflow::decision::Spawn;
use impress_workflow::{CoordinatorView, DecisionEngine, PipelineId};
use std::collections::HashMap;
use std::sync::Arc;

/// Cycles each refinement sub-pipeline runs.
const SUB_CYCLES: u32 = 1;
/// Score margin below the best-seen score that triggers re-processing.
const MARGIN: f64 = 0.003;
/// Temperature multiplier for exploration respawns of terminated lineages.
const EXPLORATION_TEMPERATURE: f64 = 1.5;
/// Speculation width for sub-pipelines ("explore alternative
/// conformations", §II-D): refinement runs evaluate more ranked candidates
/// concurrently than root pipelines, soaking up the resources that free as
/// roots drain.
const SUB_SPECULATION: u32 = 4;

/// Configuration of the sub-pipeline policy.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Maximum sub-pipelines to spawn across the run.
    pub sub_budget: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy { sub_budget: 7 }
    }
}

/// The IM-RP decision engine.
pub struct ImpressDecision {
    base: ProtocolConfig,
    policy: AdaptivePolicy,
    toolkits: HashMap<String, Arc<TargetToolkit>>,
    best_score: f64,
    spawned: usize,
    /// Completed outcomes not yet re-processed, with their pipeline ids.
    completed: Vec<(PipelineId, DesignOutcome)>,
    /// Labels already used as a sub-pipeline parent.
    processed: std::collections::HashSet<String>,
}

impl ImpressDecision {
    /// An engine spawning sub-pipelines with `base`-derived configurations
    /// over the given toolkits (keyed by target name).
    pub fn new(
        base: ProtocolConfig,
        policy: AdaptivePolicy,
        toolkits: impl IntoIterator<Item = Arc<TargetToolkit>>,
    ) -> Self {
        ImpressDecision {
            base,
            policy,
            toolkits: toolkits
                .into_iter()
                .map(|tk| (tk.name.clone(), tk))
                .collect(),
            best_score: f64::NEG_INFINITY,
            spawned: 0,
            completed: Vec::new(),
            processed: std::collections::HashSet::new(),
        }
    }

    fn spawn_for(
        &mut self,
        outcome: &DesignOutcome,
        explore: bool,
    ) -> Option<Spawn<DesignOutcome>> {
        if self.spawned >= self.policy.sub_budget {
            return None;
        }
        let tk = self.toolkits.get(&outcome.target)?.clone();
        let mut config = self.base.clone();
        config.cycles = SUB_CYCLES;
        config.speculation = SUB_SPECULATION;
        if explore {
            config.mpnn.temperature *= EXPLORATION_TEMPERATURE;
        }
        let structure = Structure::refined(
            tk.start
                .complex
                .with_receptor_sequence(outcome.final_receptor.clone()),
            outcome.final_backbone_quality,
            outcome.iterations.last().map(|r| r.iteration).unwrap_or(0),
        );
        let sub = DesignPipeline::continuation(tk, config, outcome, structure, self.spawned as u64);
        self.spawned += 1;
        Some(Spawn::root(Box::new(sub))) // parent id attached by caller
    }
}

impl DecisionEngine<DesignOutcome> for ImpressDecision {
    fn on_pipeline_complete(
        &mut self,
        id: PipelineId,
        outcome: &DesignOutcome,
        _view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<DesignOutcome>> {
        let score = outcome
            .final_report()
            .map(|r| r.score())
            .unwrap_or(f64::NEG_INFINITY);
        let prev_best = self.best_score;
        self.best_score = self.best_score.max(score);
        self.completed.push((id, outcome.clone()));
        let explore = outcome.terminated_early;
        // Eagerly re-process lineages that trail the best seen so far
        // (refinement) and lineages that terminated early (exploration);
        // anything missed here is swept up by `on_all_idle`.
        let trails_best = score < prev_best - MARGIN;
        if !trails_best && !explore {
            return Vec::new();
        }
        self.processed.insert(outcome.label.clone());
        match self.spawn_for(outcome, explore) {
            Some(mut spawn) => {
                spawn.parent = Some(id);
                vec![spawn]
            }
            None => Vec::new(),
        }
    }

    fn on_pipeline_aborted(
        &mut self,
        id: PipelineId,
        _reason: &str,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<DesignOutcome>> {
        // A crashed lineage is restarted from its target's starting
        // structure with exploration settings, within the sub budget.
        if self.spawned >= self.policy.sub_budget {
            return Vec::new();
        }
        let name = view.name(id);
        let target = name.split('/').next().unwrap_or(name);
        let Some(tk) = self.toolkits.get(target).cloned() else {
            return Vec::new();
        };
        let mut config = self.base.clone();
        config.mpnn.temperature *= EXPLORATION_TEMPERATURE;
        let sub = DesignPipeline::restart(tk, config, self.spawned as u64);
        self.spawned += 1;
        vec![Spawn::sub_of(id, Box::new(sub))]
    }

    fn on_all_idle(&mut self, _view: &CoordinatorView<'_>) -> Vec<Spawn<DesignOutcome>> {
        // Global sweep: the workload drained, so every completed lineage
        // that still trails the best and has not been refined yet is
        // re-processed *now*, as one concurrent wave — "offloading the newly
        // created pipelines … to the idle resources" (§III-B).
        let mut eligible: Vec<(PipelineId, DesignOutcome)> = self
            .completed
            .iter()
            .filter(|(_, o)| !self.processed.contains(&o.label))
            .filter(|(_, o)| {
                o.final_report()
                    .map(|r| r.score() < self.best_score - MARGIN)
                    .unwrap_or(true)
            })
            .map(|(id, o)| (*id, o.clone()))
            .collect();
        // Worst first, so the budget goes to the neediest lineages.
        eligible.sort_by(|(_, a), (_, b)| {
            let sa = a
                .final_report()
                .map(|r| r.score())
                .unwrap_or(f64::NEG_INFINITY);
            let sb = b
                .final_report()
                .map(|r| r.score())
                .unwrap_or(f64::NEG_INFINITY);
            sa.partial_cmp(&sb).expect("finite scores")
        });
        let mut spawns = Vec::new();
        for (id, outcome) in eligible {
            if self.spawned >= self.policy.sub_budget {
                break;
            }
            self.processed.insert(outcome.label.clone());
            let explore = outcome.terminated_early;
            if let Some(mut spawn) = self.spawn_for(&outcome, explore) {
                spawn.parent = Some(id);
                spawns.push(spawn);
            }
        }
        spawns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::PilotConfig;
    use impress_proteins::datasets::named_pdz_domains;
    use impress_workflow::Coordinator;

    fn toolkits() -> Vec<Arc<TargetToolkit>> {
        named_pdz_domains(42)
            .iter()
            .map(|t| TargetToolkit::for_target(t, 7))
            .collect()
    }

    #[test]
    fn sub_pipelines_are_spawned_and_bounded() {
        let config = ProtocolConfig::imrp(3);
        let tks = toolkits();
        let policy = AdaptivePolicy::default();
        let decision = ImpressDecision::new(config.clone(), policy, tks.clone());
        let backend = SimulatedBackend::new(PilotConfig::with_seed(3));
        let mut c = Coordinator::new(backend, decision);
        for (i, tk) in tks.iter().enumerate() {
            c.add_pipeline(Box::new(DesignPipeline::root(
                tk.clone(),
                config.clone(),
                i as u64,
            )));
        }
        let report = c.run();
        assert_eq!(report.root_pipelines, 4);
        assert!(
            report.sub_pipelines >= 1,
            "quality-ranked policy must re-process laggards"
        );
        assert!(
            report.sub_pipelines <= policy.sub_budget,
            "budget exceeded: {}",
            report.sub_pipelines
        );
        // Every sub outcome continues its parent's iteration numbering.
        for (id, outcome) in c.outcomes() {
            if c.view().parent(*id).is_some() {
                assert!(outcome.start_iteration > 1, "{}", outcome.label);
            }
        }
    }

    #[test]
    fn total_trajectories_exceed_root_only_count() {
        let config = ProtocolConfig::imrp(5);
        let tks = toolkits();
        let decision = ImpressDecision::new(config.clone(), AdaptivePolicy::default(), tks.clone());
        let backend = SimulatedBackend::new(PilotConfig::with_seed(5));
        let mut c = Coordinator::new(backend, decision);
        for (i, tk) in tks.iter().enumerate() {
            c.add_pipeline(Box::new(DesignPipeline::root(
                tk.clone(),
                config.clone(),
                i as u64,
            )));
        }
        c.run();
        let trajectories: u32 = c.outcomes().iter().map(|(_, o)| o.trajectories()).sum();
        assert!(
            trajectories > 12,
            "roots alone give up to 16; adaptivity must add more or roots must mostly finish (got {trajectories})"
        );
    }

    #[test]
    fn budget_zero_means_no_subs() {
        let config = ProtocolConfig::imrp(7);
        let tks = toolkits();
        let decision = ImpressDecision::new(
            config.clone(),
            AdaptivePolicy { sub_budget: 0 },
            tks.clone(),
        );
        let backend = SimulatedBackend::new(PilotConfig::with_seed(7));
        let mut c = Coordinator::new(backend, decision);
        for (i, tk) in tks.iter().enumerate() {
            c.add_pipeline(Box::new(DesignPipeline::root(
                tk.clone(),
                config.clone(),
                i as u64,
            )));
        }
        let report = c.run();
        assert_eq!(report.sub_pipelines, 0);
    }
}
