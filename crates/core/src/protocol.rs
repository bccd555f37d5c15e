//! The adaptive design pipeline (IM-RP's per-lineage state machine).
//!
//! One [`DesignPipeline`] carries one design lineage ("IMPRESS operates in
//! iterative stages during this implementation, submitting a single protein
//! structure for each new pipeline", §II-D) through `M` design cycles of the
//! seven-stage protocol. Stage 6's adaptive selection — accept on
//! improvement, otherwise retry the next-ranked candidate up to the retry
//! budget — is implemented here; the coordinator-level adaptivity
//! (sub-pipeline spawning) lives in [`crate::adaptive`].

use crate::config::ProtocolConfig;
use crate::stages::{stage1_mpnn, stage2_3_select, stage4_inference, stage4_msa, stage5_6_assess};
use crate::toolkit::TargetToolkit;
use impress_json::json_struct;
use impress_pilot::Completion;
use impress_proteins::msa::Msa;
use impress_proteins::{ConfidenceReport, Prediction, ScoredSequence, Sequence, Structure};
use impress_sim::SimRng;
use impress_workflow::{PipelineLogic, Step};
use std::sync::Arc;

/// One accepted design iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Global iteration number (1-based; sub-pipelines continue their
    /// parent's numbering).
    pub iteration: u32,
    /// The accepted model's confidence report.
    pub report: ConfidenceReport,
    /// Hidden true quality of the accepted design (oracle, for analysis).
    pub true_quality: f64,
    /// Hidden true binding quality (oracle).
    pub bind_quality: f64,
    /// AlphaFold evaluations spent this cycle (1 = first candidate
    /// accepted; > 1 means declined alternates were evaluated first).
    pub evaluations: u32,
    /// Rank (0-based) of the accepted candidate in the selection order.
    pub accepted_rank: u32,
}
json_struct!(IterationRecord {
    iteration,
    report,
    true_quality,
    bind_quality,
    evaluations,
    accepted_rank
});

/// Everything a finished lineage reports to the decision engine.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// Target name.
    pub target: String,
    /// Pipeline label (distinguishes roots from spawned sub-pipelines).
    pub label: String,
    /// Accepted iterations, in order.
    pub iterations: Vec<IterationRecord>,
    /// The final accepted receptor sequence.
    pub final_receptor: Sequence,
    /// Backbone quality of the final structure (observed).
    pub final_backbone_quality: f64,
    /// Total AlphaFold evaluations spent (accepted + declined candidates).
    pub total_evaluations: u32,
    /// `true` if the lineage exhausted its retry budget before finishing
    /// all cycles (the paper's "pipeline is terminated" case).
    pub terminated_early: bool,
    /// Confidence metrics of the starting structure (iteration-0 baseline,
    /// known from preparation; identical for both arms).
    pub baseline_report: ConfidenceReport,
    /// Iteration number this lineage started at (1 for roots).
    pub start_iteration: u32,
}
json_struct!(DesignOutcome {
    target,
    label,
    iterations,
    final_receptor,
    final_backbone_quality,
    total_evaluations,
    terminated_early,
    baseline_report,
    start_iteration
});

impl DesignOutcome {
    /// The last accepted report, if any iteration was accepted.
    pub fn final_report(&self) -> Option<&ConfidenceReport> {
        self.iterations.last().map(|r| &r.report)
    }

    /// Number of accepted design points (the paper's "trajectories"
    /// accounting: CONT-V's 16 = 4 structures × 4 cycles).
    pub(crate) fn trajectories(&self) -> u32 {
        self.iterations.len() as u32
    }
}

enum Phase {
    Mpnn,
    Select,
    Msa,
    Fold,
    Assess,
}

/// The per-lineage pipeline state machine.
pub struct DesignPipeline {
    tk: Arc<TargetToolkit>,
    config: ProtocolConfig,
    label: String,
    rng: SimRng,
    /// Current structure (input to the next MPNN round).
    current: Structure,
    /// Last accepted report (None before the first acceptance).
    previous_report: Option<ConfidenceReport>,
    ordered: Vec<ScoredSequence>,
    candidate_idx: usize,
    /// Local cycle counter, 1-based.
    cycle: u32,
    /// Global iteration offset (sub-pipelines continue numbering).
    start_iteration: u32,
    records: Vec<IterationRecord>,
    total_evaluations: u32,
    baseline_report: ConfidenceReport,
    phase: Phase,
    /// Stage 4 draws one stream per cycle (`fork_idx("msa"|"fold", cycle)`)
    /// rather than one per candidate: CONT-V's lineages keep the streams of
    /// the sequential script they replaced, so its artifacts hold.
    per_cycle_streams: bool,
}

impl DesignPipeline {
    /// A root pipeline for `tk`'s starting structure.
    pub fn root(tk: Arc<TargetToolkit>, config: ProtocolConfig, replica: u64) -> Self {
        let label = format!("{}/root", tk.name);
        let rng = SimRng::from_seed(config.seed)
            .fork(&tk.name)
            .fork_idx("pipeline", replica);
        let current = tk.start.clone();
        let baseline_report = tk.baseline_report();
        DesignPipeline {
            tk,
            config,
            label,
            rng,
            current,
            previous_report: None,
            ordered: Vec::new(),
            candidate_idx: 0,
            cycle: 1,
            start_iteration: 1,
            records: Vec::new(),
            total_evaluations: 0,
            baseline_report,
            phase: Phase::Mpnn,
            per_cycle_streams: false,
        }
    }

    /// A CONT-V lineage for `tk`: a root on the stream
    /// `seed → "cont-v" → target`, with one Stage 4 stream per cycle.
    pub(crate) fn cont_v(tk: Arc<TargetToolkit>, config: ProtocolConfig) -> Self {
        let label = format!("{}/cont-v", tk.name);
        let rng = SimRng::from_seed(config.seed).fork("cont-v").fork(&tk.name);
        DesignPipeline {
            label,
            rng,
            per_cycle_streams: true,
            ..Self::root(tk, config, 0)
        }
    }

    /// A fresh restart of a target's design (used by the decision engine
    /// after a lineage crashes): identical to a root pipeline but with a
    /// distinguishable label and its own RNG stream.
    pub(crate) fn restart(tk: Arc<TargetToolkit>, config: ProtocolConfig, attempt: u64) -> Self {
        let mut p = Self::root(tk, config, 1000 + attempt);
        p.label = format!("{}/restart{attempt}", p.label);
        p
    }

    /// A sub-pipeline continuing `parent_outcome`'s lineage for
    /// `config.cycles` more cycles. Inherits the parent's last report so
    /// Stage 6 is adaptive from its first cycle.
    pub(crate) fn continuation(
        tk: Arc<TargetToolkit>,
        config: ProtocolConfig,
        parent: &DesignOutcome,
        structure: Structure,
        sub_index: u64,
    ) -> Self {
        let label = format!("{}/sub{}", parent.label, sub_index);
        let rng = SimRng::from_seed(config.seed)
            .fork(&label)
            .fork_idx("sub", sub_index);
        let start_iteration = parent
            .iterations
            .last()
            .map(|r| r.iteration + 1)
            .unwrap_or(parent.start_iteration);
        DesignPipeline {
            tk,
            config,
            label,
            rng,
            current: structure,
            previous_report: parent.final_report().copied(),
            ordered: Vec::new(),
            candidate_idx: 0,
            cycle: 1,
            start_iteration,
            records: Vec::new(),
            total_evaluations: 0,
            baseline_report: parent.baseline_report,
            phase: Phase::Mpnn,
            per_cycle_streams: false,
        }
    }

    /// Global iteration number of the current cycle.
    fn iteration(&self) -> u32 {
        self.start_iteration + self.cycle - 1
    }

    /// Whether Stage 6's adaptive selection applies to the current cycle.
    fn adaptive_now(&self) -> bool {
        if !self.config.adaptive {
            return false;
        }
        let is_final = self.cycle == self.config.cycles;
        !is_final || self.config.adaptive_final_cycle
    }

    fn submit_mpnn(&mut self) -> Step<DesignOutcome> {
        self.phase = Phase::Mpnn;
        let rng = self.rng.fork_idx("mpnn", self.iteration() as u64);
        Step::run(stage1_mpnn(
            &self.tk,
            self.current.clone(),
            self.config.mpnn.clone(),
            self.config.mpnn_gpus,
            rng,
        ))
    }

    fn submit_select(&mut self, proposals: Vec<ScoredSequence>) -> Step<DesignOutcome> {
        self.phase = Phase::Select;
        let rng = self.rng.fork_idx("select", self.iteration() as u64);
        Step::run(stage2_3_select(proposals, self.adaptive_now(), rng))
    }

    /// Number of ranked candidates evaluated concurrently this round:
    /// speculative prefetch of likely retries, bounded by the retry budget
    /// and the candidate pool. Non-adaptive cycles accept unconditionally,
    /// so speculation would be pure waste — width 1.
    fn batch_width(&self) -> usize {
        let budget = (self.config.retry_budget as usize).min(self.ordered.len());
        let remaining = budget.saturating_sub(self.candidate_idx);
        if !self.adaptive_now() {
            return remaining.min(1);
        }
        remaining.min(self.config.speculation.max(1) as usize)
    }

    /// Stage 4's `stage` stream for ranked candidate `k` of this cycle.
    fn stage4_rng(&self, stage: &str, k: usize) -> SimRng {
        if self.per_cycle_streams {
            return self.rng.fork_idx(stage, self.iteration() as u64);
        }
        self.rng
            .fork(&format!("{stage}/i{}/k{k}", self.iteration()))
    }

    fn submit_msa(&mut self) -> Step<DesignOutcome> {
        self.phase = Phase::Msa;
        let width = self.batch_width();
        assert!(width > 0, "submit_msa called with no candidates left");
        let tasks = (0..width)
            .map(|i| {
                let k = self.candidate_idx + i;
                let candidate = self.ordered[k].sequence.clone();
                let rng = self.stage4_rng("msa", k);
                // Optionally keep speculative alternates off the critical
                // path (see ProtocolConfig::deprioritize_speculation).
                let priority = if i == 0 || !self.config.deprioritize_speculation {
                    0
                } else {
                    -1
                };
                stage4_msa(&self.tk, candidate, self.config.alphafold.msa_mode, rng)
                    .with_priority(priority)
            })
            .collect();
        Step::Submit(tasks)
    }

    fn submit_fold(&mut self, msas: Vec<Msa>) -> Step<DesignOutcome> {
        self.phase = Phase::Fold;
        let tasks = msas
            .into_iter()
            .enumerate()
            .map(|(i, msa)| {
                let k = self.candidate_idx + i;
                let candidate = self.ordered[k].sequence.clone();
                let rng = self.stage4_rng("fold", k);
                let priority = if i == 0 || !self.config.deprioritize_speculation {
                    0
                } else {
                    -1
                };
                stage4_inference(
                    &self.tk,
                    candidate,
                    msa,
                    self.config.alphafold,
                    self.iteration(),
                    rng,
                )
                .with_priority(priority)
            })
            .collect();
        Step::Submit(tasks)
    }

    fn submit_assess(&mut self, predictions: Vec<Prediction>) -> Step<DesignOutcome> {
        self.phase = Phase::Assess;
        Step::Submit(predictions.into_iter().map(stage5_6_assess).collect())
    }

    /// What the lineage has so far, as its outcome.
    pub(crate) fn outcome(&self, terminated_early: bool) -> DesignOutcome {
        DesignOutcome {
            target: self.tk.name.clone(),
            label: self.label.clone(),
            iterations: self.records.clone(),
            final_receptor: self.current.complex.receptor.sequence.clone(),
            final_backbone_quality: self.current.backbone_quality,
            total_evaluations: self.total_evaluations,
            terminated_early,
            baseline_report: self.baseline_report,
            start_iteration: self.start_iteration,
        }
    }

    /// Stage 6: accept or retry. `batch` holds the speculative round's
    /// predictions in rank order; candidates are still considered strictly
    /// sequentially, so the outcome is identical to unspeculated execution —
    /// extra evaluations only burn otherwise-idle resources.
    fn decide(&mut self, batch: Vec<Prediction>) -> Step<DesignOutcome> {
        self.total_evaluations += batch.len() as u32;
        let width = batch.len();
        for (offset, prediction) in batch.into_iter().enumerate() {
            let rank = self.candidate_idx + offset;
            let report = prediction.report;
            let accept = match (&self.previous_report, self.adaptive_now()) {
                (_, false) => true,
                (None, true) => true,
                (Some(prev), true) => report.improves_over(prev),
            };
            if !accept {
                continue;
            }
            let truth = self
                .tk
                .landscape
                .fitness(&prediction.structure.complex.receptor.sequence);
            self.records.push(IterationRecord {
                iteration: self.iteration(),
                report,
                true_quality: truth.quality,
                bind_quality: truth.bind_quality,
                evaluations: rank as u32 + 1,
                accepted_rank: rank as u32,
            });
            self.previous_report = Some(report);
            self.current = prediction.structure;
            self.candidate_idx = 0;
            if self.cycle >= self.config.cycles {
                return Step::Complete(self.outcome(false));
            }
            self.cycle += 1;
            return self.submit_mpnn();
        }
        // Whole round declined: move past it.
        self.candidate_idx += width;
        let budget = (self.config.retry_budget as usize).min(self.ordered.len());
        if self.candidate_idx >= budget {
            // "This alternative selection process can be repeated up to
            // 10 times, after which the pipeline is terminated."
            return Step::Complete(self.outcome(true));
        }
        self.submit_msa()
    }
}

impl PipelineLogic<DesignOutcome> for DesignPipeline {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn begin(&mut self) -> Step<DesignOutcome> {
        self.submit_mpnn()
    }

    fn stage_done(&mut self, mut completions: Vec<Completion>) -> Step<DesignOutcome> {
        // Fail-safe: a crashed task (e.g. a generator bug, an OOM-killed
        // model) aborts the lineage instead of poisoning the coordinator;
        // the decision engine can then re-process the target.
        if let Some(failed) = completions.iter().find(|c| c.failure().is_some()) {
            let e = failed.failure().expect("find() matched a failure");
            let reason = format!("task {} ({}) failed: {e}", failed.task, failed.name);
            return Step::Abort(reason);
        }
        match std::mem::replace(&mut self.phase, Phase::Mpnn) {
            Phase::Mpnn => {
                assert_eq!(completions.len(), 1, "stage 1 is single-task");
                let proposals = completions
                    .pop()
                    .expect("one")
                    .output::<Vec<ScoredSequence>>();
                self.submit_select(proposals)
            }
            Phase::Select => {
                assert_eq!(completions.len(), 1, "stages 2+3 are single-task");
                self.ordered = completions.pop().expect("one").output();
                self.candidate_idx = 0;
                self.submit_msa()
            }
            Phase::Msa => {
                let msas: Vec<Msa> = completions.into_iter().map(|c| c.output::<Msa>()).collect();
                self.submit_fold(msas)
            }
            Phase::Fold => {
                let predictions: Vec<Prediction> = completions
                    .into_iter()
                    .map(|c| c.output::<Prediction>())
                    .collect();
                self.submit_assess(predictions)
            }
            Phase::Assess => {
                let batch: Vec<Prediction> = completions
                    .into_iter()
                    .map(|c| c.output::<Prediction>())
                    .collect();
                self.decide(batch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::PilotConfig;
    use impress_proteins::datasets::named_pdz_domains;
    use impress_workflow::{Coordinator, NoDecisions};

    fn run_pipeline(config: ProtocolConfig, target_idx: usize) -> DesignOutcome {
        let targets = named_pdz_domains(42);
        let tk = TargetToolkit::for_target(&targets[target_idx], 7);
        let backend = SimulatedBackend::new(PilotConfig::with_seed(config.seed));
        let mut c = Coordinator::new(backend, NoDecisions);
        c.add_pipeline(Box::new(DesignPipeline::root(tk, config, 0)));
        c.run();
        assert_eq!(c.outcomes().len(), 1, "pipeline must complete");
        c.outcomes()[0].1.clone()
    }

    #[test]
    fn adaptive_pipeline_runs_four_cycles_and_improves() {
        let out = run_pipeline(ProtocolConfig::imrp(11), 0);
        assert!(!out.terminated_early || out.iterations.len() < 4);
        assert!(
            !out.iterations.is_empty(),
            "at least one accepted iteration"
        );
        // Iterations must be strictly increasing and start at 1.
        for (i, rec) in out.iterations.iter().enumerate() {
            assert_eq!(rec.iteration, i as u32 + 1);
        }
        // Adaptive acceptance ⇒ monotone majority-improvement chain: the
        // last accepted report must beat the first on score.
        if out.iterations.len() >= 2 {
            let first = out.iterations.first().unwrap().report;
            let last = out.iterations.last().unwrap().report;
            assert!(
                last.score() > first.score(),
                "quality must improve: {first} → {last}"
            );
        }
    }

    #[test]
    fn non_adaptive_pipeline_always_accepts() {
        let out = run_pipeline(ProtocolConfig::cont_v(13), 1);
        assert_eq!(
            out.iterations.len(),
            4,
            "no pruning ⇒ all 4 cycles accepted"
        );
        assert!(!out.terminated_early);
        assert!(
            out.iterations.iter().all(|r| r.evaluations == 1),
            "non-adaptive never retries"
        );
        assert_eq!(out.total_evaluations, 4);
    }

    #[test]
    fn adaptive_uses_more_evaluations_than_non_adaptive() {
        let adaptive = run_pipeline(ProtocolConfig::imrp(17), 2);
        let control = run_pipeline(ProtocolConfig::cont_v(17), 2);
        assert!(
            adaptive.total_evaluations >= control.total_evaluations,
            "adaptive {} vs control {}",
            adaptive.total_evaluations,
            control.total_evaluations
        );
    }

    #[test]
    fn final_cycle_adaptivity_flag_controls_last_selection() {
        let mut cfg = ProtocolConfig::imrp(19);
        cfg.adaptive_final_cycle = false;
        let out = run_pipeline(cfg, 3);
        // The final cycle accepts unconditionally, so if 4 iterations exist
        // the 4th must have used exactly one evaluation.
        if let Some(last) = out.iterations.iter().find(|r| r.iteration == 4) {
            assert_eq!(last.evaluations, 1, "final cycle must not retry");
        }
    }

    #[test]
    fn continuation_inherits_numbering_and_report() {
        let parent = run_pipeline(ProtocolConfig::imrp(23), 0);
        let targets = named_pdz_domains(42);
        let tk = TargetToolkit::for_target(&targets[0], 7);
        let mut cfg = ProtocolConfig::imrp(23);
        cfg.cycles = 1;
        let structure = Structure::refined(
            tk.start
                .complex
                .with_receptor_sequence(parent.final_receptor.clone()),
            parent.final_backbone_quality,
            parent.iterations.last().map(|r| r.iteration).unwrap_or(0),
        );
        let sub = DesignPipeline::continuation(tk.clone(), cfg.clone(), &parent, structure, 0);
        assert!(sub.label.contains("/sub0"));
        assert_eq!(
            sub.start_iteration,
            parent.iterations.last().unwrap().iteration + 1
        );
        assert_eq!(
            sub.previous_report.as_ref(),
            parent.final_report(),
            "stage 6 must be adaptive from the first sub-cycle"
        );
    }

    #[test]
    fn outcomes_are_deterministic_for_a_seed() {
        let a = run_pipeline(ProtocolConfig::imrp(29), 1);
        let b = run_pipeline(ProtocolConfig::imrp(29), 1);
        assert_eq!(a.final_receptor, b.final_receptor);
        assert_eq!(a.total_evaluations, b.total_evaluations);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn trajectories_equal_accepted_iterations() {
        let out = run_pipeline(ProtocolConfig::cont_v(31), 0);
        assert_eq!(out.trajectories(), 4);
    }
}
