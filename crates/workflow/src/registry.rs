//! Pipeline bookkeeping: states, parentage, task counts.
//!
//! The coordinator "tracks their execution states" (§II-B); the registry is
//! that ledger. Parentage distinguishes *root* pipelines (submitted by the
//! experiment) from *sub-pipelines* (spawned by the decision engine) — the
//! distinction behind Table I's `# PL` and `# Sub-PL` columns.

use crate::pipeline::{PipelineId, PipelineState};
use impress_sim::SimTime;

/// One pipeline's ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineEntry {
    /// The pipeline.
    pub id: PipelineId,
    /// Its display name.
    pub name: String,
    /// `None` for root pipelines; `Some(parent)` for spawned sub-pipelines.
    pub parent: Option<PipelineId>,
    /// Current state.
    pub state: PipelineState,
    /// Tasks submitted on behalf of this pipeline so far.
    pub tasks_submitted: usize,
    /// Stages completed so far.
    pub stages_completed: usize,
    /// When the pipeline was registered.
    pub created_at: SimTime,
    /// When it reached a terminal state (if it has).
    pub finished_at: Option<SimTime>,
}

/// The coordinator's pipeline ledger.
///
/// Ids are assigned densely from 0 and entries are never removed, so the
/// ledger is a plain slab: `entries[id]` *is* the entry, lookups are one
/// bounds-checked index (the hot coordinator dispatch path used to pay a
/// hash per lookup), and the vector itself is registration order.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Vec<PipelineEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next [`register`](Self::register) call will assign.
    /// The journal writes its `Registered` record *before* registration, so
    /// it needs the id ahead of time.
    pub(crate) fn peek_next_id(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Register a new pipeline, returning its id.
    pub(crate) fn register(
        &mut self,
        name: String,
        parent: Option<PipelineId>,
        at: SimTime,
    ) -> PipelineId {
        if let Some(p) = parent {
            assert!(
                (p.0 as usize) < self.entries.len(),
                "parent {p} is not registered"
            );
        }
        let id = PipelineId(self.entries.len() as u64);
        self.entries.push(PipelineEntry {
            id,
            name,
            parent,
            state: PipelineState::Created,
            tasks_submitted: 0,
            stages_completed: 0,
            created_at: at,
            finished_at: None,
        });
        id
    }

    /// Look up an entry.
    pub fn get(&self, id: PipelineId) -> &PipelineEntry {
        self.entries
            .get(id.0 as usize)
            .expect("pipeline is registered")
    }

    fn get_mut(&mut self, id: PipelineId) -> &mut PipelineEntry {
        self.entries
            .get_mut(id.0 as usize)
            .expect("pipeline is registered")
    }

    /// Mark a pipeline running and charge `n_tasks` submitted tasks to it.
    pub(crate) fn note_stage_submitted(&mut self, id: PipelineId, n_tasks: usize) {
        let e = self.get_mut(id);
        assert!(!e.state.is_terminal(), "{id} is already terminal");
        e.state = PipelineState::Running;
        e.tasks_submitted += n_tasks;
    }

    /// Record a completed stage.
    pub(crate) fn note_stage_completed(&mut self, id: PipelineId) {
        self.get_mut(id).stages_completed += 1;
    }

    /// Move a pipeline to a terminal state.
    pub(crate) fn finish(&mut self, id: PipelineId, state: PipelineState, at: SimTime) {
        assert!(state.is_terminal(), "finish() needs a terminal state");
        let e = self.get_mut(id);
        assert!(!e.state.is_terminal(), "{id} already finished");
        e.state = state;
        e.finished_at = Some(at);
    }

    /// All entries in registration order.
    pub fn entries(&self) -> &[PipelineEntry] {
        &self.entries
    }

    /// Number of root pipelines (Table I `# PL`).
    pub(crate) fn root_count(&self) -> usize {
        self.entries.iter().filter(|e| e.parent.is_none()).count()
    }

    /// Number of spawned sub-pipelines (Table I `# Sub-PL`).
    pub(crate) fn sub_count(&self) -> usize {
        self.entries.iter().filter(|e| e.parent.is_some()).count()
    }

    /// Pipelines not yet in a terminal state.
    pub(crate) fn live_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.state.is_terminal())
            .count()
    }

    /// Total tasks submitted across all pipelines.
    pub(crate) fn total_tasks(&self) -> usize {
        self.entries.iter().map(|e| e.tasks_submitted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_sim::props;

    #[test]
    fn registration_assigns_sequential_ids() {
        let mut r = Registry::new();
        let a = r.register("a".into(), None, SimTime::ZERO);
        let b = r.register("b".into(), None, SimTime::ZERO);
        assert_eq!(a, PipelineId(0));
        assert_eq!(b, PipelineId(1));
        assert_eq!(r.root_count(), 2);
        assert_eq!(r.sub_count(), 0);
    }

    #[test]
    fn sub_pipeline_parentage_is_tracked() {
        let mut r = Registry::new();
        let root = r.register("root".into(), None, SimTime::ZERO);
        let sub = r.register("sub".into(), Some(root), SimTime::ZERO);
        assert_eq!(r.get(sub).parent, Some(root));
        assert_eq!(r.root_count(), 1);
        assert_eq!(r.sub_count(), 1);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_parent_rejected() {
        let mut r = Registry::new();
        r.register("orphan".into(), Some(PipelineId(99)), SimTime::ZERO);
    }

    #[test]
    fn task_and_stage_accounting() {
        let mut r = Registry::new();
        let id = r.register("p".into(), None, SimTime::ZERO);
        r.note_stage_submitted(id, 3);
        r.note_stage_completed(id);
        r.note_stage_submitted(id, 1);
        let e = r.get(id);
        assert_eq!(e.tasks_submitted, 4);
        assert_eq!(e.stages_completed, 1);
        assert_eq!(e.state, PipelineState::Running);
        assert_eq!(r.total_tasks(), 4);
    }

    #[test]
    fn finish_transitions_and_counts() {
        let mut r = Registry::new();
        let a = r.register("a".into(), None, SimTime::ZERO);
        let b = r.register("b".into(), None, SimTime::ZERO);
        assert_eq!(r.live_count(), 2);
        r.finish(a, PipelineState::Completed, SimTime::ZERO);
        r.finish(b, PipelineState::Aborted, SimTime::ZERO);
        assert_eq!(r.live_count(), 0);
        assert!(r.get(a).finished_at.is_some());
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn double_finish_panics() {
        let mut r = Registry::new();
        let a = r.register("a".into(), None, SimTime::ZERO);
        r.finish(a, PipelineState::Completed, SimTime::ZERO);
        r.finish(a, PipelineState::Completed, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "needs a terminal state")]
    fn finish_requires_terminal() {
        let mut r = Registry::new();
        let a = r.register("a".into(), None, SimTime::ZERO);
        r.finish(a, PipelineState::Running, SimTime::ZERO);
    }

    props! {
        /// Registry counters are consistent under arbitrary interleavings of
        /// registrations, stages and finishes.
        fn registry_accounting_is_consistent(rng) {
            let script: Vec<(u8, usize)> = {
                let len = 1 + rng.below(59);
                (0..len)
                    .map(|_| (rng.below(3) as u8, rng.below(8)))
                    .collect()
            };
            let mut reg = Registry::new();
            let mut live: Vec<PipelineId> = Vec::new();
            let mut total_tasks = 0usize;
            let mut roots = 0usize;
            let mut subs = 0usize;
            for (op, arg) in script {
                match op {
                    0 => {
                        // register (sub of a live pipeline when one exists and
                        // arg is odd)
                        let parent = if arg % 2 == 1 && !live.is_empty() {
                            Some(live[arg % live.len()])
                        } else {
                            None
                        };
                        if parent.is_some() { subs += 1 } else { roots += 1 }
                        let id = reg.register(format!("p{arg}"), parent, SimTime::ZERO);
                        live.push(id);
                    }
                    1 => {
                        if let Some(&id) = live.get(arg % live.len().max(1)) {
                            let n = arg + 1;
                            reg.note_stage_submitted(id, n);
                            total_tasks += n;
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let id = live.remove(arg % live.len());
                            reg.finish(id, PipelineState::Completed, SimTime::ZERO);
                        }
                    }
                }
            }
            assert_eq!(reg.root_count(), roots);
            assert_eq!(reg.sub_count(), subs);
            assert_eq!(reg.total_tasks(), total_tasks);
            assert_eq!(reg.live_count(), live.len());
        }
    }
}
