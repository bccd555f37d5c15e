//! Crash-consistency end to end: a journaled IM-RP campaign killed at
//! adversarial points — including mid-snapshot torn writes — must resume
//! from the surviving journal and regenerate the uninterrupted run's
//! artifacts byte for byte; a walltime-drained campaign must do the same.
//! The simulated backend gets full byte parity; the threaded backend
//! gets drain-checkpoint-resume with outcome-cohort parity on real
//! threads under a paced clock.

use impress_core::adaptive::AdaptivePolicy;
use impress_core::{
    imrp_journal, CampaignRun, CampaignSpec, DesignPipeline, ProtocolConfig, TargetToolkit,
};
use impress_pilot::{PilotConfig, RuntimeConfig};
use impress_proteins::datasets::named_pdz_domains;
use impress_sim::{props, SimDuration, SimTime};
use impress_workflow::journal::{load_plan, Journal, JournalError, MemoryJournal};
use impress_workflow::{Coordinator, NoDecisions};

const SEED: u64 = 11;

fn targets() -> Vec<impress_proteins::datasets::DesignTarget> {
    named_pdz_domains(SEED).into_iter().take(2).collect()
}

fn policy() -> AdaptivePolicy {
    AdaptivePolicy {
        sub_budget: 2,
        ..AdaptivePolicy::default()
    }
}

/// The campaign under test, before any journal, deadline or resume plan.
fn spec() -> CampaignSpec {
    CampaignSpec::imrp(&targets(), ProtocolConfig::imrp(SEED))
        .policy(policy())
        .pilot(PilotConfig::with_seed(SEED))
}

/// A journaled run killed after `kill_after` records; returns the
/// surviving store. The kill switch panics from inside the coordinator,
/// which is exactly how a preempted allocation looks to the journal.
fn killed_run(kill_after: u64, snapshot_interval: Option<usize>) -> MemoryJournal {
    let config = ProtocolConfig::imrp(SEED);
    let store = MemoryJournal::new();
    let mut journal = imrp_journal(Box::new(store.clone()), &config)
        .expect("journal")
        .with_kill_after(kill_after);
    if let Some(i) = snapshot_interval {
        journal = journal.with_snapshot_interval(i);
    }
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spec().journal(journal).run()
    }));
    assert!(crashed.is_err(), "kill switch must fire");
    store
}

fn resume_from(store: &MemoryJournal) -> (String, usize) {
    let loaded = load_plan(store).expect("surviving journal must load");
    let resumed = spec().resume_from(loaded.plan).run().expect("resume");
    (impress_json::to_string(&resumed.result), loaded.dropped)
}

fn baseline_json() -> String {
    let r = spec().run().expect("no resume plan to reject");
    impress_json::to_string(&r.result)
}

/// Three adversarial kill points — just after campaign registration,
/// mid-campaign, and a handful of records before the natural end — all
/// resume to the uninterrupted run's bytes.
#[test]
fn kill_and_resume_is_byte_identical_at_adversarial_kill_points() {
    let baseline = baseline_json();
    // Record the campaign's natural journal length first.
    let store = MemoryJournal::new();
    let config = ProtocolConfig::imrp(SEED);
    let full = spec()
        .journal(imrp_journal(Box::new(store.clone()), &config).expect("journal"))
        .run()
        .expect("no resume plan to reject");
    assert_eq!(baseline, impress_json::to_string(&full.result));
    let total = full.records;
    assert!(total > 20, "campaign too small to be adversarial: {total}");

    for kill_after in [6, total / 2, total - 3] {
        let store = killed_run(kill_after, None);
        let (resumed, dropped) = resume_from(&store);
        assert_eq!(dropped, 0, "clean kill leaves no torn tail");
        assert_eq!(baseline, resumed, "kill at record {kill_after}");
    }
}

/// A torn final write — the allocation died mid-`write(2)` — is detected
/// by the frame checksum, dropped, and the resume still converges.
#[test]
fn torn_tail_write_is_dropped_and_resume_still_matches() {
    let baseline = baseline_json();
    let store = killed_run(40, None);
    store.tamper(|lines| {
        let last = lines.len() - 1;
        let keep = lines[last].len() / 2;
        lines[last].truncate(keep);
    });
    let (resumed, dropped) = resume_from(&store);
    assert_eq!(dropped, 1, "exactly the torn line is distrusted");
    assert_eq!(baseline, resumed);
}

/// A crash in the middle of snapshot compaction tears the snapshot line
/// itself. The loader must refuse the snapshot *and everything after it*
/// (later records assume the snapshot's state), falling back to a full
/// re-run — which still reproduces the baseline bytes.
#[test]
fn torn_snapshot_write_forces_full_rerun_with_parity() {
    let baseline = baseline_json();
    let store = killed_run(40, Some(8));
    store.tamper(|lines| {
        assert!(lines.len() >= 3, "expected [Begin, Snapshot, records…]");
        let keep = lines[1].len() / 2;
        lines[1].truncate(keep);
    });
    let loaded = load_plan(&store).expect("head is intact, load must succeed");
    assert!(loaded.dropped >= 1);
    assert_eq!(
        loaded.plan.pipelines.len(),
        0,
        "a torn snapshot leaves nothing trustworthy to replay"
    );
    let resumed = spec()
        .resume_from(loaded.plan)
        .run()
        .expect("resume from empty plan is a full re-run");
    assert_eq!(baseline, impress_json::to_string(&resumed.result));
}

/// A journal whose head is garbage is a typed error, never a panic: the
/// operator should see a diagnostic, not a backtrace.
#[test]
fn corrupt_journal_head_is_a_typed_error() {
    let store = MemoryJournal::new();
    store.tamper(|lines| lines.push("not a journal frame".into()));
    match load_plan(&store) {
        Ok(_) => panic!("garbage head must not load"),
        Err(JournalError::Corrupt(msg)) => assert!(!msg.is_empty()),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }
}

/// Walltime-aware drain on the simulated backend: past the deadline the
/// session stops launching tasks that would overrun, drains in-flight
/// work, and the journal checkpoint resumes to the uninterrupted bytes.
#[test]
fn simulated_drain_then_resume_matches_uninterrupted_run() {
    let baseline = baseline_json();
    let config = ProtocolConfig::imrp(SEED);
    let store = MemoryJournal::new();
    // Deadline at roughly half the campaign: guaranteed to strand work.
    let full = spec().run().expect("no resume plan to reject").result;
    let deadline = SimTime::from_micros(full.run.makespan.as_micros() / 2);
    let CampaignRun {
        result, drained, ..
    } = spec()
        .journal(imrp_journal(Box::new(store.clone()), &config).expect("journal"))
        .deadline(deadline)
        .run()
        .expect("no resume plan to reject");
    assert!(drained, "a mid-campaign deadline must force a drain");
    assert!(
        result.outcomes.len() < full.outcomes.len() || result.run.total_tasks < full.run.total_tasks,
        "a drained campaign must have stopped early"
    );
    let (resumed, dropped) = resume_from(&store);
    assert_eq!(dropped, 0);
    assert_eq!(baseline, resumed, "drain checkpoint must resume losslessly");
}

/// The threaded backend honors the same drain contract: a deadline at
/// half the campaign's (virtual) makespan strands the remainder, the
/// checkpoint resumes on a fresh backend, and the final outcome cohort
/// matches an uninterrupted threaded run.
#[test]
fn threaded_drain_checkpoint_resume_preserves_outcome_cohort() {
    let time_scale = 11e-6; // 1 virtual hour ≈ 40 real ms
    let pilot = || PilotConfig {
        bootstrap: SimDuration::from_secs(30),
        exec_setup_per_task: SimDuration::from_secs(5),
        ..PilotConfig::with_seed(SEED)
    };
    let targets = targets();
    let config = ProtocolConfig::imrp(SEED);
    let add_roots = |c: &mut Coordinator<_, _, NoDecisions>| {
        for (i, t) in targets.iter().enumerate() {
            let tk = TargetToolkit::for_target(t, SEED);
            c.add_pipeline(Box::new(DesignPipeline::root(tk, config.clone(), i as u64)));
        }
    };
    let outcome_cohort = |c: &Coordinator<_, _, NoDecisions>| {
        let mut cohort: Vec<String> = c
            .outcomes()
            .iter()
            .map(|(_, o)| impress_json::to_string(o))
            .collect();
        cohort.sort();
        cohort
    };

    // Uninterrupted reference cohort.
    let mut reference = Coordinator::new(
        RuntimeConfig::new(pilot()).time_scale(time_scale).threaded(),
        NoDecisions,
    );
    add_roots(&mut reference);
    let makespan = reference.run().makespan;
    let want = outcome_cohort(&reference);
    assert_eq!(want.len(), targets.len());

    // Drained run: an allocation half the campaign long.
    let store = MemoryJournal::new();
    let journal = Journal::new(Box::new(store.clone()), "threaded-drain", SEED).expect("journal");
    let backend = RuntimeConfig::new(pilot())
        .time_scale(time_scale)
        .deadline(SimTime::from_micros(makespan.as_micros() / 2))
        .threaded();
    let mut drained = Coordinator::new(backend, NoDecisions).with_journal(journal);
    add_roots(&mut drained);
    drained.run();
    assert!(drained.drained(), "the deadline must strand work");
    let stages_done = drained
        .events()
        .count(|e| matches!(e.kind, impress_workflow::EventKind::StageCompleted { .. }));
    assert!(stages_done > 0, "but not all of it: the first half ran");

    // Resume on a fresh backend with no deadline: ghosts for journaled
    // terminals, real execution for the stranded remainder.
    let plan = load_plan(&store).expect("drain checkpoint must load").plan;
    let mut resumed = Coordinator::resume(
        RuntimeConfig::new(pilot()).time_scale(time_scale).threaded(),
        NoDecisions,
        &plan,
    )
    .expect("resume");
    add_roots(&mut resumed);
    resumed.run();
    assert!(!resumed.drained());
    assert_eq!(want, outcome_cohort(&resumed));
}

/// A kill landing between a failed attempt and its backed-off retry must
/// resume onto an identical virtual timeline: the journal knows nothing of
/// the in-flight ladder (retries are recorded only with the terminal
/// completion), so the resume re-simulates the fault stream and the retry
/// fires again — once, after the same jittered backoff — converging on the
/// uninterrupted faulted campaign's bytes.
#[test]
fn kill_mid_retry_backoff_resumes_onto_an_identical_timeline() {
    use impress_pilot::{FaultConfig, FaultPlan, RetryPolicy};
    use impress_workflow::EventKind;

    let faulted_backend = || {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 0.2,
                ..FaultConfig::none()
            },
            SEED,
        );
        RuntimeConfig::new(PilotConfig::with_seed(SEED))
            .faults(plan, RetryPolicy::retries(3))
            .simulated()
    };
    let targets = targets();
    let config = ProtocolConfig::imrp(SEED);
    let add_roots = |c: &mut Coordinator<_, _, NoDecisions>| {
        for (i, t) in targets.iter().enumerate() {
            let tk = TargetToolkit::for_target(t, SEED);
            c.add_pipeline(Box::new(DesignPipeline::root(tk, config.clone(), i as u64)));
        }
    };
    let cohort = |c: &Coordinator<_, _, NoDecisions>| -> Vec<String> {
        c.outcomes()
            .iter()
            .map(|(_, o)| impress_json::to_string(o))
            .collect()
    };

    // Uninterrupted faulted baseline. The fault plan must actually bite,
    // or the kill point below does not exist.
    let mut baseline = Coordinator::new(faulted_backend(), NoDecisions);
    add_roots(&mut baseline);
    let report = baseline.run();
    assert!(report.task_retries >= 1, "fault plan never bit");
    let want = cohort(&baseline);

    // Measure the campaign's natural journal length, then kill halfway:
    // with a 20 % per-attempt failure rate, retry ladders span the whole
    // campaign, so a mid-campaign kill lands with at least one failed
    // attempt waiting out its backoff. Retries are deliberately NOT
    // journaled (they are backend-internal), so the surviving journal
    // knows nothing of the in-flight ladder.
    let full_store = MemoryJournal::new();
    {
        let journal =
            Journal::new(Box::new(full_store.clone()), "retry-backoff", SEED).expect("journal");
        let mut c = Coordinator::new(faulted_backend(), NoDecisions).with_journal(journal);
        add_roots(&mut c);
        c.run();
    }
    let mut total = 0;
    full_store.tamper(|l| total = l.len());
    assert!(total > 8, "campaign too small to kill mid-ladder: {total}");

    let store = MemoryJournal::new();
    let journal = Journal::new(Box::new(store.clone()), "retry-backoff", SEED)
        .expect("journal")
        .with_kill_after(total as u64 / 2);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut c = Coordinator::new(faulted_backend(), NoDecisions).with_journal(journal);
        add_roots(&mut c);
        c.run();
    }));
    assert!(crashed.is_err(), "kill switch must fire");

    let plan = load_plan(&store).expect("surviving journal must load").plan;
    let mut resumed =
        Coordinator::resume(faulted_backend(), NoDecisions, &plan).expect("resume");
    add_roots(&mut resumed);
    resumed.run();
    assert_eq!(want, cohort(&resumed), "resume diverged from the baseline");
    // The resumed coordinator re-derived the retry verdict itself — the
    // interrupted ladder's retry fired on the replayed timeline.
    assert!(
        resumed
            .events()
            .count(|e| matches!(e.kind, EventKind::TaskRetried { .. }))
            >= 1,
        "the mid-backoff retry must fire after resume"
    );
}

fn journal_fixture() -> &'static (Vec<String>, String) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(Vec<String>, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = ProtocolConfig::imrp(SEED);
        let store = MemoryJournal::new();
        let full = spec()
            .journal(imrp_journal(Box::new(store.clone()), &config).expect("journal"))
            .run()
            .expect("no resume plan to reject");
        let mut lines = Vec::new();
        store.tamper(|l| lines = l.clone());
        (lines, impress_json::to_string(&full.result))
    })
}

props! {
    /// Every prefix of the journal is a valid checkpoint: whatever line
    /// the crash landed on, loading the surviving prefix and resuming
    /// regenerates the uninterrupted campaign byte for byte. Each group
    /// commit flushes *before* its cycle's effects apply, so losing a
    /// buffered suffix is indistinguishable from crashing earlier — this
    /// property is exactly why batching the flush is crash-safe.
    fn resume_from_any_journal_prefix_regenerates_the_baseline(rng, cases = 8) {
        let (lines, baseline) = journal_fixture();
        let prefix = 1 + rng.below(lines.len());
        let store = MemoryJournal::new();
        store.tamper(|l| *l = lines[..prefix].to_vec());
        let (resumed, dropped) = resume_from(&store);
        assert_eq!(dropped, 0, "whole-line prefixes are never torn");
        assert_eq!(baseline, &resumed, "prefix of {prefix} lines");
    }

    /// Group commit writes a whole cycle's frames as one block, so a crash
    /// mid-`write(2)` can tear the file at *any byte* — several whole
    /// frames followed by a partial one — not just at a frame boundary.
    /// Whatever byte the tear lands on (past the head frame), the loader
    /// distrusts exactly the torn fragment and the resume regenerates the
    /// uninterrupted campaign byte for byte.
    fn resume_from_any_torn_byte_prefix_regenerates_the_baseline(rng, cases = 8) {
        let (lines, baseline) = journal_fixture();
        let mut text = String::new();
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        // Tear anywhere after the head (Begin) frame; a torn head is a
        // separate, typed-error case covered elsewhere. Frames are ASCII
        // (compact JSON with \u escapes), so any byte offset is a char
        // boundary.
        let head_len = lines[0].len() + 1;
        let cut = head_len + rng.below(text.len() - head_len) + 1;
        let torn: Vec<String> = text[..cut].lines().map(str::to_string).collect();
        let whole_lines = text[..cut].ends_with('\n');
        let store = MemoryJournal::new();
        store.tamper(|l| *l = torn);
        let (resumed, dropped) = resume_from(&store);
        assert_eq!(
            dropped,
            usize::from(!whole_lines),
            "exactly the torn fragment (if any) is distrusted"
        );
        assert_eq!(baseline, &resumed, "tear at byte {cut}");
    }
}
