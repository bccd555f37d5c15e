//! Crash-consistent write-ahead journal for the coordinator.
//!
//! Real campaigns die with their pilot allocation: the walltime expires and
//! every in-flight lineage is lost (§IV runs for 27–38 hours inside one
//! allocation). This module gives the coordinator durable state. Every
//! state transition is appended to a [`Journal`] as a sequenced,
//! CRC-framed, self-describing record *before* it is applied — so whatever
//! instant the process dies at, the journal describes a consistent prefix
//! of the run.
//!
//! # Record framing
//!
//! One JSON line per record: `{"seq":N,"crc":C,"rec":{...}}` where `seq`
//! is strictly increasing and `crc` is the [frame
//! checksum](#frame-checksum) of the compact serialization of `rec`, in
//! decimal. A `StageSubmitted` record names its tasks by id in the
//! journal's [shape table](#shape-table). The loader ([`load_plan`])
//! decodes each line once, straight into its typed record, and verifies
//! the hash over the `rec` bytes as stored — so a frame whose `rec` is not
//! the writer's canonical text fails its checksum even when it is
//! value-equal. A `Completed` record holds its outcome as the compact text
//! the coordinator wrote ([`RawJson`]): the loader keeps the stored slice
//! and compaction writes it back verbatim, so no outcome is ever a `Json`
//! tree; resume decodes it as the outcome type. The tail
//! is dropped at the first malformed line, CRC mismatch, non-increasing
//! sequence number, or structurally inconsistent record (one naming a
//! task shape the journal has not defined is one) — a torn write costs
//! recomputation, never correctness.
//!
//! # Frame checksum
//!
//! The checksum of format version 2, which version 3 keeps, reads the
//! bytes as 8-byte little-endian words, the last one zero-padded, one
//! dependent step per word:
//!
//! ```text
//! h = K0 ^ len
//! for each word w:  h = rotl((h ^ w) * K1, 29)
//! h ^= h >> 32;  h *= K2;  h ^= h >> 29;  h *= K3;  h ^= h >> 32
//! ```
//!
//! with `K0 = 0x243f_6a88_85a3_08d3` (the fractional bits of π),
//! `K1 = 0x9e37_79b9_7f4a_7c15` (of the golden ratio), and the finaliser
//! constants `K2 = 0xbf58_476d_1ce4_e5b9`, `K3 = 0x94d0_49bb_1331_11eb`;
//! all arithmetic wraps modulo 2^64. For a fixed word each step is a
//! bijection of `h` (xor, an odd multiplier, a rotation), and so is the
//! finaliser, so two inputs of one length that differ in a single word —
//! in particular any single-byte change — always hash differently; the
//! length term separates a zero-padded tail from real zero bytes. Version
//! 1 hashed byte by byte; a version-1 journal is refused by its `Begin`
//! record ([`JournalError::Version`]).
//!
//! # Shape table
//!
//! A campaign resubmits the same few stage kinds over and over, so most of
//! its tasks share their scheduling metadata. Format version 3 writes each
//! distinct [`TaskMeta`] — a task *shape* — once per journal and refers to
//! it afterwards by a dense `u32` id, in order of first use. A
//! `StageSubmitted` record is `{pipeline, stage, shapes, tasks}`: `shapes`
//! lists the metas this record introduces, which take the next ids, and
//! `tasks` lists one id per task. The loader appends each record's shapes
//! to [`ReplayPlan::shapes`]; an id beyond the table ends the trusted
//! prefix like any other inconsistent record. The writer finds a meta's id
//! in an index keyed by the meta's exact value — the GPU busy fraction by
//! its bits, so `0.0` and `-0.0` are two shapes and every shape reads back
//! as the bytes it was written with. Versions 1 and 2 wrote every task's
//! meta in full.
//!
//! # Snapshots and compaction
//!
//! The journal maintains a running [`ReplayPlan`] — the derived state a
//! resume needs, the whole shape table included — and every
//! `snapshot_interval` records rewrites the store to `[Begin,
//! Snapshot(plan)]`, bounding both journal size and replay (load) cost.
//! The table outlives compaction: a shape the snapshot defines is never
//! defined again, and records after it refer to the snapshot's ids. The two
//! compaction lines are framed into buffers the journal keeps, so a warm
//! compaction allocates only when the snapshot outgrows them. Sequence
//! numbers keep increasing across compaction.
//!
//! # Resume model
//!
//! Resume is a deterministic *re-simulation* from `t = 0` on a fresh
//! backend. Pipelines that reached a terminal state in the journal are
//! replayed as "ghosts": their journaled per-stage task descriptions, each
//! rebuilt from its shape, are resubmitted (so the backend sees the
//! identical load and evolves the identical virtual timeline) but *without
//! their work closures* — the expensive computation is skipped and the
//! journaled outcome is injected. Pipelines that were live at the kill
//! re-run for real, fed by the same deterministic decision sequence. Because backend timing depends only on
//! task metadata, never on work outputs, an interrupted-then-resumed run
//! regenerates every artifact byte-identically to an uninterrupted one.

use impress_json::{json_enum, json_struct, FromJsonBuf, Parser, RawJson, ToJsonBuf};
use impress_pilot::{Label, ResourceRequest, TaskDescription, TaskKind};
use impress_sim::SimDuration;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Journal format version. Bumped on any incompatible change to the record
/// set or framing; [`load_plan`] refuses to replay a journal written by a
/// different version.
pub const JOURNAL_FORMAT_VERSION: u32 = 3;

/// Scheduling-relevant task metadata — everything the backend's timing
/// depends on. The work closure is deliberately absent (ghost replays skip
/// it) and the tag is re-applied by the coordinator at submission. The
/// name is the description's own [`Label`], shared rather than copied; its
/// JSON is that of the text.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMeta {
    /// Task name.
    pub name: Label,
    /// Slots required.
    pub request: ResourceRequest,
    /// Virtual duration.
    pub duration: SimDuration,
    /// GPU hardware-busy fraction.
    pub gpu_busy_fraction: f64,
    /// Scheduling priority.
    pub priority: i32,
    /// Executable kind (launch overhead).
    pub kind: TaskKind,
    /// Walltime limit, if any.
    pub walltime: Option<SimDuration>,
}
json_struct!(TaskMeta {
    name,
    request,
    duration,
    gpu_busy_fraction,
    priority,
    kind,
    walltime
});

impl TaskMeta {
    /// Capture a description's scheduling metadata.
    pub(crate) fn of(desc: &TaskDescription) -> Self {
        TaskMeta {
            name: desc.name.clone(),
            request: desc.request,
            duration: desc.duration,
            gpu_busy_fraction: desc.gpu_busy_fraction,
            priority: desc.priority,
            kind: desc.kind,
            walltime: desc.walltime,
        }
    }

    /// Rebuild a (work-free) description for ghost replay.
    pub(crate) fn to_description(&self) -> TaskDescription {
        let mut d = TaskDescription::new(self.name.clone(), self.request, self.duration)
            .with_gpu_busy_fraction(self.gpu_busy_fraction)
            .with_priority(self.priority)
            .with_kind(self.kind);
        if let Some(limit) = self.walltime {
            d = d.with_walltime(limit);
        }
        d
    }
}

/// A [`TaskMeta`] as the writer's index key: equal to another exactly when
/// every field is, the GPU busy fraction compared by its bits.
struct Shape(TaskMeta);

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        let (a, b) = (&self.0, &other.0);
        a.name == b.name
            && a.request == b.request
            && a.duration == b.duration
            && a.gpu_busy_fraction.to_bits() == b.gpu_busy_fraction.to_bits()
            && a.priority == b.priority
            && a.kind == b.kind
            && a.walltime == b.walltime
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let m = &self.0;
        (*m.name).hash(state);
        m.request.hash(state);
        m.duration.hash(state);
        m.gpu_busy_fraction.to_bits().hash(state);
        m.priority.hash(state);
        m.kind.hash(state);
        m.walltime.hash(state);
    }
}

/// How a journaled pipeline ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TerminalRecord {
    /// Completed with this outcome, as the compact text it was written as.
    Completed(RawJson),
    /// Aborted with this reason.
    Aborted(String),
}
json_enum!(TerminalRecord {
    Completed(outcome),
    Aborted(reason)
});

/// One pipeline's journaled history: identity, the stages it submitted (in
/// order, each task by its shape id), and how it ended (if it did).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineScript {
    /// The pipeline id the live run assigned.
    pub id: u64,
    /// Its display name.
    pub name: String,
    /// Parent pipeline id, for sub-pipelines.
    pub parent: Option<u64>,
    /// Submitted stages, each a list of shape ids ([`ReplayPlan::shapes`])
    /// in submission order.
    pub stages: Vec<Vec<u32>>,
    /// Stages confirmed completed (≤ `stages.len()`).
    pub stages_completed: usize,
    /// Terminal state, if the pipeline reached one before the kill.
    pub terminal: Option<TerminalRecord>,
}
json_struct!(PipelineScript {
    id,
    name,
    parent,
    stages,
    stages_completed,
    terminal
});

/// The derived state a resume needs: the task shapes the journal defined,
/// and every pipeline the journaled run registered, with its stage history
/// and terminal record. This is also the snapshot payload — the journal
/// keeps a live copy and serializes it at each compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPlan {
    /// Campaign label (validated on resume).
    pub label: String,
    /// Campaign seed (validated on resume).
    pub seed: u64,
    /// Every task shape defined so far; a shape's id is its index.
    pub shapes: Vec<TaskMeta>,
    /// Journaled pipelines in registration order.
    pub pipelines: Vec<PipelineScript>,
}
json_struct!(ReplayPlan {
    label,
    seed,
    shapes,
    pipelines
});

impl ReplayPlan {
    /// An empty plan for a fresh campaign.
    pub fn new(label: impl Into<String>, seed: u64) -> Self {
        ReplayPlan {
            label: label.into(),
            seed,
            shapes: Vec::new(),
            pipelines: Vec::new(),
        }
    }

    /// Whether every journaled stage names only defined shapes — what a
    /// snapshot must satisfy before it is trusted, and a plan before it is
    /// replayed.
    pub(crate) fn shapes_resolve(&self) -> bool {
        let defined = self.shapes.len();
        self.pipelines
            .iter()
            .flat_map(|s| &s.stages)
            .flatten()
            .all(|&id| (id as usize) < defined)
    }

    /// Where pipeline `id` sits in `pipelines`. Ids are dense in
    /// registration order, so `pipelines[id]` is it unless the plan was
    /// built some other way; only then (and for an id not registered at
    /// all) is the list scanned.
    fn position(&self, id: u64) -> Option<usize> {
        usize::try_from(id)
            .ok()
            .filter(|&i| self.pipelines.get(i).is_some_and(|s| s.id == id))
            .or_else(|| self.pipelines.iter().position(|s| s.id == id))
    }

    fn script_mut(&mut self, id: u64) -> Result<&mut PipelineScript, JournalError> {
        match self.position(id) {
            Some(i) => Ok(&mut self.pipelines[i]),
            None => Err(JournalError::Corrupt(format!(
                "record references unregistered pipeline {id}"
            ))),
        }
    }

    /// Fold one record into the plan, validating structural consistency.
    /// The writer uses this to keep its snapshot state current; the loader
    /// uses the same path, so snapshots and raw replay can never diverge.
    ///
    /// Takes the record by value: both callers own it (the writer just
    /// framed it, the loader just parsed it), so names, task vectors and
    /// outcomes move into the plan instead of being cloned per record.
    pub(crate) fn apply(&mut self, rec: JournalRecord) -> Result<(), JournalError> {
        match rec {
            JournalRecord::Begin { .. } | JournalRecord::Snapshot { .. } => Err(
                JournalError::Corrupt("Begin/Snapshot records cannot appear mid-stream".into()),
            ),
            JournalRecord::Registered {
                pipeline,
                parent,
                name,
            } => {
                if self.position(pipeline).is_some() {
                    return Err(JournalError::Corrupt(format!(
                        "pipeline {pipeline} registered twice"
                    )));
                }
                self.pipelines.push(PipelineScript {
                    id: pipeline,
                    name,
                    parent,
                    stages: Vec::new(),
                    stages_completed: 0,
                    terminal: None,
                });
                Ok(())
            }
            JournalRecord::StageSubmitted {
                pipeline,
                stage,
                shapes,
                tasks,
            } => {
                let defined = self.shapes.len() + shapes.len();
                if tasks.iter().any(|&id| id as usize >= defined) {
                    return Err(JournalError::Corrupt(format!(
                        "pipeline {pipeline}: stage {stage} names an undefined task shape"
                    )));
                }
                let s = self.script_mut(pipeline)?;
                if s.terminal.is_some() || stage != s.stages.len() {
                    return Err(JournalError::Corrupt(format!(
                        "pipeline {pipeline}: stage {stage} submission out of order"
                    )));
                }
                s.stages.push(tasks);
                self.shapes.extend(shapes);
                Ok(())
            }
            JournalRecord::StageCompleted { pipeline, stage } => {
                let s = self.script_mut(pipeline)?;
                if s.terminal.is_some() || stage != s.stages_completed || stage >= s.stages.len() {
                    return Err(JournalError::Corrupt(format!(
                        "pipeline {pipeline}: stage {stage} completion out of order"
                    )));
                }
                s.stages_completed += 1;
                Ok(())
            }
            JournalRecord::Completed { pipeline, outcome } => {
                let s = self.script_mut(pipeline)?;
                if s.terminal.is_some() {
                    return Err(JournalError::Corrupt(format!(
                        "pipeline {pipeline} finished twice"
                    )));
                }
                s.terminal = Some(TerminalRecord::Completed(outcome));
                Ok(())
            }
            JournalRecord::Aborted { pipeline, reason } => {
                let s = self.script_mut(pipeline)?;
                if s.terminal.is_some() {
                    return Err(JournalError::Corrupt(format!(
                        "pipeline {pipeline} finished twice"
                    )));
                }
                s.terminal = Some(TerminalRecord::Aborted(reason));
                Ok(())
            }
            // Poison verdicts change no replay state: resume re-simulates
            // the same fault environment and re-derives the identical
            // verdict. The record preserves it durably (post-mortems read
            // it straight off the journal), so only its structural validity
            // is checked here.
            JournalRecord::TaskPoisoned { pipeline, .. } => self.script_mut(pipeline).map(|_| ()),
        }
    }

    /// Tasks in terminal pipelines — re-submitted on resume as work-free
    /// ghosts (occupying virtual time but skipping their computation).
    pub fn ghost_tasks(&self) -> usize {
        self.pipelines
            .iter()
            .filter(|s| s.terminal.is_some())
            .map(|s| s.stages.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Pipelines that were live (non-terminal) when the journal ends.
    pub fn live_pipelines(&self) -> usize {
        self.pipelines
            .iter()
            .filter(|s| s.terminal.is_none())
            .count()
    }
}

/// One write-ahead record. Every coordinator state transition appends its
/// record *before* the transition is applied.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Journal header: format version and campaign identity.
    Begin {
        /// [`JOURNAL_FORMAT_VERSION`] at write time.
        version: u32,
        /// Campaign label.
        label: String,
        /// Campaign seed.
        seed: u64,
    },
    /// A pipeline was registered (root or sub).
    Registered {
        /// The id the registry will assign.
        pipeline: u64,
        /// Parent pipeline, for sub-pipelines.
        parent: Option<u64>,
        /// Display name.
        name: String,
    },
    /// A stage's tasks are about to be submitted.
    StageSubmitted {
        /// The pipeline.
        pipeline: u64,
        /// Stage ordinal (0-based).
        stage: usize,
        /// The task shapes this record defines, in order; they take the
        /// next ids of the journal's shape table.
        shapes: Vec<TaskMeta>,
        /// Every task in the stage, as its shape id.
        tasks: Vec<u32>,
    },
    /// A stage's tasks all completed.
    StageCompleted {
        /// The pipeline.
        pipeline: u64,
        /// Stage ordinal (0-based).
        stage: usize,
    },
    /// A pipeline completed; `outcome` is its serialized outcome value.
    Completed {
        /// The pipeline.
        pipeline: u64,
        /// The outcome's compact text (decoded on resume).
        outcome: RawJson,
    },
    /// A pipeline aborted.
    Aborted {
        /// The pipeline.
        pipeline: u64,
        /// The abort reason.
        reason: String,
    },
    /// The quarantine layer classified one of the pipeline's tasks as
    /// poisoned (failed on enough distinct nodes). Written only when a
    /// quarantine policy is active and fires — journals of clean runs are
    /// byte-identical to the pre-quarantine format.
    TaskPoisoned {
        /// The pipeline that owns the task.
        pipeline: u64,
        /// The backend task id.
        task: u64,
        /// Distinct nodes the lineage failed on.
        distinct_nodes: u32,
    },
    /// A compacted snapshot of the full replay plan so far.
    Snapshot {
        /// The plan at snapshot time.
        plan: ReplayPlan,
    },
}
json_enum!(JournalRecord {
    Begin { version, label, seed },
    Registered { pipeline, parent, name },
    StageSubmitted {
        pipeline,
        stage,
        shapes,
        tasks
    },
    StageCompleted { pipeline, stage },
    Completed { pipeline, outcome },
    Aborted { pipeline, reason },
    TaskPoisoned { pipeline, task, distinct_nodes },
    Snapshot { plan }
});

/// Why a journal could not be written or replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The underlying store failed.
    Io(String),
    /// The journal was written by an incompatible format version.
    Version {
        /// Version found in the Begin record.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The journal head or a record is structurally invalid.
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal store error: {msg}"),
            JournalError::Version { found, expected } => write!(
                f,
                "journal format version {found} is not replayable by this build (expected {expected})"
            ),
            JournalError::Corrupt(msg) => write!(f, "corrupt journal: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<impress_json::JsonError> for JournalError {
    fn from(e: impress_json::JsonError) -> Self {
        JournalError::Corrupt(e.to_string())
    }
}

/// A durable line store for journal records.
///
/// `append` must be atomic at line granularity *at most* — the whole torn-
/// write machinery exists because it usually is not. `rewrite` (compaction)
/// should replace the content as atomically as the medium allows.
pub trait JournalStore {
    /// Append one framed line.
    fn append(&self, line: &str) -> Result<(), JournalError>;
    /// Append a block of framed lines (each `\n`-terminated) with a single
    /// durability point — the group-commit fast path. Semantically
    /// equivalent to appending each line in order; the default does exactly
    /// that, and stores override it to reach one write + flush per batch.
    fn append_block(&self, block: &str) -> Result<(), JournalError> {
        for line in block.lines() {
            self.append(line)?;
        }
        Ok(())
    }
    /// All lines currently stored, in order.
    fn lines(&self) -> Result<Vec<String>, JournalError>;
    /// The full stored text, newline-delimited — the loader's single-read
    /// path (it iterates borrowed `str::lines`, never allocating per line).
    /// The default joins [`lines`](JournalStore::lines); stores override it
    /// to read their medium once.
    fn read_all(&self) -> Result<String, JournalError> {
        let mut text = self.lines()?.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        Ok(text)
    }
    /// Atomically replace the content with `lines` (compaction).
    fn rewrite(&self, lines: &[String]) -> Result<(), JournalError>;
}

/// An in-memory store. Clones share the same backing buffer, so a handle
/// held outside a coordinator survives the coordinator's death — which is
/// exactly what the kill-and-resume tests need.
#[derive(Clone, Default)]
pub struct MemoryJournal {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemoryJournal {
    /// An empty shared store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored lines.
    pub fn line_count(&self) -> usize {
        self.lines.lock().expect("journal buffer lock").len()
    }

    /// Total stored bytes (excluding line terminators).
    pub fn bytes(&self) -> usize {
        self.lines
            .lock()
            .expect("journal buffer lock")
            .iter()
            .map(String::len)
            .sum()
    }

    /// Mutate the raw lines — the test hook for simulating torn writes and
    /// corruption (truncate a line, flip bytes, drop a suffix).
    pub fn tamper(&self, f: impl FnOnce(&mut Vec<String>)) {
        f(&mut self.lines.lock().expect("journal buffer lock"));
    }
}

impl JournalStore for MemoryJournal {
    fn append(&self, line: &str) -> Result<(), JournalError> {
        self.lines
            .lock()
            .expect("journal buffer lock")
            .push(line.to_string());
        Ok(())
    }

    fn append_block(&self, block: &str) -> Result<(), JournalError> {
        // One lock acquisition per batch (`append` pays one per record).
        self.lines
            .lock()
            .expect("journal buffer lock")
            .extend(block.lines().map(str::to_string));
        Ok(())
    }

    fn lines(&self) -> Result<Vec<String>, JournalError> {
        Ok(self.lines.lock().expect("journal buffer lock").clone())
    }

    fn read_all(&self) -> Result<String, JournalError> {
        let lines = self.lines.lock().expect("journal buffer lock");
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines.iter() {
            text.push_str(line);
            text.push('\n');
        }
        Ok(text)
    }

    fn rewrite(&self, lines: &[String]) -> Result<(), JournalError> {
        *self.lines.lock().expect("journal buffer lock") = lines.to_vec();
        Ok(())
    }
}

/// A file-backed store: newline-delimited records written through a
/// persistent append handle (opened once, one `write` + `flush` per group
/// commit); compaction writes a sibling temp file and renames it over the
/// journal (atomic on POSIX filesystems), invalidating the handle.
pub struct FileJournal {
    path: PathBuf,
    handle: Mutex<Option<File>>,
}

impl FileJournal {
    /// A store at `path`. The file is created on first write.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileJournal {
            path: path.into(),
            handle: Mutex::new(None),
        }
    }

    /// Write + flush through the persistent append handle, opening it on
    /// first use (and after a `rewrite` invalidated it).
    fn write_durable(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let mut guard = self.handle.lock().expect("journal file handle lock");
        if guard.is_none() {
            *guard = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .map_err(io_err)?,
            );
        }
        let f = guard.as_mut().expect("handle just ensured");
        f.write_all(bytes).map_err(io_err)?;
        f.flush().map_err(io_err)
    }
}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

impl JournalStore for FileJournal {
    fn append(&self, line: &str) -> Result<(), JournalError> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.write_durable(framed.as_bytes())
    }

    fn append_block(&self, block: &str) -> Result<(), JournalError> {
        self.write_durable(block.as_bytes())
    }

    fn lines(&self) -> Result<Vec<String>, JournalError> {
        Ok(self.read_all()?.lines().map(str::to_string).collect())
    }

    fn read_all(&self) -> Result<String, JournalError> {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => Ok(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn rewrite(&self, lines: &[String]) -> Result<(), JournalError> {
        // Drop the append handle first: the rename replaces the inode, and
        // a stale handle would keep appending to the unlinked old file.
        *self.handle.lock().expect("journal file handle lock") = None;
        let tmp = self.path.with_extension("journal.tmp");
        // Each line goes to the file as it lies: a snapshot line is the
        // bulk of a compaction, and joining would copy it once more.
        let mut f = File::create(&tmp).map_err(io_err)?;
        for line in lines {
            f.write_all(line.as_bytes()).map_err(io_err)?;
            f.write_all(b"\n").map_err(io_err)?;
        }
        drop(f);
        std::fs::rename(&tmp, &self.path).map_err(io_err)
    }
}

/// The frame checksum (see the module doc for its definition).
fn checksum(bytes: &[u8]) -> u64 {
    const K0: u64 = 0x243f_6a88_85a3_08d3;
    const K1: u64 = 0x9e37_79b9_7f4a_7c15;
    const K2: u64 = 0xbf58_476d_1ce4_e5b9;
    const K3: u64 = 0x94d0_49bb_1331_11eb;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K1).rotate_left(29);
    let mut h = K0 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(
            h,
            u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(w));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(K2);
    h ^= h >> 29;
    h = h.wrapping_mul(K3);
    h ^ (h >> 32)
}

/// Append one framed line (`{"seq":N,"crc":C,"rec":{...}}`, no trailing
/// newline) to `out`. The record is serialized exactly once, through
/// [`ToJsonBuf`] into `scratch` (a reused buffer), and the checksum is
/// computed over those same bytes; the two numbers go through the same
/// integer writer as every record field.
fn write_frame(out: &mut String, scratch: &mut String, seq: u64, rec: &impl ToJsonBuf) {
    scratch.clear();
    rec.write_json(scratch);
    let crc = checksum(scratch.as_bytes());
    out.push_str("{\"seq\":");
    seq.write_json(out);
    out.push_str(",\"crc\":");
    crc.write_json(out);
    out.push_str(",\"rec\":");
    out.push_str(scratch);
    out.push('}');
}

/// A [`JournalRecord::Snapshot`] of a borrowed plan, byte for byte — what
/// compaction frames instead of cloning the whole plan into a record.
struct SnapshotOf<'a>(&'a ReplayPlan);

impl ToJsonBuf for SnapshotOf<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"Snapshot\":{\"plan\":");
        self.0.write_json(out);
        out.push_str("}}");
    }
}

/// Frame into a fresh `String` — the journal head's and the tests'
/// convenience wrapper around [`write_frame`].
fn frame(seq: u64, rec: &impl ToJsonBuf) -> String {
    let mut out = String::new();
    let mut scratch = String::new();
    write_frame(&mut out, &mut scratch, seq, rec);
    out
}

/// Why one frame failed to decode. Deliberately cheap to construct: the
/// loader discards mid-stream issues wholesale (a torn tail is dropped, not
/// reported), so formatting a diagnostic per bad line would be allocation
/// for nothing. Only the journal head converts an issue into a full
/// [`JournalError`] via [`FrameIssue::into_error`].
#[derive(Debug)]
enum FrameIssue {
    Json(impress_json::JsonError),
    NoRec,
    /// The checksum does not verify. The record decoded anyway, so the
    /// head can still tell a journal of another format version.
    Crc {
        seq: u64,
        stored: u64,
        computed: u64,
        record: JournalRecord,
    },
}

impl FrameIssue {
    fn into_error(self) -> JournalError {
        match self {
            FrameIssue::Json(e) => JournalError::Corrupt(e.to_string()),
            FrameIssue::NoRec => JournalError::Corrupt("frame has no rec field".into()),
            FrameIssue::Crc {
                seq,
                stored,
                computed,
                ..
            } => JournalError::Corrupt(format!(
                "crc mismatch at seq {seq}: stored {stored:#x}, computed {computed:#x}"
            )),
        }
    }
}

impl From<impress_json::JsonError> for FrameIssue {
    fn from(e: impress_json::JsonError) -> Self {
        FrameIssue::Json(e)
    }
}

/// Decode one framed line, once: `seq`, `crc` and the typed record come
/// straight off the text (keys in any order, like every struct), and the
/// checksum is taken over the `rec` bytes as stored. The writer's bytes are
/// canonical, so every journal it wrote verifies; a frame re-spaced or
/// re-ordered inside `rec` by hand does not, value-equal or not.
fn parse_frame(line: &str) -> Result<(u64, JournalRecord), FrameIssue> {
    let mut p = Parser::new(line);
    let (mut seq, mut crc, mut rec) = (None, None, None);
    let mut members = p.begin_object()?;
    while members.next(&mut p)? {
        let key = p.key()?;
        if seq.is_none() && key == "seq" {
            seq = Some(u64::from_json_buf(&mut p)?);
        } else if crc.is_none() && key == "crc" {
            crc = Some(u64::from_json_buf(&mut p)?);
        } else if rec.is_none() && key == "rec" {
            let start = p.pos();
            let record = JournalRecord::from_json_buf(&mut p)?;
            rec = Some((record, checksum(&line.as_bytes()[start..p.pos()])));
        } else {
            p.skip_value()?;
        }
    }
    p.finish()?;
    let seq: u64 = seq.map_or_else(|| p.missing_field("seq"), Ok)?;
    let stored: u64 = crc.map_or_else(|| p.missing_field("crc"), Ok)?;
    let (record, computed) = rec.ok_or(FrameIssue::NoRec)?;
    if computed != stored {
        return Err(FrameIssue::Crc {
            seq,
            stored,
            computed,
            record,
        });
    }
    Ok((seq, record))
}

/// The write-ahead journal a coordinator appends to.
///
/// Writes are **group-committed**: [`record`](Journal::record) frames into
/// an in-memory buffer and [`commit`](Journal::commit) makes the whole
/// batch durable with a single store write + flush. The write-ahead
/// contract therefore moves from "every record durable before its
/// transition applies" to "every record durable before its transition's
/// *effects* apply" — callers must commit at the barrier between producing
/// records and performing externally visible effects. Crash-wise this is
/// free: losing a buffered, uncommitted suffix is indistinguishable from
/// having crashed before those records were produced, and every journal
/// prefix is a valid checkpoint.
pub struct Journal {
    store: Box<dyn JournalStore>,
    seq: u64,
    appended: u64,
    snapshots: u64,
    since_snapshot: usize,
    snapshot_interval: Option<usize>,
    kill_after: Option<u64>,
    plan: ReplayPlan,
    /// Each shape in `plan.shapes`, to its id.
    index: HashMap<Shape, u32>,
    /// The journal head, re-framed at each compaction.
    begin: JournalRecord,
    /// Framed-but-not-durable lines, each `\n`-terminated.
    buf: String,
    /// Per-record serialization scratch (CRC is computed over it).
    scratch: String,
    /// Records in `buf`.
    pending: usize,
    /// The `[Begin, Snapshot]` lines of the last compaction, refilled by
    /// the next one.
    compacted: [String; 2],
}

impl Journal {
    /// Start a fresh journal on `store` for the campaign identified by
    /// `label` + `seed`, resetting any previous content and writing the
    /// `Begin` header.
    pub fn new(
        store: Box<dyn JournalStore>,
        label: impl Into<String>,
        seed: u64,
    ) -> Result<Self, JournalError> {
        let label = label.into();
        let begin = JournalRecord::Begin {
            version: JOURNAL_FORMAT_VERSION,
            label: label.clone(),
            seed,
        };
        store.rewrite(&[frame(0, &begin)])?;
        Ok(Journal {
            store,
            seq: 1,
            appended: 0,
            snapshots: 0,
            since_snapshot: 0,
            snapshot_interval: None,
            kill_after: None,
            plan: ReplayPlan::new(label, seed),
            index: HashMap::new(),
            begin,
            buf: String::new(),
            scratch: String::new(),
            pending: 0,
            compacted: Default::default(),
        })
    }

    /// Compact to a snapshot every `interval` records (default: never).
    pub fn with_snapshot_interval(mut self, interval: usize) -> Self {
        assert!(interval > 0, "snapshot interval must be positive");
        self.snapshot_interval = Some(interval);
        self
    }

    /// Test hook: panic right after the `n`-th record is durably appended —
    /// simulating a crash *between* the journal write and the state
    /// transition it describes (the write-ahead window).
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Buffer one record into the current group commit. Framing (one
    /// serialization through the reused scratch buffer, zero allocations
    /// once warm) and plan maintenance happen now; durability is deferred
    /// to [`commit`](Journal::commit), which the caller must invoke before
    /// applying any buffered transition's externally visible effects.
    ///
    /// A `StageSubmitted` record's `shapes` join the shape table; one that
    /// is already defined is refused before anything is buffered, since a
    /// journal defines each shape once.
    /// [`record_stage`](Journal::record_stage) assigns the ids itself. A
    /// record the plan refuses (out of order, or naming an undefined shape
    /// or an unregistered pipeline) is already framed, and leaves the
    /// journal unfit for more writes: the caller must stop, as the
    /// coordinator does.
    pub(crate) fn record(&mut self, rec: JournalRecord) -> Result<(), JournalError> {
        if let JournalRecord::StageSubmitted { shapes, .. } = &rec {
            let next = self.plan.shapes.len();
            for (i, meta) in shapes.iter().enumerate() {
                if let Entry::Vacant(slot) = self.index.entry(Shape(meta.clone())) {
                    slot.insert(shape_id(next + i));
                } else {
                    self.index.retain(|_, id| (*id as usize) < next);
                    return Err(JournalError::Corrupt(format!(
                        "task shape {:?} is already defined",
                        meta.name
                    )));
                }
            }
        }
        self.append(rec)
    }

    /// Buffer a `StageSubmitted` record for `tasks`, naming each by its
    /// shape id: a meta the journal has not seen yet is defined by this
    /// record and takes the next id. A stage of known shapes writes ids
    /// only.
    pub(crate) fn record_stage(
        &mut self,
        pipeline: u64,
        stage: usize,
        tasks: impl IntoIterator<Item = TaskMeta>,
    ) -> Result<(), JournalError> {
        let next = self.plan.shapes.len();
        let mut shapes = Vec::new();
        let tasks = tasks
            .into_iter()
            .map(|meta| match self.index.entry(Shape(meta)) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => {
                    let id = shape_id(next + shapes.len());
                    shapes.push(slot.key().0.clone());
                    *slot.insert(id)
                }
            })
            .collect();
        self.append(JournalRecord::StageSubmitted {
            pipeline,
            stage,
            shapes,
            tasks,
        })
    }

    /// Frame `rec` into the group commit and fold it into the plan.
    fn append(&mut self, rec: JournalRecord) -> Result<(), JournalError> {
        write_frame(&mut self.buf, &mut self.scratch, self.seq, &rec);
        self.buf.push('\n');
        self.seq += 1;
        self.pending += 1;
        self.since_snapshot += 1;
        self.plan.apply(rec)
    }

    /// Durably flush every buffered record as one block append — the group
    /// commit barrier. Returns the batch size. Compaction, when due, runs
    /// here (never mid-batch) so the rewrite only ever sees durable state.
    pub(crate) fn commit(&mut self) -> Result<usize, JournalError> {
        let batch = self.pending;
        if batch > 0 {
            if self.kill_after.is_some() {
                // Kill emulation degrades to per-record appends so the
                // simulated crash lands exactly after the n-th durable
                // record — covering mid-batch torn tails too.
                let buf = std::mem::take(&mut self.buf);
                self.pending = 0;
                for line in buf.lines() {
                    self.store.append(line)?;
                    self.appended += 1;
                    if self.kill_after.is_some_and(|n| self.appended >= n) {
                        panic!(
                            "journal kill switch: simulated crash after record {}",
                            self.appended
                        );
                    }
                }
            } else {
                self.store.append_block(&self.buf)?;
                self.buf.clear();
                self.pending = 0;
                self.appended += batch as u64;
            }
        }
        if self
            .snapshot_interval
            .is_some_and(|interval| self.since_snapshot >= interval)
        {
            self.compact()?;
        }
        Ok(batch)
    }

    /// Rewrite the store as `[Begin, Snapshot(plan)]`, framed into the
    /// buffers the last compaction filled.
    fn compact(&mut self) -> Result<(), JournalError> {
        let [head, snapshot] = &mut self.compacted;
        head.clear();
        write_frame(head, &mut self.scratch, self.seq, &self.begin);
        snapshot.clear();
        write_frame(
            snapshot,
            &mut self.scratch,
            self.seq + 1,
            &SnapshotOf(&self.plan),
        );
        self.store.rewrite(&self.compacted)?;
        self.seq += 2;
        self.since_snapshot = 0;
        self.snapshots += 1;
        Ok(())
    }

    /// Records durably appended so far (excluding Begin/Snapshot frames).
    pub fn records_written(&self) -> u64 {
        self.appended
    }

    /// Compactions performed so far.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots
    }

    /// The current derived replay plan (what a resume from this instant
    /// would see).
    pub fn plan(&self) -> &ReplayPlan {
        &self.plan
    }
}

/// Shape ids are dense `u32`s; a journal with more distinct task shapes
/// than that is a broken invariant, not a recoverable condition.
fn shape_id(index: usize) -> u32 {
    u32::try_from(index).expect("fewer than 2^32 distinct task shapes")
}

/// What [`load_plan`] recovered from a (possibly torn) journal.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The replay plan reconstructed from the valid prefix.
    pub plan: ReplayPlan,
    /// Valid records replayed (including the Begin/Snapshot head).
    pub records: usize,
    /// Trailing lines dropped as torn/corrupt.
    pub dropped: usize,
    /// Byte-identical adjacent re-writes skipped as benign duplicates (a
    /// crash between append and ack replays the last frame).
    pub duplicates: usize,
}

/// Replay a journal store into a [`ReplayPlan`].
///
/// The head must be a valid `Begin` record with a compatible format version
/// — without it the journal cannot even be identified, so corruption there
/// is a hard [`JournalError`]. Everything after the head is salvaged
/// best-effort: the tail is dropped at the first malformed, mis-checksummed,
/// out-of-sequence, or structurally inconsistent line. Dropping the tail
/// trades cached state for recomputation; it never produces a wrong plan.
///
/// One at-least-once wrinkle is tolerated rather than dropped: a line that
/// is byte-identical to its predecessor. A writer that crashes between the
/// durable append and its acknowledgement legitimately re-appends the same
/// frame on restart, so an exact duplicate carries the same sequence number
/// and checksum — it is skipped (and counted in
/// [`LoadedJournal::duplicates`]), never treated as corruption. A same-seq
/// line whose bytes *differ* is still a torn tail.
pub fn load_plan(store: &dyn JournalStore) -> Result<LoadedJournal, JournalError> {
    // One read for the whole journal; every line below is a borrowed slice
    // of `text`, decoded in place and checksummed as stored — the loader
    // allocates nothing per record beyond the values the plan keeps.
    let text = store.read_all()?;
    let mut it = text.lines();
    let head = it
        .next()
        .ok_or_else(|| JournalError::Corrupt("journal is empty".into()))?;
    let (mut prev_seq, begin) = match parse_frame(head) {
        Ok(frame) => frame,
        // The checksum is defined by the format version, so a head of
        // another version is reported as that, verified or not.
        Err(FrameIssue::Crc {
            seq,
            record: record @ JournalRecord::Begin { version, .. },
            ..
        }) if version != JOURNAL_FORMAT_VERSION => (seq, record),
        Err(issue) => return Err(issue.into_error()),
    };
    let JournalRecord::Begin {
        version,
        label,
        seed,
    } = begin
    else {
        return Err(JournalError::Corrupt(
            "journal does not start with a Begin record".into(),
        ));
    };
    if version != JOURNAL_FORMAT_VERSION {
        return Err(JournalError::Version {
            found: version,
            expected: JOURNAL_FORMAT_VERSION,
        });
    }
    let mut plan = ReplayPlan::new(label, seed);
    let mut records = 1usize;
    let mut duplicates = 0usize;
    let mut torn = false;
    let mut prev_line = head;
    for line in it.by_ref() {
        // Benign at-least-once duplicate: the exact bytes of the previous
        // (already applied) frame, re-appended by a writer that died
        // between append and ack. Skip without re-applying.
        if line == prev_line {
            duplicates += 1;
            continue;
        }
        // Mid-stream failures are discarded wholesale (the tail is dropped,
        // not diagnosed), so the error type here is `()` — no message is
        // ever formatted for a line that will simply be dropped.
        let keep: Result<u64, ()> = parse_frame(line).map_err(|_| ()).and_then(|(seq, rec)| {
            if seq <= prev_seq {
                return Err(()); // sequence regressed
            }
            match rec {
                // A Snapshot directly after the head replaces the plan
                // wholesale (compacted journal). Anywhere else it is
                // torn.
                JournalRecord::Snapshot { plan: snap } if records == 1 => {
                    if snap.label != plan.label || snap.seed != plan.seed {
                        return Err(()); // identity mismatch with Begin
                    }
                    if !snap.shapes_resolve() {
                        return Err(()); // a stage names an undefined shape
                    }
                    plan = snap;
                    Ok(seq)
                }
                rec => plan.apply(rec).map(|()| seq).map_err(|_| ()),
            }
        });
        match keep {
            Ok(seq) => {
                prev_seq = seq;
                prev_line = line;
                records += 1;
            }
            Err(()) => {
                // Torn tail: everything from here on is untrusted.
                torn = true;
                break;
            }
        }
    }
    // A torn line leaves the rest of the journal unread; only then are
    // those lines counted, so a whole journal is walked once.
    Ok(LoadedJournal {
        plan,
        records,
        dropped: usize::from(torn) + it.count(),
        duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_json::{FromJson, Json};
    use impress_sim::{SimRng, SimTime};

    fn meta(name: &str, secs: u64) -> TaskMeta {
        TaskMeta {
            name: name.into(),
            request: ResourceRequest::with_gpus(2, 1),
            duration: SimDuration::from_secs(secs),
            gpu_busy_fraction: 0.33,
            priority: 5,
            kind: TaskKind::Ml,
            walltime: Some(SimDuration::from_hours(2)),
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Begin {
                version: JOURNAL_FORMAT_VERSION,
                label: "t".into(),
                seed: 9,
            },
            JournalRecord::Registered {
                pipeline: 0,
                parent: None,
                name: "root".into(),
            },
            JournalRecord::Registered {
                pipeline: 1,
                parent: Some(0),
                name: "sub".into(),
            },
            JournalRecord::StageSubmitted {
                pipeline: 0,
                stage: 0,
                shapes: vec![meta("a", 10), meta("b", 20)],
                tasks: vec![0, 1, 0],
            },
            JournalRecord::StageCompleted {
                pipeline: 0,
                stage: 0,
            },
            JournalRecord::TaskPoisoned {
                pipeline: 0,
                task: 17,
                distinct_nodes: 3,
            },
            JournalRecord::Completed {
                pipeline: 0,
                outcome: RawJson::new(&Json::object().field("score", 0.1875).build()),
            },
            JournalRecord::Aborted {
                pipeline: 1,
                reason: "quality floor".into(),
            },
            JournalRecord::Snapshot {
                plan: ReplayPlan::new("t", 9),
            },
        ]
    }

    #[test]
    fn every_record_type_round_trips_through_json() {
        for rec in sample_records() {
            let text = impress_json::to_string(&rec);
            let back = JournalRecord::from_json(&impress_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, rec, "round trip failed for {text}");
        }
    }

    /// The tree route, kept as the reference the loader's pull route is
    /// held to: parse the frame into a `Json` tree, then read the tree.
    fn tree_frame(line: &str) -> (u64, JournalRecord) {
        let v = impress_json::parse(line).unwrap();
        let rec = JournalRecord::from_json(v.get("rec").unwrap()).unwrap();
        (v.get("seq").unwrap().as_u64().unwrap(), rec)
    }

    fn arb_name(rng: &mut SimRng) -> String {
        const NAMES: [&str; 5] = ["mpnn", "af2 \"fold\"", "md\\eq\n", "日本 µ", ""];
        NAMES[rng.below(NAMES.len())].into()
    }

    fn arb_meta(rng: &mut SimRng) -> TaskMeta {
        TaskMeta {
            name: arb_name(rng).into(),
            request: ResourceRequest::with_gpus(1 + rng.below(8) as u32, rng.below(3) as u32),
            duration: SimDuration::from_micros(rng.below(1 << 40) as u64),
            gpu_busy_fraction: rng.uniform(),
            priority: rng.below(20) as i32 - 10,
            kind: if rng.chance(0.5) {
                TaskKind::Ml
            } else {
                TaskKind::Mpi
            },
            walltime: rng
                .chance(0.5)
                .then(|| SimDuration::from_secs(rng.below(9999) as u64)),
        }
    }

    /// A few task shapes that a stream of records shares, as a campaign's
    /// repeated stage kinds do.
    fn arb_pool(rng: &mut SimRng) -> Vec<TaskMeta> {
        (0..1 + rng.below(6)).map(|_| arb_meta(rng)).collect()
    }

    /// Up to `n - 1` ids below `defined`, repeats likely.
    fn arb_ids(rng: &mut SimRng, n: usize, defined: usize) -> Vec<u32> {
        (0..rng.below(n))
            .map(|_| rng.below(defined.max(1)) as u32)
            .collect()
    }

    fn arb_outcome(rng: &mut SimRng) -> RawJson {
        RawJson::new(
            &Json::object()
                .field("score", rng.uniform_range(-3.0, 3.0))
                .field("sequence", "ACDEFGHIK")
                .field("accepted", rng.chance(0.5))
                .field("parent", rng.chance(0.5).then(|| rng.below(9) as u64))
                .build(),
        )
    }

    /// A record whose shapes come from `pool`: a stage defines a run of it
    /// and names ids among what it and its predecessors would define, and
    /// a snapshot's table is a prefix of it.
    fn arb_record(rng: &mut SimRng, pool: &[TaskMeta]) -> JournalRecord {
        let pipeline = rng.below(64) as u64;
        match rng.below(8) {
            0 => JournalRecord::Begin {
                version: rng.below(4) as u32,
                label: arb_name(rng),
                seed: rng.below(usize::MAX) as u64,
            },
            1 => JournalRecord::Registered {
                pipeline,
                parent: rng.chance(0.5).then(|| rng.below(64) as u64),
                name: arb_name(rng),
            },
            2 => {
                let first = rng.below(pool.len());
                let shapes = pool[first..first + rng.below(pool.len() - first + 1)].to_vec();
                JournalRecord::StageSubmitted {
                    pipeline,
                    stage: rng.below(9),
                    tasks: arb_ids(rng, 5, first + shapes.len()),
                    shapes,
                }
            }
            3 => JournalRecord::StageCompleted {
                pipeline,
                stage: rng.below(9),
            },
            4 => JournalRecord::Completed {
                pipeline,
                outcome: arb_outcome(rng),
            },
            5 => JournalRecord::Aborted {
                pipeline,
                reason: arb_name(rng),
            },
            6 => JournalRecord::TaskPoisoned {
                pipeline,
                task: rng.below(1 << 30) as u64,
                distinct_nodes: rng.below(9) as u32,
            },
            _ => JournalRecord::Snapshot {
                plan: ReplayPlan {
                    label: arb_name(rng),
                    seed: rng.below(1 << 50) as u64,
                    shapes: pool[..rng.below(pool.len() + 1)].to_vec(),
                    pipelines: (0..rng.below(4))
                        .map(|i| PipelineScript {
                            id: i as u64,
                            name: arb_name(rng),
                            parent: rng.chance(0.3).then_some(0),
                            stages: (0..rng.below(3))
                                .map(|_| arb_ids(rng, 4, pool.len()))
                                .collect(),
                            stages_completed: rng.below(3),
                            terminal: match rng.below(3) {
                                0 => None,
                                1 => Some(TerminalRecord::Completed(arb_outcome(rng))),
                                _ => Some(TerminalRecord::Aborted(arb_name(rng))),
                            },
                        })
                        .collect(),
                },
            },
        }
    }

    #[test]
    fn the_pull_route_decodes_every_record_type_like_the_tree_route() {
        let mut rng = SimRng::from_seed(0x10AD).fork("journal-routes");
        let pool = arb_pool(&mut rng);
        let random: Vec<_> = (0..300).map(|_| arb_record(&mut rng, &pool)).collect();
        for (i, rec) in sample_records().into_iter().chain(random).enumerate() {
            let line = frame(i as u64, &rec);
            let pulled = parse_frame(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(pulled, tree_frame(&line), "routes differ on {line}");
            assert_eq!(pulled, (i as u64, rec), "round trip failed for {line}");
        }
    }

    /// A journal commit 720ca6b wrote at format 1 — compacted head, live
    /// tail, escapes, a `Completed` payload. Kept byte for byte.
    const FORMAT_1: &str = include_str!("../tests/fixtures/parent_720ca6b.journal");
    /// The same records framed at format 2: `Begin` says 2, every checksum
    /// is the format-2 one, every `rec` byte past the version is the same.
    /// Kept byte for byte.
    const FORMAT_2: &str = include_str!("../tests/fixtures/format_2.journal");
    /// The same records at format 3: `Begin` says 3, and the snapshot and
    /// the stage submission name their tasks through the shape table.
    const FORMAT_3: &str = include_str!("../tests/fixtures/format_3.journal");

    /// A frame of any format version, read as a tree: `seq`, `crc`, `rec`.
    fn frame_tree(line: &str) -> (u64, u64, Json) {
        let v = impress_json::parse(line).unwrap();
        let number = |key| v.get(key).unwrap().as_u64().unwrap();
        (number("seq"), number("crc"), v.get("rec").unwrap().clone())
    }

    /// The `rec` bytes of a frame, as stored.
    fn rec_bytes(line: &str) -> &str {
        let rest = line.split_once(",\"rec\":").unwrap().1;
        &rest[..rest.len() - 1]
    }

    /// A frame for the tree `rec`, checksummed as formats 2 and 3 do.
    fn reframe(seq: u64, rec: &Json) -> String {
        let text = impress_json::to_string(rec);
        let crc = checksum(text.as_bytes());
        format!("{{\"seq\":{seq},\"crc\":{crc},\"rec\":{text}}}")
    }

    /// The record kind of a `rec` tree, and its fields.
    fn variant(rec: &mut Json) -> (&str, &mut Vec<(String, Json)>) {
        let Json::Object(variant) = rec else {
            panic!("a record is an object")
        };
        let (kind, Json::Object(fields)) = &mut variant[0] else {
            panic!("a record's body is an object")
        };
        (kind, fields)
    }

    fn field<'a>(fields: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
        &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// Set a `Begin` record's version from `from` to `to`; other records
    /// stay as they are.
    fn bump_version(rec: &mut Json, from: u32, to: u32) {
        if let ("Begin", fields) = variant(rec) {
            let version = field(fields, "version");
            assert_eq!(*version, Json::of(&from));
            *version = Json::of(&to);
        }
    }

    /// A list of format-2 task metas as shape ids, each meta defined in
    /// `table` the first time it appears.
    fn shape_ids(metas: &Json, table: &mut Vec<Json>) -> Json {
        let ids = metas.as_array().unwrap().iter().map(|meta| {
            let id = table.iter().position(|t| t == meta).unwrap_or_else(|| {
                table.push(meta.clone());
                table.len() - 1
            });
            id as u32
        });
        Json::array(ids)
    }

    /// A format-2 `rec` tree re-encoded at format 3.
    fn at_format_3(mut rec: Json, table: &mut Vec<Json>) -> Json {
        bump_version(&mut rec, 2, 3);
        match variant(&mut rec) {
            ("StageSubmitted", fields) => {
                let defined = table.len();
                let tasks = field(fields, "tasks");
                *tasks = shape_ids(tasks, table);
                let shapes = Json::Array(table[defined..].to_vec());
                let at = fields.iter().position(|(k, _)| k == "tasks").unwrap();
                fields.insert(at, ("shapes".into(), shapes));
            }
            ("Snapshot", fields) => {
                let Json::Object(plan) = field(fields, "plan") else {
                    panic!("a plan is an object")
                };
                let Json::Array(pipelines) = field(plan, "pipelines") else {
                    panic!("pipelines are a list")
                };
                for script in pipelines {
                    let Json::Object(script) = script else {
                        panic!("a pipeline is an object")
                    };
                    let Json::Array(stages) = field(script, "stages") else {
                        panic!("stages are a list")
                    };
                    for stage in stages {
                        *stage = shape_ids(stage, table);
                    }
                }
                let at = plan.iter().position(|(k, _)| k == "pipelines").unwrap();
                plan.insert(at, ("shapes".into(), Json::Array(table.clone())));
            }
            _ => {}
        }
        rec
    }

    /// The older journals are refused at their heads with the typed
    /// version error; the records at format 3 verify frame by frame under
    /// the stored-bytes checksum and load to the plan the tree route reads
    /// out of them.
    #[test]
    fn a_journal_written_before_the_pull_decoder_loads_to_the_same_plan() {
        for (text, found) in [(FORMAT_1, 1), (FORMAT_2, 2)] {
            let old = MemoryJournal::new();
            old.append_block(text).unwrap();
            assert_eq!(
                load_plan(&old).unwrap_err(),
                JournalError::Version { found, expected: 3 }
            );
        }

        let text = FORMAT_3;
        let store = MemoryJournal::new();
        store.append_block(text).unwrap();
        let loaded = load_plan(&store).unwrap();
        assert_eq!(
            (loaded.records, loaded.dropped, loaded.duplicates),
            (6, 0, 0)
        );

        let mut frames = text.lines().map(tree_frame);
        let (_, JournalRecord::Begin { label, seed, .. }) = frames.next().unwrap() else {
            panic!("fixture starts with Begin");
        };
        let (_, JournalRecord::Snapshot { plan: mut want }) = frames.next().unwrap() else {
            panic!("fixture is compacted");
        };
        assert_eq!((&want.label, want.seed), (&label, seed));
        for (_, rec) in frames {
            want.apply(rec).unwrap();
        }
        assert_eq!(loaded.plan, want);
        assert_eq!(loaded.plan.pipelines.len(), 3);
        assert_eq!(loaded.plan.live_pipelines(), 1);
        assert_eq!(loaded.plan.shapes.len(), 3);
    }

    /// Format 2 changed the checksum and nothing else: the fixture is the
    /// format-1 one with `version` bumped and every frame re-checksummed,
    /// and every other `rec` is the bytes 720ca6b wrote.
    #[test]
    fn the_format_2_fixture_is_the_format_1_records_reframed() {
        assert_eq!(FORMAT_1.lines().count(), FORMAT_2.lines().count());
        for (old, new) in FORMAT_1.lines().zip(FORMAT_2.lines()) {
            let (seq, _, mut rec) = frame_tree(old);
            bump_version(&mut rec, 1, 2);
            assert_eq!(reframe(seq, &rec), new);
            if !rec_bytes(old).starts_with("{\"Begin\"") {
                assert_eq!(rec_bytes(old), rec_bytes(new));
            }
        }
    }

    /// Format 3 changed how stages name their tasks and nothing else: the
    /// fixture is the format-2 one with `version` bumped and each task meta
    /// moved into the shape table, every record is what today's writer
    /// frames, and the records that name no task are the format-2 bytes.
    #[test]
    fn the_format_3_fixture_is_the_format_2_records_reframed() {
        assert_eq!(FORMAT_2.lines().count(), FORMAT_3.lines().count());
        let mut table = Vec::new();
        for (old, new) in FORMAT_2.lines().zip(FORMAT_3.lines()) {
            let (seq, _, rec) = frame_tree(old);
            assert_eq!(reframe(seq, &at_format_3(rec, &mut table)), new);
            let (seq, rec) = tree_frame(new);
            assert_eq!(frame(seq, &rec), new);
            if !matches!(
                rec,
                JournalRecord::Begin { .. }
                    | JournalRecord::StageSubmitted { .. }
                    | JournalRecord::Snapshot { .. }
            ) {
                assert_eq!(rec_bytes(old), rec_bytes(new));
            }
        }
        // Three distinct metas in the format-2 fixture, each defined once.
        assert_eq!(table.len(), 3);
        assert_eq!(FORMAT_3.matches("\"gpu_busy_fraction\"").count(), 3);
    }

    #[test]
    fn a_version_1_frame_fails_the_version_2_check() {
        for line in FORMAT_1.lines() {
            let (_, stored, _) = frame_tree(line);
            assert_ne!(stored, checksum(rec_bytes(line).as_bytes()), "{line}");
        }
        // Only a head of another version is excused its checksum: a
        // format-3 head carrying the format-2 head's crc is corrupt.
        let crc = |text: &'static str| text.split(',').nth(1).unwrap();
        let forged = FORMAT_3.replacen(crc(FORMAT_3), crc(FORMAT_2), 1);
        let store = MemoryJournal::new();
        store.append_block(&forged).unwrap();
        assert!(matches!(load_plan(&store), Err(JournalError::Corrupt(_))));
    }

    /// The module doc's definition spelled out: zero-pad to whole words,
    /// assemble each one byte by byte.
    fn checksum_as_documented(bytes: &[u8]) -> u64 {
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len().div_ceil(8) * 8, 0);
        let mut h = 0x243f_6a88_85a3_08d3 ^ bytes.len() as u64;
        for word in padded.chunks(8) {
            let w = word.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        }
        h ^= h >> 32;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 29;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 32)
    }

    #[test]
    fn the_checksum_matches_its_golden_values() {
        let input: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let golden = [
            (0, 0xe2a6_d783_92bc_d725),
            (1, 0x80cd_43ab_d67d_62a8),
            (7, 0x012b_4ccc_ac97_2784),
            (8, 0x2ec9_522f_7c8f_dd57),
            (9, 0xc91c_578e_7eee_362a),
            (15, 0x1635_50f1_b109_e18d),
            (16, 0x4776_c313_0154_bb73),
            (64, 0x699f_a670_2252_8d60),
        ];
        for (len, want) in golden {
            assert_eq!(checksum(&input[..len]), want, "length {len}");
        }
        for len in 0..=input.len() {
            assert_eq!(
                checksum(&input[..len]),
                checksum_as_documented(&input[..len])
            );
        }
        // The length term tells a zero-padded tail from real zero bytes.
        assert_ne!(checksum(b"ab"), checksum(b"ab\0"));
        assert_ne!(checksum(b""), checksum(&[0; 8]));
    }

    #[test]
    fn every_single_byte_change_and_truncation_of_a_stage_submitted_frame_is_detected() {
        let rec = JournalRecord::StageSubmitted {
            pipeline: 4,
            stage: 2,
            shapes: vec![meta("mpnn", 600), meta("af2", 3600)],
            tasks: vec![0, 1, 1],
        };
        let line = frame(11, &rec);
        assert_eq!(parse_frame(&line).unwrap(), (11, rec));
        let crc_at = line.find("\"crc\":").unwrap() + "\"crc\":".len();
        let rec_at = line.find(",\"rec\":").unwrap() + ",\"rec\":".len();
        let covered = &line.as_bytes()[rec_at..line.len() - 1];
        let crc = checksum(covered);

        // Every substitute for every covered byte changes the checksum…
        let mut bytes = covered.to_vec();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in (0..=u8::MAX).filter(|&b| b != original) {
                bytes[i] = b;
                assert_ne!(checksum(&bytes), crc, "byte {i} → {b:#04x}");
            }
            bytes[i] = original;
        }
        // …and every ASCII substitute in the checksummed record or the
        // stored checksum fails the frame (`seq` is the loader's ordering
        // rule's to check).
        let mut bytes = line.clone().into_bytes();
        for i in crc_at..line.len() - 1 {
            let original = bytes[i];
            for b in (0..0x80).filter(|&b| b != original) {
                bytes[i] = b;
                let changed = std::str::from_utf8(&bytes).unwrap();
                assert!(parse_frame(changed).is_err(), "{changed}");
            }
            bytes[i] = original;
        }
        // Every truncation: of the covered bytes, and of the line.
        for len in 0..covered.len() {
            assert_ne!(checksum(&covered[..len]), crc, "record cut at {len}");
        }
        for len in 0..line.len() {
            assert!(parse_frame(&line[..len]).is_err(), "line cut at {len}");
        }
    }

    #[test]
    fn records_find_their_pipeline_when_ids_are_not_dense() {
        // Ids are dense when the coordinator registers them, which
        // `position` exploits; a plan assembled any other way — here a
        // snapshot whose ids are sparse and out of order — is still looked
        // up by id, never by position.
        let script = |id: u64| PipelineScript {
            id,
            name: format!("p{id}"),
            parent: None,
            stages: vec![vec![0]],
            stages_completed: 0,
            terminal: None,
        };
        let mut plan = ReplayPlan::new("t", 9);
        plan.shapes = vec![meta("a", 1)];
        plan.pipelines = vec![script(7), script(0), script(2), script(1)];
        let store = MemoryJournal::new();
        store
            .rewrite(&[
                frame(0, &sample_records()[0]),
                frame(1, &JournalRecord::Snapshot { plan }),
                // pipelines[1] holds id 0, pipelines[2] holds id 2 (dense
                // by coincidence), pipelines[3] holds id 1.
                frame(
                    2,
                    &JournalRecord::StageCompleted {
                        pipeline: 1,
                        stage: 0,
                    },
                ),
                frame(
                    3,
                    &JournalRecord::StageCompleted {
                        pipeline: 2,
                        stage: 0,
                    },
                ),
                frame(
                    4,
                    &JournalRecord::StageCompleted {
                        pipeline: 7,
                        stage: 0,
                    },
                ),
                frame(
                    5,
                    &JournalRecord::Registered {
                        pipeline: 3,
                        parent: None,
                        name: "new".into(),
                    },
                ),
                frame(
                    6,
                    &JournalRecord::Aborted {
                        pipeline: 3,
                        reason: "r".into(),
                    },
                ),
                // Already registered, found by the scan: the tail is torn.
                frame(
                    7,
                    &JournalRecord::Registered {
                        pipeline: 7,
                        parent: None,
                        name: "dup".into(),
                    },
                ),
            ])
            .unwrap();
        let loaded = load_plan(&store).unwrap();
        assert_eq!((loaded.records, loaded.dropped), (7, 1));
        let done = |id: u64| {
            let s = loaded.plan.pipelines.iter().find(|s| s.id == id).unwrap();
            (s.stages_completed, s.terminal.is_some())
        };
        assert_eq!(
            [done(0), done(1), done(2), done(7), done(3)],
            [(0, false), (1, false), (1, false), (1, false), (0, true)]
        );
        let mut plan = loaded.plan;
        assert!(plan
            .apply(JournalRecord::StageCompleted {
                pipeline: 9,
                stage: 0
            })
            .is_err());
    }

    #[test]
    fn compaction_frames_the_borrowed_plan_byte_for_byte() {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t \"q\"", 9)
            .unwrap()
            .with_snapshot_interval(7);
        for rec in body() {
            j.record(rec).unwrap();
        }
        j.commit().unwrap();
        assert_eq!(j.snapshots_taken(), 1);
        // What compaction wrote before it framed from a borrow: the plan
        // cloned into an owned `Snapshot` record.
        let begin = JournalRecord::Begin {
            version: JOURNAL_FORMAT_VERSION,
            label: "t \"q\"".into(),
            seed: 9,
        };
        let snapshot = |j: &Journal| JournalRecord::Snapshot {
            plan: j.plan().clone(),
        };
        assert_eq!(
            store.lines().unwrap(),
            [frame(8, &begin), frame(9, &snapshot(&j))]
        );
        // The next compaction refills the same two buffers: a shorter
        // snapshot leaves no bytes of the longer one behind.
        let warm = j.compacted.each_ref().map(String::capacity);
        j.record(JournalRecord::Registered {
            pipeline: 2,
            parent: None,
            name: "p".into(),
        })
        .unwrap();
        j.record_stage(2, 0, [meta("a", 10), meta("c", 5)]).unwrap();
        for stage in 0..5 {
            j.record(JournalRecord::TaskPoisoned {
                pipeline: 2,
                task: stage,
                distinct_nodes: 1,
            })
            .unwrap();
        }
        j.commit().unwrap();
        assert_eq!(j.snapshots_taken(), 2);
        assert_eq!(
            store.lines().unwrap(),
            [frame(17, &begin), frame(18, &snapshot(&j))]
        );
        assert!(j.compacted.iter().zip(warm).all(|(l, c)| l.capacity() >= c));
    }

    /// Every `StageSubmitted` and `Snapshot` line the store holds, as the
    /// shapes each defines.
    fn defined_shapes(store: &MemoryJournal) -> Vec<TaskMeta> {
        let mut defined = Vec::new();
        for (_, rec) in store.lines().unwrap().iter().map(|l| tree_frame(l)) {
            match rec {
                JournalRecord::StageSubmitted { shapes, .. } => defined.extend(shapes),
                JournalRecord::Snapshot { plan } => defined.extend(plan.shapes),
                _ => {}
            }
        }
        defined
    }

    /// Whether `a` and `b` are one shape (the GPU fraction by its bits).
    fn same_shape(a: &TaskMeta, b: &TaskMeta) -> bool {
        Shape(a.clone()) == Shape(b.clone())
    }

    #[test]
    fn each_distinct_meta_is_defined_exactly_once_across_compactions() {
        let mut rng = SimRng::from_seed(0x5EA7).fork("shape-table");
        let pool = arb_pool(&mut rng);
        for interval in [None, Some(1), Some(3), Some(8)] {
            let store = MemoryJournal::new();
            let mut j = Journal::new(Box::new(store.clone()), "t", 9).unwrap();
            if let Some(i) = interval {
                j = j.with_snapshot_interval(i);
            }
            let mut used: Vec<TaskMeta> = Vec::new();
            for pipeline in 0..6u64 {
                j.record(JournalRecord::Registered {
                    pipeline,
                    parent: None,
                    name: format!("p{pipeline}"),
                })
                .unwrap();
                for stage in 0..4 {
                    let tasks: Vec<TaskMeta> = (0..1 + rng.below(4))
                        .map(|_| pool[rng.below(pool.len())].clone())
                        .collect();
                    for meta in &tasks {
                        if !used.iter().any(|u| same_shape(u, meta)) {
                            used.push(meta.clone());
                        }
                    }
                    j.record_stage(pipeline, stage, tasks.clone()).unwrap();
                    // Ids are dense and each names the meta it stands for.
                    let plan = j.plan();
                    let ids = plan.pipelines[pipeline as usize].stages[stage].clone();
                    assert!(ids.iter().all(|&id| (id as usize) < plan.shapes.len()));
                    for (meta, &id) in tasks.iter().zip(&ids) {
                        assert!(same_shape(&plan.shapes[id as usize], meta));
                    }
                    j.commit().unwrap();
                    // Whatever the store holds now — head, snapshot, tail —
                    // defines every shape used so far exactly once, in
                    // order of first use.
                    let defined = defined_shapes(&store);
                    assert_eq!(defined.len(), used.len(), "interval {interval:?}");
                    assert!(defined.iter().zip(&used).all(|(d, u)| same_shape(d, u)));
                    let loaded = load_plan(&store).unwrap();
                    assert_eq!(loaded.dropped, 0);
                    assert_eq!(loaded.plan, *j.plan());
                }
            }
            if interval.is_some() {
                assert!(j.snapshots_taken() > 0);
            }
        }
    }

    #[test]
    fn metas_that_differ_in_one_field_are_distinct_shapes_and_round_trip_bytewise() {
        let base = TaskMeta {
            gpu_busy_fraction: 0.0,
            walltime: None,
            ..meta("a", 60)
        };
        let variants = [
            base.clone(),
            TaskMeta {
                gpu_busy_fraction: -0.0,
                ..base.clone()
            },
            TaskMeta {
                walltime: Some(SimDuration::from_secs(60)),
                ..base.clone()
            },
            TaskMeta {
                name: "b".into(),
                ..base.clone()
            },
            TaskMeta {
                name: "a".repeat(30).into(),
                ..base.clone()
            },
        ];
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9).unwrap();
        j.record(body()[0].clone()).unwrap();
        let twice = variants.iter().chain(&variants).cloned();
        j.record_stage(0, 0, twice).unwrap();
        j.record_stage(0, 1, variants.iter().rev().cloned())
            .unwrap();
        j.commit().unwrap();
        let n = variants.len() as u32;
        let loaded = load_plan(&store).unwrap();
        let stages = &loaded.plan.pipelines[0].stages;
        assert_eq!(stages[0], (0..n).chain(0..n).collect::<Vec<_>>());
        assert_eq!(stages[1], (0..n).rev().collect::<Vec<_>>());
        assert_eq!(loaded.plan.shapes.len(), variants.len());
        for (shape, meta) in loaded.plan.shapes.iter().zip(&variants) {
            assert_eq!(
                impress_json::to_string(shape),
                impress_json::to_string(meta)
            );
            assert_eq!(
                shape.gpu_busy_fraction.to_bits(),
                meta.gpu_busy_fraction.to_bits()
            );
            assert!(same_shape(shape, meta));
        }
        // The second stage defined nothing: it is ids only.
        let last = store.lines().unwrap().pop().unwrap();
        assert!(
            last.contains("\"shapes\":[],\"tasks\":[4,3,2,1,0]"),
            "{last}"
        );
    }

    #[test]
    fn a_record_naming_an_undefined_shape_ends_the_trusted_prefix() {
        let stage = |stage, shapes, tasks| JournalRecord::StageSubmitted {
            pipeline: 0,
            stage,
            shapes,
            tasks,
        };
        let store = MemoryJournal::new();
        store
            .rewrite(&[
                frame(0, &sample_records()[0]),
                frame(1, &body()[0]),
                frame(2, &stage(0, vec![meta("a", 1)], vec![0, 0])),
                // Id 1 was never defined: the tail is dropped from here.
                frame(3, &stage(1, Vec::new(), vec![0, 1])),
                frame(4, &stage(1, Vec::new(), vec![0])),
            ])
            .unwrap();
        let loaded = load_plan(&store).unwrap();
        assert_eq!((loaded.records, loaded.dropped), (3, 2));
        assert_eq!(loaded.plan.pipelines[0].stages, [vec![0, 0]]);
        assert_eq!(loaded.plan.shapes, [meta("a", 1)]);

        // A snapshot whose stages name an undefined shape is torn too.
        let mut plan = loaded.plan;
        plan.shapes.clear();
        store
            .rewrite(&[
                frame(0, &sample_records()[0]),
                frame(1, &JournalRecord::Snapshot { plan }),
            ])
            .unwrap();
        let loaded = load_plan(&store).unwrap();
        assert_eq!((loaded.records, loaded.dropped), (1, 1));
        assert!(loaded.plan.pipelines.is_empty());
    }

    #[test]
    fn a_cut_between_a_defining_record_and_its_next_use_loads_the_prefix() {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9).unwrap();
        for pipeline in 0..2 {
            j.record(JournalRecord::Registered {
                pipeline,
                parent: None,
                name: "p".into(),
            })
            .unwrap();
        }
        j.record_stage(0, 0, [meta("a", 1), meta("b", 2)]).unwrap(); // defines 0, 1
        j.record(JournalRecord::StageCompleted {
            pipeline: 0,
            stage: 0,
        })
        .unwrap();
        j.record_stage(1, 0, [meta("b", 2), meta("c", 3)]).unwrap(); // uses 1, defines 2
        j.record_stage(0, 1, [meta("c", 3), meta("a", 1)]).unwrap(); // ids only
        j.commit().unwrap();
        let lines = store.lines().unwrap();
        assert_eq!(lines.len(), 7);
        for cut in 1..=lines.len() {
            let prefix = MemoryJournal::new();
            prefix.rewrite(&lines[..cut]).unwrap();
            let loaded = load_plan(&prefix).unwrap();
            assert_eq!((loaded.records, loaded.dropped), (cut, 0));
            assert!(loaded.plan.shapes_resolve());
            // The table holds exactly what the prefix defined.
            let want = match cut {
                1..=3 => 0,
                4 | 5 => 2,
                _ => 3,
            };
            assert_eq!(loaded.plan.shapes.len(), want, "cut at {cut}");
        }
        // A cut inside the record that only refers: its torn line is
        // dropped, and the definitions before it stand.
        let torn = MemoryJournal::new();
        let mut cut = lines.clone();
        let last = cut.last_mut().unwrap();
        last.truncate(last.len() - 3);
        torn.rewrite(&cut).unwrap();
        let loaded = load_plan(&torn).unwrap();
        assert_eq!((loaded.records, loaded.dropped), (6, 1));
        assert_eq!(
            loaded.plan.shapes,
            [meta("a", 1), meta("b", 2), meta("c", 3)]
        );
    }

    #[test]
    fn the_writer_refuses_a_shape_defined_twice() {
        let mut j = Journal::new(Box::new(MemoryJournal::new()), "t", 9).unwrap();
        j.record(body()[0].clone()).unwrap();
        let stage = |stage, shapes, tasks| JournalRecord::StageSubmitted {
            pipeline: 0,
            stage,
            shapes,
            tasks,
        };
        j.record(stage(0, vec![meta("a", 1)], vec![0])).unwrap();
        assert!(matches!(
            j.record(stage(1, vec![meta("a", 1)], vec![1])),
            Err(JournalError::Corrupt(_))
        ));
        let mut j = Journal::new(Box::new(MemoryJournal::new()), "t", 9).unwrap();
        j.record(body()[0].clone()).unwrap();
        assert!(j
            .record(stage(0, vec![meta("a", 1), meta("a", 1)], vec![0]))
            .is_err());
        // A refused duplicate buffers and defines nothing, so the shape
        // gets the next id when a stage first uses it.
        assert_eq!(j.pending, 1);
        j.record_stage(0, 0, [meta("b", 2), meta("a", 1)]).unwrap();
        assert_eq!(j.plan().shapes, [meta("b", 2), meta("a", 1)]);
        assert_eq!(j.plan().pipelines[0].stages, [vec![0, 1]]);
    }

    #[test]
    fn task_meta_round_trips_and_rebuilds_descriptions() {
        let m = meta("af2", 3600);
        let back = TaskMeta::from_json(&impress_json::parse(&impress_json::to_string(&m)).unwrap())
            .unwrap();
        assert_eq!(back, m);
        let d = back.to_description();
        assert_eq!(TaskMeta::of(&d), m);
        assert!(d.work.is_none(), "ghost tasks carry no work");
    }

    /// `TaskMeta` as it was before its name became a `Label`: the encoding
    /// the label must keep.
    struct MetaOfStrings {
        name: String,
        request: ResourceRequest,
        duration: SimDuration,
        gpu_busy_fraction: f64,
        priority: i32,
        kind: TaskKind,
        walltime: Option<SimDuration>,
    }
    json_struct!(MetaOfStrings {
        name,
        request,
        duration,
        gpu_busy_fraction,
        priority,
        kind,
        walltime
    });

    #[test]
    fn label_names_encode_and_decode_byte_identically_to_strings() {
        use impress_json::{from_str, read_json, to_string, write_json};
        let escapes = "af2 \"fold\"\\msa\n\t\u{1}";
        let (inline, spilled) = ("i".repeat(22), "s".repeat(23));
        let multibyte_spill = format!("{}x", "ß".repeat(11));
        let names = [
            escapes,
            "épi-ß-タスク-🧬",
            &inline,
            &spilled,
            &multibyte_spill,
            "",
        ];
        for name in names {
            let meta = TaskMeta {
                name: name.into(),
                ..meta("m", 60)
            };
            let text = to_string(&meta);
            let strings = MetaOfStrings {
                name: name.to_string(),
                request: meta.request,
                duration: meta.duration,
                gpu_busy_fraction: meta.gpu_busy_fraction,
                priority: meta.priority,
                kind: meta.kind,
                walltime: meta.walltime,
            };
            assert_eq!(text, to_string(&strings), "{name:?}");
            let mut buf = String::new();
            write_json(&mut buf, &meta);
            write_json(&mut buf, &strings);
            assert_eq!(buf, text.repeat(2), "{name:?}");
            assert_eq!(read_json::<TaskMeta>(&text).unwrap(), meta);
            assert_eq!(from_str::<TaskMeta>(&text).unwrap(), meta);
        }
        // What is not a string fails as a `String` does, on both routes.
        let error = |text| {
            let pulled = read_json::<Label>(text).unwrap_err().to_string();
            let tree = from_str::<Label>(text).unwrap_err().to_string();
            assert_eq!(pulled, read_json::<String>(text).unwrap_err().to_string());
            assert_eq!(tree, from_str::<String>(text).unwrap_err().to_string());
        };
        error("3");
        error("\"unterminated");
    }

    #[test]
    fn frames_detect_bit_rot() {
        let rec = JournalRecord::StageCompleted {
            pipeline: 3,
            stage: 1,
        };
        let line = frame(7, &rec);
        assert_eq!(parse_frame(&line).unwrap(), (7, rec.clone()));
        let flipped = line.replace("\"stage\":1", "\"stage\":2");
        assert!(matches!(parse_frame(&flipped), Err(FrameIssue::Crc { .. })));
        assert!(parse_frame(&line[..line.len() - 4]).is_err(), "truncation");
        // The checksum covers the stored bytes, not the value: a `rec` that
        // was re-spaced by hand decodes to the same record and still fails,
        // which the loader treats like any other torn line.
        let respaced = line.replace("\"stage\":1", "\"stage\": 1");
        assert_eq!(tree_frame(&respaced), (7, rec.clone()), "value-equal");
        assert!(matches!(
            parse_frame(&respaced),
            Err(FrameIssue::Crc { .. })
        ));
        // Frame keys come in any order: the span that is hashed is wherever
        // `rec` sits.
        let (head, rest) = line.split_once(",\"rec\":").unwrap();
        let reordered = format!("{{\"rec\":{},{}}}", &rest[..rest.len() - 1], &head[1..]);
        assert_eq!(parse_frame(&reordered).unwrap(), (7, rec));
        assert!(matches!(
            parse_frame("{\"seq\":1,\"crc\":2}"),
            Err(FrameIssue::NoRec)
        ));
        assert!(matches!(
            FrameIssue::NoRec.into_error(),
            JournalError::Corrupt(_)
        ));
    }

    fn journaled(records: &[JournalRecord], interval: Option<usize>) -> MemoryJournal {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9).unwrap();
        if let Some(i) = interval {
            j = j.with_snapshot_interval(i);
        }
        // Commit after every record: the per-record durability cadence the
        // pre-group-commit journal had (and the compaction cadence the
        // interval tests expect).
        for rec in records {
            j.record(rec.clone()).unwrap();
            j.commit().unwrap();
        }
        store
    }

    /// The mid-stream records of [`sample_records`] (no Begin/Snapshot).
    fn body() -> Vec<JournalRecord> {
        sample_records()[1..8].to_vec()
    }

    #[test]
    fn load_replays_what_was_recorded() {
        let store = journaled(&body(), None);
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.records, 8);
        assert_eq!(loaded.plan.label, "t");
        assert_eq!(loaded.plan.seed, 9);
        assert_eq!(loaded.plan.pipelines.len(), 2);
        let root = &loaded.plan.pipelines[0];
        assert_eq!(root.stages.len(), 1);
        assert_eq!(root.stages_completed, 1);
        assert!(matches!(root.terminal, Some(TerminalRecord::Completed(_))));
        assert!(matches!(
            loaded.plan.pipelines[1].terminal,
            Some(TerminalRecord::Aborted(_))
        ));
        assert_eq!(loaded.plan.ghost_tasks(), 3);
        assert_eq!(loaded.plan.live_pipelines(), 0);
    }

    #[test]
    fn compaction_preserves_the_plan_and_shrinks_the_store() {
        let plain = journaled(&body(), None);
        let compacted = journaled(&body(), Some(2));
        assert!(compacted.line_count() < plain.line_count());
        assert_eq!(
            load_plan(&compacted).unwrap().plan,
            load_plan(&plain).unwrap().plan,
            "compaction must not change the recovered plan"
        );
    }

    #[test]
    fn appends_after_compaction_keep_sequencing_valid() {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9)
            .unwrap()
            .with_snapshot_interval(3);
        for rec in body() {
            j.record(rec).unwrap();
            j.commit().unwrap();
        }
        assert!(j.snapshots_taken() >= 1);
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.plan, *j.plan());
    }

    #[test]
    fn double_written_tail_frame_is_a_benign_duplicate() {
        // A crash between the durable append and its ack re-appends the
        // identical frame on restart — the loader must shrug, not drop the
        // tail as corrupt.
        let store = journaled(&body(), None);
        store.tamper(|lines| {
            let last = lines.last().unwrap().clone();
            lines.push(last);
        });
        let reference = load_plan(&journaled(&body(), None)).unwrap();
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.duplicates, 1);
        assert_eq!(loaded.plan, reference.plan, "duplicate must not re-apply");
    }

    #[test]
    fn duplicated_mid_stream_frame_is_skipped_and_the_tail_survives() {
        let store = journaled(&body(), None);
        store.tamper(|lines| {
            let mid = lines.len() / 2;
            let dup = lines[mid].clone();
            lines.insert(mid + 1, dup);
        });
        let reference = load_plan(&journaled(&body(), None)).unwrap();
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.duplicates, 1);
        assert_eq!(loaded.plan, reference.plan);
    }

    #[test]
    fn triple_written_frame_counts_every_extra_copy() {
        let store = journaled(&body(), None);
        store.tamper(|lines| {
            let last = lines.last().unwrap().clone();
            lines.push(last.clone());
            lines.push(last);
        });
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.duplicates, 2);
    }

    #[test]
    fn same_seq_with_different_bytes_is_still_a_torn_tail() {
        // Only a *byte-identical* re-write is the benign at-least-once
        // case. A same-seq line with different content is corruption.
        let store = journaled(&body(), None);
        store.tamper(|lines| {
            // Re-frame a different record under the last line's seq.
            let forged = frame(
                (lines.len() - 1) as u64,
                &JournalRecord::StageCompleted {
                    pipeline: 0,
                    stage: 0,
                },
            );
            lines.push(forged);
        });
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 1, "forged same-seq frame must be dropped");
        assert_eq!(loaded.duplicates, 0);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let store = journaled(&body(), None);
        // Tear the last line mid-write.
        store.tamper(|lines| {
            let last = lines.last_mut().unwrap();
            last.truncate(last.len() / 2);
        });
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 1);
        // The aborted sub-pipeline's terminal record was in the torn line.
        assert!(loaded.plan.pipelines[1].terminal.is_none());
        assert_eq!(loaded.plan.live_pipelines(), 1);
    }

    #[test]
    fn everything_after_a_torn_line_is_untrusted() {
        let store = journaled(&body(), None);
        store.tamper(|lines| {
            let mid = lines.len() / 2;
            lines[mid].truncate(3);
        });
        let loaded = load_plan(&store).unwrap();
        assert!(loaded.dropped >= 3, "torn line plus everything after it");
    }

    #[test]
    fn torn_snapshot_degrades_to_an_empty_plan() {
        let store = journaled(&body(), Some(100));
        // Compact manually by recording enough, then tear the snapshot line
        // of a freshly compacted journal.
        let compacted = journaled(&body(), Some(2));
        let _ = store;
        compacted.tamper(|lines| {
            // After compaction the store is [Begin, Snapshot, tail…]; tear
            // the Snapshot line itself (a torn rewrite).
            let keep = lines[1].len() / 3;
            lines[1].truncate(keep);
            lines.truncate(2);
        });
        let loaded = load_plan(&compacted).unwrap();
        assert_eq!(loaded.dropped, 1);
        assert!(
            loaded.plan.pipelines.is_empty(),
            "a torn snapshot means a full (still byte-identical) re-run"
        );
    }

    #[test]
    fn corrupt_head_is_a_typed_error_never_a_panic() {
        let empty = MemoryJournal::new();
        assert!(matches!(load_plan(&empty), Err(JournalError::Corrupt(_))));
        let garbage = MemoryJournal::new();
        garbage.append("not json at all").unwrap();
        assert!(load_plan(&garbage).is_err());
        let wrong_head = journaled(&body(), None);
        wrong_head.tamper(|lines| {
            lines.remove(0);
        });
        assert!(matches!(
            load_plan(&wrong_head),
            Err(JournalError::Corrupt(_))
        ));
    }

    #[test]
    fn version_mismatch_is_reported() {
        let store = MemoryJournal::new();
        store
            .append(&frame(
                0,
                &JournalRecord::Begin {
                    version: JOURNAL_FORMAT_VERSION + 1,
                    label: "t".into(),
                    seed: 0,
                },
            ))
            .unwrap();
        assert_eq!(
            load_plan(&store).unwrap_err(),
            JournalError::Version {
                found: JOURNAL_FORMAT_VERSION + 1,
                expected: JOURNAL_FORMAT_VERSION
            }
        );
    }

    #[test]
    fn kill_switch_panics_after_the_nth_append() {
        let store = MemoryJournal::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut j = Journal::new(Box::new(store.clone()), "t", 9)
                .unwrap()
                .with_kill_after(2);
            for rec in body() {
                j.record(rec).unwrap();
                j.commit().unwrap();
            }
        }));
        assert!(result.is_err(), "kill switch must fire");
        // Begin + exactly 2 appended records survive (write-ahead: the
        // record is durable even though its transition never applied).
        assert_eq!(store.line_count(), 3);
        assert!(load_plan(&store).is_ok());
    }

    #[test]
    fn records_buffer_until_commit_then_flush_as_one_block() {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9).unwrap();
        for rec in body() {
            j.record(rec).unwrap();
        }
        assert_eq!(store.line_count(), 1, "nothing durable before the barrier");
        assert_eq!(j.pending, 7);
        assert_eq!(j.records_written(), 0);
        assert_eq!(j.commit().unwrap(), 7);
        assert_eq!(j.pending, 0);
        assert_eq!(j.records_written(), 7);
        assert_eq!(store.line_count(), 8);
        // Group commit is invisible downstream: byte-identical lines to the
        // per-record-commit path.
        let per_record = journaled(&body(), None);
        assert_eq!(store.lines().unwrap(), per_record.lines().unwrap());
    }

    #[test]
    fn commit_with_nothing_buffered_is_a_noop() {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9).unwrap();
        assert_eq!(j.commit().unwrap(), 0);
        assert_eq!(store.line_count(), 1);
    }

    #[test]
    fn kill_mid_batch_leaves_exactly_the_durable_prefix() {
        let store = MemoryJournal::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut j = Journal::new(Box::new(store.clone()), "t", 9)
                .unwrap()
                .with_kill_after(4);
            for rec in body() {
                j.record(rec).unwrap();
            }
            j.commit().unwrap();
        }));
        assert!(result.is_err(), "kill switch must fire inside the batch");
        assert_eq!(store.line_count(), 5, "Begin + exactly 4 durable records");
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
    }

    #[test]
    fn compaction_fires_at_the_commit_barrier_not_mid_batch() {
        let store = MemoryJournal::new();
        let mut j = Journal::new(Box::new(store.clone()), "t", 9)
            .unwrap()
            .with_snapshot_interval(2);
        for rec in body() {
            j.record(rec).unwrap();
        }
        assert_eq!(j.snapshots_taken(), 0, "no compaction while buffering");
        j.commit().unwrap();
        assert_eq!(j.snapshots_taken(), 1, "one compaction at the barrier");
        assert_eq!(store.line_count(), 2, "[Begin, Snapshot]");
        assert_eq!(
            load_plan(&store).unwrap().plan,
            load_plan(&journaled(&body(), None)).unwrap().plan
        );
    }

    #[test]
    fn file_store_appends_compacts_and_reloads() {
        let dir = std::env::temp_dir().join(format!(
            "impress-journal-test-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        {
            let mut j = Journal::new(Box::new(FileJournal::new(&path)), "file-test", 4).unwrap();
            // Batch the whole body through one group commit — exercises the
            // persistent handle's single-write append_block path.
            for rec in body() {
                j.record(rec).unwrap();
            }
            j.commit().unwrap();
        }
        let reloaded = load_plan(&FileJournal::new(&path)).unwrap();
        assert_eq!(reloaded.plan.pipelines.len(), 2);
        assert_eq!(reloaded.dropped, 0);
        // Compaction path: rewrite through the same store (per-record
        // commits so the interval actually fires mid-run, re-opening the
        // append handle after each rewrite).
        {
            let mut j = Journal::new(Box::new(FileJournal::new(&path)), "file-test", 4)
                .unwrap()
                .with_snapshot_interval(2);
            for rec in body() {
                j.record(rec).unwrap();
                j.commit().unwrap();
            }
            assert!(j.snapshots_taken() >= 1);
        }
        let compacted = load_plan(&FileJournal::new(&path)).unwrap();
        assert_eq!(compacted.plan, reloaded.plan);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let store = FileJournal::new("/nonexistent-dir-hopefully/x.journal");
        assert_eq!(store.lines().unwrap().len(), 0);
        let _ = SimTime::ZERO; // keep the import exercised under cfg(test)
    }

    /// `ToJsonBuf` serialization is zero-alloc: writing a record's compact
    /// JSON into a warm buffer performs no heap allocation, for any record
    /// shape (strings, vectors, floats included).
    #[test]
    fn serializing_into_a_warm_buffer_allocates_nothing() {
        let rec = JournalRecord::StageSubmitted {
            pipeline: 3,
            stage: 2,
            shapes: vec![meta("fold-\"x\"-msa", 300), meta("md-equilibrate", 60)],
            tasks: vec![0, 1, 1, 0],
        };
        let mut buf = String::new();
        impress_json::write_json(&mut buf, &rec); // warm the capacity
        let expected = buf.clone();
        buf.clear();
        let (allocs, ()) = crate::ALLOC.measure(|| impress_json::write_json(&mut buf, &rec));
        assert_eq!(allocs, 0, "ToJsonBuf must not allocate into a warm buffer");
        assert_eq!(buf, expected, "warm pass must produce identical bytes");
    }

    /// Once the frame buffer and scratch are warm, buffering a record
    /// (frame + CRC + replay-plan maintenance) allocates nothing. Measured
    /// on records that own no heap data, so the window isolates the
    /// journal's own path from the caller's record construction;
    /// durability I/O (`commit`) sits outside the window, as the group
    /// commit pays it once per cycle. Loading those frames is zero-alloc
    /// too: `load_plan` decodes a frame straight into its typed record and
    /// checksums the stored bytes, so a journal longer by such records
    /// costs the loader not one allocation more.
    #[test]
    fn a_warm_record_and_loading_it_allocate_nothing() {
        const WINDOW: u64 = 16;
        let store = MemoryJournal::new();
        let mut journal = Journal::new(Box::new(store.clone()), "zero-alloc", 7).unwrap();
        journal
            .record(JournalRecord::Registered {
                pipeline: 0,
                parent: None,
                name: "probe".into(),
            })
            .unwrap();
        // Submit well past what the measured window completes, so the
        // replay plan's stage vector has settled capacity and every
        // completion in the window is in order.
        for stage in 0..(3 * WINDOW as usize) {
            journal.record_stage(0, stage, [meta("warm", 1)]).unwrap();
        }
        for stage in 0..WINDOW as usize {
            journal
                .record(JournalRecord::StageCompleted { pipeline: 0, stage })
                .unwrap();
        }
        // Commit clears the frame buffer but keeps its (now warm) capacity.
        journal.commit().unwrap();
        assert_eq!(journal.pending, 0);
        // What loading costs before the window's records are in it.
        let (load_before, loaded) = crate::ALLOC.measure(|| load_plan(&store).unwrap());
        let records_before = loaded.records;
        drop(loaded);

        let (allocs, ()) = crate::ALLOC.measure(|| {
            for i in 0..WINDOW {
                journal
                    .record(JournalRecord::StageCompleted {
                        pipeline: 0,
                        stage: WINDOW as usize + i as usize,
                    })
                    .unwrap();
                journal
                    .record(JournalRecord::TaskPoisoned {
                        pipeline: 0,
                        task: 1000 + i,
                        distinct_nodes: 2,
                    })
                    .unwrap();
            }
        });
        assert_eq!(
            allocs,
            0,
            "steady-state Journal::record must not allocate ({} records buffered)",
            2 * WINDOW
        );
        assert_eq!(journal.pending, 2 * WINDOW as usize);
        journal.commit().unwrap();

        let (load_after, loaded) = crate::ALLOC.measure(|| load_plan(&store).unwrap());
        assert_eq!(loaded.records, records_before + 2 * WINDOW as usize);
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.plan, *journal.plan());
        assert_eq!(
            load_after,
            load_before,
            "{} more frames must not cost the loader an allocation",
            2 * WINDOW
        );
    }
}
