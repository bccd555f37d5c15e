//! # impress-core
//!
//! The IMPRESS adaptive protein design protocol (§II-C of the paper), built
//! on the `impress-workflow` coordinator, the `impress-pilot` runtime, and
//! the `impress-proteins` surrogates.
//!
//! ## The pipeline (per design lineage)
//!
//! 1. **Stage 1** — ProteinMPNN generates 10 sequences conditioned on the
//!    current structure.
//! 2. **Stage 2** — sequences are sorted by log-likelihood.
//! 3. **Stage 3** — the selected sequence is compiled into a FASTA record
//!    (here the select task's cost: nothing downstream reads the text).
//! 4. **Stage 4** — AlphaFold predicts the structure: an MSA-construction
//!    task (CPU-bound, hours) followed by an inference task (GPU), ranking
//!    candidate models by pTM.
//! 5. **Stage 5** — quality metrics (pLDDT, pTM, inter-chain pAE) gathered.
//! 6. **Stage 6** — metrics compared with the previous iteration: on
//!    improvement the new model seeds the next cycle; on decline stages 4–5
//!    repeat with the next-ranked sequence, up to 10 alternates, after which
//!    the pipeline terminates.
//! 7. **Stage 6M+7** — the cycle repeats `M` times; final candidates and
//!    statistics are returned.
//!
//! ## The two protocols under comparison
//!
//! * [`protocol::DesignPipeline`] + [`adaptive::ImpressDecision`] implement
//!   **IM-RP**: concurrent single-structure pipelines, adaptive selection,
//!   pruning, and quality-ranked sub-pipeline spawning.
//! * The same [`protocol::DesignPipeline`], non-adaptive, implements
//!   **CONT-V**: the same stages run strictly sequentially, one target's
//!   lineage after another as one pipeline on the coordinator
//!   ([`control`]), one random (unranked) candidate per cycle, no
//!   comparison, no pruning, no decision engine.
//!
//! [`spec::CampaignSpec`] is the one door to both:
//! `CampaignSpec::imrp(..)` or `CampaignSpec::cont_v(..)`, the layers as
//! setters, then `run()` over the simulated Amarel node, which returns the
//! [`experiment::ExperimentResult`] every Table I / Fig. 2–5 harness
//! reads.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod adaptive;
pub mod config;
pub mod control;
pub mod experiment;
pub mod generator;
pub mod protocol;
pub mod quality;
pub mod results;
pub mod spec;
mod stages;
pub mod toolkit;

pub use ablation::{standard_suite, AblationRow};
pub use adaptive::ImpressDecision;
pub use config::ProtocolConfig;
pub use experiment::ExperimentResult;
pub use generator::{MpnnGenerator, RandomMutagenesis, SequenceGenerator};
pub use protocol::{DesignOutcome, DesignPipeline, IterationRecord};
pub use quality::IterationSeries;
pub use results::{Table1Row, TABLE1_HEADER};
pub use spec::{CampaignRun, CampaignSpec};
pub use toolkit::TargetToolkit;
