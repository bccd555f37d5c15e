//! # impress-proteins
//!
//! Protein substrate for the IMPRESS reproduction: sequence and structure
//! types, design-fitness landscapes, and faithful *surrogates* of the two AI
//! tools the paper couples — ProteinMPNN (sequence generation conditioned on
//! a backbone) and AlphaFold2 (structure prediction with pLDDT / pTM /
//! inter-chain pAE confidence output).
//!
//! ## Why surrogates
//!
//! The real models need GPUs, hundred-gigabyte MSA databases, and weights we
//! cannot ship. The IMPRESS *protocol*, however, only interacts with them
//! through a narrow interface:
//!
//! * ProteinMPNN: backbone in → `(sequence, log-likelihood)` pairs out, where
//!   the log-likelihood ranking is informative about — but not perfectly
//!   correlated with — true design quality;
//! * AlphaFold: sequence in → ranked candidate structures + confidence
//!   metrics out, where the metrics track true quality with noise that
//!   shrinks as the MSA deepens.
//!
//! The surrogates implement exactly that contract on top of a hidden, rugged
//! NK-style fitness landscape (see [`landscape`]), so adaptive selection has
//! a real signal to exploit and the paper's quality dynamics (Figs. 2–3)
//! emerge from the protocol rather than being hard-coded.
//!
//! All randomness flows through `impress-sim`'s labelled deterministic
//! streams: identical seeds give bit-identical experiments.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod alphafold;
pub mod amino;
pub mod datasets;
pub mod fasta;
pub mod landscape;
pub mod metrics;
pub mod mpnn;
pub mod msa;
pub mod pdb;
pub mod profile;
pub mod sequence;
pub mod structure;

pub use alphafold::{AlphaFoldConfig, Prediction, SurrogateAlphaFold};
pub use amino::AminoAcid;
pub use landscape::DesignLandscape;
pub use metrics::{ConfidenceReport, MetricKind};
pub use mpnn::{MpnnConfig, ScoredSequence, SurrogateMpnn};
pub use profile::SequenceProfile;
pub use sequence::{Chain, ChainId, Sequence};
pub use structure::{Complex, Structure};
