//! Per-target tool bundle shared into task closures.

use crate::generator::{MpnnGenerator, SequenceGenerator};
use impress_proteins::datasets::DesignTarget;
use impress_proteins::msa::{MsaMode, SyntheticMsaDatabase};
use impress_proteins::{
    AlphaFoldConfig, ConfidenceReport, DesignLandscape, Structure, SurrogateAlphaFold,
    SurrogateMpnn,
};
use impress_sim::SimRng;
use std::sync::Arc;

/// The AI tools for one design target, bundled for cheap sharing into
/// `Send + 'static` task closures on either backend.
pub struct TargetToolkit {
    /// Target name.
    pub name: String,
    /// The hidden ground-truth landscape (oracle access for analysis and
    /// for deriving backbone qualities; the protocol itself only sees the
    /// tools' noisy outputs).
    pub landscape: DesignLandscape,
    /// The Stage-1 sequence generator (ProteinMPNN surrogate by default;
    /// see [`crate::generator`] for the plug point).
    pub generator: Arc<dyn SequenceGenerator>,
    /// The AlphaFold surrogate (same landscape, shared MSA database).
    pub alphafold: SurrogateAlphaFold,
    /// The prepared starting structure.
    pub start: Structure,
}

impl TargetToolkit {
    /// Build the toolkit for a design target with the default ProteinMPNN
    /// generator. `db_seed` determines the shared MSA database identity
    /// (one database per experiment, like one filesystem copy of
    /// BFD/UniRef on the real cluster).
    pub fn for_target(target: &DesignTarget, db_seed: u64) -> Arc<TargetToolkit> {
        Self::with_generator(
            target,
            db_seed,
            Arc::new(MpnnGenerator(SurrogateMpnn::new(target.landscape.clone()))),
        )
    }

    /// Build the toolkit with a custom Stage-1 generator.
    pub fn with_generator(
        target: &DesignTarget,
        db_seed: u64,
        generator: Arc<dyn SequenceGenerator>,
    ) -> Arc<TargetToolkit> {
        let database = SyntheticMsaDatabase::new(db_seed);
        Arc::new(TargetToolkit {
            name: target.name.clone(),
            landscape: target.landscape.clone(),
            generator,
            alphafold: SurrogateAlphaFold::new(target.landscape.clone(), database),
            start: target.start.clone(),
        })
    }

    /// Confidence metrics of the *starting* structure — the iteration-0
    /// baseline. The paper's starting complexes are experimentally resolved
    /// structures whose AlphaFold metrics were known from preparation, so
    /// this is input metadata, not a pipeline task; it is identical for both
    /// arms and independent of the arm's AlphaFold configuration.
    pub(crate) fn baseline_report(&self) -> ConfidenceReport {
        let mut rng =
            SimRng::from_seed(self.start.complex.receptor.sequence.content_hash()).fork("baseline");
        let msa = self
            .alphafold
            .build_msa(&self.start.complex.receptor.sequence, MsaMode::Full);
        self.alphafold
            .predict(
                &self.start.complex,
                &msa,
                &AlphaFoldConfig::default(),
                0,
                &mut rng,
            )
            .report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RandomMutagenesis;
    use impress_proteins::datasets::named_pdz_domains;

    #[test]
    fn toolkit_shares_one_landscape_identity() {
        let targets = named_pdz_domains(42);
        let tk = TargetToolkit::for_target(&targets[0], 7);
        assert_eq!(tk.name, "NHERF3");
        // Oracle and AlphaFold must score the same sequence identically at
        // the landscape level (same hidden truth).
        let seq = &tk.start.complex.receptor.sequence;
        let f1 = tk.landscape.fitness(seq);
        let f2 = tk.alphafold.landscape().fitness(seq);
        assert_eq!(f1, f2);
        assert_eq!(tk.generator.name(), "ProteinMPNN");
    }

    #[test]
    fn toolkit_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TargetToolkit>();
    }

    #[test]
    fn custom_generator_is_pluggable() {
        let targets = named_pdz_domains(42);
        let tk =
            TargetToolkit::with_generator(&targets[1], 7, Arc::new(RandomMutagenesis::default()));
        assert_eq!(tk.generator.name(), "random-mutagenesis");
    }

    #[test]
    fn baseline_report_is_stable_and_in_range() {
        let targets = named_pdz_domains(42);
        let tk = TargetToolkit::for_target(&targets[0], 7);
        let a = tk.baseline_report();
        let b = tk.baseline_report();
        assert_eq!(a, b, "baseline is pure metadata");
        assert!((50.0..=85.0).contains(&a.plddt));
    }
}
