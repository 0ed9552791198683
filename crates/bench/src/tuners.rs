//! Factory for every tuner in the evaluation.

use baselines::bo::{BoOptions, BoTuner};
use baselines::ddpg::{DdpgOptions, DdpgTuner};
use baselines::fixed::FixedConfigTuner;
use baselines::mysqltuner::MysqlTunerBaseline;
use baselines::qtune::QtuneTuner;
use baselines::restune::{ResTuneOptions, ResTuneTuner};
use baselines::{OnlineTuneBaseline, Tuner};
use onlinetune::{AblationFlags, OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue};

/// Every tuner variant used anywhere in the evaluation, including the OnlineTune ablations
/// of §7.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerKind {
    /// The full OnlineTune system.
    OnlineTune,
    /// OnlineTune started from / thresholded against the MySQL vendor default (Figure 17).
    OnlineTuneFromMysqlDefault,
    /// OnlineTune without the white-box safety assessment.
    OnlineTuneNoWhiteBox,
    /// OnlineTune without the black-box (GP lower bound) safety assessment.
    OnlineTuneNoBlackBox,
    /// OnlineTune optimizing over the full space instead of the adaptive subspace.
    OnlineTuneNoSubspace,
    /// OnlineTune with every safety mechanism removed (vanilla contextual BO).
    OnlineTuneNoSafety,
    /// OnlineTune without clustering / model selection (one global contextual GP).
    OnlineTuneNoClustering,
    /// OtterTune-style Bayesian optimization.
    Bo,
    /// CDBTune-style DDPG.
    Ddpg,
    /// QTune-lite.
    Qtune,
    /// ResTune (constrained BO + RGPE).
    ResTune,
    /// MysqlTuner heuristics.
    MysqlTuner,
    /// Fixed MySQL vendor default.
    MysqlDefault,
    /// Fixed DBA default.
    DbaDefault,
}

impl TunerKind {
    /// The display name used in experiment tables (matches the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            TunerKind::OnlineTune => "OnlineTune",
            TunerKind::OnlineTuneFromMysqlDefault => "OnlineTune (MySQL default start)",
            TunerKind::OnlineTuneNoWhiteBox => "OnlineTune-w/o-white",
            TunerKind::OnlineTuneNoBlackBox => "OnlineTune-w/o-black",
            TunerKind::OnlineTuneNoSubspace => "OnlineTune-w/o-subspace",
            TunerKind::OnlineTuneNoSafety => "OnlineTune-w/o-safe",
            TunerKind::OnlineTuneNoClustering => "OnlineTune-w/o-clustering",
            TunerKind::Bo => "BO",
            TunerKind::Ddpg => "DDPG",
            TunerKind::Qtune => "QTune",
            TunerKind::ResTune => "ResTune",
            TunerKind::MysqlTuner => "MysqlTuner",
            TunerKind::MysqlDefault => "MySQL Default",
            TunerKind::DbaDefault => "DBA Default",
        }
    }

    /// The standard comparison set of §7.1 (all baselines plus OnlineTune).
    pub fn comparison_set() -> Vec<TunerKind> {
        vec![
            TunerKind::OnlineTune,
            TunerKind::Bo,
            TunerKind::Ddpg,
            TunerKind::ResTune,
            TunerKind::Qtune,
            TunerKind::MysqlTuner,
            TunerKind::DbaDefault,
            TunerKind::MysqlDefault,
        ]
    }
}

fn onlinetune_with(
    catalogue: &KnobCatalogue,
    context_dim: usize,
    seed: u64,
    ablation: AblationFlags,
    initial: Configuration,
) -> Box<dyn Tuner> {
    let options = OnlineTuneOptions {
        ablation,
        ..Default::default()
    };
    let tuner = OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        context_dim,
        &initial,
        options,
        seed,
    );
    Box::new(OnlineTuneBaseline::new(tuner))
}

/// Builds a tuner by kind.
pub fn build_tuner(
    kind: TunerKind,
    catalogue: &KnobCatalogue,
    context_dim: usize,
    seed: u64,
) -> Box<dyn Tuner> {
    let dba = Configuration::dba_default(catalogue);
    match kind {
        TunerKind::OnlineTune => {
            onlinetune_with(catalogue, context_dim, seed, AblationFlags::default(), dba)
        }
        TunerKind::OnlineTuneFromMysqlDefault => onlinetune_with(
            catalogue,
            context_dim,
            seed,
            AblationFlags::default(),
            Configuration::vendor_default(catalogue),
        ),
        TunerKind::OnlineTuneNoWhiteBox => onlinetune_with(
            catalogue,
            context_dim,
            seed,
            AblationFlags {
                use_whitebox: false,
                ..Default::default()
            },
            dba,
        ),
        TunerKind::OnlineTuneNoBlackBox => onlinetune_with(
            catalogue,
            context_dim,
            seed,
            AblationFlags {
                use_blackbox: false,
                ..Default::default()
            },
            dba,
        ),
        TunerKind::OnlineTuneNoSubspace => onlinetune_with(
            catalogue,
            context_dim,
            seed,
            AblationFlags {
                use_subspace: false,
                ..Default::default()
            },
            dba,
        ),
        TunerKind::OnlineTuneNoSafety => onlinetune_with(
            catalogue,
            context_dim,
            seed,
            AblationFlags {
                use_safety: false,
                use_whitebox: false,
                use_blackbox: false,
                use_subspace: false,
                use_clustering: true,
            },
            dba,
        ),
        TunerKind::OnlineTuneNoClustering => onlinetune_with(
            catalogue,
            context_dim,
            seed,
            AblationFlags {
                use_clustering: false,
                ..Default::default()
            },
            dba,
        ),
        TunerKind::Bo => Box::new(BoTuner::new(catalogue.clone(), BoOptions::default(), seed)),
        TunerKind::Ddpg => Box::new(DdpgTuner::new(
            catalogue.clone(),
            DdpgOptions::default(),
            seed,
        )),
        TunerKind::Qtune => Box::new(QtuneTuner::new(catalogue.clone(), context_dim, seed)),
        TunerKind::ResTune => Box::new(ResTuneTuner::new(
            catalogue.clone(),
            ResTuneOptions::default(),
            seed,
        )),
        TunerKind::MysqlTuner => Box::new(MysqlTunerBaseline::starting_from(
            catalogue.clone(),
            HardwareSpec::default(),
            Configuration::dba_default(catalogue),
        )),
        TunerKind::MysqlDefault => Box::new(FixedConfigTuner::mysql_default(catalogue)),
        TunerKind::DbaDefault => Box::new(FixedConfigTuner::dba_default(catalogue)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::TuningInput;
    use simdb::InternalMetrics;

    #[test]
    fn every_kind_builds_and_suggests_a_valid_configuration() {
        let catalogue = KnobCatalogue::mysql57();
        let kinds = [
            TunerKind::OnlineTune,
            TunerKind::OnlineTuneNoWhiteBox,
            TunerKind::OnlineTuneNoBlackBox,
            TunerKind::OnlineTuneNoSubspace,
            TunerKind::OnlineTuneNoSafety,
            TunerKind::OnlineTuneNoClustering,
            TunerKind::OnlineTuneFromMysqlDefault,
            TunerKind::Bo,
            TunerKind::Ddpg,
            TunerKind::Qtune,
            TunerKind::ResTune,
            TunerKind::MysqlTuner,
            TunerKind::MysqlDefault,
            TunerKind::DbaDefault,
        ];
        let metrics = InternalMetrics::zeroed();
        for kind in kinds {
            let mut tuner = build_tuner(kind, &catalogue, 12, 9);
            let input = TuningInput {
                context: &[0.5; 12],
                metrics: Some(&metrics),
                safety_threshold: 100.0,
                clients: 32,
            };
            let (cfg, _) = tuner.suggest(&input);
            assert_eq!(cfg.len(), catalogue.len(), "{}", kind.label());
            for (v, k) in cfg.values().iter().zip(catalogue.knobs()) {
                assert!(
                    *v >= k.min() && *v <= k.max(),
                    "{}: {}",
                    kind.label(),
                    k.name
                );
            }
            tuner.observe(&input, &cfg, 100.0, &metrics, true);
        }
    }

    #[test]
    fn comparison_set_contains_the_paper_baselines() {
        let set = TunerKind::comparison_set();
        assert!(set.contains(&TunerKind::OnlineTune));
        assert!(set.contains(&TunerKind::Bo));
        assert!(set.contains(&TunerKind::Ddpg));
        assert!(set.contains(&TunerKind::ResTune));
        assert!(set.contains(&TunerKind::Qtune));
        assert!(set.contains(&TunerKind::MysqlTuner));
        assert!(set.contains(&TunerKind::DbaDefault));
    }
}
