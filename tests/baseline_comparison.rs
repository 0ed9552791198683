//! Integration tests comparing OnlineTune with the offline baselines on the simulated
//! instance — the qualitative safety claim of the paper must hold end to end.

use baselines::bo::{BoOptions, BoTuner};
use baselines::ddpg::{DdpgOptions, DdpgTuner};
use baselines::{OnlineTuneBaseline, Tuner};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue};
use workloads::tpcc::TpccWorkload;

fn run(tuner: &mut dyn Tuner, iterations: usize) -> (usize, usize) {
    let result = run_session(
        tuner,
        &TpccWorkload::new_dynamic(5),
        &KnobCatalogue::mysql57(),
        &ContextFeaturizer::with_defaults(),
        &SessionOptions {
            iterations,
            seed: 55,
            ..Default::default()
        },
        |_, _, _| {},
    );
    (result.unsafe_count(), result.failure_count())
}

#[test]
fn onlinetune_is_far_safer_than_bo_and_ddpg_on_a_live_instance() {
    let catalogue = KnobCatalogue::mysql57();
    let featurizer_dim = ContextFeaturizer::with_defaults().dim();
    let iterations = 40;

    let mut online = OnlineTuneBaseline::new(OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer_dim,
        &Configuration::dba_default(&catalogue),
        OnlineTuneOptions::default(),
        9,
    ));
    let (online_unsafe, online_failures) = run(&mut online, iterations);

    let mut bo = BoTuner::new(catalogue.clone(), BoOptions::default(), 9);
    let (bo_unsafe, _) = run(&mut bo, iterations);

    let mut ddpg = DdpgTuner::new(catalogue.clone(), DdpgOptions::default(), 9);
    let (ddpg_unsafe, _) = run(&mut ddpg, iterations);

    assert_eq!(online_failures, 0, "OnlineTune must not hang the instance");
    assert!(
        online_unsafe * 3 <= bo_unsafe.max(1),
        "OnlineTune ({online_unsafe}) should be at least 3x safer than BO ({bo_unsafe})"
    );
    assert!(
        online_unsafe * 3 <= ddpg_unsafe.max(1),
        "OnlineTune ({online_unsafe}) should be at least 3x safer than DDPG ({ddpg_unsafe})"
    );
}
