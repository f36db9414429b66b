//! The parallel sweep's per-worker pair window: auto-tuned between
//! rounds within its bounds when unset, and used verbatim when pinned
//! through [`EngineConfig::pairs_per_worker`].

use aig::gen;
use aig::Aig;
use cec::{CecOutcome, EngineConfig, Session, SharedContext};

fn prove(a: &Aig, b: &Aig, config: EngineConfig) -> CecOutcome {
    Session::new(config, &SharedContext::disabled())
        .check(a, b)
        .expect("check runs")
}

#[test]
fn auto_tuned_window_stays_in_bounds() {
    let a = gen::array_multiplier(4);
    let b = gen::carry_save_multiplier(4);
    let opts = EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    };
    let outcome = prove(&a, &b, opts);
    let cert = outcome.certificate().expect("equivalent");
    let windows = &cert.stats.pair_windows;
    assert!(!windows.is_empty(), "auto-tune records per-round windows");
    assert!(windows.iter().all(|&w| (2..=64).contains(&w)));
    // A pinned window must be respected verbatim.
    let pinned = prove(
        &a,
        &b,
        EngineConfig {
            threads: 4,
            pairs_per_worker: Some(5),
            ..EngineConfig::default()
        },
    );
    let cert = pinned.certificate().expect("equivalent");
    assert!(cert.stats.pair_windows.iter().all(|&w| w == 5));
}
