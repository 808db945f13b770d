//! Every workload repeats exactly at one seed: the traced run twice gives
//! identical areas, verdicts, witnesses and work counts, and the
//! untraced run through the program's entry points agrees with the
//! layer-by-layer replay.

use mvf_perfbench::{run, Options, COUNT_METRICS, WORKLOADS};

const SEED: u64 = 0xC0FFEE;

fn once(workload: &str, trace: bool) -> mvf_perfbench::Outcome {
    let outcome = run(&Options {
        workload: workload.to_string(),
        seed: SEED,
        seconds: 0.0,
        trace,
    })
    .expect("known workload");
    assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.errors);
    assert!(
        outcome.regime_flags.iter().all(|f| f.contains("skipped")),
        "{workload}: {:?}",
        outcome.regime_flags
    );
    outcome
}

fn repeats(workload: &str) {
    let a = once(workload, true);
    let b = once(workload, true);
    assert_eq!(
        a.digests, b.digests,
        "{workload}: areas, verdicts or witnesses moved"
    );
    assert_eq!(a.regimes, b.regimes, "{workload}: regimes moved");
    let counts = |o: &mvf_perfbench::Outcome| {
        let mut c = o.counts.clone();
        c.remove("attack.walk_s");
        c
    };
    assert_eq!(counts(&a), counts(&b), "{workload}: work counts moved");
    for name in COUNT_METRICS {
        let value = |o: &mvf_perfbench::Outcome| {
            o.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{workload}: no metric {name}"))
                .value
        };
        assert_eq!(value(&a), value(&b), "{workload}: {name} moved");
    }
    let e2e = once(workload, false);
    assert_eq!(
        e2e.digests, a.digests,
        "{workload}: the replay disagrees with the program"
    );
    assert_eq!(e2e.metrics.len(), 6);
    assert!(
        e2e.metrics.iter().all(|m| m.value > 0.0),
        "{workload}: {:?}",
        e2e.metrics
    );
}

#[test]
fn present4_camo_serve_repeats() {
    repeats(WORKLOADS[0]);
}

#[test]
fn des_lock_batch_repeats() {
    repeats(WORKLOADS[1]);
}

#[test]
fn present4_camo_redteam_repeats() {
    repeats(WORKLOADS[2]);
}

#[test]
fn present2_camo_redteam_repeats() {
    repeats(WORKLOADS[3]);
}
