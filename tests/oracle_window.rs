//! A seed window of the differential oracle (`pebble-oracle`): 300
//! generated pipelines, each run through the naive Tab. 5 reference
//! interpreter and every engine configuration, must agree on rows,
//! identifiers, association tables and backtracing answers. The CI gate
//! sweeps a wider window in release (`oracle_fuzz 1500 0`); this one keeps
//! the oracle inside the root test suite.

#[test]
fn oracle_window_has_no_divergence() {
    let outcome = pebble_oracle::fuzz(0, 300, 1);
    if let Some((gen, div)) = outcome.divergences.first() {
        panic!(
            "seed {} ({}) diverges: {div}\n{}",
            gen.seed,
            gen.spec.describe(),
            gen.spec.to_code()
        );
    }
    assert_eq!(outcome.checked, 300);
}
