//! The malformed-input window of the differential oracle: 200 generated
//! pipelines with injected corruption (panicking UDFs, unresolvable
//! paths), where every engine configuration must agree with the referee
//! shape on the exact failing outcome.
//!
//! A file of its own: the UDF panics are contained by the engine, and the
//! panic hook silenced here (so each contained panic prints nothing) is
//! process-wide, so it must not reach any other test.

#[test]
fn oracle_malformed_window_has_no_divergence() {
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = pebble_oracle::fuzz_malformed(0, 200, 1);
    if let Some((gen, div)) = outcome.divergences.first() {
        panic!(
            "seed {} ({}) diverges: {div}\n{}",
            gen.seed,
            gen.spec.describe(),
            gen.spec.to_code()
        );
    }
    assert_eq!(outcome.checked, 200);
}
