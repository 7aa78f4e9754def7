#!/usr/bin/env bash
# Full CI gate: formatting, lints (warnings are errors), release build,
# and the complete workspace test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation: every intra-doc link resolves, and public docs link only
# public items. Only the pebble packages are documented; the vendored stubs
# under vendor/ are not ours to lint (vendor/proptest has an ambiguous link).
echo "==> cargo doc --no-deps (warnings are errors)"
doc_pkgs=(-p pebble)
for dir in crates/*/; do
    doc_pkgs+=(-p "pebble-$(basename "$dir")")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${doc_pkgs[@]}"

echo "==> cargo build --release"
cargo build --release --workspace

# The one full-workspace test pass. No environment variable shapes the
# executor: the suites that compare configurations iterate
# pebble_dataflow::ExecMatrix themselves (scheduler, partition and budget
# axes; pinned-output suites at ExecMatrix::suite), and
# scripts/mutants.sh checks that they still catch every planted bug.
echo "==> cargo test -q"
cargo test -q --workspace --release

# Every run above and below is --release, where debug_assert! compiles to
# nothing. DataItem::from_parts' duplicate-label assertion is the backstop
# behind the JSON parser's pointer-identity check, so the nested crate's
# suite (differential corpus included) runs once in the debug profile.
echo "==> cargo test -q -p pebble-nested (debug profile)"
cargo test -q -p pebble-nested

# The `--assert` gates below write their reports under target/ci/ rather
# than over the tracked BENCH_N.json files, so `git status --porcelain` is
# the same before and after this script.
mkdir -p target/ci

# Spill regression guard: the 100x scenario must produce byte-identical
# output under budget, actually spill every spillable structure at the
# floor budget, and finish a peak/2-budget run within the documented
# slowdown bound.
echo "==> spill regression guard (spillbench --assert)"
cargo run -q --release -p pebble-bench --bin spillbench -- --assert --out target/ci/BENCH_6.json

# Bounded differential-fuzz smoke: fixed seed window, ~1500 pipelines
# through the Tab. 5 reference oracle (well under 30 s in release).
echo "==> oracle differential smoke"
cargo run -q --release -p pebble-oracle --bin oracle_fuzz -- 1500 0

# Malformed-input smoke: the same generator with injected corruption
# (panicking UDFs, unresolvable paths); every engine configuration must
# agree with the referee shape on the exact failing outcome.
echo "==> oracle malformed-input smoke"
cargo run -q --release -p pebble-oracle --bin oracle_fuzz -- 500 0 malformed

# Observability smoke: run a Twitter scenario with metrics + tracing
# enabled and validate the emitted run report and trace files against the
# schema documented in DESIGN.md ("Observability").
echo "==> observability smoke (report + trace schema)"
PEBBLE_METRICS=1 PEBBLE_TRACE=target/obs_smoke.trace.ndjson \
    cargo run -q --release -p pebble-bench --bin obs_smoke

# Overhead guard: the disabled telemetry path must add <2% to the hotpath
# bench.
echo "==> observability overhead guard (metrics-off < 2%)"
cargo run -q --release -p pebble-bench --bin obs_overhead -- --assert --out target/ci/BENCH_3.json

# Persistent-store smoke: two workload scenarios persisted to disk,
# cold-opened, and queried directly and through a live server — every
# answer must be byte-identical to the in-memory run.
echo "==> persistent store smoke (persist / cold-open / query equality)"
PEBBLE_STORE_DIR=target/ci_store cargo run -q --release -p pebble-bench --bin serve_smoke

# Store regression guard: the compressed segment must stay >=3x smaller
# than a naive dump, with store answers checked against memory first.
echo "==> store regression guard (servebench --assert)"
cargo run -q --release -p pebble-bench --bin servebench -- --assert --out target/ci/BENCH_5.json

# Backend differential smoke: every capture backend (built-ins + baseline
# ports) against its naive oracle reference, across the shape matrix, on
# valid and malformed pipelines.
echo "==> backend differential smoke"
cargo run -q --release -p pebble-oracle --bin oracle_fuzz -- 500 0 backends

# Backend conformance smoke: all six backends answering byte-identically
# across the executor matrix on two workloads.
echo "==> backend smoke (shape conformance)"
cargo run -q --release -p pebble-bench --bin backend_smoke

# Backend regression guard: why-not determinism, non-trivial aggregation
# polynomials, and the Sec. 2 lipstick-vs-pebble annotation ratio.
echo "==> backend regression guard (backendbench --assert)"
cargo run -q --release -p pebble-bench --bin backendbench -- --assert --out target/ci/BENCH_7.json

# Load-generator smoke: closed-loop multi-tenant mixed traffic (all
# request kinds, incl. WHYNOT and tenant-local engine runs) against a
# live server; the server's STATS accounting must reconcile exactly with
# client observation and every request must appear as a query span in
# the exported trace.
echo "==> load-generator smoke (closed loop + STATS reconciliation)"
cargo run -q --release -p pebble-bench --bin load_smoke

# Load regression guard: serial-baseline byte-equality under load, the
# open-loop offered-rate sweep (>=5 points), low-load p99 within bounds
# of the serial latency, and metrics-on serve-path overhead <2% with
# byte-identical frames.
echo "==> load regression guard (loadbench --assert)"
cargo run -q --release -p pebble-bench --bin loadbench -- --assert --out target/ci/BENCH_8.json

# Journey benchmark smoke: `benchmark/` is its own cargo workspace, so no
# step above compiles it; an API change in pebble-core / pebble-serve would
# break the yardstick unseen. The quick run (1/10 sizes) builds it against
# this tree and runs every equality check and the `quick` golden pins.
echo "==> journey benchmark smoke (benchmark/run.sh --quick)"
bash benchmark/run.sh --quick | tail -n 1 | grep "all checks passed"

echo "CI OK"
