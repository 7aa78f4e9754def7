#!/usr/bin/env bash
# Builds the benchmark package (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload, both passes
#   benchmark/run.sh --quick              1/10 sizes, one round, all checks
#   benchmark/run.sh --aa [N]             the full set N times (2), later half against earlier half and the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

build_start=$(date +%s%N)
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
echo "cargo build: $(( ($(date +%s%N) - build_start) / 1000000 )) ms (not part of setup_s)" >&2

# The measured process sees no PEBBLE_* variable; the binary scrubs again.
for v in $(compgen -v | grep '^PEBBLE_' || true); do unset "$v"; done
exec "$target/release/pebble-benchmark" "$@"
