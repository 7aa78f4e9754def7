#!/usr/bin/env bash
# Mutation gate: every patch under scripts/mutants/ plants one known bug
# (its first line says which). Each is applied to a fresh scratch worktree
# of HEAD, and the whole release test suite runs there with no PEBBLE_*
# variable set. The gate passes only if every mutant fails at least one
# test binary. A patch that no longer applies, or a mutant that no longer
# compiles, fails the gate loudly: refresh the patch against the code it
# targets.
#
# Usage: scripts/mutants.sh [PATCH...]   (default: scripts/mutants/*.patch)
# Builds into $CARGO_TARGET_DIR (default: target/mutants), shared by all
# mutants. Each mutant is a full workspace build plus test run.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
for v in $(compgen -e | grep '^PEBBLE_' || true); do unset "$v"; done
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"

[ $# -gt 0 ] || set -- scripts/mutants/*.patch
patches=()
for p in "$@"; do patches+=("$(realpath "$p")"); done

scratch=$(mktemp -d)
wt="$scratch/worktree"
cleanup() {
    git worktree remove --force "$wt" 2>/dev/null || true
    rm -rf "$scratch"
    git worktree prune
}
trap cleanup EXIT

survivors=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    git worktree add --quiet --detach "$wt" HEAD
    if ! git -C "$wt" apply "$patch"; then
        echo "mutants: $name no longer applies to HEAD" >&2
        exit 1
    fi
    log="$scratch/$name.log"
    if ! (cd "$wt" && cargo test --workspace --release --no-run) >"$log" 2>&1; then
        tail -n 20 "$log" >&2
        echo "mutants: $name does not compile" >&2
        exit 1
    fi
    if (cd "$wt" && cargo test --workspace --release --no-fail-fast) >>"$log" 2>&1; then
        echo "$name: SURVIVED (no test binary failed)"
        survivors=$((survivors + 1))
    else
        failed=$(sed -n 's/^ *`\(-p .*\)`$/\1/p' "$log")
        echo "$name: $(echo "$failed" | grep -c .) failing: $(echo "$failed" | paste -sd ';' - | sed 's/;/; /g')"
    fi
    git worktree remove --force "$wt"
done

echo "mutants: ${#patches[@]} patches, $survivors survived, ${SECONDS}s"
[ "$survivors" -eq 0 ]
