#!/usr/bin/env bash
# Mutation gate: every patch under scripts/mutants/ plants one known bug
# (its first line says which; its second line, `Caught by: -p <crate>
# --lib; -p <crate> --test <bin>; …`, names the test binaries that failed
# when it landed). Each is applied to a fresh scratch worktree of HEAD with
# no PEBBLE_* variable set. The gate passes only if every mutant fails at
# least one test binary. A patch that no longer applies, or a mutant that
# no longer compiles, fails the gate loudly: refresh the patch against the
# code it targets.
#
# Usage: scripts/mutants.sh [--full] [PATCH...]   (default: scripts/mutants/*.patch)
#   default  run only the patch's `Caught by:` binaries, in order, and stop
#            at the first that fails (a mutant none of them catches survived)
#   --full   run the whole release test suite and list every failing binary
#            (what a new or refreshed patch's `Caught by:` line records)
# Builds into $CARGO_TARGET_DIR (default: target/mutants), shared by all
# mutants.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
for v in $(compgen -e | grep '^PEBBLE_' || true); do unset "$v"; done
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"

full=0
if [ "${1:-}" = "--full" ]; then
    full=1
    shift
fi
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

# The `Caught by:` binaries of a patch, one cargo argument list per line.
caught_by() {
    sed -n '2s/^Caught by: //p' "$1" | tr ';' '\n' | sed 's/^ *//; s/ *$//' | grep .
}

survivors=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    start=$SECONDS
    git worktree add --quiet --detach "$wt" HEAD
    if ! git -C "$wt" apply "$patch"; then
        echo "mutants: $name no longer applies to HEAD" >&2
        exit 1
    fi
    log="$scratch/$name.log"
    if [ "$full" -eq 1 ]; then
        if ! (cd "$wt" && cargo test --workspace --release --no-run) >"$log" 2>&1; then
            tail -n 20 "$log" >&2
            echo "mutants: $name does not compile" >&2
            exit 1
        fi
        if (cd "$wt" && cargo test --workspace --release --no-fail-fast) >>"$log" 2>&1; then
            echo "$name: SURVIVED (no test binary failed), $((SECONDS - start))s"
            survivors=$((survivors + 1))
        else
            failed=$(sed -n 's/^ *`\(-p .*\)`$/\1/p' "$log")
            echo "$name: $(echo "$failed" | grep -c .) failing, $((SECONDS - start))s: $(echo "$failed" | paste -sd ';' - | sed 's/;/; /g')"
        fi
    else
        bins=$(caught_by "$patch" || true)
        if [ -z "$bins" ]; then
            echo "mutants: $name has no Caught by: line" >&2
            exit 1
        fi
        caught=""
        while read -r bin; do
            # shellcheck disable=SC2086 # `bin` is a cargo argument list
            if ! (cd "$wt" && cargo test --release $bin --no-run) >>"$log" 2>&1; then
                tail -n 20 "$log" >&2
                echo "mutants: $name does not compile ($bin)" >&2
                exit 1
            fi
            # shellcheck disable=SC2086
            if ! (cd "$wt" && cargo test --release $bin) >>"$log" 2>&1; then
                caught=$bin
                break
            fi
        done <<<"$bins"
        if [ -n "$caught" ]; then
            echo "$name: caught by $caught, $((SECONDS - start))s"
        else
            echo "$name: SURVIVED (none of its Caught by: binaries failed), $((SECONDS - start))s"
            survivors=$((survivors + 1))
        fi
    fi
    git worktree remove --force "$wt"
done

echo "mutants: ${#patches[@]} patches, $survivors survived, ${SECONDS}s"
[ "$survivors" -eq 0 ]
