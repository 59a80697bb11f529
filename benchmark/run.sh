#!/usr/bin/env bash
# The one command of the benchmark ladder: builds dgemm-ladder, runs
# workloads each in a fresh process, checks every result and prints every
# metric by name with its unit. Exits non-zero on any verification failure.
#
#   run.sh                      full untraced set (four workloads) -> out/set.json
#   run.sh --trace              the traced run (per-layer metrics) of every workload
#   run.sh --quick              a tenth of the run length; marked quick, not comparable
#   run.sh --seed N             seed of the set (default 1)
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                               one run, arguments passed through (what BENCHMARK.json's
#                               command expands to)
set -euo pipefail

# Everything is relative to the checkout root, CARGO_TARGET_DIR included.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dgemm-ladder"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

# Keep in step with run_seconds in BENCHMARK.json (a self-test checks the binary's copy).
seconds=30
seed=1
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace=1 ;;
        --quick) seconds=3 ;;
        --seed) seed="$2"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

out=benchmark/out
status=0
records=()
for w in square_serial square_pool skinny_fresh service_reuse; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    echo
    if [ "$trace" = 1 ]; then records+=("$out/$w.trace.json"); else records+=("$out/$w.json"); fi
done

# One file per set, for `dgemm-ladder compare`.
set_file="$out/set.json"
[ "$trace" = 1 ] && set_file="$out/set.trace.json"
{
    printf '{"schema":"dgemm-ladder-set-v1","runs":[\n'
    sep=""
    for r in "${records[@]}"; do
        printf '%s' "$sep"
        tr -d '\n' < "$r"
        sep=$',\n'
    done
    printf '\n]}\n'
} > "$set_file"
echo "wrote $set_file" >&2
exit "$status"
