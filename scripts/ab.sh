#!/usr/bin/env bash
# Paired in-process A/B probe: times this working tree's dgemm-core
# against revision REV's in one process, alternating which goes first,
# after checking every result bit for bit against its own library's
# Serial result (a mismatch fails the run; a ratio never does).
#
#   scripts/ab.sh REV [--rounds N]
#
# REV = HEAD on a clean tree is the self-control: the spread it prints
# is what the host's noise alone gives. REV must provide the entries the
# probe calls (batch::gemm_batch_prepacked and older).
#
# It unpacks `git archive REV` under target/ab/parent, renames that
# tree's dgemm-core to dgemm-core-parent, and builds scripts/ab/ (a
# std-only crate with its own [workspace]) offline into target/ab/build.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
rev=${1:?usage: scripts/ab.sh REV [--rounds N]}
shift
work="$root/target/ab"

rm -rf "$work/parent"
mkdir -p "$work/parent"
# -m stamps the files with the time of extraction, not of REV's commit:
# cargo judges a build fresh by mtime, and an older REV's files would
# otherwise look older than the build of whichever REV ran last.
git -C "$root" archive "$rev" | tar -x -m -C "$work/parent"
manifest="$work/parent/crates/core/Cargo.toml"
sed -i -e 's/^name = "dgemm-core"$/name = "dgemm-core-parent"/' \
    -e 's/^name = "dgemm_core"$/name = "dgemm_core_parent"/' "$manifest"
grep -q '^name = "dgemm_core_parent"$' "$manifest" || {
    echo "ab.sh: could not rename $rev's dgemm-core" >&2
    exit 2
}

CARGO_TARGET_DIR="$work/build" cargo build --release --offline --quiet \
    --manifest-path "$root/scripts/ab/Cargo.toml"
label="$rev ($(git -C "$root" rev-parse --short "$rev"))"
"$work/build/release/dgemm-ab" --rev "$label" "$@"
