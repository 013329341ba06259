#!/usr/bin/env bash
# Byte-identity check: builds bench/rock_digest.cc against the working tree
# and against revision <rev>, runs both, and diffs their outputs.
#
# Usage: scripts/compare_digests.sh <rev> [workdir]
#
# <rev> is exported with `git archive` into <workdir>/base (the repository
# itself is left untouched), and the working tree's harness
# (bench/rock_digest.cc and bench/CMakeLists.txt) is copied over it, so both
# sides run the same harness source. Each side builds only the rock_digest
# target, with the default build type. <workdir> defaults to a fresh
# directory under ${TMPDIR:-/tmp} and is kept, so the two digests can be
# inspected afterwards. JOBS (default 4) sets the build parallelism.
# Exits 0 when the digests are identical, 1 when they differ.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <rev> [workdir]" >&2
  exit 2
fi
rev="$1"
repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
work="${2:-$(mktemp -d "${TMPDIR:-/tmp}/rock-digest.XXXXXX")}"
jobs="${JOBS:-4}"
mkdir -p "$work/base"

git -C "$repo" archive "$rev" | tar -x -C "$work/base"
cp "$repo/bench/rock_digest.cc" "$repo/bench/CMakeLists.txt" \
  "$work/base/bench/"

build_and_run() {  # <source dir> <build dir> <output file>
  cmake -S "$1" -B "$2" > "$2.configure.log"
  cmake --build "$2" --target rock_digest -j "$jobs" > "$2.build.log"
  "$2/bench/rock_digest" "$3"
}

build_and_run "$work/base" "$work/build-base" "$work/base.digest"
build_and_run "$repo" "$work/build-head" "$work/head.digest"

lines=$(wc -l < "$work/head.digest")
if diff -u "$work/base.digest" "$work/head.digest" > "$work/digest.diff"; then
  echo "identical: $lines lines ($work/head.digest vs $rev)"
  exit 0
fi
echo "digests differ from $rev: $(grep -c '^[-+][^-+]' "$work/digest.diff") " \
  "changed lines; see $work/digest.diff" >&2
exit 1
