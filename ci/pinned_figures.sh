#!/usr/bin/env bash
# Regenerates the pinned figures at CI size into <outdir>: each binary's
# stdout as <outdir>/<bin>.txt and its CSV/JSON records under
# <outdir>/<bin>/. Every figure is a pure function of its seeds and sizes,
# so two runs must be `diff -r`-identical — at different worker counts
# (SPARK_MOE_THREADS, set by the caller) and across a refactor that
# promises not to move a bit.
#
#   SPARK_MOE_THREADS=1 ci/pinned_figures.sh out/t1
#   SPARK_MOE_THREADS=4 ci/pinned_figures.sh out/t4
#   diff -r out/t1 out/t4
#
# ci/pinned holds the one-worker output as committed goldens; CI checks
# `diff -r ci/pinned out/t1`. A change meant to move a pinned bit
# regenerates them with `SPARK_MOE_THREADS=1 ci/pinned_figures.sh ci/pinned`.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <outdir>" >&2
  exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# CI-sized campaigns: two mixes per scenario, a small open-loop storm,
# eight chaos-search episodes and a capped serving firehose (timing stays
# off, so fig22 and fig23 records carry no wall-clock fields).
export SPARK_MOE_MIXES=2
export SPARK_MOE_OPENLOOP_JOBS=6
export SPARK_MOE_OPENLOOP_REPS=2
export SPARK_MOE_CHAOS_EPISODES=8
export SPARK_MOE_SERVING_REQS=20000

cargo build --release -q -p bench-suite
for fig in fig06_overall fig07_utilization fig08_mix_outcome fig09_unified fig10_online \
  fig19_chaos fig21_openloop fig22_chaos_search tab05_classifiers fig17_accuracy fig23_serving; do
  # Run from <outdir> with a relative CSV dir, so the paths the binaries
  # print do not depend on where <outdir> lives.
  (cd "$out" && SPARK_MOE_CSV_DIR="$fig" "$root/target/release/$fig") > "$out/$fig.txt"
  echo "pinned: $fig"
done
