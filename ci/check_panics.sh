#!/usr/bin/env bash
# Panic-freedom gate for the crash-consistency-critical paths: the journal
# layer, the campaign harness, checkpoint codecs, the bench emission
# helpers, the hot-path cache modules (sharded engine rate cache +
# tournament tree, monitor window memoization), the mlkit compute
# kernels, the ML campaign drivers, the open-system layer (arrival plans +
# admission service), the chaos-search harness (episode generation +
# shrinking, invariant battery, fig22 driver), the prediction
# serving path (model artifacts, micro-batching, the firehose and its
# fig23 driver), and the simkit::par fan-out must not contain
# `unwrap()` / `expect(` outside test code.
#
# Intentional exceptions live in ci/panic_allowlist.txt as
# `<path>:<needle>` lines; a gated line is tolerated iff it contains the
# needle verbatim. Keep the list short and justified.
set -euo pipefail

cd "$(dirname "$0")/.."

GATED_FILES=(
  crates/simkit/src/journal.rs
  crates/colocate/src/checkpoint.rs
  crates/colocate/src/harness.rs
  crates/bench/src/fsutil.rs
  crates/bench/src/report.rs
  crates/bench/src/csv.rs
  crates/bench/src/lib.rs
  crates/sparklite/src/engine.rs
  crates/sparklite/src/tourney.rs
  crates/sparklite/src/monitor.rs
  crates/mlkit/src/kernels.rs
  crates/mlkit/src/linalg.rs
  crates/mlkit/src/knn.rs
  crates/colocate/src/predictors.rs
  crates/colocate/src/training.rs
  crates/bench/src/mlcamp.rs
  crates/simkit/src/arrivals.rs
  crates/colocate/src/service.rs
  crates/simkit/src/chaoskit.rs
  crates/colocate/src/invariants.rs
  crates/bench/src/bin/fig22_chaos_search.rs
  crates/colocate/src/serving.rs
  crates/bench/src/serving.rs
  crates/bench/src/bin/fig23_serving.rs
  crates/simkit/src/par.rs
)

ALLOWLIST=ci/panic_allowlist.txt
fail=0

for f in "${GATED_FILES[@]}"; do
  # Strip everything from the unit-test module to EOF: the gate covers
  # runtime code only, and these crates keep tests in a trailing
  # `#[cfg(test)]` block by convention.
  hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
    | grep -n '\.unwrap()\|\.expect(' \
    | grep -v 'unwrap_or' || true)
  [ -z "$hits" ] && continue
  while IFS= read -r hit; do
    line=${hit%%:*}
    text=${hit#*:}
    allowed=0
    if [ -f "$ALLOWLIST" ]; then
      while IFS= read -r rule; do
        case $rule in ''|'#'*) continue ;; esac
        rule_path=${rule%%:*}
        rule_needle=${rule#*:}
        if [ "$rule_path" = "$f" ] && [ "${text#*"$rule_needle"}" != "$text" ]; then
          allowed=1
          break
        fi
      done < "$ALLOWLIST"
    fi
    if [ "$allowed" -eq 0 ]; then
      echo "PANIC GATE: $f:$line: $text" >&2
      fail=1
    fi
  done <<< "$hits"
done

if [ "$fail" -ne 0 ]; then
  echo >&2
  echo "unwrap()/expect( found in crash-consistency-critical non-test code." >&2
  echo "Return a typed error instead, or add a justified line to $ALLOWLIST." >&2
  exit 1
fi
echo "panic gate: clean"
