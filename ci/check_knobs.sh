#!/usr/bin/env bash
# Knob-reader gate: every SPARK_MOE_* environment knob that the docs, the
# CI scripts or the workflow name must have a reader, that is a
# "SPARK_MOE_..." string literal somewhere under crates/, src/, tests/,
# examples/ or perfbench/. A doc that still names a deleted knob fails
# here, and the message names the knob and the files that mention it.
# CHANGES.md and ROADMAP.md are history and are not scanned.
set -euo pipefail

cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md ci/*.sh
  .github/workflows/ci.yml)
READERS=(crates src tests examples perfbench)

for doc in "${DOCS[@]}"; do
  if [ ! -f "$doc" ]; then
    echo "knob gate: missing scanned file $doc" >&2
    exit 1
  fi
done

status=0
for knob in $(grep -ohE 'SPARK_MOE_[A-Z0-9_]+' "${DOCS[@]}" | sort -u); do
  if ! git grep -qF --untracked "\"$knob\"" -- "${READERS[@]}"; then
    echo "knob without a reader: $knob (named in $(grep -lw "$knob" "${DOCS[@]}" | paste -sd ' '))" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "knob gate: every documented SPARK_MOE_* knob has a reader"
fi
exit "$status"
