#!/usr/bin/env bash
# Checks that the benchmark's simulated outcomes have not moved: runs one
# round of every perfbench workload at seed 1 and compares each workload's
# `# digest` line (an FNV-1a hash over the bits of every simulated outcome)
# and `# sim` line (its simulated results) with ci/bench_digests.txt. A
# pure speed-up must leave both unchanged at any worker count.
#
#   ci/bench_digests.sh        # one worker
#   ci/bench_digests.sh 2      # two workers; same expected file
#
# A change meant to move the simulation updates the expected file from
# the diff this prints, and says why.
set -euo pipefail

cd "$(dirname "$0")/.."
expected=ci/bench_digests.txt
threads=${1:-1}
case "$threads" in
  "" | *[!0-9]* | 0)
    echo "usage: $0 [<threads>]" >&2
    exit 2
    ;;
esac

raw=$(python3 perfbench/run.py --workload all --seed 1 --seconds 0 --trace 0 --threads "$threads")
# Name each workload from its `# context` line, then keep only the
# simulated-outcome lines (rates and host details vary run to run).
got=$(printf '%s\n' "$raw" | sed -n -E \
  -e 's/^# context \{"workload": "([^"]+)".*/# workload \1/p' \
  -e '/^# (digest|sim) /p')

if ! diff <(printf '%s\n' "$got") "$expected"; then
  echo "bench digests differ from $expected (threads=$threads)" >&2
  exit 1
fi
echo "identical: bench digests (threads=$threads)"
