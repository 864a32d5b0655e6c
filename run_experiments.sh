#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the TPCx-HS sweep
# — every binary under crates/bench/src/bin (check.sh fails if BINS
# drifts) — then the characterization dataset and cost-model evaluation
# (the `characterize` example, at its default --quick grid).
# Results land in results/*.{json,csv} and logs in results/logs/.
set -uo pipefail
cd "$(dirname "$0")"
mkdir -p results/logs
BINS=(table1_benchmarks fig2_wordcount fig3_mrbench fig4_terasort fig4_dfsio \
      fig5_migration fig6_control_chart fig7_display_clustering \
      scalability \
      fig8_screenshots ablations tpcxhs)
status=0
run() { # run <name> <cargo run arguments...>: tee to results/logs/<name>.log
  echo "=== $1 ==="
  if cargo run --release -q "${@:2}" 2>&1 | tee "results/logs/$1.log"; then
    echo "--- $1 OK"
  else
    echo "--- $1 FAILED"; status=1
  fi
}
for b in "${BINS[@]}"; do
  run "$b" -p vhadoop-bench --bin "$b" -- "$@"
done
run characterize -p vhadoop-examples --bin characterize
exit $status
