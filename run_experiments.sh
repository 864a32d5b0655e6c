#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the TPCx-HS sweep:
# every binary under crates/bench/src/bin (check.sh fails if BINS drifts).
# Results land in results/*.{json,csv} and logs in results/logs/.
set -uo pipefail
cd "$(dirname "$0")"
mkdir -p results/logs
BINS=(table1_benchmarks fig2_wordcount fig3_mrbench fig4_terasort fig4_dfsio \
      fig5_migration table2_migration fig6_control_chart fig7_display_clustering \
      scalability \
      fig8_screenshots ablations tpcxhs)
status=0
for b in "${BINS[@]}"; do
  echo "=== $b ==="
  if cargo run --release -q -p vhadoop-bench --bin "$b" -- "$@" 2>&1 | tee "results/logs/$b.log"; then
    echo "--- $b OK"
  else
    echo "--- $b FAILED"; status=1
  fi
done
exit $status
