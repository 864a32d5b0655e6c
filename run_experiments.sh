#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the TPCx-HS sweep
# and the ablations (the experiment registry in crates/bench, run by
# `repro`; arguments go to it: [--full] [--only NAME[,NAME...]]), then the
# characterization dataset and cost-model evaluation (the `characterize`
# example). Results land in results/, the log in results/logs/repro.log.
set -uo pipefail
cd "$(dirname "$0")"
mkdir -p results/logs
cargo run --release -q -p vhadoop-bench --bin repro -- "$@" 2>&1 | tee results/logs/repro.log
status=$?
cargo run --release -q -p vhadoop-examples --bin characterize || status=1
exit $status
