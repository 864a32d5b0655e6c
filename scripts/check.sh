#!/usr/bin/env bash
# Repo-wide checks: formatting, lints, tests, and a determinism lint.
# Run from anywhere: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> examples build & run"
cargo build --release -p vhadoop-examples
for bin in quickstart datacenter_migration tuning_session ml_pipeline job_stream; do
    echo "--> $bin"
    cargo run --release -q -p vhadoop-examples --bin "$bin" > /dev/null
done

echo "==> exported trace validates"
trace=results/quickstart.trace.json
test -s "$trace" || { echo "missing or empty $trace" >&2; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$trace" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
events = t["traceEvents"]
assert events, "trace has no events"
cats = {e["cat"] for e in events if e["ph"] == "X"}
missing = {"map", "shuffle", "reduce", "hdfs"} - cats
assert not missing, f"span categories missing from trace: {missing}"
print(f"    {len(events)} events, span categories: {sorted(cats)}")
PY
else
    # No python3: at least check the envelope and span coverage textually.
    grep -q '"traceEvents"' "$trace"
    for cat in map shuffle reduce hdfs; do
        grep -q "\"cat\":\"$cat\"" "$trace" || { echo "no $cat spans" >&2; exit 1; }
    done
fi

echo "==> faults: chaos & property suites"
# Snapshot the tree state first: fault/chaos tests must only ever write
# under results/.
before=$(git status --porcelain)
cargo test -q -p vhadoop-integration \
    --test chaos --test seed_sweep --test session_api \
    --test speculation_recovery --test cross_crate_props --test record_path
cargo test -q -p proptest

echo "==> faults: ablation case & fault-annotated trace"
cargo run --release -q -p vhadoop-bench --bin ablations -- --case faults > /dev/null
ftrace=results/faults.trace.json
test -s "$ftrace" || { echo "missing or empty $ftrace" >&2; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$ftrace" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
events = t["traceEvents"]
faults = [e for e in events if e.get("cat") == "fault"]
assert faults, "faulted trace has no fault spans"
names = {e["name"] for e in faults}
print(f"    {len(faults)} fault spans: {sorted(names)}")
PY
else
    grep -q '"traceEvents"' "$ftrace"
    grep -q '"cat":"fault"' "$ftrace" || { echo "no fault spans" >&2; exit 1; }
fi

# Fail if the fault stages dirtied anything outside results/.
after=$(git status --porcelain)
stray=$(comm -13 <(sort <<< "$before") <(sort <<< "$after") | grep -v ' results/' || true)
if [ -n "$stray" ]; then
    echo "fault stage wrote outside results/:" >&2
    echo "$stray" >&2
    exit 1
fi

echo "==> ctrl: placement ablation & SLO report"
# The placement ablation binary asserts the paper-shaped outcome itself
# (pack wins cpu-bound, spread wins shuffle-heavy, adaptive matches the
# winner); here we run it and then validate the job_stream example's SLO
# report — schema, zero starvation, and deterministic counter pins.
cargo run --release -q -p vhadoop-bench --bin ablations -- --case placement > /dev/null
slo=results/job_stream.slo.json
test -s "$slo" || { echo "missing or empty $slo" >&2; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$slo" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["report"] == "slo", "bad report schema"
for k in ("jobs", "admitted", "rejected", "started", "finished", "starved",
          "queue_wait_s", "makespan_s", "slowdown", "violations", "counters"):
    assert k in d, f"SLO report missing key {k}"
for k in ("p50", "p95", "max"):
    assert k in d["queue_wait_s"], f"queue_wait_s missing {k}"
c = d["counters"]
for k in ("queue_depth_hwm", "migrations_planned", "migrations_completed",
          "migrations_aborted", "rebalance_ticks", "consolidations"):
    assert k in c, f"counters missing key {k}"
# The run is deterministic: every admitted job starts and finishes, and
# the rebalancer's session really completes.
assert d["starved"] == 0, f"starved jobs: {d['starved']}"
assert d["jobs"] == d["admitted"] == d["finished"] == 6, "job accounting drifted"
assert d["rejected"] == 0
assert c["migrations_planned"] >= 1, "rebalancer never planned a move"
assert c["migrations_completed"] == c["migrations_planned"], "moves aborted"
assert c["queue_depth_hwm"] <= 8, f"queue ran away: {c['queue_depth_hwm']}"
print(f"    {d['jobs']} jobs, wait p95 {d['queue_wait_s']['p95']:.1f}s, "
      f"{c['migrations_completed']} migrations, 0 starved")
PY
else
    grep -q '"report": "slo"' "$slo"
    grep -q '"starved": 0' "$slo" || { echo "starved jobs in SLO report" >&2; exit 1; }
    grep -q '"queue_wait_s"' "$slo"
    grep -q '"counters"' "$slo"
fi

echo "==> topo: topology ablation, flat-spec identity & rack invariants"
# The topology ablation binary asserts the paper-shaped makespan ordering
# itself (in-rack < cross-rack < congested-core); the integration tests pin
# the degeneration contract (a single-rack TopologySpec traces byte-
# identical to the default flat spec) and the rack-spanning placement
# properties. The racked scalability sweep exercises the per-rack ToR
# accounting end to end.
cargo run --release -q -p vhadoop-bench --bin ablations -- --case topology > /dev/null
topo=results/topology.csv
test -s "$topo" || { echo "missing or empty $topo" >&2; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$topo" <<'PY'
import csv, sys
with open(sys.argv[1]) as f:
    rows = [r for r in csv.DictReader(f) if r["series"] == "topology"]
assert len(rows) == 3, f"expected 3 topology cases, got {len(rows)}"
secs = [float(r["seconds"]) for r in rows]
assert secs[0] < secs[1] < secs[2], f"topology ordering broken: {secs}"
print(f"    normal {secs[0]:.2f}s < cross-rack {secs[1]:.2f}s"
      f" < cross-core {secs[2]:.2f}s")
PY
else
    test "$(wc -l < "$topo")" -eq 4 || { echo "bad $topo" >&2; exit 1; }
fi
cargo test -q -p vhadoop-integration --test topology
cargo test -q -p vhadoop-integration --test cross_crate_props rack > /dev/null
cargo run --release -q -p vhadoop-bench --bin scalability -- \
    --scale 32 --racks 3 > /dev/null

echo "==> snap: snapshot/restore/fork round-trips & what-if ablation"
# The round-trip suite pins byte-identical replay after a mid-run
# checkpoint (8 seeds x clean/faulted), fork divergence isolation, the
# canonical-encoding fixed point, and the golden format hash tied to
# SNAPSHOT_VERSION. Release profile: the suite replays ~50 full platform
# runs.
cargo test -q --release -p vhadoop-integration --test snapshot_roundtrip
cargo run --release -q -p vhadoop-bench --bin ablations -- --case whatif > /dev/null
wifcsv=results/whatif.csv
test -s "$wifcsv" || { echo "missing or empty $wifcsv" >&2; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$wifcsv" <<'PY'
import csv, sys
with open(sys.argv[1]) as f:
    rows = list(csv.DictReader(f))
by = lambda s: [r for r in rows if r["series"] == s]
est, meas, chosen = by("estimated_s"), by("measured_s"), by("chosen")
assert len(meas) >= 3, f"expected >= 3 what-if candidates, got {len(meas)}"
assert len(est) == len(meas) == len(chosen), "candidate series misaligned"
picked = [i for i, r in enumerate(chosen) if float(r["seconds"]) == 1.0]
assert len(picked) == 1, f"exactly one candidate must be committed: {picked}"
best = min(float(r["seconds"]) for r in meas)
assert float(meas[picked[0]]["seconds"]) == best, "committed candidate not best-measured"
mk = [float(r["seconds"]) for r in by("makespan")]
assert len(mk) == 2 and mk[1] <= mk[0] * 1.05, f"what-if worse than estimator: {mk}"
print(f"    {len(meas)} candidates, committed measured {best:.1f}s, "
      f"makespan est {mk[0]:.1f}s vs what-if {mk[1]:.1f}s")
PY
else
    grep -q "estimated_s" "$wifcsv"
    grep -q "measured_s" "$wifcsv" || { echo "bad $wifcsv" >&2; exit 1; }
fi

echo "==> hs: TPCx-HS conformance suite & benchmark sweep"
# The integration suite pins trace determinism across seeds, corruption
# and replica-loss diagnosis, the disaggregated-vs-colocated ordering,
# and the mid-HSSort snapshot round-trip; the quick sweep then runs all
# three cluster shapes at two scale factors and must validate cleanly
# with the figure of merit growing with SF in every configuration.
cargo test -q -p vhadoop-integration --test tpcxhs
cargo run --release -q -p vhadoop-bench --bin tpcxhs -- --quick > /dev/null
hs=BENCH_tpcxhs.json
test -s "$hs" || { echo "missing or empty $hs" >&2; exit 1; }
test -s results/tpcxhs.json || { echo "missing results/tpcxhs.json" >&2; exit 1; }
test -s results/tpcxhs.csv || { echo "missing results/tpcxhs.csv" >&2; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$hs" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["benchmark"] == "tpcxhs", "bad bench schema"
runs = d["runs"]
for r in runs:
    for k in ("config", "sf_bytes", "hsph", "total_s", "gen_s", "sort_s",
              "validate_s", "records", "validated"):
        assert k in r, f"run missing key {k}"
    assert r["validated"] is True, f"HSValidate failed on a clean run: {r}"
    assert r["records"] * 100 == r["sf_bytes"], f"record accounting drifted: {r}"
configs = sorted({r["config"] for r in runs})
assert configs == ["colocated", "disaggregated", "hetero"], configs
for c in configs:
    pts = sorted((r["sf_bytes"], r["hsph"]) for r in runs if r["config"] == c)
    assert len(pts) >= 2, f"{c}: expected a scale-factor sweep"
    foms = [y for _, y in pts]
    assert all(b >= a * 0.98 for a, b in zip(foms, foms[1:])), \
        f"{c}: HSph@SF must grow with the scale factor: {foms}"
print(f"    {len(runs)} runs over {len(configs)} shapes, all validated; "
      f"HSph@SF monotone per shape")
PY
else
    grep -q '"benchmark": "tpcxhs"' "$hs"
    if grep -q '"validated": false' "$hs"; then
        echo "HSValidate failed on a clean run" >&2; exit 1
    fi
    for c in colocated disaggregated hetero; do
        grep -q "\"config\": \"$c\"" "$hs" || { echo "missing shape $c" >&2; exit 1; }
    done
fi

echo "==> char: characterization sweep, dataset schema & learned cost model"
# The sweep's determinism contract: the dataset written by the quick grid
# must be byte-identical at 1 and 8 sweep threads. Then the fitted tree
# must beat the hand-priced estimator on held-out rows (the example
# asserts this itself; the schema check re-reads the artifacts), and the
# costmodel ablation must show the learned model cutting what-if
# estimator error on at least one cluster shape (asserted by the binary).
cargo test -q -p vhadoop-integration --test vchar
cargo run --release -q -p vhadoop-examples --bin characterize -- --quick --threads 1 > /dev/null
chrcsv=results/characterization.csv
chrjson=results/characterization.json
test -s "$chrcsv" || { echo "missing or empty $chrcsv" >&2; exit 1; }
cp "$chrcsv" results/.characterization.t1.csv
cp "$chrjson" results/.characterization.t1.json
cargo run --release -q -p vhadoop-examples --bin characterize -- --quick --threads 8 > /dev/null
cmp -s "$chrcsv" results/.characterization.t1.csv \
    || { echo "characterization.csv depends on the sweep thread count" >&2; exit 1; }
cmp -s "$chrjson" results/.characterization.t1.json \
    || { echo "characterization.json depends on the sweep thread count" >&2; exit 1; }
rm -f results/.characterization.t1.csv results/.characterization.t1.json
if command -v python3 > /dev/null; then
    python3 - "$chrcsv" "$chrjson" results/costmodel.json <<'PY'
import csv, json, sys
with open(sys.argv[1]) as f:
    rows = list(csv.DictReader(f))
assert len(rows) == 72, f"quick grid must yield 72 rows, got {len(rows)}"
cols = list(rows[0].keys())
for k in ("mix", "placement", "scheduler", "hosts", "vms", "racks", "fault",
          "seed", "feat_hand_estimate_s", "obs_wakeups", "obs_data_local_maps",
          "label_makespan_s", "label_slo_violations"):
    assert k in cols, f"dataset missing column {k}"
assert all(float(r["label_makespan_s"]) > 0 for r in rows), "zero makespan label"
with open(sys.argv[2]) as f:
    d = json.load(f)
assert d["dataset"] == "characterization" and d["version"] == 1, "bad envelope"
assert d["columns"] == cols, "JSON column dictionary diverged from the CSV"
assert len(d["rows"]) == len(rows), "JSON row count diverged from the CSV"
with open(sys.argv[3]) as f:
    ev = json.load(f)
assert ev["rows_heldout"] > 0, "no held-out rows"
assert ev["learned_mae_s"] <= ev["hand_mae_s"], \
    f"learned MAE {ev['learned_mae_s']} worse than hand {ev['hand_mae_s']}"
print(f"    72 rows x {len(cols)} columns, thread-invariant bytes; "
      f"held-out MAE learned {ev['learned_mae_s']:.2f}s vs hand {ev['hand_mae_s']:.2f}s")
PY
else
    head -1 "$chrcsv" | grep -q "feat_hand_estimate_s" || { echo "bad $chrcsv header" >&2; exit 1; }
    grep -q '"version": 1' "$chrjson" || { echo "bad $chrjson" >&2; exit 1; }
fi
cargo run --release -q -p vhadoop-bench --bin ablations -- --case costmodel > /dev/null
cmcsv=results/costmodel_ablation.csv
test -s "$cmcsv" || { echo "missing or empty $cmcsv" >&2; exit 1; }
grep -q "hand_err_mean" "$cmcsv" && grep -q "learned_err_mean" "$cmcsv" \
    || { echo "bad $cmcsv" >&2; exit 1; }

echo "==> platbench: quick smoke of the platform benchmark"
# platbench is a workspace of its own (so the `Instant` ban below stands);
# its tests run all four BENCHMARK.json workloads at --quick size through
# the real executable, untraced and traced, with the in-run determinism
# and output checks on. ~5 s once built.
cargo test -q --offline --manifest-path platbench/Cargo.toml

echo "==> determinism lint"
# A run must be a pure function of config + seed: no wall clock and no OS
# entropy anywhere in the simulation crates. The one sanctioned exception
# is the `scalability` bench binary, which measures host wall-clock
# *around* deterministic runs.
if grep -rnE 'Instant::now|SystemTime::now|thread_rng' crates/*/src \
    | grep -vE '^crates/bench/src/bin/scalability\.rs:[0-9]+:.*Instant'; then
    echo "determinism lint FAILED: wall clock or OS entropy in crates/" >&2
    exit 1
fi
# Threads are sanctioned in exactly one place: the vchar sweep runner
# (workers own disjoint contiguous slot ranges and results are assembled in
# configuration order — the `char` stage above pins the byte-identity).
# Anywhere else, threading is a determinism hazard.
if grep -rnE 'std::thread|thread::(spawn|scope|Builder)' crates/*/src \
    | grep -vE '^crates/vchar/src/sweep\.rs:'; then
    echo "determinism lint FAILED: threading outside the vchar sweep" >&2
    exit 1
fi

echo "==> run_experiments.sh lists every bench binary"
for f in crates/bench/src/bin/*.rs; do
    b=$(basename "$f" .rs)
    sed -n '/^BINS=(/,/)/p' run_experiments.sh | grep -qw "$b" \
        || { echo "run_experiments.sh BINS is missing $b" >&2; exit 1; }
done

echo "all checks passed"
