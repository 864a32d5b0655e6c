#!/usr/bin/env bash
# Repo-wide checks: formatting, lints, tests, artifact regeneration, and
# the determinism / emitter / codec / monitor / trait lints. Orchestration only: every shape and
# schema assertion lives in a Rust test, bench binary or example, which
# exits non-zero when it fails. Run from anywhere: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bench() { cargo run --release -q -p vhadoop-bench --bin "$1" -- "${@:2}" > /dev/null; }
example() { cargo run --release -q -p vhadoop-examples --bin "$1" -- "${@:2}" > /dev/null; }
itest() { cargo test -q -p vhadoop-integration "$@"; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> examples build & run"
# quickstart exports results/quickstart.trace.json (span-category coverage
# is pinned by tests/tests/trace_metrics.rs); job_stream asserts its own
# SLO accounting before writing results/job_stream.slo.json.
cargo build --release -p vhadoop-examples
for bin in quickstart datacenter_migration tuning_session ml_pipeline job_stream; do
    echo "--> $bin"
    example "$bin"
done

echo "==> faults: chaos & property suites, ablation case & fault-annotated trace"
# Snapshot the tree state first: fault/chaos tests must only ever write
# under results/. The ablation asserts the faulted trace carries fault spans.
before=$(git status --porcelain)
itest --test chaos --test seed_sweep --test session_api \
    --test speculation_recovery --test cross_crate_props --test record_path
cargo test -q -p proptest
bench ablations --case faults
after=$(git status --porcelain)
stray=$(comm -13 <(sort <<< "$before") <(sort <<< "$after") | grep -v ' results/' || true)
if [ -n "$stray" ]; then
    echo "fault stage wrote outside results/:" >&2
    echo "$stray" >&2
    exit 1
fi

echo "==> ctrl: placement ablation"
# Asserts the paper-shaped outcome itself: pack wins cpu-bound, spread
# wins shuffle-heavy, adaptive matches the winner.
bench ablations --case placement

echo "==> topo: topology ablation, flat-spec identity & rack invariants"
# The ablation asserts in-rack < cross-rack < congested-core; the
# integration tests pin the degeneration contract (a single-rack
# TopologySpec traces byte-identical to the flat spec) and the
# rack-spanning placement properties; the racked scalability sweep
# exercises the per-rack ToR accounting end to end.
bench ablations --case topology
itest --test topology
itest --test cross_crate_props rack > /dev/null
bench scalability --scale 32 --racks 3

echo "==> snap: snapshot/restore/fork round-trips & what-if ablation"
# The round-trip suite pins byte-identical replay after a mid-run
# checkpoint (8 seeds x clean/faulted), fork divergence isolation, the
# canonical-encoding fixed point, and the golden format hash tied to
# SNAPSHOT_VERSION (release profile: ~50 full platform runs). The
# ablation asserts exactly one committed candidate, that it is the
# best-measured one, and what-if makespan <= 1.05x the estimator's.
itest --release --test snapshot_roundtrip
bench ablations --case whatif

echo "==> hs: TPCx-HS conformance suite & benchmark sweep"
# The suite pins trace determinism, corruption and replica-loss
# diagnosis, the disaggregated-vs-colocated ordering and the mid-HSSort
# snapshot round-trip; the quick sweep asserts every run validates,
# records x 100 == SF bytes, and HSph@SF grows with SF in every shape.
itest --test tpcxhs
bench tpcxhs --quick

echo "==> char: characterization sweep & learned cost model"
# The dataset written by the quick grid must be byte-identical at 1 and 8
# sweep threads; the example asserts rows == runs and that the fitted
# tree beats the hand-priced estimator on held-out rows; the costmodel
# ablation asserts the learned model cuts what-if estimator error on at
# least one cluster shape. Schema: tests/tests/vchar.rs + vchar's units.
itest --test vchar
example characterize --quick --threads 1
cp results/characterization.csv results/.characterization.t1.csv
cp results/characterization.json results/.characterization.t1.json
example characterize --quick --threads 8
for ext in csv json; do
    cmp -s results/characterization.$ext results/.characterization.t1.$ext \
        || { echo "characterization.$ext depends on the sweep thread count" >&2; exit 1; }
    rm -f results/.characterization.t1.$ext
done
bench ablations --case costmodel
# The dataset carries the kernel's solve counts (`obs_reallocations`,
# `obs_flows_touched`): a kernel change that moves them re-commits it.
git diff --exit-code results/characterization.csv results/characterization.json

echo "==> ablations: --case runs leave the full-run results/ablations.* alone"
git diff --exit-code results/ablations.csv results/ablations.json

echo "==> results: regenerated artifacts exist and every JSON parses"
for f in quickstart.trace.json faults.trace.json job_stream.slo.json topology.csv \
    whatif.csv tpcxhs.csv tpcxhs.json characterization.csv costmodel.json \
    costmodel_ablation.csv; do
    test -s "results/$f" || { echo "missing or empty results/$f" >&2; exit 1; }
done
python3 -c 'import json, sys; [json.load(open(p)) for p in sys.argv[1:]]' results/*.json

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

echo "==> emitter lint"
# Result files have one writer, simcore::emit (plus the streaming Chrome
# exporter in trace.rs): an escaped `\"key\":` in any other source file is
# a hand-rolled JSON writer.
if grep -rnE '\\"[A-Za-z_]+\\": ?' crates/*/src \
    | grep -vE '^crates/simcore/src/(emit|trace)\.rs:'; then
    echo "emitter lint FAILED: hand-rolled JSON outside simcore::emit" >&2
    exit 1
fi

# Reads `file:line:...` grep hits on stdin and prints those whose line above
# is not a `// $1: <reason>` comment.
unreasoned() {
    local file line prev
    while IFS=: read -r file line _; do
        prev=$(sed -n "$((line - 1))p" "$file")
        [[ "$prev" =~ ^[[:space:]]*//\ "$1":\ [^[:space:]] ]] || echo "$file:$line"
    done
}

echo "==> codec lint"
# Snapshot codecs are field lists (simcore::persist_struct!/persist_enum!/
# persist_state!, DESIGN.md §16): outside simcore/src/persist.rs, a
# hand-written `impl Persist for`, `decode_state` or `restore_state` needs a
# `// codec by hand: <reason>` line directly above it.
bad=$( { grep -rnE '^\s*(impl\b.*\bPersist for\b|(pub(\(crate\))? )?fn (decode_state|restore_state)\b)' \
    crates/*/src | grep -v '^crates/simcore/src/persist\.rs:' || true; } | unreasoned "codec by hand")
if [ -n "$bad" ]; then
    echo "codec lint FAILED: hand-written codec without a '// codec by hand:' line above it:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> monitor lint"
# A monitor parks when its tick is the last thing pending, so every run
# drains in the default (monitored) configuration. In tests/ and examples/
# a `.no_monitor()` needs a `// no monitor: <reason>` line directly above
# it (the bench binaries and vchar's sweep time the host and keep theirs).
bad=$( { grep -rn --include='*.rs' '\.no_monitor()' tests examples || true; } | unreasoned "no monitor")
if [ -n "$bad" ]; then
    echo "monitor lint FAILED: .no_monitor() without a '// no monitor:' line above it:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> trait lint"
# A closed choice is an enum that matches in place, not a trait with one
# unit struct per variant (DESIGN.md §5). A `pub trait` in crates/*/src
# needs a `// trait: <who implements it outside this crate, or which test
# fakes it>` line directly above it.
bad=$( { grep -rnE '^\s*pub trait ' crates/*/src || true; } | unreasoned "trait")
if [ -n "$bad" ]; then
    echo "trait lint FAILED: pub trait without a '// trait:' line above it:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> serde lint"
# The serde and serde_derive shims expand to nothing. They stay only as
# the manifest edges platbench/Cargo.lock records, so a `Serialize` or
# `Deserialize` derive, bound or import is code that does nothing.
if grep -rnE --include='*.rs' '\b(Serialize|Deserialize)\b|\bserde::' crates tests examples; then
    echo "serde lint FAILED: Serialize/Deserialize used outside shims/" >&2
    exit 1
fi

echo "==> run_experiments.sh lists every bench binary"
for f in crates/bench/src/bin/*.rs; do
    b=$(basename "$f" .rs)
    sed -n '/^BINS=(/,/)/p' run_experiments.sh | grep -qw "$b" \
        || { echo "run_experiments.sh BINS is missing $b" >&2; exit 1; }
done

echo "all checks passed"
