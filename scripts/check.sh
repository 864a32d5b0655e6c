#!/usr/bin/env bash
# Repo-wide checks: formatting, lints, rustdoc, tests, artifact regeneration, and
# the determinism / emitter / codec / monitor / trait lints. Orchestration only: every shape and
# schema assertion lives in a Rust test, registry experiment or example,
# which exits non-zero when it fails. Run from anywhere: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

repro() { cargo run --release -q -p vhadoop-bench --bin repro -- "$@" > /dev/null; }
example() { cargo run --release -q -p vhadoop-examples --bin "$1" -- "${@:2}" > /dev/null; }
itest() { cargo test -q -p vhadoop-integration "$@"; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check
# platbench is a workspace of its own, which `--all` and `--workspace` skip.
cargo fmt --manifest-path platbench/Cargo.toml -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path platbench/Cargo.toml --all-targets -- -D warnings

echo "==> rustdoc (-D warnings)"
# A doc link to a private item, or to a name that no longer exists, fails;
# private items are documented too, so their own docs' links are checked.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q --document-private-items

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

echo "==> faults: chaos & property suites"
# Snapshot the tree state first: fault/chaos tests, and the experiments
# the results stage runs, must only ever write under results/.
before=$(git status --porcelain)
itest --test chaos --test seed_sweep --test session_api \
    --test speculation_recovery --test cross_crate_props --test record_path
cargo test -q -p proptest

echo "==> topo: flat-spec identity & rack invariants"
# The integration tests pin the degeneration contract (a single-rack spec
# with a core bandwidth set traces byte-identical to the flat default) and
# the rack-spanning placement properties.
itest --test topology
itest --test cross_crate_props rack > /dev/null

echo "==> snap: snapshot/restore/fork round-trips"
# The round-trip suite pins byte-identical replay after a mid-run
# checkpoint (8 seeds x clean/faulted), fork divergence isolation, the
# canonical-encoding fixed point, and the golden format hash tied to
# SNAPSHOT_VERSION (release profile: ~50 full platform runs).
itest --release --test snapshot_roundtrip

echo "==> hs: TPCx-HS conformance suite"
# The suite pins trace determinism, corruption and replica-loss
# diagnosis, the disaggregated-vs-colocated ordering and the mid-HSSort
# snapshot round-trip.
itest --test tpcxhs

echo "==> char: characterization sweep"
# The dataset written by the quick grid must be byte-identical at 1 and 8
# sweep threads; the example asserts rows == runs and that the fitted
# tree beats the hand-priced estimator on held-out rows. Schema:
# tests/tests/vchar.rs + vchar's units.
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

echo "==> results: every registry experiment regenerates results/ byte for byte"
# Each of the 15 experiments asserts its paper shapes (the figures and
# tables, the ablations, in-rack < cross-rack < congested-core, exactly one
# best-measured what-if commit, the learned cost model beating the
# hand-priced one on a shape, the racked scalability sweep's per-rack ToR
# accounting, every TPCx-HS run validating with HSph@SF growing with SF).
# Then nothing under results/ may differ from the committed tree: not these
# files, not the examples' traces, and not the characterization dataset,
# which carries the kernel's solve counts (a kernel change that moves them
# re-commits it).
repro
after=$(git status --porcelain)
stray=$(comm -13 <(sort <<< "$before") <(sort <<< "$after") | grep -v ' results/' || true)
if [ -n "$stray" ]; then
    echo "tests or experiments wrote outside results/:" >&2
    echo "$stray" >&2
    exit 1
fi
stale=$(git status --porcelain -- results/)
if [ -n "$stale" ]; then
    echo "results/ differs from what the code writes:" >&2
    echo "$stale" >&2
    exit 1
fi
python3 -c 'import json, sys; [json.load(open(p)) for p in sys.argv[1:]]' results/*.json

echo "==> platbench: quick smoke and pinned simulations of the platform benchmark"
# platbench is a workspace of its own (so the `Instant` ban below stands);
# its tests run all four BENCHMARK.json workloads at --quick size through
# the real executable, untraced and traced, with the in-run determinism
# and output checks on. ~5 s once built.
cargo test -q --offline --manifest-path platbench/Cargo.toml
# A host-speed change must not move a simulation: each workload's traced
# quick run reproduces the sim_makespan_s, output digest, wakeup count and
# allocation calls pinned in scripts/platbench_quick.pins, and its untraced
# quick run's peak_heap_mb reads at most 0.5 % above its pin (the counting
# allocator counts requested sizes, so the peak does not depend on the
# host; platbench_pairs.sh checks the full-size runs).
count() { grep -o "\"$1\": {\"value\": [0-9]*" <<< "$2" | sed 's/.*: //'; }
while read -r w makespan digest wakeups calls peak; do
    out=$(cargo run -q --offline --manifest-path platbench/Cargo.toml -- \
        --workload "$w" --quick --seed 2012 --trace 1 < /dev/null)
    got=$(sed -n 's/^platbench .* sim_makespan_s \([0-9.]*\) digest \(0x[0-9a-f]*\)$/\1 \2/p' \
        <<< "$out")
    got="$got $(count simcore.wakeups "$out") $(count alloc.calls_per_pass "$out")"
    if [ "$got" != "$makespan $digest $wakeups $calls" ]; then
        echo "platbench $w: sim_makespan_s digest wakeups alloc_calls $got," \
            "pinned $makespan $digest $wakeups $calls" >&2
        exit 1
    fi
    out=$(cargo run -q --offline --manifest-path platbench/Cargo.toml -- \
        --workload "$w" --quick --seed 2012 < /dev/null)
    got=$(sed -n 's/^peak_heap_mb *\([0-9.]*\) MB$/\1/p' <<< "$out")
    if ! awk -v got="$got" -v pin="$peak" 'BEGIN { exit !(got != "" && got <= pin * 1.005) }'; then
        echo "platbench $w: peak_heap_mb '$got', pinned $peak (0.5 % above it allowed)" >&2
        exit 1
    fi
done < <(grep -v '^#' scripts/platbench_quick.pins)

echo "==> determinism lint"
# A run must be a pure function of config + seed: no wall clock and no OS
# entropy anywhere in crates/, nor in examples/, whose result files
# (quickstart.trace.json, job_stream.slo.json) the results stage pins.
if grep -rnE 'Instant::now|SystemTime::now|thread_rng' crates/*/src examples; then
    echo "determinism lint FAILED: wall clock or OS entropy in crates/ or examples/" >&2
    exit 1
fi
# Threads are sanctioned in exactly one place: the vchar sweep runner
# (workers own disjoint contiguous slot ranges and results are assembled in
# configuration order — the `char` stage above pins the byte-identity).
# Anywhere else, threading is a determinism hazard.
if grep -rnE 'std::thread|thread::(spawn|scope|Builder)' crates/*/src examples \
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
# it (crates/ keeps its own: the bench experiments and vchar's sweep).
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

echo "all checks passed"
