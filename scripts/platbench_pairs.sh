#!/usr/bin/env bash
# Paired before/after evidence for a host-speed change (ROADMAP "rules of
# evidence", platbench/README.md): builds platbench in a parent checkout
# and in this one, runs alternating parent/change pairs of every
# BENCHMARK.json workload plus two traced runs per side, and prints the
# markdown tables EXPERIMENTS.md carries, each end-to-end row with its
# `choosing-metrics` §8 verdict against the bounds in BENCHMARK.json; exits
# non-zero if any row is `worse`. A metric whose runs agree to a part in ten
# thousand on each side (`sim_makespan_s` repeats exactly, `peak_heap_mb` to
# a few KB) has no spread to run the pairs rule on and is reported as `same`
# or as the signed difference of the medians, to nine digits, judged against
# the bound alone; a host-speed change must not move the simulation, so a
# `sim_makespan_s` or an output digest that differs between the sides also
# exits non-zero. Runs already in <out-dir> are kept, so an interrupted
# session resumes and the tables can be re-printed. A fifth argument narrows
# the run to some workloads ("three more pairs at an unseen seed for the
# claimed one"); tables and exit code cover that subset. A sixth names the
# workloads whose simulation the change declares it moves (a kernel rounding
# change): for those the script prints |Δ sim_makespan_s| in nanoseconds and
# both digests instead of failing; a move on any other workload still fails.
# Host drift is printed per workload: the parent's `wall_s` in the first and
# the last pair and its max/min over all pairs, with a line saying that the
# workload's `wall_s`/`setup_s` verdicts are drift-limited when that ratio
# exceeds the `wall_s` bound; it changes no verdict and no exit code.
# Each side also gets a second traced run, and every `alloc.*`, `simcore.*`,
# `mapreduce.*`, `vhdfs.*` and `vsched.*` count that differs between a
# side's two traced runs is printed: those counts are meant to repeat
# exactly, so a change whose counts drift exits non-zero (a drifting parent
# is only reported, since the change cannot mend it).
#
#   scripts/platbench_pairs.sh <parent-checkout> <out-dir> [pairs=10] [seed=2012] ["workload ..."] ["moved ..."]
set -euo pipefail
parent=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
pairs=${3:-10}
seed=${4:-2012}
change=$(cd "$(dirname "$0")/.." && pwd)
all=$(python3 -c 'import json, sys; print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$change/BENCHMARK.json")
workloads=${5:-$all}
moved=${6:-}
for w in $workloads $moved; do
    case " $all " in *" $w "*) ;; *) echo "unknown workload '$w' (BENCHMARK.json has: $all)" >&2; exit 2 ;; esac
done

for side in parent change; do
    cargo build --release --offline --quiet \
        --manifest-path "${!side}/platbench/Cargo.toml" --target-dir "$out/target-$side"
done

run() { # side workload file args...
    local side=$1 w=$2 file=$3
    shift 3
    test -s "$file" || (cd "$out" && "target-$side/release/platbench" --workload "$w" "$@" > "$file" 2>&1) \
        || { echo "$side $w failed, see $file" >&2; exit 1; }
}
for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        # Odd pairs run the parent first, even pairs the change.
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$w" "$out/$w.$i.$side.txt" --seed "$seed"
        done
    done
done
for w in $workloads; do
    for side in parent change; do
        run "$side" "$w" "$out/$w.trace.$side.txt" --seed "$seed" --trace 1
        run "$side" "$w" "$out/$w.trace2.$side.txt" --seed "$seed" --trace 1
    done
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" "$moved" $workloads <<'PY'
import glob, json, re, sys
out, pairs, moved, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[4].split(), sys.argv[5:]
end_to_end = json.load(open(sys.argv[3]))["end_to_end"]

def metrics(path):
    rows = re.findall(r'^(\S+)\s+(-?[\d.]+(?:e-?\d+)?) \S+$', open(path).read(), re.M)
    return {name: float(value) for name, value in rows}

def digests(w, side):
    return {re.search(r'digest (0x[0-9a-f]+)', open(path).read()).group(1)
            for path in glob.glob(f"{out}/{w}.*.{side}.txt")}

def makespans(w, side):
    # Full precision, from the result line of the timed runs (the table rows
    # carry six decimals).
    return {json.loads(line)["metrics"]["sim_makespan_s"]["value"]
            for i in range(1, pairs + 1)
            for line in open(f"{out}/{w}.{i}.{side}.txt") if line.startswith("{")}

def quartiles(xs):
    xs = sorted(xs)
    rank = lambda q: xs[min(len(xs) - 1, max(0, -(-len(xs) * q // 100) - 1))]  # nearest rank
    return rank(25), rank(50), rank(75)

def verdict(won, untied, p25, p50, p75, c50, bound, sign):
    # sign: +1 when lower is better. `worsened` is the change median's
    # relative distance from the parent's, in the bad direction.
    worsened = sign * (c50 - p50) / abs(p50)
    if worsened > bound:
        return "worse"
    if untied and won * 10 >= untied * 9 and sign * (p50 - c50) > p75 - p25:
        return "gain"
    return "unresolved" if (p75 - p25) / abs(p50) > bound else "unchanged"

print("| workload | metric | parent median (quartiles) | change median (quartiles) | change/parent | pairs won | verdict |")
print("|---|---|---|---|---|---|---|")
worse, declared, drift = [], [], []
wall_bound = next(spec["bound"] for spec in end_to_end if spec["name"] == "wall_s")
for w in workloads:
    runs = {s: [metrics(f"{out}/{w}.{i}.{s}.txt") for i in range(1, pairs + 1)] for s in ("parent", "change")}
    # The parent is the same code in every pair, so its spread is the host's.
    walls = [r["wall_s"] for r in runs["parent"]]
    spread = max(walls) / min(walls)
    drift.append((f"| `{w}` | {walls[0]:.4g} | {walls[-1]:.4g} | {spread:.3f} |",
                  spread - 1 > wall_bound and f"`{w}`: the parent's `wall_s` max/min {spread:.3f} exceeds "
                  f"1 + the `wall_s` bound ({wall_bound}); its `wall_s`/`setup_s` verdicts are drift-limited"))
    before, after = digests(w, "parent"), digests(w, "change")
    spans = {s: makespans(w, s) for s in ("parent", "change")}
    if any(len(v) != 1 for v in spans.values()):
        worse.append(f"{w} sim_makespan_s differs between runs of one side: {spans}")
    elif w in moved:
        (p,), (c,) = spans["parent"], spans["change"]
        declared.append(f"`{w}` (declared moved): |Δ `sim_makespan_s`| {abs(c - p) * 1e9:.0f} ns "
                        f"({p!r} → {c!r} s); digest {' '.join(before)} → {' '.join(after)}")
    elif before != after or spans["parent"] != spans["change"]:
        worse.append(f"{w} sim_makespan_s {spans['parent']} -> {spans['change']}, digest {before} -> {after}")
    for spec in end_to_end:
        m, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        p, c = ([r[m] for r in runs[s]] for s in ("parent", "change"))
        (p25, p50, p75), (c25, c50, c75) = quartiles(p), quartiles(c)
        if all(max(xs) - min(xs) <= 1e-4 * abs(x50) for xs, x50 in ((p, p50), (c, c50))):
            # Exact repeat: the difference is a fact, not a sample.
            delta = c50 - p50
            v = "same" if delta == 0 else "worse" if sign * delta / abs(p50) > spec["bound"] else f"{delta:+.6g}"
            if v == "worse":
                worse.append(f"{w} {m}")
            print(f"| `{w}` | `{m}` | {p50:.9g} | {c50:.9g} | {c50 / p50:.3f} | exact repeat | {v} |")
            continue
        won = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        tied = sum(b == a for a, b in zip(p, c))
        score = "identical" if tied == pairs else f"{won}/{pairs - tied}"
        v = verdict(won, pairs - tied, p25, p50, p75, c50, spec["bound"], sign)
        if v == "worse":
            worse.append(f"{w} {m}")
        print(f"| `{w}` | `{m}` | {p50:.4g} ({p25:.4g}–{p75:.4g}) | {c50:.4g} ({c25:.4g}–{c75:.4g}) "
              f"| {c50 / p50:.3f} | {score} | {v} |")

print()
print("| workload | parent `wall_s`, first pair | parent `wall_s`, last pair | parent max/min over the pairs |")
print("|---|---|---|---|")
for row, _ in drift:
    print(row)
for _, note in drift:
    if note:
        print(note)

print()
print("| workload | count (`--trace 1`, exact repeat) | parent | change | parent/change |")
print("|---|---|---|---|---|")
for w in workloads:
    p, c = (metrics(f"{out}/{w}.trace.{s}.txt") for s in ("parent", "change"))
    moved_counts = [m for m in p if re.match(r'(simcore|mapreduce|vhdfs|vsched)\.', m)
                    and not re.search(r'_s$|frac$', m) and p[m] != c[m]]
    for m in ("alloc.calls_per_pass", "alloc.bytes_per_pass", *moved_counts):
        ratio = f"{p[m] / c[m]:.2f}" if c[m] else "-"
        print(f"| `{w}` | `{m}` | {p[m]:.0f} | {c[m]:.0f} | {ratio} |")
    if not moved_counts:
        print(f"| `{w}` | every `simcore.*`, `mapreduce.*`, `vhdfs.*`, `vsched.*` count | | | unchanged |")
print()
print("| workload | side | count (`--trace 1`) | first traced run | second traced run |")
print("|---|---|---|---|---|")
for w in workloads:
    for side in ("parent", "change"):
        a, b = (metrics(f"{out}/{w}.{run}.{side}.txt") for run in ("trace", "trace2"))
        drifted = [m for m in sorted(a.keys() | b.keys())
                   if re.match(r'(alloc|simcore|mapreduce|vhdfs|vsched)\.', m)
                   and not re.search(r'_s$|frac$', m) and a.get(m) != b.get(m)]
        for m in drifted:
            print(f"| `{w}` | {side} | `{m}` | {a.get(m, float('nan')):.0f} | {b.get(m, float('nan')):.0f} |")
            if side == "change":
                worse.append(f"{w} {m} differs between two traced runs")
        if not drifted:
            print(f"| `{w}` | {side} | every count | | repeats |")
if declared:
    print()
    print(*declared, sep="\n")
if worse:
    sys.exit("worse than the parent beyond the BENCHMARK.json bound, a simulation that moved, "
             "or a count that did not repeat: "
             + ", ".join(worse))
PY
