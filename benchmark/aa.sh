#!/bin/sh
# A/A check: run the full benchmark twice on the same commit and compare.
#
#   sh benchmark/aa.sh            # seeds 1 2 3 per set, run length from BENCHMARK.json
#   SEEDS="1 2 3 4 5" sh benchmark/aa.sh
#
# Each set runs every workload once per seed (set B uses the seeds after set
# A's, as the driver's second pass does) and takes the median of each
# end-to-end metric. Both tables are printed, then the relative difference
# per (metric, workload) with "worse" positive. Exits non-zero if set B is
# worse than set A by more than the metric's own bound anywhere: a benchmark
# that cannot tell a commit from itself cannot judge a change.
set -eu
cd "$(dirname "$0")/.."
seeds=${SEEDS:-"1 2 3"}
out=.bench_build/aa
mkdir -p "$out"
rm -f "$out"/*.json
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
n=$(echo $seeds | wc -w)
for set in A B; do
	for w in $workloads; do
		for s in $seeds; do
			seed=$s
			[ "$set" = B ] && seed=$((s + n))
			echo "set $set  $w  seed $seed" >&2
			sh benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >"$out/$set-$w-$seed.json"
		done
	done
done
python3 - "$out" <<'PY'
import glob, json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
med = {}
for set_ in "AB":
    for w in spec["workloads"]:
        runs = [json.load(open(p)) for p in sorted(glob.glob(f"{out}/{set_}-{w['name']}-*.json"))]
        if not all(r["correct"] for r in runs):
            sys.exit(f"set {set_} {w['name']}: a run reported correct=false")
        for m in spec["end_to_end"]:
            med[set_, w["name"], m["name"]] = statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
names = [w["name"] for w in spec["workloads"]]
for set_ in "AB":
    print(f"\nset {set_} (median per workload)")
    print(f"{'metric':16s}" + "".join(f"{n:>18s}" for n in names))
    for m in spec["end_to_end"]:
        print(f"{m['name']:16s}" + "".join(f"{med[set_, n, m['name']]:18.5g}" for n in names))
print("\nB relative to A, worse positive (bound)")
print(f"{'metric':16s}" + "".join(f"{n:>18s}" for n in names) + "   bound")
bad = []
for m in spec["end_to_end"]:
    row = f"{m['name']:16s}"
    for n in names:
        a, b = med["A", n, m["name"]], med["B", n, m["name"]]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        row += f"{worse:+18.4f}"
        if worse > m["bound"]:
            bad.append(f"{m['name']} on {n}: {worse:+.4f} > {m['bound']}")
    print(row + f"   {m['bound']}")
if bad:
    sys.exit("A/A FAILED: " + "; ".join(bad))
print("\nA/A ok: every (metric, workload) pair within its bound")
PY
