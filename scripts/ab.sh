#!/usr/bin/env bash
# Alternating parent/change runs of the benchmark (choosing-metrics §8).
#
#   scripts/ab.sh <parent-rev> <change-rev> <workload> [pairs]   default 10 pairs
#   scripts/ab.sh --smoke    one pair of table4-warm at --smoke scale, HEAD
#                            against HEAD: checks the script, no number counts
#
# Each revision is exported with `git archive` into a temporary directory
# (under $TMPDIR) and its benchmark built there, so neither the checkout nor
# its benchmark/ is touched. The pairs then run BENCHMARK.json's command with
# `--workload <workload> --seed <301 + pair> --seconds <run_seconds> --trace 0`,
# the side that runs first switching every pair. Printed: every run's four
# end-to-end metrics, each side's median and quartiles, and per metric the
# change's wins — a gain is claimed only when it wins at least nine tenths of
# the pairs (ties count for neither) and the medians differ by more than the
# parent's interquartile range.
set -euo pipefail

smoke=0
if [ "${1:-}" = "--smoke" ]; then
  smoke=1
  set -- HEAD HEAD table4-warm 1
fi
[ $# -ge 3 ] || { sed -n '2,6p' "$0"; exit 2; }
parent_rev=$1 change_rev=$2 workload=$3 pairs=${4:-10}

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
work="$(mktemp -d "${TMPDIR:-/tmp}/vist-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# side name, revision -> $work/<side>, built
export_side() {
  mkdir -p "$work/$1"
  git -C "$root" archive "$2" | tar -x -C "$work/$1"
  (cd "$work/$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
  echo "built $1 = $(git -C "$root" rev-parse --short "$2")" >&2
}
export_side parent "$parent_rev"
export_side change "$change_rev"

read -r -a command < <(python3 -c 'import json,sys; print(" ".join(json.load(open(sys.argv[1]))["command"]))' "$work/change/BENCHMARK.json")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$work/change/BENCHMARK.json")
args=(--workload "$workload" --seconds "$seconds" --trace 0)
[ "$smoke" = 1 ] && args+=(--smoke)

results="$work/results.jsonl"
: >"$results"
for ((i = 0; i < pairs; i++)); do
  seed=$((301 + i))
  order="parent change"
  [ $((i % 2)) = 1 ] && order="change parent"
  for side in $order; do
    log="$work/$side-$i.log"
    status=0
    (cd "$work/$side" && "${command[@]}" "${args[@]}" --seed "$seed") >"$log" 2>&1 || status=$?
    python3 - "$log" "$side" "$i" "$seed" "$status" >>"$results" <<'EOF'
import json, sys
log, side, pair, seed, status = sys.argv[1:]
try:
    result = json.loads(open(log).read().strip().splitlines()[-1])
except (ValueError, IndexError):
    result = {"correct": False, "failed": -1, "metrics": {}}
print(json.dumps({"side": side, "pair": int(pair), "seed": int(seed), "status": int(status),
                  "correct": result.get("correct"), "failed": result.get("failed"),
                  "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}))
EOF
    tail -n 1 "$results" >&2
  done
done

python3 - "$results" "$work/change/BENCHMARK.json" "$workload" <<'EOF'
import json, statistics, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
decls = json.load(open(sys.argv[2]))["end_to_end"]
workload = sys.argv[3]
names = [d["name"] for d in decls]
print(f"\n{workload}: every run (pair, seed, side, {', '.join(names)})")
for r in runs:
    bad = "" if r["status"] == 0 and r["correct"] and r["failed"] == 0 else "  FAILED"
    vals = "  ".join(f"{r['metrics'].get(n, float('nan')):.4g}" for n in names)
    print(f"  {r['pair']:2d}  {r['seed']}  {r['side']:6s}  {vals}{bad}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], statistics.median(xs), xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

pairs = sorted({r["pair"] for r in runs})
side = lambda s, p: next(r for r in runs if r["side"] == s and r["pair"] == p)
failed = sum(1 for r in runs if r["status"] != 0 or not r["correct"] or r["failed"] != 0)
print(f"\n{workload}: {len(pairs)} pair(s), {failed} failed run(s)")
print(f"  {'metric':26s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} {'change/parent':>13s} {'wins':>6s}  claimable")
for d in decls:
    n, lower = d["name"], d["better"] == "lower"
    par = [side("parent", p)["metrics"].get(n) for p in pairs]
    chg = [side("change", p)["metrics"].get(n) for p in pairs]
    if None in par or None in chg:
        print(f"  {n:26s} missing in some run")
        continue
    pq, cq = quartiles(par), quartiles(chg)
    wins = sum(1 for a, b in zip(par, chg) if (b < a if lower else b > a))
    gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    claimable = wins * 10 >= 9 * len(pairs) and gain > pq[2] - pq[0]
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    cell = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"  {n:26s} {cell(pq):>30s} {cell(cq):>30s} {ratio:13.3f} {wins:3d}/{len(pairs):<2d}"
          f"  {'yes' if claimable else 'no'}")
EOF
