#!/usr/bin/env bash
# Self-check of the benchmark: run it twice on the same commit and fail if
# the two sets of runs disagree by more than the benchmark's own bounds, or
# if any exact count differs.
#
#   benchmark/selfcheck.sh           full scale, two sets + a --seed 43 set (~8 min)
#   benchmark/selfcheck.sh --smoke   every workload once, untraced and traced,
#                                    at smoke scale (< 20 s after the build);
#                                    checks the harness, produces no reportable number
#
# Both modes also check that BENCHMARK.json is what the harness declares and
# that --plant-wrong-answer makes every workload fail.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"
smoke=0
[ "${1:-}" = "--smoke" ] && smoke=1

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/vist-benchmark"
out="benchmark/out"
workloads="table4-warm scan-spill ingest-mixed serve-topk"

"$bin" --benchmark-json | diff -u BENCHMARK.json - \
  || { echo "FAIL: BENCHMARK.json differs from what the harness declares"; exit 1; }
echo "ok: BENCHMARK.json matches the harness"

for w in $workloads; do
  if "$bin" --workload "$w" --smoke --plant-wrong-answer >"$out/plant.log" 2>&1; then
    echo "FAIL: $w exited 0 with a planted wrong answer"; exit 1
  fi
  tail -n 1 "$out/plant.log" | grep -q '"correct": false' \
    || { echo "FAIL: $w did not report the planted wrong answer"; exit 1; }
done
rm -f "$out/plant.log"
echo "ok: a planted wrong answer fails every workload"

# One set of runs: every workload untraced and traced; reports kept in $1.
run_set() {
  local dir="$out/selfcheck/$1" seed="$2"; shift 2
  mkdir -p "$dir"
  for w in $workloads; do
    for t in 0 1; do
      "$bin" --workload "$w" --seed "$seed" --trace "$t" "$@" >"$dir/$w-trace$t.log" 2>&1 \
        || { echo "FAIL: $w --trace $t exited non-zero (see $dir/$w-trace$t.log)"; exit 1; }
      mv "$out/report-$w-trace$t.json" "$dir/"
    done
  done
}

rm -rf "$out/selfcheck"
if [ "$smoke" = 1 ]; then
  run_set smoke 42 --smoke
  python3 benchmark/selfcheck_compare.py --single "$out/selfcheck/smoke"
  echo "ok: smoke set ran (every workload, the oracle, the traced run)"
  exit 0
fi

run_set a 42
run_set b 42
run_set c 43
python3 benchmark/selfcheck_compare.py "$out/selfcheck/a" "$out/selfcheck/b" "$out/selfcheck/c"
