#!/usr/bin/env python3
"""Compare the report files of selfcheck.sh's sets of runs.

  selfcheck_compare.py A B C     A and B: same seed, C: another seed
  selfcheck_compare.py --single A

Fails (exit 1) if a run had a failed operation or left its pool regime, if an
end-to-end metric differs between A and B by more than its bound in
BENCHMARK.json, if an exact count differs between A and B, or if the counts
named in README.md do not change with the seed.
"""
import json
import os
import sys

WORKLOADS = ["table4-warm", "scan-spill", "ingest-mixed", "serve-topk"]

# Per-layer metrics that are counts of work (or ratios of such counts) fixed
# by the seed alone: they must be bit-identical between two same-seed runs.
EXACT = (
    ["query.sequences", "btree.fetches_per_get", "segment.bytes_per_xml_byte",
     "segment.compact_bytes_written", "search.fetches_per_work_item",
     "search.planner_probes", "search.planner_prunes", "pager.wal_appends_per_doc",
     "pager.wal_commits", "pager.wal_bytes_per_xml_byte", "pager.page_writes_per_doc",
     "pool.write_backs", "ingest.dkey_cache_hit_ratio", "ingest.edge_cache_hit_ratio",
     "ingest.delta_bytes_per_xml_byte"]
    + [f"search.q{q}.{c}" for q in range(1, 9) for c in ("hits", "work_items", "pool_fetches")]
)
# Of those, the ones that must change when the seed does (the population is
# fixed, so hit counts do not; the order, and with it the trees, do).
SEEDED = (["search.q3.work_items", "search.q4.work_items"]
          + [f"search.q{q}.pool_fetches" for q in (3, 4, 6)])


def load(directory, workload, trace):
    with open(os.path.join(directory, f"report-{workload}-trace{trace}.json")) as f:
        return json.load(f)


def healthy(report, where):
    problems = []
    if report["failed"] != 0:
        problems.append(f"{where}: {report['failed']} of {report['attempted']} operations failed")
    if not report["regime_ok"]:
        problems.append(f"{where}: pool regime violated")
    return problems


def main():
    args = sys.argv[1:]
    single = args[:1] == ["--single"]
    dirs = args[1:] if single else args
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    problems = []
    for d in dirs:
        for w in WORKLOADS:
            for t in (0, 1):
                problems += healthy(load(d, w, t), f"{d} {w} trace {t}")
    if single:
        for w in WORKLOADS:
            m = load(dirs[0], w, 0)["metrics"]
            print(w + ": " + ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items()))
    else:
        a_dir, b_dir, c_dir = dirs
        print(f"{'workload':<13} {'metric':<26} {'run A':>12} {'run B':>12} {'diff':>7} {'bound':>6}")
        for w in WORKLOADS:
            a, b = load(a_dir, w, 0)["metrics"], load(b_dir, w, 0)["metrics"]
            for name, bound in bounds.items():
                va, vb = a[name]["value"], b[name]["value"]
                diff = abs(va - vb) / min(va, vb)
                flag = "" if diff <= bound else "  FAIL"
                print(f"{w:<13} {name:<26} {va:>12.4f} {vb:>12.4f} {diff:>6.1%} {bound:>6.0%}{flag}")
                if flag:
                    problems.append(f"{w} {name}: runs differ by {diff:.1%}, bound {bound:.0%}")
            ta, tb, tc = (load(d, w, 1)["metrics"] for d in dirs)
            exact = [(n, ta[n], tb[n]) for n in EXACT if ta[n]["n"] > 0 or tb[n]["n"] > 0]
            exact.append(("index_bytes_per_xml_byte", a["index_bytes_per_xml_byte"],
                          b["index_bytes_per_xml_byte"]))
            differing = [n for n, x, y in exact if x["value"] != y["value"]]
            print(f"{w:<13} {len(exact)} exact counts compared, {len(differing)} differ")
            problems += [f"{w} {n}: exact count differs between same-seed runs" for n in differing]
            c = load(c_dir, w, 0)["metrics"]
            seeded = [n for n in SEEDED if ta[n]["value"] != tc[n]["value"]]
            if len(seeded) != len(SEEDED):
                problems.append(f"{w}: {set(SEEDED) - set(seeded)} did not change with the seed")
            if a["index_bytes_per_xml_byte"]["value"] == c["index_bytes_per_xml_byte"]["value"]:
                problems.append(f"{w}: index_bytes_per_xml_byte did not change with the seed")
    for p in problems:
        print("FAIL:", p)
    if problems:
        sys.exit(1)
    print("ok: all runs healthy" + ("" if single else
          "; same-seed runs agree within bounds, exact counts identical, counts change with the seed"))


if __name__ == "__main__":
    main()
