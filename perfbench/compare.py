#!/usr/bin/env python3
"""Compares two result sets of the vnskit benchmark.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are JSONL files written by `run.py --out FILE` (or
directories of them).  For every workload x end-to-end metric it prints each
side's median and quartiles and a verdict, using the bounds and directions in
BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs (ties count for neither,
              at least 10 pairs), the medians differ by more than the
              parent's own quartile distance, and no more operations failed
              than at the parent;
  no worse    the change's median is not worse than the parent's by more than
              the bound;
  regressed   it is worse by more than the bound;
  unresolved  either side's quartile distance, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run.

Runs are paired by seed when both sides used the same seeds, else in file
order.  Alternate which side runs first when collecting them: the tool warns
when one set ran entirely before the other, because on a shared machine the
drift between two collection periods can exceed the bounds.  Per-layer
metrics (runs with --trace 1) are listed with medians and quartiles only.
Exits 1 when any pairing regressed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETTINGS = ("seconds", "nproc", "threads", "build_type", "cxx_flags", "compiler", "scale")


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        records += [json.loads(line) for line in file.read_text().splitlines() if line.strip()]
    if not records:
        sys.exit(f"compare: no records in {path}")
    return records


def group(records):
    """(workload, trace) -> metric -> [(seed, value)] in file order."""
    out = defaultdict(lambda: defaultdict(list))
    for record in records:
        identity = record["identity"]
        key = (identity["workload"], int(identity["trace"]))
        for name, entry in record["result"]["metrics"].items():
            out[key][name].append((identity["seed"], entry["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(old, new):
    old_seeds = [seed for seed, _ in old]
    new_seeds = [seed for seed, _ in new]
    if sorted(old_seeds) == sorted(new_seeds) and len(set(old_seeds)) == len(old_seeds):
        by_seed = dict(new)
        return [(value, by_seed[seed]) for seed, value in old]
    return [(o, n) for (_, o), (_, n) in zip(old, new)]


def verdict(old, new, bound, higher_better):
    def better(a, b):  # a better than b
        return a > b if higher_better else a < b

    old_values = [v for _, v in old]
    new_values = [v for _, v in new]
    o1, o2, o3 = quartiles(old_values)
    n1, n2, n3 = quartiles(new_values)
    old_spread = (o3 - o1) / abs(o2) if o2 else float("inf")
    new_spread = (n3 - n1) / abs(n2) if n2 else float("inf")
    matched = pairs(old, new)
    wins = sum(1 for o, n in matched if better(n, o))
    if len(matched) >= 10 and wins >= 0.9 * len(matched) and abs(n2 - o2) > (o3 - o1):
        return "improved", old_spread, new_spread
    every_better = all(better(n, o) for n in new_values for o in old_values)
    if max(old_spread, new_spread) > bound and not every_better:
        return "unresolved", old_spread, new_spread
    worse = (o2 - n2) / abs(o2) if higher_better else (n2 - o2) / abs(o2)
    return ("regressed" if worse > bound else "no worse"), old_spread, new_spread


def check_interleaving(old_records, new_records):
    """Warns when one set ran entirely before the other: machine drift between
    the two collection periods then reads as a change."""
    old = [r["identity"].get("started_at") for r in old_records]
    new = [r["identity"].get("started_at") for r in new_records]
    if None in old or None in new:
        return
    if max(old) < min(new) or max(new) < min(old):
        print("warning: one set ran entirely before the other; alternate the sides "
              "run by run, or drift between the periods reads as a change", file=sys.stderr)


def check_settings(old_records, new_records):
    def settings(records):
        return {json.dumps({k: r["identity"].get(k) for k in SETTINGS}, sort_keys=True)
                for r in records}
    old, new = settings(old_records), settings(new_records)
    if old != new:
        print("warning: the two sets ran with different settings:", file=sys.stderr)
        for line in sorted(old ^ new):
            print(f"  {line}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    old_records, new_records = load(args.parent), load(args.change)
    check_settings(old_records, new_records)
    check_interleaving(old_records, new_records)
    old, new = group(old_records), group(new_records)
    failed = {side: defaultdict(int) for side in ("old", "new")}
    for side, records in (("old", old_records), ("new", new_records)):
        for record in records:
            failed[side][record["identity"]["workload"]] += record["result"]["failed"]

    regressed = False
    print(f"{'workload':16} {'metric':34} {'parent med [q1, q3]':>34} "
          f"{'change med [q1, q3]':>34}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        for name in sorted(set(old[key]) & set(new[key])):
            o, n = old[key][name], new[key][name]
            oq, nq = quartiles([v for _, v in o]), quartiles([v for _, v in n])
            cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (oq, nq)]
            note = "(per-layer)"
            if trace == 0 and name in end_to_end:
                metric = end_to_end[name]
                result, old_spread, new_spread = verdict(
                    o, n, metric["bound"], metric["better"] == "higher")
                if result == "improved" and failed["new"][workload] > failed["old"][workload]:
                    result = "no worse"  # a gain does not count with more failures
                regressed |= result == "regressed"
                note = (f"{result} (bound {metric['bound']}, spread "
                        f"{old_spread:.3f}/{new_spread:.3f}, n={len(o)}/{len(n)})")
            print(f"{workload:16} {name:34} {cells[0]:>34} {cells[1]:>34}  {note}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
