#!/usr/bin/env python3
"""Summarise and compare sets of benchmark runs.

    python3 pdcubench/compare.py A.jsonl [B.jsonl]

Each file holds the lines sweep.sh appends, one run each. For every
workload and end-to-end metric of BENCHMARK.json the command prints the
median and quartiles of each set and the spread (interquartile distance
over the median), and fails a metric whose spread exceeds its bound.
Given two sets it also prints how far B's median moved from A's in the
metric's worse direction, and fails the metric unless the two medians
agree within its bound either way: |B - A| / A <= bound. It exits 1 if
any metric fails, if a run was incorrect, or if the two sets' shares of
failed operations differ.
"""
import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load(p) for p in argv[1:3]]
    ok = True
    for w in [wl["name"] for wl in bench["workloads"]]:
        if any(w not in s for s in sets):
            continue
        shares = [failed_share(s[w]) for s in sets]
        correct = all(r["correct"] for s in sets for r in s[w])
        print(f"== {w}  runs {[len(s[w]) for s in sets]}  failed share {shares}  correct {correct}")
        ok &= correct and len(set(shares)) == 1
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            spreads_ok = True
            meds = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s[w]]
                med, q1, q3, spread = stats(vals)
                meds.append(med)
                cols.append(f"{med:12.4f} [{q1:.4f}, {q3:.4f}] spread {spread:6.3f}")
                if spread > bound:
                    spreads_ok = False
            line = f"  {name:24s} {m['unit']:6s} bound {bound:4.2f}  " + "  |  ".join(cols)
            verdict = spreads_ok
            if len(meds) == 2:
                moved = (meds[1] - meds[0]) / meds[0]
                worse = -moved if m["better"] == "higher" else moved
                verdict = verdict and abs(moved) <= bound
                line += f"  worse by {worse:+.3f}"
            line += "  ok" if verdict else "  FAIL"
            ok &= verdict
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv))
