#!/usr/bin/env python3
"""Compare a fresh perf_harness JSON against the committed baseline.

Usage:
    perf_check.py --current perf_smoke.json [--baseline BENCH_6.json]
                  [--grid smoke] [--max-regression 0.25]

With no --baseline, picks the highest-numbered BENCH_<n>.json in the
repo root (the perf trajectory described in docs/perf.md).

The check warns by default: CI runners are noisy enough that a hard
gate on shared infrastructure would flake. Each grid's set-up time
(phases.workload_ms) is printed beside its sims/sec with its ratio to
the baseline; that line is informational and never fails the check. Set IMPSIM_PERF_STRICT=1
(or pass --strict) to turn a regression beyond --max-regression into
a non-zero exit.
"""

import argparse
import glob
import json
import os
import re
import sys


def find_baseline(root):
    best, best_n = None, -1
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best, best_n = path, int(m.group(1))
    return best


def grids_by_name(doc):
    return {g["name"]: g for g in doc.get("grids", [])}


def load_grids(path, label):
    """Reads a perf JSON, or explains why it can't. BENCH_6.json is
    the trajectory's only datapoint so far, so a missing, empty, or
    truncated file is an expected state, not a stack trace: return
    None and let the caller decide whether that skips or fails."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        print(f"perf_check: cannot read {label} {path}: {e.strerror}")
        return None
    if not text.strip():
        print(f"perf_check: {label} {path} is empty")
        return None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        print(f"perf_check: {label} {path} is not valid JSON "
              f"(line {e.lineno}: {e.msg})")
        return None
    if not isinstance(doc, dict) or "grids" not in doc:
        print(f"perf_check: {label} {path} has no 'grids' array; "
              "was it written by perf_harness --json?")
        return None
    return grids_by_name(doc)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current", required=True)
    ap.add_argument("--baseline")
    ap.add_argument("--grid", default="smoke")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="fractional sims/sec drop tolerated (0.25 = 25%%)")
    ap.add_argument("--strict", action="store_true")
    args = ap.parse_args()
    strict = args.strict or os.environ.get("IMPSIM_PERF_STRICT") == "1"

    baseline_path = args.baseline or find_baseline(
        os.path.dirname(os.path.abspath(__file__)) + "/..")
    if baseline_path is None:
        print("perf_check: no committed BENCH_*.json baseline; skipping")
        return 0

    # An unusable baseline only skips the comparison (same as having
    # no baseline at all); an unusable *current* file means the bench
    # that was supposed to produce it went wrong, which the strict
    # mode must surface.
    base = load_grids(baseline_path, "baseline")
    if base is None:
        print("perf_check: baseline unusable; skipping comparison")
        return 0
    cur = load_grids(args.current, "current")
    if cur is None:
        if strict:
            print("perf_check: FAIL (IMPSIM_PERF_STRICT)")
            return 1
        print("perf_check: current result unusable (warn-only; set "
              "IMPSIM_PERF_STRICT=1 to enforce)")
        return 0

    failed = False
    for name in args.grid.split(","):
        if name not in base:
            print(f"perf_check: grid '{name}' absent from "
                  f"{baseline_path}; skipping")
            continue
        if name not in cur:
            print(f"perf_check: grid '{name}' absent from "
                  f"{args.current}")
            failed = True
            continue
        b, c = base[name]["sims_per_sec"], cur[name]["sims_per_sec"]
        ratio = c / b if b > 0 else float("inf")
        line = (f"perf_check: {name}: {c:.2f} sims/s vs baseline "
                f"{b:.2f} ({ratio:.2f}x, floor "
                f"{1.0 - args.max_regression:.2f}x)")
        if ratio < 1.0 - args.max_regression:
            print(line + "  REGRESSION")
            failed = True
        else:
            print(line + "  ok")
        # Set-up (workload generation) beside the gated throughput, so
        # a generator regression shows in the log; informational only.
        bw = base[name].get("phases", {}).get("workload_ms")
        cw = cur[name].get("phases", {}).get("workload_ms")
        if bw is not None and cw is not None:
            wratio = f"{cw / bw:.2f}x" if bw > 0 else "n/a"
            print(f"perf_check: {name}: workload_ms {cw:.1f} vs "
                  f"baseline {bw:.1f} ({wratio}, informational)")
        # Throughput aside, the same simulator version must simulate
        # the same cycles; drift here usually means the baseline needs
        # re-recording after an intentional behavior change.
        bc, cc = base[name].get("sim_cycles"), cur[name].get("sim_cycles")
        if bc is not None and cc is not None and bc != cc:
            print(f"perf_check: note: {name} simulated cycles differ "
                  f"({bc} -> {cc}); baseline predates a behavior "
                  f"change (informational)")

    if failed:
        if strict:
            print("perf_check: FAIL (IMPSIM_PERF_STRICT)")
            return 1
        print("perf_check: regression detected (warn-only; set "
              "IMPSIM_PERF_STRICT=1 to enforce)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
