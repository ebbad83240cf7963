#!/usr/bin/env python3
"""Compare perf_harness JSONs: alternating pairs, or one run against
the committed baseline.

Usage:
    perf_check.py --pair BASE.json CHANGE.json [--pair ...]
                  [--grid smoke] [--max-regression 0.25] [--strict]
    perf_check.py --current perf_smoke.json [--baseline BENCH_6.json]
                  [--grid smoke] [--max-regression 0.25] [--strict]
    perf_check.py --self-test

Pair mode is the gate (docs/perf.md): each --pair is one perf_harness
--json run of the base commit and one of the change, made back to back
on the same host, alternating which side runs first. The host's speed
cancels out of each ratio, so the bound applies on any runner.

Baseline mode is pair mode with one pair: a BENCH file against one
run. With no --baseline, it picks the highest-numbered BENCH_<n>.json
in the repo root (the perf trajectory described in docs/perf.md); a
missing or unusable baseline skips the comparison. The two were
timed on different hosts, so the ratio measures the host as much as
the code.

Per grid the check prints the median sims/sec of each side, the
median change/base ratio with its quartiles, and the pairs the change
won. Beside it, informational only: each side's median set-up time
(phases.workload_ms), a note when a pair's run labels differ (the
grid's examples/configs/perf_<grid>.imp.ini was edited, so the two
time different work) and otherwise a note when a pair's sim_cycles
differ.

The check warns by default. Set IMPSIM_PERF_STRICT=1 (or pass
--strict) to turn a median ratio below 1 - --max-regression into a
non-zero exit. --self-test checks pair mode on crafted JSON.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys
import tempfile


def find_baseline(root):
    best, best_n = None, -1
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best, best_n = path, int(m.group(1))
    return best


def grids_by_name(doc):
    return {g["name"]: g for g in doc.get("grids", [])}


def run_labels(grid):
    """The grid's run labels in run order, or None if it lists none."""
    runs = grid.get("runs")
    if not isinstance(runs, list):
        return None
    return [r.get("label") for r in runs if isinstance(r, dict)]


def load_grids(path, label):
    """Reads a perf JSON, or explains why it can't. A missing, empty,
    or truncated file is an expected state, not a stack trace: return
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


def quartiles(values):
    """(q1, median, q3) of @p values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(failed, strict):
    if not failed:
        return 0
    if strict:
        print("perf_check: FAIL (IMPSIM_PERF_STRICT)")
        return 1
    print("perf_check: regression detected (warn-only; set "
          "IMPSIM_PERF_STRICT=1 to enforce)")
    return 0


def check_pairs(pairs, grids, max_regression, strict):
    """The median change/base sims/sec ratio per grid over @p pairs of
    (base, change) grid maps; returns the exit status."""
    failed = False
    floor = 1.0 - max_regression
    for name in grids.split(","):
        if any(name not in change for _, change in pairs):
            print(f"perf_check: grid '{name}' absent from a change run")
            failed = True
            continue
        here = [(base[name], change[name]) for base, change in pairs
                if name in base]
        if not here:
            print(f"perf_check: grid '{name}' absent from the base; "
                  "skipping")
            continue

        ratios = [c["sims_per_sec"] / b["sims_per_sec"]
                  if b["sims_per_sec"] > 0 else float("inf")
                  for b, c in here]
        q1, med, q3 = quartiles(ratios)
        bs = statistics.median(b["sims_per_sec"] for b, _ in here)
        cs = statistics.median(c["sims_per_sec"] for _, c in here)
        line = (f"perf_check: {name}: {cs:.2f} sims/s vs base {bs:.2f}, "
                f"change/base median {med:.3f}x (quartiles "
                f"{q1:.3f}-{q3:.3f}), change faster in "
                f"{sum(r > 1.0 for r in ratios)} of {len(ratios)} "
                f"pairs, floor {floor:.2f}x")
        if med < floor:
            print(line + "  REGRESSION")
            failed = True
        else:
            print(line + "  ok")

        # Set-up (workload generation) beside the gated throughput, so
        # a generator regression shows in the log.
        bw = [b.get("phases", {}).get("workload_ms") for b, _ in here]
        cw = [c.get("phases", {}).get("workload_ms") for _, c in here]
        if None not in bw + cw:
            bw, cw = statistics.median(bw), statistics.median(cw)
            wratio = f"{cw / bw:.2f}x" if bw > 0 else "n/a"
            print(f"perf_check: {name}: workload_ms {cw:.1f} vs base "
                  f"{bw:.1f} ({wratio}, informational)")

        # An edited grid file changes the work itself; say so rather
        # than let the cycles note blame a behavior change.
        drifted = [(bl, cl) for bl, cl in
                   ((run_labels(b), run_labels(c)) for b, c in here)
                   if bl is not None and cl is not None and bl != cl]
        if drifted:
            bl, cl = drifted[0]
            added = sum(1 for label in cl if label not in bl)
            removed = sum(1 for label in bl if label not in cl)
            how = (f"{len(bl)} -> {len(cl)} runs, {added} added, "
                   f"{removed} removed" if added or removed
                   else "same runs in another order")
            print(f"perf_check: note: {name} runs differ from the "
                  f"base's in {len(drifted)} of {len(here)} pairs "
                  f"({how}); the grid changed, so the two time "
                  f"different work (informational)")
            continue
        # Throughput aside, the same grid must simulate the same cycles
        # unless the change alters behavior, or the base predates such
        # a change and needs re-recording.
        cycles = [(b.get("sim_cycles"), c.get("sim_cycles"))
                  for b, c in here]
        differ = [(bc, cc) for bc, cc in cycles
                  if bc is not None and cc is not None and bc != cc]
        if differ:
            bc, cc = differ[0]
            print(f"perf_check: note: {name} simulated cycles differ in "
                  f"{len(differ)} of {len(here)} pairs ({bc} -> {cc}); "
                  f"the two simulate different behavior (informational)")

    return verdict(failed, strict)


def self_test():
    """Pair mode on crafted JSON: a 0.9x median passes and a 0.7x one
    fails under --strict (bound 0.25) and warns without it; one pair
    (baseline mode) follows the same rule."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        def load(name, sims_per_sec):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump({"schema": "impsim-perf-v1",
                           "grids": [{"name": "smoke",
                                      "sims_per_sec": sims_per_sec,
                                      "sim_cycles": 1000}]}, f)
            return load_grids(path, "crafted")

        def pairs(ratios):
            # A drifting host: only the ratios hold.
            return [(load(f"b{i}.json", 20.0 + i),
                     load(f"c{i}.json", (20.0 + i) * r))
                    for i, r in enumerate(ratios)]

        for ratios, strict, want in (
                ([0.88, 0.92, 0.9, 0.85, 0.95], True, 0),
                ([0.68, 0.72, 0.7, 0.65, 0.9], True, 1),
                ([0.68, 0.72, 0.7, 0.65, 0.9], False, 0),
                ([0.9], True, 0),
                ([0.7], True, 1)):
            got = check_pairs(pairs(ratios), "smoke", 0.25, strict)
            if got != want:
                print(f"perf_check: self-test FAILED: ratios {ratios}, "
                      f"strict={strict}: exit {got}, want {want}")
                ok = False
    print("perf_check: self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--current")
    mode.add_argument("--pair", nargs=2, action="append",
                      metavar=("BASE", "CHANGE"))
    mode.add_argument("--self-test", action="store_true")
    ap.add_argument("--baseline")
    ap.add_argument("--grid", default="smoke")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="fractional sims/sec drop tolerated (0.25 = 25%%)")
    ap.add_argument("--strict", action="store_true")
    args = ap.parse_args()
    strict = args.strict or os.environ.get("IMPSIM_PERF_STRICT") == "1"
    if args.self_test:
        return self_test()

    if args.pair:
        pairs = [(load_grids(b, "base"), load_grids(c, "change"))
                 for b, c in args.pair]
    else:
        # An unusable baseline only skips the comparison (same as
        # having none); an unusable *current* file means the bench
        # that was supposed to produce it went wrong, which the
        # strict mode must surface.
        baseline_path = args.baseline or find_baseline(
            os.path.dirname(os.path.abspath(__file__)) + "/..")
        if baseline_path is None:
            print("perf_check: no committed BENCH_*.json baseline; "
                  "skipping")
            return 0
        base = load_grids(baseline_path, "baseline")
        if base is None:
            print("perf_check: baseline unusable; skipping comparison")
            return 0
        pairs = [(base, load_grids(args.current, "current"))]
    if any(b is None or c is None for b, c in pairs):
        print("perf_check: a run is unusable")
        return verdict(True, strict)
    return check_pairs(pairs, args.grid, args.max_regression, strict)


if __name__ == "__main__":
    sys.exit(main())
