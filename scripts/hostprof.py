#!/usr/bin/env python3
"""Sample where a command spends host CPU time, with no special build.

Usage:
    hostprof.py [--by function|file|line] -- COMMAND [ARGS...]

Builds scripts/hostprof/sampler.c with `cc` into a temporary
directory, runs COMMAND with it in LD_PRELOAD, and prints the samples
grouped by function, source file or source line, largest share first:
every group, so pipe the report to `head` to see the top ones.

The sampler interrupts the process on ITIMER_PROF (at most 1000 times
per CPU-second; the kernel's tick caps it, e.g. 250 Hz) and records
the interrupted PC; addr2line (-f -C -i) names each PC's innermost
inlined frame, so a RelWithDebInfo build (-O2 -g, LTO) attributes
inlined code to the function and line it came from. Samples outside
the executable (libc, the kernel's vDSO) are grouped as [outside].

Any binary works as is: the sampler costs nothing unless preloaded.
The report goes to stdout after COMMAND's own output. When COMMAND
fails, a line on stderr says so and its exit status is passed on.
"""

import argparse
import collections
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLER = os.path.join(HERE, "hostprof", "sampler.c")


def build_sampler(tmp):
    so = os.path.join(tmp, "sampler.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", so, SAMPLER],
                   check=True)
    return so


def symbolize(exe, offsets):
    """Maps each hex offset to its innermost (function, file, line)."""
    if not offsets:
        return {}
    res = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
                         input="\n".join(offsets) + "\n", text=True,
                         capture_output=True, check=True)
    frames, cur = {}, None
    lines = res.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = lines[i]
            i += 1
            continue
        # A function line and its file:line; the first pair after an
        # address is the innermost inlined frame.
        func = lines[i]
        loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
        i += 2
        key = format(int(cur, 16), "x")
        if key in frames:
            continue
        path, _, line = loc.rpartition(":")
        line = line.split(" ")[0]
        frames[key] = (func, path or "??", line)
    return frames


def group(sample_files, by):
    counts = collections.Counter()
    total = 0
    for path in sample_files:
        with open(path) as f:
            exe = f.readline().strip()
            pcs = [l.strip() for l in f if l.strip()]
        total += len(pcs)
        inside = [pc for pc in pcs if pc != "-"]
        counts["[outside]"] += len(pcs) - len(inside)
        frames = symbolize(exe, sorted(set(inside)))
        for pc in inside:
            func, src, line = frames.get(pc, ("??", "??", "0"))
            if by == "function":
                counts[func] += 1
            elif by == "file":
                counts[src] += 1
            else:
                counts[f"{src}:{line}"] += 1
    if counts["[outside]"] == 0:
        del counts["[outside]"]
    return counts, total


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s [--by function|file|line] -- COMMAND")
    ap.add_argument("--by", choices=["function", "file", "line"],
                    default="function")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command to profile")

    before = set(glob.glob("hostprof.*.pcs"))
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            p for p in (build_sampler(tmp), env.get("LD_PRELOAD")) if p)
        # An ASan binary refuses a library preloaded ahead of its
        # runtime unless told the order is fine.
        env["ASAN_OPTIONS"] = ":".join(
            o for o in (env.get("ASAN_OPTIONS"),
                        "verify_asan_link_order=0") if o)
        status = subprocess.run(cmd, env=env).returncode
    made = sorted(set(glob.glob("hostprof.*.pcs")) - before)
    try:
        counts, total = group(made, args.by)
    finally:
        for path in made:
            os.remove(path)

    print(f"hostprof: {total} samples by {args.by}"
          f" ({len(made)} process{'es' if len(made) != 1 else ''})")
    for name, n in counts.most_common():
        print(f"{100.0 * n / max(total, 1):6.2f}% {n:8d}  {name}")
    if status != 0:
        print(f"hostprof: command exited with status {status}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
