#!/usr/bin/env python3
"""Fold an sprof dump into self / inclusive / first-in-repo-line tables.

usage: fold.py SPROF_OUT BINARY [--top N] [--repo MARKER] [--vs OTHER_SPROF_OUT OTHER_BINARY]

With --vs, print one table instead: inclusive time by function in both
profiles, joined by function name.
"""
import collections
import subprocess
import sys

args = sys.argv[1:]
top = int(args[args.index("--top") + 1]) if "--top" in args else 25
marker = args[args.index("--repo") + 1] if "--repo" in args else "/crates/"
# "In the repo" leaves out the standard library's own /crates/ directories.
in_repo = lambda loc: marker in loc and "/rustc/" not in loc


def fold(dump, binary):
    """(samples, self, inclusive, first-line-in-repo) of one dump."""
    samples, base = [], None
    for line in open(dump):
        if line.startswith("S"):
            samples.append([int(a, 16) for a in line.split()[1:]])
        elif line.startswith("M") and line.rstrip().endswith(binary.split("/")[-1]):
            lo, offset = line.split()[1].split("-")[0], line.split()[3]
            if int(offset, 16) == 0 and base is None:
                base = int(lo, 16)
    if base is None:
        sys.exit(f"{binary} is not in the maps of {dump}")

    # Return addresses point past the call: step back into it (not for the
    # sampled pc itself, frame 0).
    rel = lambda s: [a - base - (1 if i else 0) for i, a in enumerate(s)]
    samples = [rel(s) for s in samples]
    addrs = sorted({a for s in samples for a in s if a >= 0})
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(hex(a) for a in addrs), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # Per address: "0x…", then (function, file:line) pairs, innermost inline first.
    frames, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((out[i], out[i + 1].split(" ")[0]))
            i += 2

    self_t, incl_t, line_t = (collections.Counter() for _ in range(3))
    for s in samples:
        chain = [f for a in s for f in frames.get(a, [])]
        if not chain:
            continue
        self_t[chain[0][0]] += 1
        incl_t.update({fn for fn, loc in chain if in_repo(loc)})
        first = next(((fn, loc) for fn, loc in chain if in_repo(loc)), None)
        if first:
            line_t[f"{first[1].split(marker)[-1]}  {first[0]}"] += 1
    return len(samples), self_t, incl_t, line_t


n, self_t, incl_t, line_t = fold(args[0], args[1])
if "--vs" in args:
    # The before/after table of a perf change: shares of each profile's own
    # total, and the second profile's counts against the *first* total —
    # equal work at equal sampling rate, so a function that kept its cost
    # reads the same in columns one and three.
    at = args.index("--vs")
    m, _, other, _ = fold(args[at + 1], args[at + 2])
    print(f"== inclusive, functions under {marker}: {n} samples vs {m} ==")
    print("  first    other  other/first-total  function")
    rows = sorted(incl_t.keys() | other.keys(), key=lambda fn: -max(incl_t[fn], other[fn]))
    for fn in rows[:top]:
        a, b = incl_t[fn], other[fn]
        print(f"{100 * a / n:6.2f}%  {100 * b / m:6.2f}%  {100 * b / n:16.2f}%  {fn}")
    sys.exit()
for title, table in (
    ("self, innermost inlined function", self_t),
    ("inclusive, functions under " + marker, incl_t),
    ("self, first line under " + marker, line_t),
):
    print(f"== {title} ({n} samples) ==")
    for key, count in table.most_common(top):
        print(f"{100 * count / n:6.2f}%  {count:7d}  {key}")
