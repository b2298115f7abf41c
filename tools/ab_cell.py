#!/usr/bin/env python3
"""Alternating base/change timings of one benchmark cell, in one process.

Unpacks a base git ref with ``tools/ab_pairs.py``'s ``unpack`` into a
temporary directory and loads its ``src/pagecachesim`` and this
checkout's under distinct package names, as ``tools/diff_replay.py``
does. Each side builds one policy x workload cell of ``perfbench/run.py``
(same stream, cache size and policy parameters, at seed 1), and then the
two sides time ``harness.run`` on it in turn for N pairs, the side that
runs first alternating from pair to pair. Both sides share the process, its
interpreter state and the host's slow spells, so one cell's ratio
resolves a few percent where whole benchmark runs in separate processes
cannot. Run it from the repository root:

    python3 tools/ab_cell.py --base HEAD~1 --workload filesearch-loop \\
        --policy fifo --pairs 300

Every run's CSV report must equal the first one of its side, and the two
sides' reports must be equal; otherwise it prints the two and exits 1.
It prints each side's median run time and quartiles, the median of the
per-pair ratios of change time to base time, and the pairs in which the
change ran faster. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import tempfile
from time import perf_counter

#: The seed of every stream and policy, as in ``tools/work_count.py``.
SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
SIDES = ("base", "change")


def load(name: str, path: str):
    """The Python file at ``path`` as a module called ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_pairs(runs: dict, pairs: int) -> tuple:
    """Call each side's ``runs[side]()`` once per pair, the first side
    alternating. Returns ({side: [seconds]}, {side: first CSV report}),
    or raises ``AssertionError`` when a side's report changes."""
    times = {side: [] for side in SIDES}
    reports: dict = {}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            gc.collect()
            t0 = perf_counter()
            report = runs[side]()
            times[side].append(perf_counter() - t0)
            csv = report.to_csv()
            if reports.setdefault(side, csv) != csv:
                raise AssertionError("the %s report changed between runs:\n"
                                     "%s\n%s" % (side, reports[side], csv))
    return times, reports


def summary(times: dict) -> list:
    """The output lines on the timings: each side's median and
    quartiles, then the median change/base ratio and the pairs won."""
    lines = []
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(times[side], n=4,
                                              method="inclusive")
        lines.append("%-6s median %.6f s [%.6f, %.6f]" % (side, median, q1,
                                                          q3))
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    won = sum(r < 1 for r in ratios)
    lines.append("median change/base time ratio: %.4f"
                 % statistics.median(ratios))
    lines.append("pairs the change ran faster: %d of %d" % (won, len(ratios)))
    return lines


def main(argv=None) -> int:
    # perfbench/run.py, for its workloads and scenarios; it imports its
    # tracer from its own directory
    sys.path.insert(0, PERFBENCH)
    bench = load("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    ab_pairs = load("ab_pairs", os.path.join(HERE, "ab_pairs.py"))
    diff_replay = load("diff_replay", os.path.join(HERE, "diff_replay.py"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--policy", required=True, choices=bench.POLICIES)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--size", type=int, default=None,
                        help="stream size (events, or passes for "
                             "filesearch-loop); default: the benchmark's")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    cache_pages, default_size, _ = bench.WORKLOADS[args.workload]
    size = default_size if args.size is None else args.size
    with tempfile.TemporaryDirectory(prefix="ab-cell-") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": ROOT}
        os.mkdir(trees["base"])
        ab_pairs.unpack(args.base, trees["base"])
        runs = {}
        for side in SIDES:
            pkg = diff_replay.load_package(os.path.join(trees[side], "src"))
            data = os.path.join(tmp, side + "-data")
            os.mkdir(data)
            spec, pages = bench.make_workload(pkg, args.workload, SEED, size,
                                              False, data)
            config = bench.scenario(pkg, spec, cache_pages, args.policy,
                                    SEED)
            runs[side] = lambda pkg=pkg, config=config: pkg.run(config)
        try:
            times, reports = time_pairs(runs, args.pairs)
        except AssertionError as exc:
            print(exc, file=sys.stderr)
            return 1
    if reports["base"] != reports["change"]:
        print("the reports differ:\nbase:\n%schange:\n%s"
              % (reports["base"], reports["change"]), file=sys.stderr)
        return 1
    print("%s x %s, seed %d, size %d: %d pages, %d-page cache, base %s, "
          "%d pairs" % (args.policy, args.workload, SEED, size, pages,
                        cache_pages, args.base, args.pairs))
    for line in summary(times):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
