#!/usr/bin/env python3
"""Alternating parent/change pairs of the replay benchmark.

Unpacks a base git ref with ``git archive`` into a temporary directory (the
repository's ``.git`` is only read), then runs ``perfbench/run.py`` there
and in this checkout, one after the other, for N pairs. Pair i uses seed
``--seed + i`` on both sides, and the side that runs first alternates, so
a slow spell of the host does not always fall on the same side. Each
side writes and reads its bytecode under its own fresh
``PYTHONPYCACHEPREFIX`` directory, so neither side loads ``.pyc`` files
that an earlier run left in its tree and both compile the same way. Run
it from the repository root:

    python3 tools/ab_pairs.py --base HEAD~1 --pairs 10 \\
        --workload ycsb-c-zipf --seed 11 --seconds 40

For each workload and metric it prints each side's median and quartiles
and how many pairs the change won, by the metric's ``better`` direction
in ``BENCHMARK.json`` (ties count for neither side), then the failed and
attempted policy runs of each side. The last line is the same summary as
one JSON object. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def unpack(ref: str, dest: str) -> None:
    """Extract the files of ``ref`` into ``dest``."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                       stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def bench(tree: str, pycache: str, workload: str, seed: int, seconds: float,
          trace: int) -> dict | None:
    """One ``perfbench/run.py`` run in ``tree``, with ``pycache`` as its
    ``PYTHONPYCACHEPREFIX``: its result object, with metric names prefixed
    by their workload, or None if it crashed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPYCACHEPREFIX=pycache),
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if workload != "all":
        result["metrics"] = {"%s:%s" % (workload, name): entry
                             for name, entry in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict | None, dict | None]],
              better: dict[str, str]) -> dict:
    """Summarize (base result, change result) pairs.

    ``better`` maps a metric name (without its workload prefix) to
    ``"higher"`` or ``"lower"``. A crashed run (None) counts as one failed
    run of its side and adds no metric values. A metric is compared only
    in the pairs where both sides report it.
    """
    runs = {side: {"attempted": 0, "failed": 0, "crashed": 0}
            for side in SIDES}
    values: dict[str, dict[str, list[float]]] = {}
    wins: dict[str, list[int]] = {}
    for pair in pairs:
        for side, result in zip(SIDES, pair):
            if result is None:
                runs[side]["crashed"] += 1
                continue
            runs[side]["attempted"] += result["attempted"]
            runs[side]["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, {s: [] for s in SIDES})[side].append(
                    entry["value"])
        base, change = pair
        if base is None or change is None:
            continue
        for name, entry in change["metrics"].items():
            if name not in base["metrics"]:
                continue
            old = base["metrics"][name]["value"]
            new = entry["value"]
            direction = better.get(name.split(":", 1)[-1], "higher")
            won = new > old if direction == "higher" else new < old
            lost = new < old if direction == "higher" else new > old
            tally = wins.setdefault(name, [0, 0, 0])
            tally[0] += won
            tally[1] += lost
            tally[2] += 1
    metrics = {}
    for name, by_side in sorted(values.items()):
        row = {}
        for side in SIDES:
            if by_side[side]:
                q1, med, q3 = quartiles(by_side[side])
                row[side] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(by_side[side])}
        won, lost, paired = wins.get(name, (0, 0, 0))
        row.update(won=won, lost=lost, pairs=paired)
        metrics[name] = row
    return {"runs": runs, "metrics": metrics}


def print_summary(summary: dict) -> None:
    print("%-52s %32s %32s %9s" % ("metric", "base median [q1, q3]",
                                   "change median [q1, q3]", "won/pairs"))
    for name, row in summary["metrics"].items():
        cells = []
        for side in SIDES:
            s = row.get(side)
            cells.append("-" if s is None else "%.6g [%.6g, %.6g]"
                         % (s["median"], s["q1"], s["q3"]))
        print("%-52s %32s %32s %5d/%-3d"
              % (name, cells[0], cells[1], row["won"], row["pairs"]))
    for side in SIDES:
        r = summary["runs"][side]
        print("%s: %d of %d policy runs failed, %d benchmark runs crashed"
              % (side, r["failed"], r["attempted"], r["crashed"]))


def load_better() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec.get("per_layer", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True,
                        help="a perfbench workload, or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed+i")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = load_better()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab-base-") as base_tree, \
            tempfile.TemporaryDirectory(prefix="ab-pycache-") as pycache:
        unpack(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            result = {}
            for side in order:
                result[side] = bench(trees[side],
                                     os.path.join(pycache, side),
                                     args.workload, seed, args.seconds,
                                     args.trace)
                print("pair %d seed %d %s first: %s %s"
                      % (i + 1, seed, order[0], side,
                         "crashed" if result[side] is None else "done"),
                      file=sys.stderr, flush=True)
            pairs.append((result["base"], result["change"]))
    summary = summarize(pairs, better)
    print_summary(summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
