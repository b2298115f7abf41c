"""The benchmark matrix's report rows, pinned.

The benchmark bounds each ``miss_ratio.*`` loosely, so a change of
behaviour at bench scale could pass it. This test builds the three
workloads of ``BENCHMARK.json`` at bench size with seed 1, replays each
under all seven policy settings, and compares the 21 report rows byte for
byte with ``tests/pinned/bench_rows.csv``. It imports the benchmark's own
workload and scenario builders and changes nothing under ``perfbench/``.
A change that makes it fail changes reported behaviour and must say so;
regenerate the file only then, in a commit of its own.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import pagecachesim as pkg  # noqa: E402
from pagecachesim.harness import CSV_COLUMNS  # noqa: E402

import run as bench  # noqa: E402

PINNED = Path(__file__).parent / "pinned" / "bench_rows.csv"
SEED = 1


def bench_rows(tmpdir) -> str:
    """The matrix's rows, each prefixed by its workload, under a header."""
    lines = ["workload," + ",".join(CSV_COLUMNS)]
    for workload, (cache_pages, size, _) in bench.WORKLOADS.items():
        spec, _ = bench.make_workload(pkg, workload, SEED, size, False,
                                      tmpdir)
        for policy in bench.POLICIES:
            report = pkg.run(bench.scenario(pkg, spec, cache_pages, policy,
                                            SEED))
            lines.append("%s,%s" % (workload, bench.csv_row(report)))
    return "\n".join(lines) + "\n"


def test_bench_rows_are_pinned(tmp_path):
    assert bench_rows(os.fspath(tmp_path)) == PINNED.read_text()
