"""tools/ab_cell.py, the in-process base/change timing of one bench
cell."""

import os
import re
import subprocess
import sys

import pytest

from conftest import load_tool

ab_cell = load_tool("ab_cell")


class Report:
    def __init__(self, csv):
        self.csv = csv

    def to_csv(self):
        return self.csv


def test_sides_alternate_which_runs_first():
    order = []
    runs = {side: (lambda side=side: order.append(side) or Report("r"))
            for side in ab_cell.SIDES}
    times, reports = ab_cell.time_pairs(runs, 3)
    assert order == ["base", "change", "change", "base", "base", "change"]
    assert [len(times[side]) for side in ab_cell.SIDES] == [3, 3]
    assert reports == {"base": "r", "change": "r"}


def test_a_report_that_changes_between_runs_is_an_error():
    csvs = iter(["a", "a", "a", "b"])
    runs = {side: lambda: Report(next(csvs)) for side in ab_cell.SIDES}
    with pytest.raises(AssertionError, match="report changed"):
        ab_cell.time_pairs(runs, 2)


def test_summary_gives_the_median_ratio_and_the_pairs_won():
    lines = ab_cell.summary({"base": [1.0, 2.0, 4.0],
                             "change": [0.5, 2.0, 3.0]})
    assert lines[0] == "base   median 2.000000 s [1.500000, 3.000000]"
    assert lines[2] == "median change/base time ratio: 0.7500"
    assert lines[3] == "pairs the change ran faster: 2 of 3"


def test_a_a_run_prints_its_summary():
    proc = subprocess.run(
        [sys.executable, os.path.join(ab_cell.HERE, "ab_cell.py"), "--base",
         "HEAD", "--workload", "ycsb-c-zipf", "--policy", "lhd", "--pairs",
         "3", "--size", "300"],
        cwd=ab_cell.ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
        check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == ("lhd x ycsb-c-zipf, seed 1, size 300: 300 pages, "
                        "512-page cache, base HEAD, 3 pairs")
    assert re.fullmatch(r"base   median \d+\.\d{6} s \[\d+\.\d{6}, "
                        r"\d+\.\d{6}\]", lines[1])
    assert lines[2].startswith("change median ")
    assert re.fullmatch(r"median change/base time ratio: \d+\.\d{4}",
                        lines[3])
    assert re.fullmatch(r"pairs the change ran faster: [0-3] of 3", lines[4])
    assert len(lines) == 5
