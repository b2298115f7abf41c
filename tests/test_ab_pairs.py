"""The summary of tools/ab_pairs.py, the alternating-pairs benchmark
runner."""

import json
import os
import subprocess

import pytest

from conftest import load_tool

ab_pairs = load_tool("ab_pairs")

BETTER = {"pages_per_s.lfu": "higher", "setup_s": "lower"}


def result(pages, setup, attempted=7, failed=0):
    return {"attempted": attempted, "failed": failed, "metrics": {
        "ycsb-c-zipf:pages_per_s.lfu": {"value": pages, "unit": "1/s"},
        "ycsb-c-zipf:setup_s": {"value": setup, "unit": "s"}}}


def test_wins_follow_each_metrics_direction():
    pairs = [(result(10, 2.0), result(12, 1.0)),
             (result(11, 2.0), result(10, 3.0)),
             (result(12, 2.0), result(12, 2.0))]   # a tie: neither side
    metrics = ab_pairs.summarize(pairs, BETTER)["metrics"]
    lfu = metrics["ycsb-c-zipf:pages_per_s.lfu"]
    assert (lfu["won"], lfu["lost"], lfu["pairs"]) == (1, 1, 3)
    setup = metrics["ycsb-c-zipf:setup_s"]
    assert (setup["won"], setup["lost"], setup["pairs"]) == (1, 1, 3)


def test_medians_and_quartiles_per_side():
    pairs = [(result(v, 1.0), result(2 * v, 1.0)) for v in (1, 2, 3, 4, 5)]
    lfu = ab_pairs.summarize(pairs, BETTER)["metrics"][
        "ycsb-c-zipf:pages_per_s.lfu"]
    assert lfu["base"] == {"median": 3, "q1": 2, "q3": 4, "n": 5}
    assert lfu["change"] == {"median": 6, "q1": 4, "q3": 8, "n": 5}
    assert lfu["won"] == 5


def test_single_pair_quartiles_are_the_value():
    lfu = ab_pairs.summarize([(result(7, 1.0), result(9, 1.0))], BETTER)[
        "metrics"]["ycsb-c-zipf:pages_per_s.lfu"]
    assert lfu["base"] == {"median": 7, "q1": 7, "q3": 7, "n": 1}


def test_failed_and_crashed_runs_are_counted_per_side():
    pairs = [(result(10, 1.0, failed=1), result(12, 1.0)),
             (None, result(12, 1.0, attempted=5, failed=2))]
    summary = ab_pairs.summarize(pairs, BETTER)
    assert summary["runs"] == {
        "base": {"attempted": 7, "failed": 1, "crashed": 1},
        "change": {"attempted": 12, "failed": 2, "crashed": 0}}
    lfu = summary["metrics"]["ycsb-c-zipf:pages_per_s.lfu"]
    # the crashed pair adds the change's value but no comparison
    assert lfu["pairs"] == 1 and lfu["change"]["n"] == 2


@pytest.mark.parametrize("name", ["pages_per_s.default", "miss_ratio.lfu",
                                  "setup_s", "peak_rss_mib"])
def test_directions_come_from_the_benchmark_spec(name):
    assert name in ab_pairs.load_better()


def test_each_side_compiles_under_its_own_fresh_pycache(monkeypatch,
                                                         capsys):
    """Neither side may load bytecode that an earlier run, or the other
    side, left behind."""
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/inherited")
    monkeypatch.setattr(ab_pairs, "unpack", lambda ref, dest: None)
    prefixes = {}

    def fake_run(cmd, cwd, env, **kwargs):
        side = "change" if cwd == ab_pairs.ROOT else "base"
        prefix = env["PYTHONPYCACHEPREFIX"]
        if side not in prefixes:
            # fresh: nothing compiled there yet
            assert not os.path.exists(prefix) or not os.listdir(prefix)
        prefixes.setdefault(side, set()).add(prefix)
        line = json.dumps({"attempted": 7, "failed": 0, "metrics": {
            "pages_per_s.lfu": {"value": 1.0, "unit": "1/s"}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    assert ab_pairs.main(["--base", "HEAD", "--pairs", "2", "--workload",
                          "ycsb-c-zipf", "--seed", "1", "--seconds",
                          "1"]) == 0
    capsys.readouterr()
    base, change = prefixes["base"], prefixes["change"]
    # one prefix per side for the whole session, neither inherited
    assert len(base) == len(change) == 1 and base != change
    assert "/inherited" not in base | change
