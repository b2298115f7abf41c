"""Reports pinned across code changes.

c11 reruns the same code twice, so it cannot see a change that alters a
report. Each scenario here compares the CSV it produces, through the
Python API or the CLI, byte for byte with a file under ``tests/pinned/``.
A change that makes one of these fail changes reported behaviour and must
say so; regenerate the file only then.
"""

from pathlib import Path

import pytest

from pagecachesim import (
    CgroupSpec,
    ScenarioConfig,
    WorkloadSpec,
    compare,
    run,
    scenario_isolation,
)
from pagecachesim.cli import main as cli_main

PINNED = Path(__file__).parent / "pinned"
PAGE = 4096
GETSCAN = {"count": 3000, "get_keyspace": 2000, "scan_len_pages": 64,
           "get_fraction": 0.99, "scan_fraction": 0.01}


def run_csv():
    # Cgroup 1 sees no accesses, and the config lists it first, so the
    # rows' id order and the empty per-op ratios are pinned too.
    return run(ScenarioConfig(
        cgroups=[CgroupSpec(1, 16 * PAGE, "lfu"),
                 CgroupSpec(0, 96 * PAGE, "s3fifo", {"small_fraction": 0.2})],
        workload=WorkloadSpec("ycsb-a", {"keyspace": 600, "count": 3000}),
        seed=5, scan_window=64)).to_csv()


def compare_csv():
    config = ScenarioConfig(cgroups=[CgroupSpec(0, 160 * PAGE)],
                            workload=WorkloadSpec("getscan", GETSCAN),
                            seed=11, scan_window=128)
    return compare(config, [
        "default", "fifo", ("mru", {"skip": 4}), "lfu", "s3fifo",
        ("lhd", {"reconfig_interval": 512}),
        ("getscan", {"scan_threads": [100, 101]})]).to_csv()


def isolation_csv():
    config_a = ScenarioConfig(
        cgroups=[CgroupSpec(3, 48 * PAGE, "lfu")],
        workload=WorkloadSpec("ycsb-c", {"keyspace": 800, "count": 4000}),
        seed=2, scan_window=64)
    config_b = ScenarioConfig(
        cgroups=[CgroupSpec(1, 20 * PAGE, "mru", {"skip": 2})],
        workload=WorkloadSpec("filesearch", {"corpus_files": 3,
                                             "file_pages": 10, "passes": 30}),
        seed=2, candidates=16, scan_window=32)
    return scenario_isolation(config_a, config_b).to_csv()


def cli_csv(capsys, argv):
    assert cli_main(argv) == 0
    return capsys.readouterr().out


def cli_run_csv(tmp_path, capsys):
    trace = str(tmp_path / "getscan.csv")
    assert cli_main(["gen-trace", "--seed", "4", "--out", trace,
                     "--workload", "getscan:count=2000,get_keyspace=1500,"
                                   "scan_len_pages=32,get_fraction=0.99,"
                                   "scan_fraction=0.01"]) == 0
    capsys.readouterr()
    return cli_csv(capsys, ["run", "--trace", trace,
                            "--limit-bytes", str(128 * PAGE),
                            "--policy", "getscan", "--scan-window", "64",
                            "--param", "scan_threads=100+101"])


def cli_compare_csv(tmp_path, capsys):
    argv = ["compare", "--workload", "ycsb-c:keyspace=500,count=2500",
            "--limit-bytes", str(64 * PAGE), "--scan-window", "64",
            "--seed", "8"]
    for name in ("default", "fifo", "lfu", "s3fifo", "lhd"):
        argv += ["--policy", name]
    return cli_csv(capsys, argv)


def cli_isolation_csv(tmp_path, capsys):
    return cli_csv(capsys, [
        "isolation", "--seed", "6", "--scan-window", "64",
        "--workload-a", "ycsb-c:keyspace=400,count=2500",
        "--workload-b", "filesearch:corpus_files=2,file_pages=12,passes=20",
        "--limit-bytes-a", str(40 * PAGE), "--limit-bytes-b", str(16 * PAGE)])


@pytest.mark.parametrize("name, producer", [
    ("run", run_csv),
    ("compare", compare_csv),
    ("isolation", isolation_csv),
])
def test_api_report_matches_pinned(name, producer):
    expected = (PINNED / ("%s.csv" % name)).read_text()
    assert producer() == expected


@pytest.mark.parametrize("name, producer", [
    ("cli_run", cli_run_csv),
    ("cli_compare", cli_compare_csv),
    ("cli_isolation", cli_isolation_csv),
])
def test_cli_report_matches_pinned(name, producer, tmp_path, capsys):
    expected = (PINNED / ("%s.csv" % name)).read_text()
    assert producer(tmp_path, capsys) == expected
