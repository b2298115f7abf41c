"""The traced run's wrappers must be transparent, and its span accounting
must add up.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pagecachesim as pkg  # noqa: E402
from pagecachesim import harness  # noqa: E402

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def getscan_trace(tmp_path_factory):
    """A short trace of the benchmark's getscan stream: gets from four
    threads and two 512-page scans."""
    path = tmp_path_factory.mktemp("trace") / "getscan.csv"
    pkg.write_trace(path, bench.getscan_stream(pkg, 4000, seed=3,
                                               roadmap=False))
    return pkg.WorkloadSpec("trace", {"path": str(path)})


def workloads(trace_spec):
    """(spec, cache pages): small caches, so every policy evicts often."""
    return {
        "ycsb": (pkg.WorkloadSpec("ycsb-c", {"keyspace": 4096,
                                             "count": 3000}), 64),
        "filesearch": (pkg.WorkloadSpec("filesearch", {"corpus_files": 4,
                                                       "file_pages": 50,
                                                       "passes": 3}), 150),
        "getscan-trace": (trace_spec, 256),
    }


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", ["ycsb", "filesearch", "getscan-trace"])
def test_wrappers_are_transparent(policy, workload, getscan_trace):
    spec, cache = workloads(getscan_trace)[workload]
    config = bench.scenario(pkg, spec, cache, policy, seed=5)
    plain = pkg.run(config).to_csv()

    tracer = Tracer()
    root = tracer.wrap("harness.run", pkg.run)
    saved = (harness.replay, harness.build_events, harness.collect_metrics,
             pkg.Simulator.access_page, pkg.ScenarioConfig.validate)
    with tracer.installed(harness, pkg.Simulator, pkg.ScenarioConfig):
        traced = root(config).to_csv()
    assert (harness.replay, harness.build_events, harness.collect_metrics,
            pkg.Simulator.access_page, pkg.ScenarioConfig.validate) == saved

    assert traced == plain
    assert tracer.calls("core.access") == pkg.run(config).rows[0][1].accesses
    for sim in tracer.sims:
        sim.check_invariants()
    if policy != "default":
        assert tracer.calls("policies.evict_folios") > 0
        assert tracer.calls("policies.callback") > 0


@pytest.mark.parametrize("policy", ["default", "lfu", "s3fifo"])
def test_self_times_sum_to_the_parent_span(policy, getscan_trace):
    spec, cache = workloads(getscan_trace)["getscan-trace"]
    config = bench.scenario(pkg, spec, cache, policy, seed=5)
    tracer = Tracer()
    root = tracer.wrap("harness.run", pkg.run)
    with tracer.installed(harness, pkg.Simulator, pkg.ScenarioConfig):
        root(config)
    self_sum = sum(acc[0] for acc in tracer.spans.values())
    assert self_sum == pytest.approx(tracer.total("harness.run"),
                                     rel=1e-9, abs=1e-12)
    assert all(acc[0] >= 0 for acc in tracer.spans.values())
    assert tracer.calls("harness.run") == 1
    # validate builds the event source once, run builds it again
    assert tracer.calls("workloads.build") == 2


@pytest.mark.parametrize("trace", [False, True])
def test_a_raising_hook_fails_the_run(trace, monkeypatch):
    """The simulator swallows a hook's exception and falls back to its
    default eviction; the benchmark must still count the run as failed."""
    run = bench.Run(pkg, "filesearch-loop", seed=1, size=1, roadmap=False,
                    tmpdir=None)
    assert run.plain("lfu") is not None and not run.failures

    def broken(self, ctx, cg):
        raise RuntimeError("broken evict_folios")

    monkeypatch.setattr(pkg.policies.LfuPolicy, "evict_folios", broken)
    if trace:
        tracer = Tracer()
        run.traced("lfu", tracer, tracer.wrap("harness.run", pkg.run))
    else:
        assert run.plain("lfu") is None
    assert len(run.failures) == 1
    assert "policy hook errors" in run.failures[0]
