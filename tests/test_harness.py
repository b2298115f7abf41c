"""Scenario running, validation, comparison, isolation plumbing, and CLI."""

import gc
import os
import random
import warnings

import pytest

from pagecachesim import (
    CgroupSpec,
    ConfigError,
    FifoPolicy,
    LhdPolicy,
    Op,
    PolicyHooks,
    ReplayError,
    ScenarioConfig,
    Simulator,
    TraceEvent,
    UnknownCgroupError,
    WorkloadSpec,
    build_events,
    compare,
    replay,
    run,
    scenario_isolation,
    write_trace,
)
from pagecachesim.cli import _build_parser, main as cli_main
from pagecachesim.harness import (
    CSV_COLUMNS,
    _check_conservation,
    merge_streams,
)


def small_config(**overrides):
    base = dict(
        cgroups=[CgroupSpec(0, 64 * 4096)],
        workload=WorkloadSpec("ycsb-c", {"keyspace": 100, "count": 2000}),
        seed=13,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestValidation:
    def test_zero_limit_rejected(self):
        config = small_config(cgroups=[CgroupSpec(0, 0)])
        with pytest.raises(ConfigError, match="limit_bytes must be >= 1"):
            run(config)

    def test_unaligned_limit_rejected(self):
        config = small_config(cgroups=[CgroupSpec(0, 4097)])
        with pytest.raises(ConfigError, match="multiple"):
            run(config)

    def test_errors_reported_all_at_once(self):
        config = small_config(
            cgroups=[CgroupSpec(0, 0, "bogus"), CgroupSpec(0, 4096)],
            workload=WorkloadSpec("nope", {}))
        errors = config.validate()
        text = "\n".join(errors)
        assert "limit_bytes" in text
        assert "bogus" in text
        assert "duplicate id" in text
        assert "workload" in text

    def test_workload_is_required(self):
        assert small_config(workload=None).validate() == [
            "a workload is required"]

    def test_unknown_policy_param_caught(self):
        config = small_config(
            cgroups=[CgroupSpec(0, 4096 * 8, "mru", {"skep": 1})])
        with pytest.raises(ConfigError, match="skep"):
            run(config)

    def test_missing_trace_file_caught(self):
        config = small_config(
            workload=WorkloadSpec("trace", {"path": "/does/not/exist.csv"}))
        with pytest.raises(ConfigError):
            run(config)

    def test_trace_validation_and_replay_close_the_file(self, tmp_path):
        trace = tmp_path / "t.csv"
        write_trace(trace, build_events(
            WorkloadSpec("ycsb-c", {"keyspace": 100, "count": 300}), 1))
        config = small_config(workload=WorkloadSpec("trace",
                                                    {"path": str(trace)}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert config.validate() == []
            run(config)
            compare(config, ["default", "fifo", "lfu"])
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    @pytest.mark.parametrize("window, problems", [(0, 1), (2.5, 1), (8, 0)],
                             ids=["0", "2.5", "8"])
    def test_bad_scan_window_is_one_problem(self, window, problems):
        # the window is a policy parameter: its class reports a bad one
        # once, beside the other cgroup's own parameter problem; any int
        # of at least 1 is accepted
        config = small_config(cgroups=[
            CgroupSpec(0, 64 * 4096, "lfu", {"scan_window": window}),
            CgroupSpec(1, 64 * 4096, "mru", {"skip": -1})])
        errors = config.validate()
        assert sum("scan_window" in e for e in errors) == problems
        assert any("skip must be >= 0" in e for e in errors)

    def test_scan_window_is_not_a_scenario_field(self):
        with pytest.raises(TypeError, match="scan_window"):
            small_config(scan_window=64)

    @pytest.mark.parametrize("overrides, name", [
        ({"cgroups": [CgroupSpec(0, "abc")]}, "limit_bytes"),
        ({"cgroups": [CgroupSpec(0, None)]}, "limit_bytes"),
        ({"cgroups": [CgroupSpec(0, 65536.0)]}, "limit_bytes"),
        ({"cgroups": [CgroupSpec(0, 65536, "lfu", {"scan_window": 100.5})]},
         "scan_window"),
        ({"cgroups": [CgroupSpec(0, 65536, "fifo", {"scan_window": "64"})]},
         "scan_window"),
        ({"seed": None}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "x"}, "seed"),
        ({"seed": True}, "seed"),
    ])
    def test_scenario_fields_must_be_ints(self, overrides, name):
        config = small_config(**overrides)
        assert any(name + " must be an int" in e for e in config.validate())
        with pytest.raises(ConfigError, match=name):
            run(config)

    @pytest.mark.parametrize("cgroup_id, message", [
        (1, "workload: cgroup 0 is not configured"),
        ("a", "cgroup 'a': id must be an int, got 'a'"),
        (1.5, "cgroup 1.5: id must be an int, got 1.5"),
        (None, "cgroup None: id must be an int, got None"),
        (-1, "cgroup -1: id must be >= 0"),
    ])
    def test_bad_cgroup_id_caught(self, cgroup_id, message):
        # the generated events go to cgroup 0, which none of these is
        config = small_config(
            cgroups=[CgroupSpec(cgroup_id, 16 * 4096)],
            workload=WorkloadSpec("ycsb-c", {"keyspace": 100, "count": 50}))
        errors = config.validate()
        assert message in errors
        assert "workload: cgroup 0 is not configured" in errors
        with pytest.raises(ConfigError, match="cgroup 0 is not configured"):
            run(config)

    @pytest.mark.parametrize("kind, params", [
        ("ycsb-c", {"keyspace": 100, "count": 50}),
        ("filesearch", {"corpus_files": 2, "file_pages": 4, "passes": 2}),
        ("getscan", {"get_keyspace": 100, "count": 50}),
    ])
    def test_generated_events_need_a_configured_cgroup(self, kind, params):
        workload = WorkloadSpec(kind, dict(params, cgroup=1))
        assert small_config(cgroups=[CgroupSpec(1, 16 * 4096)],
                            workload=workload).validate() == []
        assert small_config(cgroups=[CgroupSpec(2, 16 * 4096)],
                            workload=workload).validate() == [
            "workload: cgroup 1 is not configured"]

    def test_lhd_age_granularity_zero_rejected(self):
        config = small_config(
            cgroups=[CgroupSpec(0, 64 * 4096, "lhd", {"age_granularity": 0})])
        assert any("age_granularity must be >= 1" in e
                   for e in config.validate())
        with pytest.raises(ConfigError, match="age_granularity"):
            run(config)

    @pytest.mark.parametrize("kind, params, message", [
        ("ycsb-c", {"keyspace": 0, "count": 10}, "keyspace must be >= 1"),
        ("ycsb-a", {"keyspace": 100, "count": 10, "theta": -0.5},
         "theta must be >= 0"),
        ("ycsb-c", {"keyspace": 100.5, "count": 10},
         "keyspace must be an int, got 100.5"),
        ("getscan", {"get_keyspace": 0, "count": 10},
         "get_keyspace must be >= 1"),
        ("getscan", {"get_keyspace": 100, "count": 10, "theta": -1.0},
         "theta must be >= 0"),
        ("getscan", {"get_keyspace": 100.5, "count": 10},
         "get_keyspace must be an int, got 100.5"),
    ])
    def test_bad_zipfian_parameters_caught(self, kind, params, message):
        """Caught when the stream is built, before its table is."""
        with pytest.raises((ValueError, TypeError), match=message):
            build_events(WorkloadSpec(kind, params), 0)
        config = small_config(workload=WorkloadSpec(kind, params))
        assert config.validate() == ["workload: " + message]


class TestRun:
    def test_compulsory_misses_only_when_cache_fits(self):
        config = small_config()
        report = run(config)
        (label, metrics), = report.rows
        assert label == "default"
        unique_pages = len({(e.file, e.offset_bytes // 4096)
                            for e in __import__("pagecachesim").build_events(
                                config.workload, config.seed)})
        assert metrics.accesses == 2000
        assert metrics.hit_ratio == 1 - unique_pages / 2000
        assert metrics.evictions_policy == metrics.evictions_fallback == 0

    def test_csv_byte_identical_across_runs(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(small_config()).save(out_a)
        run(small_config()).save(out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        run(small_config()).save(out)
        header, row = out.read_text().strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert row.startswith("default,0,2000,")
        assert "replay_seconds" not in header

    def test_per_op_hit_ratios(self):
        report = run(small_config(
            workload=WorkloadSpec("ycsb-a", {"keyspace": 50, "count": 500})))
        metrics = report.rows[0][1]
        assert metrics.read_hit_ratio is not None
        assert metrics.write_hit_ratio is not None
        assert metrics.get_hit_ratio is None  # YCSB emits reads and writes
        assert metrics.scan_hit_ratio is None

    @pytest.mark.parametrize("policy", ["fifo", "lfu", "s3fifo", "lhd"])
    def test_window_below_the_context_capacity_runs(self, policy):
        # a replay asks for one candidate per round, so a window of 8
        # serves every round without the fallback
        metrics = run(small_config(
            cgroups=[CgroupSpec(0, 16 * 4096, policy, {"scan_window": 8})],
            workload=WorkloadSpec("ycsb-a", {"keyspace": 400,
                                             "count": 3000}))).rows[0][1]
        assert metrics.evictions_policy > 0
        assert metrics.evictions_fallback == 0

    def test_conservation_identities_hold(self):
        report = run(small_config(
            cgroups=[CgroupSpec(0, 16 * 4096, "lfu", {"scan_window": 64})],
            workload=WorkloadSpec("ycsb-c", {"keyspace": 400,
                                             "count": 3000})))
        metrics = report.rows[0][1]
        assert metrics.hits + metrics.misses == metrics.accesses
        assert metrics.evictions_policy > 0


def mixed_events(count=400, seed=3):
    """Events of every op on two cgroups: one-page, page-straddling and
    multi-page accesses, zero-length reads, and file deletions."""
    rng = random.Random(seed)
    events = []
    for seq in range(count):
        op = rng.choice(list(Op))
        cgroup, file = rng.randrange(2), rng.randrange(4)
        if op is Op.DELETE:
            offset = length = 0
        elif op is Op.SCAN:
            offset = rng.randrange(64) * 4096
            length = rng.randrange(1, 9) * 4096
        else:
            offset = rng.randrange(64 * 4096)
            length = rng.choice([0, 1, 100, 4096, 5000])
        events.append(TraceEvent(seq, op, cgroup, file, offset, length,
                                 rng.randrange(3)))
    return events


def reference_replay(sim, events):
    """Replay the straightforward way: every event walks its page_range,
    tallies are keyed by Op, and run_deferred runs after every event."""
    tallies = {}
    for ev in events:
        if ev.op is Op.DELETE:
            sim.remove_file(ev.cgroup, ev.file)
        else:
            t = tallies.setdefault((ev.cgroup, ev.op), [0, 0])
            for page in ev.page_range():
                t[0] += 1
                t[1] += sim.access_page(ev.cgroup, ev.file, page,
                                        ev.op is Op.WRITE, ev.thread)
        sim.run_deferred()
    return tallies


def two_cgroup_sim(make_policy=None):
    sim = Simulator()
    for cgroup in (0, 1):
        sim.add_cgroup(cgroup, 24)
        if make_policy is not None:
            sim.attach_policy(cgroup, make_policy())
    return sim


class DeferredFifo(FifoPolicy):
    """FIFO that takes the deferred slot after every event: it requests
    the slot from ``policy_init`` and again from each ``run_deferred``."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def policy_init(self, cg):
        super().policy_init(cg)
        cg.request_deferred()

    def run_deferred(self):
        self.calls.append(self)
        self.cg.request_deferred()


class UnrequestedFifo(FifoPolicy):
    """FIFO that overrides ``run_deferred`` but never requests the slot."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run_deferred(self):
        self.calls.append(self)


class DictlessFifo(FifoPolicy):
    """FIFO whose ``__dict__`` must not be read: on Python 3.11 reading it
    materializes the instance dict and leaves every later attribute load
    on the object unspecialized."""

    reads = 0

    @property
    def __dict__(self):
        DictlessFifo.reads += 1
        raise AssertionError("the policy's __dict__ was read")


class RequestLog(FifoPolicy):
    """FIFO that records each round's candidate request."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def evict_folios(self, ctx, cg):
        self.requests.append(ctx.nr_candidates_requested)
        super().evict_folios(ctx, cg)


class DuckTypedPolicy:
    """Implements the hooks without deriving from PolicyHooks."""

    name = "duck"

    def __init__(self, calls):
        self.calls = calls

    def policy_init(self, cg):
        self.cg = cg
        cg.request_deferred()

    def evict_folios(self, ctx, cg):
        pass

    def folio_added(self, folio):
        pass

    def folio_accessed(self, folio):
        pass

    def folio_removed(self, folio):
        pass

    def run_deferred(self):
        self.calls.append(self)
        self.cg.request_deferred()


def instance_override(calls):
    """A FIFO whose re-arming hooks are set on the instance."""
    policy = FifoPolicy()
    init = policy.policy_init

    def policy_init(cg):
        init(cg)
        cg.request_deferred()

    def run_deferred():
        calls.append(policy)
        policy.cg.request_deferred()

    policy.policy_init = policy_init
    policy.run_deferred = run_deferred
    return policy


COUNTERS = ("hits", "misses", "evictions_policy", "evictions_fallback",
            "invalid_candidates", "refault_activations", "writebacks",
            "file_removed_folios", "hook_errors")


def vars_of(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


class TestReplay:
    @pytest.mark.parametrize("make_policy", [
        None, FifoPolicy, lambda: LhdPolicy(reconfig_interval=8)])
    def test_tallies_match_reference_replay(self, make_policy):
        events = mixed_events()
        sim = two_cgroup_sim(make_policy)
        tallies = replay(sim, events)
        expected_sim = two_cgroup_sim(make_policy)
        expected = reference_replay(expected_sim, events)
        assert list(tallies.items()) == list(expected.items())
        assert all(type(op) is Op for _, op in tallies)
        for cgroup in (0, 1):
            assert vars_of(sim.stats(cgroup)) == \
                vars_of(expected_sim.stats(cgroup))
        sim.check_invariants()

    def test_tallies_follow_each_change_of_cgroup_or_op(self):
        """Consecutive access events that change only the cgroup, only the
        op, or both, and two events of one key with a delete and a
        multi-page scan between them."""
        read, write, scan, delete = Op.READ, Op.WRITE, Op.SCAN, Op.DELETE
        steps = [(read, 0, 0, 1), (read, 1, 0, 1), (write, 1, 1, 1),
                 (write, 0, 1, 1), (read, 0, 2, 1), (write, 0, 2, 1),
                 (read, 1, 3, 1), (read, 1, 0, 1), (delete, 1, 0, 0),
                 (scan, 0, 4, 3), (read, 1, 0, 1), (delete, 0, 0, 0),
                 (read, 1, 3, 2), (write, 0, 5, 2), (scan, 1, 0, 4)]
        events = [TraceEvent(seq, op, cgroup, 1, page * 4096, pages * 4096,
                             0)
                  for seq, (op, cgroup, page, pages) in enumerate(steps)]
        tallies = replay(two_cgroup_sim(), events)
        expected = reference_replay(two_cgroup_sim(), events)
        assert list(tallies.items()) == list(expected.items())
        assert list(tallies) == [(0, read), (1, read), (1, write),
                                 (0, write), (0, scan), (1, scan)]

    @pytest.mark.parametrize("make_policy", [
        DeferredFifo, instance_override, DuckTypedPolicy])
    def test_deferred_slot_runs_once_per_event(self, make_policy):
        calls = []
        policies = []

        def build():
            policies.append(make_policy(calls))
            return policies[-1]

        events = mixed_events()
        assert {ev.op for ev in events} == set(Op)
        assert any(ev.len_bytes > 4096 for ev in events)
        sim = two_cgroup_sim(build)
        assert sim.deferred_requests == [sim.cgroup(0), sim.cgroup(1)]
        replay(sim, events)
        for policy in policies:
            assert calls.count(policy) == len(events)
        assert sim.stats(0).hook_errors == sim.stats(1).hook_errors == 0

    def test_policy_without_deferred_work_is_not_called(self, monkeypatch):
        # overriding run_deferred without requesting the slot asks for
        # nothing
        called = []
        monkeypatch.setattr(Simulator, "run_deferred",
                            lambda sim: called.append(sim))
        sim = two_cgroup_sim(UnrequestedFifo)
        replay(sim, mixed_events())
        assert called == []
        assert not sim.deferred_requests
        for cgroup in (0, 1):
            assert sim.cgroup(cgroup).policy.calls == []
        assert sim.stats(0).hook_errors == sim.stats(1).hook_errors == 0

    def test_attach_and_replay_never_read_the_policy_dict(self):
        DictlessFifo.reads = 0
        sim = two_cgroup_sim(DictlessFifo)
        replay(sim, mixed_events())
        sim.run_deferred()
        assert DictlessFifo.reads == 0
        assert sim.stats(0).hook_errors == sim.stats(1).hook_errors == 0

    def test_every_eviction_round_asks_for_one_candidate(self):
        # each miss faults in one page and evicts back to the limit, and a
        # hit on another cgroup's folio or a delete adds none, so no round
        # of a replay asks for more
        events = mixed_events(3000)
        assert any(ev.op is Op.DELETE for ev in events)
        assert any(ev.len_bytes > 4096 for ev in events)
        sim = two_cgroup_sim(RequestLog)
        replay(sim, events)
        requests = [n for cgroup in (0, 1)
                    for n in sim.cgroup(cgroup).policy.requests]
        assert set(requests) == {1}
        assert len(requests) == sum(sim.stats(cgroup).evictions_policy
                                    for cgroup in (0, 1)) > 500
        for cgroup in (0, 1):
            assert sim.stats(cgroup).hits > 0
            assert sim.stats(cgroup).evictions_fallback == 0

    def test_failing_event_is_named_by_its_seq(self):
        events = mixed_events(40)
        events[25] = TraceEvent(25, Op.READ, 9, 0, 0, 4096, 0)
        sim = two_cgroup_sim()
        with pytest.raises(ReplayError,
                           match=r"^event seq 25 failed: unknown cgroup 9$"
                           ) as info:
            replay(sim, events)
        assert isinstance(info.value.__cause__, UnknownCgroupError)

    def test_base_class_policy_has_no_deferred_work(self, monkeypatch):
        called = []
        monkeypatch.setattr(Simulator, "run_deferred",
                            lambda sim: called.append(sim))
        sim = two_cgroup_sim(PolicyHooks)
        replay(sim, mixed_events())
        assert called == []
        assert not sim.deferred_requests
        assert sim.stats(0).hook_errors == sim.stats(1).hook_errors == 0


class TestConservationCheck:
    """``_check_conservation`` catches each identity a skewed counter
    breaks."""

    @pytest.fixture
    def replayed(self):
        sim = two_cgroup_sim(FifoPolicy)
        tallies = replay(sim, mixed_events())
        for cgroup in (0, 1):
            _check_conservation(sim, cgroup, tallies)
        return sim, tallies

    def test_skewed_hits_break_the_per_op_tallies(self, replayed):
        # accesses is hits + misses, so a skewed hit count shows as
        # accesses the per-op tallies never replayed
        sim, tallies = replayed
        sim.stats(1).hits += 1
        _check_conservation(sim, 0, tallies)
        with pytest.raises(AssertionError,
                           match="per-op tallies out of sync for cgroup 1"):
            _check_conservation(sim, 1, tallies)

    def test_insertions_minus_removals(self, replayed):
        sim, tallies = replayed
        stats = sim.stats(1)
        stats.misses += 1
        stats.hits -= 1
        with pytest.raises(AssertionError, match="insertions - removals "
                                                 "!= resident for cgroup 1"):
            _check_conservation(sim, 1, tallies)

    def test_per_op_tallies(self, replayed):
        sim, tallies = replayed
        key = next(key for key in tallies if key[0] == 1)
        tallies[key][0] += 1
        with pytest.raises(AssertionError,
                           match="per-op tallies out of sync for cgroup 1"):
            _check_conservation(sim, 1, tallies)


class TestCompare:
    def test_rows_share_accesses_and_keep_order(self):
        report = compare(small_config(cgroups=[CgroupSpec(0, 16 * 4096)]),
                         ["default", ("lfu", {"scan_window": 64}), "fifo"])
        labels = [label for label, _ in report.rows]
        assert labels == ["default", "lfu", "fifo"]
        accesses = {m.accesses for _, m in report.rows}
        assert len(accesses) == 1

    def test_empty_policy_list_rejected(self):
        with pytest.raises(ConfigError):
            compare(small_config(), [])

    def test_policy_params_validated_before_any_run(self):
        with pytest.raises(ConfigError, match="compare policy 'lfu'.*skip"):
            compare(small_config(), ["default", ("lfu", {"skip": 3})])


class TestMerge:
    def test_proportional_merge_preserves_stream_order(self):
        first = [TraceEvent(i, Op.READ, 0, 1, i * 4096, 4096, 0)
                 for i in range(9)]
        second = [TraceEvent(i, Op.READ, 1, 2, i * 4096, 4096, 0)
                  for i in range(3)]
        merged = merge_streams(first, second)
        assert len(merged) == 12
        assert [e.seq for e in merged] == list(range(12))
        a_offsets = [e.offset_bytes for e in merged if e.cgroup == 0]
        b_offsets = [e.offset_bytes for e in merged if e.cgroup == 1]
        assert a_offsets == [e.offset_bytes for e in first]
        assert b_offsets == [e.offset_bytes for e in second]
        # 3:1 interleave, scaled by stream lengths: the stream with the
        # lower emitted fraction goes next, ties favor the first stream
        kinds = "".join("ab"[e.cgroup] for e in merged)
        assert kinds == "abaaabaaabaa"
        for i in range(1, len(merged) + 1):
            a_seen = kinds[:i].count("a")
            b_seen = i - a_seen
            assert abs(a_seen / 9 - b_seen / 3) <= 1 / 3


def isolation_configs(policy_a="lfu", policy_b="mru"):
    config_a = ScenarioConfig(
        cgroups=[CgroupSpec(0, 32 * 4096, policy_a)],
        workload=WorkloadSpec("ycsb-c", {"keyspace": 600, "count": 4000}),
        seed=3)
    config_b = ScenarioConfig(
        cgroups=[CgroupSpec(1, 16 * 4096, policy_b)],
        workload=WorkloadSpec("filesearch",
                              {"corpus_files": 2, "file_pages": 12,
                               "passes": 40}),
        seed=3)
    return config_a, config_b


class TestIsolation:
    def test_runs_four_scenarios_with_per_cgroup_rows(self):
        report = scenario_isolation(*isolation_configs())
        assert set(report.scenarios) == {"both-default", "both-lfu",
                                         "both-mru", "tailored"}
        for per_cgroup in report.scenarios.values():
            assert set(per_cgroup) == {0, 1}
        assert len(report.rows) == 8

    def test_requires_two_single_cgroup_configs(self):
        config_a, config_b = isolation_configs()
        config_b.cgroups = []
        with pytest.raises(ConfigError):
            scenario_isolation(config_a, config_b)
        config_a2, config_b2 = isolation_configs()
        config_b2.cgroups = list(config_a2.cgroups)
        with pytest.raises(ConfigError):
            scenario_isolation(config_a2, config_b2)

    def test_needs_tailored_policies(self):
        config_a, config_b = isolation_configs(policy_a="default")
        with pytest.raises(ConfigError):
            scenario_isolation(config_a, config_b)

    def test_tenants_may_use_different_windows(self):
        # each tenant's policy is built with its own params
        config_a, config_b = isolation_configs()
        config_a.cgroups[0].params = {"scan_window": 8}
        config_b.cgroups[0].params = {"skip": 4, "scan_window": 16}
        report = scenario_isolation(config_a, config_b)
        assert len(report.rows) == 8
        for metrics in report.scenarios["tailored"].values():
            assert metrics.evictions_policy > 0
            assert metrics.evictions_fallback == 0

    def test_one_policy_with_two_param_sets_rejected(self):
        # scenarios are named by policy, so one name cannot stand for both
        config_a, config_b = isolation_configs(policy_a="mru")
        config_a.cgroups[0].params = {"skip": 0}
        config_b.cgroups[0].params = {"skip": 64}
        with pytest.raises(ConfigError, match="params"):
            scenario_isolation(config_a, config_b)

    def test_one_policy_with_one_param_set_runs_once(self):
        config_a, config_b = isolation_configs(policy_a="mru")
        for config in (config_a, config_b):
            config.cgroups[0].params = {"skip": 4}
        report = scenario_isolation(config_a, config_b)
        assert set(report.scenarios) == {"both-default", "both-mru",
                                         "tailored"}
        assert len(report.rows) == 6

    def test_tenants_do_not_share_pages(self):
        report = scenario_isolation(*isolation_configs())
        for per_cgroup in report.scenarios.values():
            for metrics in per_cgroup.values():
                assert metrics.accesses > 0

    def test_tenant_b_cannot_hit_a_page_of_tenant_a(self, tmp_path):
        """Tenant A reads file 2**32 and tenant B file 0, each page 0 four
        times: B's file ids start past A's largest, so each tenant faults
        its own page once and hits it three times."""
        def trace_config(cgroup, policy, file):
            path = tmp_path / ("%d.csv" % cgroup)
            write_trace(path, [TraceEvent(seq, Op.READ, 0, file, 0, 4096, 0)
                               for seq in range(4)])
            return ScenarioConfig(
                cgroups=[CgroupSpec(cgroup, 8 * 4096, policy)],
                workload=WorkloadSpec("trace", {"path": str(path)}))

        report = scenario_isolation(trace_config(0, "lfu", 1 << 32),
                                    trace_config(1, "mru", 0))
        for per_cgroup in report.scenarios.values():
            for metrics in per_cgroup.values():
                assert (metrics.misses, metrics.hits) == (1, 3)


class TestCli:
    def test_run_subcommand(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        rc = cli_main(["run", "--workload",
                       "ycsb-c:keyspace=100,count=1000",
                       "--limit-bytes", str(64 * 4096),
                       "--policy", "lfu", "--param", "scan_window=64",
                       "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(CSV_COLUMNS[:3]))
        assert out.exists()

    def test_gen_trace_then_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        rc = cli_main(["gen-trace", "--workload",
                       "filesearch:corpus_files=2,file_pages=4,passes=2",
                       "--out", str(trace)])
        assert rc == 0
        rc = cli_main(["run", "--trace", str(trace),
                       "--limit-bytes", str(16 * 4096)])
        assert rc == 0
        assert "default,0,16," in capsys.readouterr().out

    def test_compare_subcommand(self, capsys):
        rc = cli_main(["compare", "--workload",
                       "ycsb-c:keyspace=100,count=500",
                       "--limit-bytes", str(8 * 4096),
                       "--param", "scan_window=64",
                       "--policy", "default", "--policy", "fifo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "default,0," in out and "fifo,0," in out

    def test_isolation_subcommand(self, capsys):
        rc = cli_main([
            "isolation",
            "--workload-a", "ycsb-c:keyspace=200,count=1500",
            "--workload-b", "filesearch:corpus_files=2,file_pages=8,passes=10",
            "--limit-bytes-a", str(24 * 4096),
            "--limit-bytes-b", str(8 * 4096),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tailored/lfu,0," in out
        assert "tailored/mru,1," in out

    def test_getscan_params_via_cli(self, capsys):
        rc = cli_main(["run", "--workload",
                       "getscan:count=2000,get_keyspace=400,"
                       "scan_len_pages=16,scan_threads=8+9",
                       "--limit-bytes", str(32 * 4096),
                       "--policy", "getscan", "--param", "scan_window=64",
                       "--param", "scan_threads=8+9"])
        assert rc == 0
        assert "getscan,0," in capsys.readouterr().out

    @pytest.mark.parametrize("workload_threads, param_threads", [
        ("9", "8+9"), ("8+9", "9")])
    def test_single_scan_thread_via_cli(self, capsys, tmp_path,
                                        workload_threads, param_threads):
        # without "+" a value parses as one int: it means that one thread
        def ids(value):
            return [int(t) for t in value.split("+")]

        expect = run(ScenarioConfig(
            cgroups=[CgroupSpec(0, 32 * 4096, "getscan",
                                {"scan_threads": ids(param_threads),
                                 "scan_window": 64})],
            workload=WorkloadSpec("getscan", {
                "count": 2000, "get_keyspace": 400, "scan_len_pages": 16,
                "scan_threads": ids(workload_threads)}))).to_csv()
        out = tmp_path / "report.csv"
        rc = cli_main(["run", "--workload",
                       "getscan:count=2000,get_keyspace=400,"
                       "scan_len_pages=16,scan_threads=" + workload_threads,
                       "--limit-bytes", str(32 * 4096),
                       "--policy", "getscan", "--param", "scan_window=64",
                       "--param", "scan_threads=" + param_threads,
                       "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert out.read_text() == expect

    def test_scan_window_is_a_policy_param(self, capsys):
        argv = ["run", "--workload", "ycsb-c:keyspace=100,count=100",
                "--limit-bytes", str(8 * 4096)]
        with pytest.raises(SystemExit) as info:
            cli_main(argv + ["--scan-window", "64"])
        assert info.value.code == 2
        capsys.readouterr()
        # the default policy takes no parameters
        assert cli_main(argv + ["--param", "scan_window=64"]) == 1
        assert "policy 'default' takes no parameters, got scan_window" in \
            capsys.readouterr().err
        # a policy's class rejects a keyword it does not take
        assert cli_main(argv + ["--policy", "fifo", "--param", "skip=3"]) == 1
        assert "unexpected keyword argument 'skip'" in capsys.readouterr().err

    def test_validation_error_exits_nonzero(self, capsys):
        rc = cli_main(["run", "--workload", "ycsb-c:keyspace=100,count=100",
                       "--limit-bytes", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("keyspace", ["0", "100.5"])
    def test_bad_uniform_keyspace_exits_nonzero(self, capsys, keyspace):
        rc = cli_main(["run", "--workload",
                       "uniform:keyspace=%s,count=10" % keyspace,
                       "--limit-bytes", "65536"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, pair", [
        (["--workload", "ycsb-c:keyspace=100,count"], "count"),
        (["--workload", "ycsb-c:keyspace=100", "--param", "=3"], "=3"),
    ])
    def test_bare_key_exits_nonzero(self, capsys, argv, pair):
        rc = cli_main(["run", "--limit-bytes", "65536"] + argv)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: expected key=value, got %r\n" % pair)

    def test_gen_trace_bad_workload_exits_nonzero(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        rc = cli_main(["gen-trace", "--workload", "ycsb-c:keyspace=0,count=5",
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: workload: keyspace must be >= 1\n")
        assert not out.exists()

    def test_lhd_zero_age_granularity_exits_nonzero(self, capsys):
        rc = cli_main(["run", "--workload", "ycsb-c:keyspace=100,count=100",
                       "--limit-bytes", str(16 * 4096), "--policy", "lhd",
                       "--param", "age_granularity=0"])
        assert rc == 1
        assert "age_granularity must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workload, policy, name", [
        ("ycsb-c:keyspace=100,count=10.5", [], "count"),
        ("filesearch:corpus_files=2,file_pages=4,passes=2.5", [], "passes"),
        ("getscan:count=50,get_keyspace=100,get_threads=", [], "get_threads"),
        ("ycsb-c:keyspace=100,count=10,keys_per_file=0", [], "keys_per_file"),
        ("ycsb-c:keyspace=100,count=100",
         ["--policy", "mru", "--param", "skip=1.5"], "skip"),
        ("ycsb-c:keyspace=100,count=100",
         ["--policy", "s3fifo", "--param", "ghost_capacity=abc"],
         "ghost_capacity"),
        ("ycsb-c:keyspace=100,count=100",
         ["--policy", "getscan", "--param", "scan_threads=xy"],
         "scan_threads"),
        ("getscan:count=50,get_keyspace=100,scan_threads=a+b", [],
         "scan_threads"),
        ("ycsb-c:keyspace=100,count=10,value_size=0", [], "value_size"),
        ("filesearch:corpus_files=2,file_pages=4,passes=2,threads=1.5", [],
         "threads"),
        ("ycsb-c:keyspace=100,count=50,seed=3", [], "seed"),
        ("trace:path=t.csv,seed=3", [], "seed"),
        ("ycsb-c:keyspace=100,count=100,theta=x", [], "theta"),
        ("ycsb-c:keyspace=100,count=100",
         ["--policy", "s3fifo", "--param", "small_fraction=abc"],
         "small_fraction"),
    ])
    def test_bad_parameter_exits_with_its_name(self, capsys, workload, policy,
                                               name):
        """A value of the wrong type or range is an ``error:`` naming the
        parameter, never a traceback or a run whose policy cannot work."""
        rc = cli_main(["run", "--workload", workload,
                       "--limit-bytes", "65536"] + policy)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert name in err

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "ycsb-c:keyspace=100,count=500",
         "--limit-bytes", str(8 * 4096), "--policy", "lfu"],
        ["compare", "--workload", "ycsb-c:keyspace=100,count=500",
         "--limit-bytes", str(8 * 4096), "--policy", "default",
         "--policy", "fifo"],
        ["isolation", "--workload-a", "ycsb-c:keyspace=200,count=500",
         "--workload-b", "filesearch:corpus_files=2,file_pages=8,passes=3",
         "--limit-bytes-a", str(24 * 4096),
         "--limit-bytes-b", str(8 * 4096)],
    ], ids=["run", "compare", "isolation"])
    def test_out_file_holds_the_stdout_report(self, capsys, tmp_path, argv):
        out = tmp_path / "report.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    REPLAY_OPTIONS = {"-h", "--help", "--seed", "--out"}

    @pytest.mark.parametrize("command, options", [
        ("run", REPLAY_OPTIONS | {"--workload", "--trace", "--limit-bytes",
                                  "--policy", "--param"}),
        ("compare", REPLAY_OPTIONS | {"--workload", "--trace",
                                      "--limit-bytes", "--policy",
                                      "--param"}),
        ("isolation", REPLAY_OPTIONS | {"--workload-a", "--workload-b",
                                        "--policy-a", "--policy-b",
                                        "--limit-bytes-a",
                                        "--limit-bytes-b"}),
        ("gen-trace", {"-h", "--help", "--workload", "--seed", "--out"}),
    ])
    def test_subcommand_options_are_pinned(self, command, options):
        """Each subcommand takes exactly these options; a new knob must
        change this list."""
        sub = next(a for a in _build_parser()._actions
                   if a.dest == "command")
        assert {opt for action in sub.choices[command]._actions
                for opt in action.option_strings} == options

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("source", [
        [],
        ["--workload", "ycsb-c:keyspace=100,count=500",
         "--trace", "missing.csv"],
    ], ids=["neither", "both"])
    def test_workload_and_trace_are_one_required_choice(self, capsys,
                                                        command, source):
        argv = [command, *source, "--limit-bytes", str(8 * 4096),
                "--policy", "fifo"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--workload" in err and "--trace" in err

    def test_trace_path_is_never_a_file_descriptor(self, capsys):
        """``trace:path=0`` is an error; standard input stays open, unread."""
        header = b"seq,op,file,offset,len,thread,cgroup\n"
        saved = os.dup(0)
        read_end, write_end = os.pipe()
        os.write(write_end, header)
        os.close(write_end)
        os.dup2(read_end, 0)
        os.close(read_end)
        try:
            rc = cli_main(["run", "--workload", "trace:path=0",
                           "--limit-bytes", "65536"])
            unread = os.read(0, 100)
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "path" in err
        assert unread == header

    def test_bad_trace_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("seq,op,file,offset,len,thread,cgroup\n1,get,x,0,1,0,0\n")
        rc = cli_main(["run", "--trace", str(bad),
                       "--limit-bytes", str(16 * 4096)])
        assert rc == 1
