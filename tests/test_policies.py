"""Behavior of the six shipped policies, exercised both through direct
eviction rounds and through real simulator replay."""

import random

import pytest

from pagecachesim import (
    EvictionContext,
    FifoPolicy,
    GetScanPolicy,
    LfuPolicy,
    LhdPolicy,
    MruPolicy,
    S3FifoPolicy,
    make_policy,
)
from conftest import make_sim, random_accesses


def insert_pages(sim, n, file=1, cgroup=0, thread=0):
    for page in range(n):
        sim.access_page(cgroup, file, page, thread=thread)


def ask_candidates(policy, k):
    """Run one eviction round directly and return proposed folio ids."""
    ctx = EvictionContext(k)
    policy.evict_folios(ctx, policy.cg)
    return ctx.candidates


def fid_at(sim, file, page):
    return sim.find_folio(file, page).id


class TestFifo:
    def test_evicts_in_insertion_order(self):
        policy = FifoPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 3)
        assert ask_candidates(policy, 1) == [fid_at(sim, 1, 0)]

    def test_access_does_not_reorder(self):
        policy = FifoPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 3)
        sim.access_page(0, 1, 0)
        assert ask_candidates(policy, 1) == [fid_at(sim, 1, 0)]

    def test_drains_in_insertion_order(self):
        policy = FifoPolicy()
        sim = make_sim(limit_pages=4, policy=policy, record_evictions=True)
        insert_pages(sim, 8)
        assert [off for _, _, off in sim.eviction_log] == [0, 1, 2, 3]


class TestMru:
    def test_most_recent_first_with_zero_skip(self):
        policy = MruPolicy(skip=0)
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 3)  # list head = page 2
        assert ask_candidates(policy, 1) == [fid_at(sim, 1, 2)]

    def test_access_moves_to_head(self):
        policy = MruPolicy(skip=0)
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 3)
        sim.access_page(0, 1, 0)  # list = [0, 2, 1]
        assert ask_candidates(policy, 1) == [fid_at(sim, 1, 0)]

    def test_skip_32_evicts_33rd_from_head(self):
        policy = MruPolicy()  # default skip = 32
        sim = make_sim(limit_pages=39, policy=policy, record_evictions=True)
        insert_pages(sim, 40)
        assert sim.eviction_log == [(0, 1, 40 - 32 - 1)]

    def test_pure_insert_workload_is_lifo(self):
        policy = MruPolicy(skip=0)
        sim = make_sim(limit_pages=3, policy=policy, record_evictions=True)
        insert_pages(sim, 8)
        # once full, every insertion evicts the newest resident page,
        # which is the page inserted just before the faulting one
        assert [off for _, _, off in sim.eviction_log] == [3, 4, 5, 6, 7]

    def test_rejects_negative_skip(self):
        with pytest.raises(ValueError):
            MruPolicy(skip=-1)


class TestLfu:
    def test_least_frequent_of_batch(self):
        policy = LfuPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 3)
        for _ in range(4):
            sim.access_page(0, 1, 1)  # freqs now a:1 b:5 c:1
        got = ask_candidates(policy, 2)
        assert set(got) == {fid_at(sim, 1, 0), fid_at(sim, 1, 2)}

    def test_equal_frequencies_take_head_order(self):
        policy = LfuPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 4)
        got = ask_candidates(policy, 3)
        assert got == [fid_at(sim, 1, p) for p in (0, 1, 2)]

    def test_frequency_starts_at_one_and_counts_accesses(self):
        policy = LfuPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 1)
        fid = fid_at(sim, 1, 0)
        assert policy.freq[fid] == 1
        sim.access_page(0, 1, 0)
        assert policy.freq[fid] == 2

    def test_metadata_dropped_on_eviction(self):
        policy = LfuPolicy()
        sim = make_sim(limit_pages=2, policy=policy)
        insert_pages(sim, 3)
        assert len(policy.freq) == 2

    def test_candidates_match_min_k_oracle_on_random_traces(self):
        rng = random.Random(2)
        for _ in range(20):
            policy = LfuPolicy(scan_window=64)
            sim = make_sim(limit_pages=512, policy=policy)
            n = rng.randrange(4, 60)
            insert_pages(sim, n)
            for _ in range(200):
                sim.access_page(0, 1, rng.randrange(n))
            k = rng.randrange(1, 9)
            members = policy.cg.list_members(policy.queue)[:64]
            expect = [fid for _, _, fid in
                      sorted((policy.freq[f], i, f)
                             for i, f in enumerate(members))][:k]
            assert ask_candidates(policy, k) == expect


class TestS3Fifo:
    def test_new_folios_enter_small_queue(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 3)
        assert policy.cg.list_length(policy.small) == 3
        assert policy.cg.list_length(policy.main) == 0

    def test_admission_frequency_is_zero(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 1)
        assert policy.freq[fid_at(sim, 1, 0)] == 0

    def test_one_hit_wonder_proposed_from_small(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=32, policy=policy)
        insert_pages(sim, 10)
        wonder = fid_at(sim, 1, 0)
        got = ask_candidates(policy, 1)
        assert got == [wonder]
        # rotated to the small tail so it is not reconsidered this round
        assert policy.cg.list_members(policy.small)[-1] == wonder

    def test_frequent_small_folio_promoted_not_evicted(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=32, policy=policy)
        insert_pages(sim, 10)
        sim.access_page(0, 1, 0)
        sim.access_page(0, 1, 0)  # freq 2 > 1
        hot = fid_at(sim, 1, 0)
        got = ask_candidates(policy, 1)
        assert hot not in got
        assert policy.cg.list_members(policy.main)[-1] == hot

    def test_ghost_readmission_goes_to_main(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=2, policy=policy)
        insert_pages(sim, 3)           # page 0 evicted, leaves a ghost entry
        assert (1, 0) in policy.ghost
        sim.access_page(0, 1, 0)       # refetched
        assert (1, 0) not in policy.ghost
        assert fid_at(sim, 1, 0) in policy.cg.list_members(policy.main)

    def test_frequency_capped_at_three(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 1)
        for _ in range(10):
            sim.access_page(0, 1, 0)
        assert policy.freq[fid_at(sim, 1, 0)] == 3

    def test_main_scan_decrements_and_rotates(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=64, policy=policy)
        insert_pages(sim, 10)
        for page in range(10):
            sim.access_page(0, 1, page)
            sim.access_page(0, 1, page)
        # drain the small queue into main via eviction rounds
        while policy.cg.list_length(policy.small):
            ask_candidates(policy, 32)
        assert policy.cg.list_length(policy.main) == 10
        before = {f: policy.freq[f]
                  for f in policy.cg.list_members(policy.main)}
        got = ask_candidates(policy, 1)
        assert got  # threshold search always finds a victim
        assert all(policy.freq[f] <= before[f] for f in before)

    def test_ghost_bounded_by_capacity(self):
        policy = S3FifoPolicy(ghost_capacity=4)
        sim = make_sim(limit_pages=2, policy=policy)
        insert_pages(sim, 40)
        assert len(policy.ghost) <= 4

    def test_file_removal_leaves_no_ghost(self):
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=16, policy=policy)
        insert_pages(sim, 2)
        sim.remove_file(0, 1)
        assert not policy.ghost

    def test_replay_keeps_invariants(self):
        rng = random.Random(9)
        policy = S3FifoPolicy()
        sim = make_sim(limit_pages=24, policy=policy)
        for _ in range(3000):
            sim.access_page(0, 1, rng.randrange(120))
        assert all(0 <= f <= 3 for f in policy.freq.values())
        assert len(policy.ghost) <= 24
        assert sim.resident_pages(0) <= 24
        sim.check_invariants()


class TestLhd:
    def make(self, limit=256, **kwargs):
        policy = LhdPolicy(**kwargs)
        sim = make_sim(limit_pages=limit, policy=policy)
        return policy, sim

    def test_density_formula_single_class(self):
        policy, _ = self.make(age_granularity=1)
        policy.hits[0][0] = policy.SCALE
        policy.evictions[0][10] = policy.SCALE
        policy.reconfigure()
        density = policy.hit_density[0]
        # decay cancels in the ratio: d(0) = SCALE // 12 exactly
        assert density[0] == policy.SCALE // 12 == 87381
        assert density[10] == 0
        assert density[0] > density[10]

    def test_zero_statistics_evict_in_head_order(self):
        policy, sim = self.make()
        insert_pages(sim, 5)
        got = ask_candidates(policy, 2)
        assert got == [fid_at(sim, 1, 0), fid_at(sim, 1, 1)]

    def test_decay_only_reconfiguration_scales_to_ninety_percent(self):
        policy, _ = self.make()
        rng = random.Random(4)
        cells = {}
        for _ in range(200):
            c = rng.randrange(policy.NUM_CLASSES)
            a = rng.randrange(policy.MAX_AGE)
            value = rng.randrange(1, 1 << 40)
            policy.hits[c][a] = value
            policy.evictions[c][a] = value // 3
            cells[(c, a)] = value
        policy.reconfigure()
        for (c, a), value in cells.items():
            assert abs(policy.hits[c][a] - 0.9 * value) <= 1
            assert abs(policy.evictions[c][a] - 0.9 * (value // 3)) <= 1

    def test_densities_nonnegative_after_random_traffic(self):
        policy, sim = self.make(limit=64, reconfig_interval=64)
        rng = random.Random(8)
        for _ in range(2000):
            sim.access_page(0, 1, rng.randrange(200))
            sim.run_deferred()
        assert all(d >= 0 for row in policy.hit_density for d in row)

    def test_reconfiguration_leaves_folio_metadata_alone(self):
        policy, sim = self.make()
        insert_pages(sim, 8)
        sim.access_page(0, 1, 3)
        before = {fid: list(m) for fid, m in policy.meta.items()}
        policy.reconfigure()
        assert {fid: list(m) for fid, m in policy.meta.items()} == before

    def test_deferred_trigger_honors_interval(self):
        policy, sim = self.make(reconfig_interval=4)
        insert_pages(sim, 3)
        sim.run_deferred()
        assert policy.admissions_since_reconfig == 3
        insert_pages(sim, 1, file=2)
        sim.run_deferred()
        assert policy.admissions_since_reconfig == 0

    def test_never_hit_folios_class_zero(self):
        policy, sim = self.make()
        insert_pages(sim, 1)
        meta = policy.meta[fid_at(sim, 1, 0)]
        assert policy._classify(meta) == 0
        sim.access_page(0, 1, 0)
        assert policy._classify(meta) >= 1

    def test_scoring_reads_published_densities_only(self):
        policy, sim = self.make(age_granularity=1)
        insert_pages(sim, 4)
        baseline = ask_candidates(policy, 1)
        # raw counters change nothing until reconfigure() republishes
        policy.hits[0][0] = policy.SCALE * 50
        assert ask_candidates(policy, 1) == baseline

    @pytest.mark.parametrize("granularity", [0, -3])
    def test_rejects_age_granularity_below_one(self, granularity):
        with pytest.raises(ValueError, match="age_granularity must be >= 1"):
            LhdPolicy(age_granularity=granularity)
        with pytest.raises(ValueError, match="age_granularity"):
            make_policy("lhd", {"age_granularity": granularity})

    def test_age_granularity_one_is_accepted(self):
        policy, sim = self.make(limit=4, age_granularity=1)
        for page in range(10):
            sim.access_page(0, 1, page % 6)
            sim.run_deferred()
        assert sim.stats(0).hook_errors == 0
        assert sim.stats(0).evictions_fallback == 0


class ClassFormulaLhd(LhdPolicy):
    """LHD scoring each folio from its hit state on every call, as the
    class definition reads, instead of from the cached density row."""

    def evict_folios(self, ctx, cg):
        tick = self.tick

        def score(fid):
            m = self.meta[fid]
            return self.hit_density[self._classify(m)][
                self._bucket(tick - m[0])]

        cg.list_iterate(self.queue, score, self._opts, ctx)


class TestLhdExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_cached_rows_evict_as_the_class_formula(self, seed):
        logs = []
        for policy in (LhdPolicy(reconfig_interval=16),
                       ClassFormulaLhd(reconfig_interval=16)):
            sim = make_sim(limit_pages=32, policy=policy,
                           record_evictions=True)
            rng = random.Random(seed)
            for file, page in random_accesses(rng, 3000, files=2,
                                              pages_per_file=48,
                                              locality=0.6):
                sim.access_page(0, file, page)
                sim.run_deferred()
            # hits in several classes, with densities that kept changing
            assert len({policy._classify(m) for m in policy.meta.values()}) > 1
            assert sum(map(any, policy.hit_density)) > 2
            logs.append(sim.eviction_log)
        assert logs[0] == logs[1]
        assert len(logs[0]) > 1000


class UnflooredLhd(LhdPolicy):
    score_floor = None


class UnflooredGetScan(GetScanPolicy):
    score_floor = None


def replay_counting_scored(policy, events, limit_pages=32):
    """Replay ``(thread, file, page)`` events with the limit dipping every
    500 events, so some rounds ask for several candidates. Returns the
    eviction log and the nodes the policy's score passes returned."""
    sim = make_sim(limit_pages=limit_pages, policy=policy,
                   record_evictions=True)
    cg = policy.cg
    iterate = cg.list_iterate
    scored = [0]

    def counting(list_id, callback, opts, ctx):
        examined = iterate(list_id, callback, opts, ctx)
        scored[0] += examined
        return examined

    cg.list_iterate = counting
    for i, (thread, file, page) in enumerate(events):
        sim.access_page(0, file, page, thread=thread)
        sim.run_deferred()
        if i % 500 == 250:
            sim.set_limit(0, limit_pages - 5)
        elif i % 500 == 499:
            sim.set_limit(0, limit_pages)
    assert sim.stats(0).hook_errors == 0
    sim.check_invariants()
    return sim.eviction_log, scored[0]


class TestScoreFloorExactness:
    """A declared floor changes how many nodes a round scores, never which
    folios it evicts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lhd_with_live_densities(self, seed):
        rng = random.Random(seed)
        events = [(0, file, page) for file, page in random_accesses(
            rng, 3000, files=2, pages_per_file=48, locality=0.6)]
        floored, scored = replay_counting_scored(
            LhdPolicy(reconfig_interval=16), events)
        unfloored, scored_all = replay_counting_scored(
            UnflooredLhd(reconfig_interval=16), events)
        assert floored == unfloored
        assert len(floored) > 1000
        assert scored < scored_all

    @pytest.mark.parametrize("seed", range(4))
    def test_getscan_with_scan_threads(self, seed):
        rng = random.Random(seed)
        events = []
        while len(events) < 3000:
            if rng.random() < 0.05:
                # a scan of file 2 from thread 9
                start = rng.randrange(30)
                events += [(9, 2, p) for p in range(start, start + 20)]
            else:
                # point reads also hit scanned pages, so some scan-list
                # folios rise above the floor
                events.append((1, rng.randrange(3), rng.randrange(48)))
        floored, scored = replay_counting_scored(
            GetScanPolicy(scan_threads=(9,)), events)
        unfloored, scored_all = replay_counting_scored(
            UnflooredGetScan(scan_threads=(9,)), events)
        assert floored == unfloored
        assert len(floored) > 1000
        assert scored < scored_all


class TestGetScan:
    def make(self, scan_threads=(9,), limit=64):
        policy = GetScanPolicy(scan_threads=scan_threads)
        sim = make_sim(limit_pages=limit, policy=policy)
        return policy, sim

    def test_routing_by_inserting_thread(self):
        policy, sim = self.make()
        sim.access_page(0, 1, 0, thread=1)
        sim.access_page(0, 1, 1, thread=9)
        assert policy.cg.list_members(policy.get_list) == [fid_at(sim, 1, 0)]
        assert policy.cg.list_members(policy.scan_list) == [fid_at(sim, 1, 1)]

    def test_scan_list_drained_first(self):
        policy, sim = self.make()
        for page in range(10):
            sim.access_page(0, 1, page, thread=1)
        for page in range(10, 20):
            sim.access_page(0, 1, page, thread=9)
        got = ask_candidates(policy, 10)
        scan_fids = set(policy.cg.list_members(policy.scan_list))
        assert set(got) <= scan_fids
        assert len(got) == 10

    def test_get_list_fills_remainder(self):
        policy, sim = self.make()
        for page in range(12):
            sim.access_page(0, 1, page, thread=1)
        for page in range(12, 15):
            sim.access_page(0, 1, page, thread=9)
        for page in (0, 1, 2):  # make three get folios hot
            sim.access_page(0, 1, page, thread=1)
        got = ask_candidates(policy, 10)
        assert len(got) == 10
        scan_fids = policy.cg.list_members(policy.scan_list)
        assert got[:3] == scan_fids
        expect_get = [fid_at(sim, 1, p) for p in range(3, 10)]
        assert got[3:] == expect_get

    def test_without_scan_threads_equals_lfu(self):
        rng = random.Random(6)
        gs = GetScanPolicy(scan_threads=())
        lfu = LfuPolicy()
        sim_a = make_sim(limit_pages=64, policy=gs)
        sim_b = make_sim(limit_pages=64, policy=lfu)
        for _ in range(500):
            page = rng.randrange(40)
            sim_a.access_page(0, 1, page, thread=3)
            sim_b.access_page(0, 1, page, thread=3)
        a = ask_candidates(gs, 8)
        b = ask_candidates(lfu, 8)
        offsets_a = [sim_a.folio(f).offset for f in a]
        offsets_b = [sim_b.folio(f).offset for f in b]
        assert offsets_a == offsets_b


class TestFactory:
    def test_default_returns_none(self):
        assert make_policy("default") is None

    @pytest.mark.parametrize("name", ["fifo", "mru", "lfu", "s3fifo", "lhd",
                                      "getscan"])
    def test_known_names_build(self, name):
        policy = make_policy(name, {})
        assert policy is not None and policy.name == name

    def test_params_reach_policies(self):
        mru = make_policy("mru", {"skip": 5})
        assert mru._opts.skip == 5
        lhd = make_policy("lhd", {"reconfig_interval": 128})
        assert lhd.reconfig_interval == 128
        gs = make_policy("getscan", {"scan_threads": [7, 8]})
        assert gs.scan_threads == frozenset((7, 8))

    def test_unknown_name_or_param_rejected(self):
        with pytest.raises(ValueError):
            make_policy("clock")
        with pytest.raises(ValueError):
            make_policy("fifo", {"skip": 3})

    def test_all_policies_run_under_real_eviction_pressure(self):
        rng = random.Random(12)
        trace = [(rng.randrange(3), rng.randrange(60)) for _ in range(2500)]
        for name in ("fifo", "mru", "lfu", "s3fifo", "lhd", "getscan"):
            params = {"scan_threads": [1]} if name == "getscan" else {}
            if name == "lhd":
                params = {"reconfig_interval": 256}
            policy = make_policy(name, params, scan_window=64)
            sim = make_sim(limit_pages=32, policy=policy)
            for file, page in trace:
                sim.access_page(0, file, page, thread=page % 3)
                sim.run_deferred()
            stats = sim.stats(0)
            assert sim.resident_pages(0) <= 32
            assert stats.invalid_candidates == 0
            assert stats.hook_errors == 0
            sim.check_invariants()
