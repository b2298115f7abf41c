"""Behavior of the six shipped policies, exercised both through direct
eviction rounds and through real simulator replay."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import pagecachesim
from pagecachesim import (
    EvictionContext,
    FifoPolicy,
    GetScanPolicy,
    IterMode,
    IterOptions,
    LfuPolicy,
    LhdPolicy,
    MruPolicy,
    RemovalReason,
    S3FifoPolicy,
    make_policy,
)
from conftest import load_tool, make_sim, random_accesses
from reference_policies import fifo_trace, getscan_trace, lfu_trace, mru_trace

diff_replay = load_tool("diff_replay")


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


# Page keys from a few small files, so traces mix hits and misses.
ACCESSES = st.lists(st.tuples(st.integers(1, 3), st.integers(0, 11)),
                    max_size=150)


# (thread, page key) accesses; thread 9 is GET-SCAN's scan thread.
THREAD_ACCESSES = st.lists(st.tuples(st.sampled_from((0, 1, 9)),
                                     st.tuples(st.integers(1, 3),
                                               st.integers(0, 11))),
                           max_size=150)


def replay_eviction_log(policy, accesses, limit_pages, threads=None):
    """Replay ``accesses`` under ``policy``, the i-th from thread
    ``threads[i]`` (thread 0 if None), and return the evicted keys in
    order; every eviction must be the policy's own."""
    sim = make_sim(limit_pages=limit_pages, policy=policy,
                   record_evictions=True)
    threads = threads or [0] * len(accesses)
    for (file, page), thread in zip(accesses, threads):
        sim.access_page(0, file, page, thread=thread)
    assert sim.stats(0).evictions_fallback == 0
    sim.check_invariants()
    return [(f, o) for _, f, o in sim.eviction_log]


def window_below_limit(data):
    """(limit, window) with the window shorter than the limit, so the
    window's boundary decides rounds."""
    limit = data.draw(st.integers(2, 20), label="limit")
    return limit, data.draw(st.integers(1, limit - 1), label="window")


class TestStraightLineReferences:
    """FIFO, MRU, LFU and GET-SCAN against the straight-line references in
    ``reference_policies``: the same eviction order on any pin-free trace."""

    @settings(max_examples=200, deadline=None)
    @given(accesses=ACCESSES, limit=st.integers(1, 20))
    def test_fifo_matches_deque_reference(self, accesses, limit):
        assert (replay_eviction_log(FifoPolicy(), accesses, limit)
                == fifo_trace(accesses, limit))

    @settings(max_examples=200, deadline=None)
    @given(accesses=ACCESSES, skip=st.integers(0, 6), data=st.data())
    def test_mru_matches_stack_reference(self, accesses, skip, data):
        # a limit above skip leaves a node at depth skip in every round
        limit = data.draw(st.integers(skip + 1, 20), label="limit")
        assert (replay_eviction_log(MruPolicy(skip=skip), accesses, limit)
                == mru_trace(accesses, limit, skip))

    @settings(max_examples=200, deadline=None)
    @given(accesses=ACCESSES, data=st.data())
    def test_lfu_matches_list_reference(self, accesses, data):
        limit, window = window_below_limit(data)
        assert (replay_eviction_log(LfuPolicy(scan_window=window), accesses,
                                    limit)
                == lfu_trace(accesses, limit, window))

    @settings(max_examples=200, deadline=None)
    @given(accesses=THREAD_ACCESSES, data=st.data())
    def test_getscan_matches_two_list_reference(self, accesses, data):
        limit, window = window_below_limit(data)
        policy = GetScanPolicy(scan_threads=(9,), scan_window=window)
        keys = [key for _, key in accesses]
        threads = [thread for thread, _ in accesses]
        assert (replay_eviction_log(policy, keys, limit, threads)
                == getscan_trace(accesses, limit, window, {9}))


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
            sim = make_sim(limit_pages=96, policy=policy)
            n = rng.randrange(65, 200)
            insert_pages(sim, n)
            for _ in range(200):
                sim.access_page(0, 1, rng.randrange(n))
            k = rng.randrange(1, 9)
            cg = policy.cg
            members = (cg.list_members(policy.window)
                       + cg.list_members(policy.queue))
            # fault order: the window's ranking breaks ties by folio id
            assert members == sorted(members)
            expect = [fid for _, _, fid in
                      sorted((policy.freq[f], i, f)
                             for i, f in enumerate(members[:64]))][:k]
            assert ask_candidates(policy, k) == expect


class ScoredLfu(LfuPolicy):
    """LFU as one list whose first ``scan_window`` nodes are scored in
    full every round: the ranking ``LfuPolicy`` keeps incrementally."""

    def evict_folios(self, ctx, cg):
        cg.list_iterate(self.queue, self.freq.__getitem__,
                        IterOptions(mode=IterMode.SCORE,
                                    scan_limit=self._scan_window), ctx)


class ScoredGetScan(GetScanPolicy):
    """GET-SCAN with its queue scored in full every round."""

    def evict_folios(self, ctx, cg):
        score = self.freq.__getitem__
        cg.list_iterate(self.scan_list, score, self._scan_opts, ctx)
        if ctx.room() > 0:
            cg.list_iterate(self.queue, score,
                            IterOptions(mode=IterMode.SCORE,
                                        scan_limit=self._scan_window), ctx)


def replay_hostile(policy, seed, limit_pages):
    """Replay ``tools/diff_replay.py``'s hostile trace for ``seed``: pins,
    file removals, scans from thread 9 and limit changes. Returns the
    eviction log and every stats counter."""
    got = diff_replay.replay(pagecachesim, lambda: policy, limit_pages,
                             diff_replay.hostile_ops(seed, limit_pages))
    assert not isinstance(got[0], str), got[0]
    return got


class TestFrequencyWindow:
    """The incrementally ranked window of LFU and GET-SCAN's queue."""

    @pytest.mark.parametrize("make, make_scored", [
        (LfuPolicy, ScoredLfu),
        (lambda **kw: GetScanPolicy(scan_threads=(9,), **kw),
         lambda **kw: ScoredGetScan(scan_threads=(9,), **kw)),
    ])
    def test_evicts_as_a_full_score_pass(self, make, make_scored):
        totals = dict.fromkeys(("hook_errors", "invalid_candidates",
                                "evictions_fallback", "file_removed_folios"),
                               0)
        for window in (4, 40, 512):
            for seed in range(3):
                got = replay_hostile(make(scan_window=window), seed, 64)
                assert got == replay_hostile(
                    make_scored(scan_window=window), seed, 64)
                for name in totals:
                    totals[name] += got[1][name]
        # the traces reached every path: a window below the request,
        # pinned candidates, fallback eviction and file removal
        assert all(totals.values()), totals

    @pytest.mark.parametrize("k", [1, 5])
    def test_repeated_rounds_without_eviction_agree(self, k):
        rng = random.Random(k)
        for policy in (LfuPolicy(scan_window=16),
                       GetScanPolicy(scan_threads=(9,), scan_window=16)):
            sim = make_sim(limit_pages=64, policy=policy)
            for _ in range(300):
                sim.access_page(0, 1, rng.randrange(40),
                                thread=rng.choice((0, 9)))
            first = ask_candidates(policy, k)
            assert len(first) == k
            assert ask_candidates(policy, k) == first

    def test_heap_bounded_under_file_removals(self):
        rng = random.Random(3)
        policy = LfuPolicy(scan_window=8)
        sim = make_sim(limit_pages=32, policy=policy)
        heap = policy.heap
        longest = 0
        for _ in range(3000):
            if rng.random() < 0.05:
                sim.remove_file(0, rng.randrange(6))
            else:
                sim.access_page(0, rng.randrange(6), rng.randrange(12))
            assert len(heap) <= 2 * 8
            longest = max(longest, len(heap))
        # entries of removed folios lingered until a rebuild dropped them
        assert longest > 8
        sim.check_invariants()

    def test_window_below_request_is_a_hook_error(self):
        sim = make_sim(limit_pages=20, policy=LfuPolicy(scan_window=4))
        insert_pages(sim, 30)
        sim.set_limit(0, 10)  # one round asks for 10 candidates
        insert_pages(sim, 10, file=2)
        stats = sim.stats(0)
        assert (stats.hook_errors, stats.evictions_policy,
                stats.evictions_fallback) == (1, 20, 10)

    # In both floor cases below, window 4, limit 8: pages 0..7 fill the
    # cache, page 8 evicts page 0 and leaves pages 1..3 in the window, and
    # the queue's head, page 4, is at the floor.
    FILL = [(1, p) for p in range(9)]

    def test_round_above_the_floor_refills_first(self):
        # pages 1..3 rise to 2, so the round must admit page 4 and take it
        accesses = self.FILL + [(1, 1), (1, 2), (1, 3), (1, 9)]
        got = replay_eviction_log(LfuPolicy(scan_window=4), accesses, 8)
        assert got == lfu_trace(accesses, 8, 4) == [(1, 0), (1, 4)]

    def test_round_refills_once_its_top_leaves_the_floor(self):
        # page 1 stays at the floor and is taken without a refill; the
        # round's second candidate is then page 4, not page 2
        policy = LfuPolicy(scan_window=4)
        sim = make_sim(limit_pages=8, policy=policy, record_evictions=True)
        for file, page in self.FILL + [(1, 2), (1, 3)]:
            sim.access_page(0, file, page)
        sim.set_limit(0, 6)  # one round asks for 2 candidates
        assert ([(f, o) for _, f, o in sim.eviction_log]
                == [(1, 0), (1, 1), (1, 4)])
        assert sim.stats(0).evictions_fallback == 0
        sim.check_invariants()

    @pytest.mark.parametrize("make", [
        LfuPolicy, lambda: GetScanPolicy(scan_threads=(9,))],
        ids=["lfu", "getscan"])
    def test_round_ends_when_the_queue_runs_dry(self, deadline, make):
        # attached to a cgroup that already holds six folios, the policy
        # knows only the two added after it, so a round asking for four
        # proposes those two and leaves the rest to fallback eviction
        sim = make_sim(limit_pages=8, record_evictions=True)
        insert_pages(sim, 6)
        policy = make()
        sim.attach_policy(0, policy)
        insert_pages(sim, 2, file=2)
        sim.set_limit(0, 4)
        stats = sim.stats(0)
        assert (stats.hook_errors, stats.evictions_policy,
                stats.evictions_fallback) == (0, 2, 2)
        assert ([(f, o) for _, f, o in sim.eviction_log]
                == [(2, 0), (2, 1), (1, 0), (1, 1)])
        assert policy.freq == {}
        sim.check_invariants()

    def test_frequency_below_the_floor_is_a_hook_error(self):
        class ZeroStartLfu(LfuPolicy):
            def folio_added(self, folio):
                super().folio_added(folio)
                self.freq[folio.id] = 0

        sim = make_sim(limit_pages=10, policy=ZeroStartLfu())
        insert_pages(sim, 50)
        stats = sim.stats(0)
        assert (stats.hook_errors, stats.evictions_policy,
                stats.evictions_fallback) == (40, 0, 40)
        sim.check_invariants()

    def test_stream_of_misses_refills_once_per_window(self):
        # filesearch-loop: 10 files x 100 pages, 5 passes, 700 pages; every
        # access misses, so 4,300 rounds each take the window's head
        policy = LfuPolicy()
        sim = make_sim(limit_pages=700, policy=policy)
        cg = policy.cg
        iterate = cg.list_iterate
        walks = []

        def counting(list_id, callback, opts, ctx):
            walks.append(list_id)
            return iterate(list_id, callback, opts, ctx)

        cg.list_iterate = counting
        for _ in range(5):
            for file in range(10):
                insert_pages(sim, 100, file=file)
        assert sim.stats(0).evictions_policy == 4300
        assert walks.count(policy.queue) <= 10


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
        assert all(0 <= d <= policy.SCALE
                   for row in policy.hit_density for d in row)

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

    def test_folios_carry_their_class_rows(self):
        policy, sim = self.make(age_granularity=1)
        insert_pages(sim, 4)  # ticks 1..4
        meta = policy.meta[fid_at(sim, 1, 0)]
        rows = (policy.hit_density, policy.hits, policy.evictions)
        # never hit: class 0
        assert all(m is grid[0] for m, grid in zip(meta[1:], rows))
        sim.access_page(0, 1, 0)  # tick 5, bucket 4: class 1 + log2(5) = 3
        assert meta[0] == 5
        assert all(m is grid[3] for m, grid in zip(meta[1:], rows))
        # the hit counts in the class it hit from
        assert policy.hits[0][4] == policy.SCALE
        assert not any(policy.hits[3])

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


def lhd_bucket(policy, age):
    """The age bucket of ``age`` ticks: coarsened, capped at the last."""
    return min(age // policy._age_granularity, policy.MAX_AGE - 1)


def lhd_class(policy, last_hit_bucket, hit_count):
    """Class 0 for a never-hit folio, else 1 + floor(log2(b + 1)) for the
    bucket b of its last hit, capped at the last class."""
    if hit_count == 0:
        return 0
    return min(1 + int(math.log2(last_hit_bucket + 1)),
               policy.NUM_CLASSES - 1)


class ReferenceLhd(LhdPolicy):
    """LHD's per-folio bookkeeping written out straight: each folio keeps
    its last tick, the bucket of its last hit and its hit count, and every
    hook works its class out from them, as the class definition reads.
    Statistics, reconfiguration and the score pass are LhdPolicy's."""

    def policy_init(self, cg):
        super().policy_init(cg)
        self.state = {}  # fid -> (last tick, last-hit bucket, hit count)

    def class_of(self, fid):
        _, last_hit_bucket, hit_count = self.state[fid]
        return lhd_class(self, last_hit_bucket, hit_count)

    def bucket_of(self, fid):
        return lhd_bucket(self, self.tick - self.state[fid][0])

    def folio_added(self, folio):
        self.tick += 1
        self.state[folio.id] = (self.tick, 0, 0)
        self.cg.list_add(self.queue, folio.id, tail=True)
        self.admissions_since_reconfig += 1

    def folio_accessed(self, folio):
        self.tick += 1
        bucket = self.bucket_of(folio.id)
        self.hits[self.class_of(folio.id)][bucket] += self.SCALE
        hit_count = self.state[folio.id][2]
        self.state[folio.id] = (self.tick, bucket, hit_count + 1)

    def evict_folios(self, ctx, cg):
        def score(fid):
            return self.hit_density[self.class_of(fid)][self.bucket_of(fid)]

        cg.list_iterate(self.queue, score, self._opts, ctx)

    def folio_removed(self, folio):
        if (folio.id in self.state
                and self.cg.removal_reason is RemovalReason.EVICTED):
            bucket = self.bucket_of(folio.id)
            self.evictions[self.class_of(folio.id)][bucket] += self.SCALE
        self.state.pop(folio.id, None)


class TestLhdExactness:
    # a 32-page cache, and one whose folios stay past the last age bucket
    @pytest.mark.parametrize("seed, limit, pages", [
        (0, 32, 48), (1, 32, 48), (2, 32, 48), (3, 96, 300)])
    def test_bookkeeping_matches_the_reference(self, seed, limit, pages):
        runs = []
        for policy in (LhdPolicy(reconfig_interval=16),
                       ReferenceLhd(reconfig_interval=16)):
            sim = make_sim(limit_pages=limit, policy=policy,
                           record_evictions=True)
            rng = random.Random(seed)
            for file, page in random_accesses(rng, 3000, files=2,
                                              pages_per_file=pages,
                                              locality=0.6):
                if rng.random() < 0.01:
                    sim.remove_file(0, file)
                else:
                    sim.access_page(0, file, page)
                sim.run_deferred()
            runs.append((policy, sim.eviction_log))
        (lhd, log), (ref, ref_log) = runs
        # hits in several classes, the last bucket reached, and densities
        # that kept changing
        assert len({ref.class_of(fid) for fid in ref.state}) > 2
        assert any(row[-1] for row in ref.hits) == (limit > 32)
        assert sum(map(any, ref.hit_density)) > 2
        assert lhd.hits == ref.hits
        assert lhd.evictions == ref.evictions
        assert lhd.hit_density == ref.hit_density
        assert log == ref_log
        assert len(log) > 800


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
        assert policy.cg.list_members(policy.queue) == [fid_at(sim, 1, 0)]
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

    def test_an_empty_scan_list_gets_no_walk(self):
        policy, sim = self.make(limit=16)
        cg = policy.cg
        iterate = cg.list_iterate
        walked = []

        def counting(list_id, callback, opts, ctx):
            walked.append(list_id)
            return iterate(list_id, callback, opts, ctx)

        cg.list_iterate = counting
        insert_pages(sim, 40, thread=1)
        assert sim.stats(0).evictions_policy == 24
        assert policy.scan_list not in walked
        insert_pages(sim, 2, file=2, thread=9)
        insert_pages(sim, 1, file=3, thread=1)
        assert walked[-1] == policy.scan_list

    @pytest.mark.parametrize("scan_pages", [0, 5])
    def test_window_below_request_is_one_hook_error(self, scan_pages):
        # from LFU's window check on an empty scan list, else from the
        # scan list's score pass
        policy = GetScanPolicy(scan_threads=(9,), scan_window=4)
        sim = make_sim(limit_pages=20, policy=policy)
        insert_pages(sim, scan_pages, file=3, thread=9)
        insert_pages(sim, 30 - scan_pages)
        sim.set_limit(0, 10)  # one round asks for 10 candidates
        insert_pages(sim, 10, file=2)
        stats = sim.stats(0)
        assert (stats.hook_errors, stats.evictions_policy,
                stats.evictions_fallback) == (1, 20, 10)

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
        folios_a = {**sim_a.cgroup(0).inactive, **sim_a.cgroup(0).active}
        folios_b = {**sim_b.cgroup(0).inactive, **sim_b.cgroup(0).active}
        offsets_a = [folios_a[f].offset for f in a]
        offsets_b = [folios_b[f].offset for f in b]
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

    @pytest.mark.parametrize("cls, params, error", [
        (MruPolicy, {"skip": 1.5}, TypeError),
        (MruPolicy, {"skip": True}, TypeError),
        (LhdPolicy, {"reconfig_interval": 2.5}, TypeError),
        (S3FifoPolicy, {"ghost_capacity": "abc"}, TypeError),
        (S3FifoPolicy, {"ghost_capacity": -1}, ValueError),
        (S3FifoPolicy, {"small_fraction": "abc"}, TypeError),
        (S3FifoPolicy, {"small_fraction": True}, TypeError),
        (S3FifoPolicy, {"small_fraction": 0.0}, ValueError),
        (S3FifoPolicy, {"small_fraction": 1}, ValueError),
        (S3FifoPolicy, {"small_fraction": float("nan")}, ValueError),
        (GetScanPolicy, {"scan_threads": "xy"}, TypeError),
        (GetScanPolicy, {"scan_threads": 1.5}, TypeError),
        (GetScanPolicy, {"scan_threads": [100, -1]}, ValueError),
    ])
    def test_bad_values_rejected_by_name(self, cls, params, error):
        (name,) = params
        with pytest.raises(error, match=name):
            cls(**params)
        with pytest.raises(error, match=name):
            make_policy(cls.name, params)

    @pytest.mark.parametrize("cls", [FifoPolicy, MruPolicy, LfuPolicy,
                                     S3FifoPolicy, LhdPolicy, GetScanPolicy])
    @pytest.mark.parametrize("window, error", [
        (0, ValueError), (-4, ValueError), (2.5, TypeError),
        (True, TypeError)])
    def test_bad_scan_window_rejected(self, cls, window, error):
        # an unchecked window left a policy inert or raising every round
        with pytest.raises(error, match="scan_window"):
            cls(scan_window=window)
        with pytest.raises(error, match="scan_window"):
            make_policy(cls.name, {"scan_window": window})

    def test_all_policies_run_under_real_eviction_pressure(self):
        rng = random.Random(12)
        trace = [(rng.randrange(3), rng.randrange(60)) for _ in range(2500)]
        for name in ("fifo", "mru", "lfu", "s3fifo", "lhd", "getscan"):
            params = {"scan_threads": [1]} if name == "getscan" else {}
            if name == "lhd":
                params = {"reconfig_interval": 256}
            policy = make_policy(name, {**params, "scan_window": 64})
            sim = make_sim(limit_pages=32, policy=policy)
            for file, page in trace:
                sim.access_page(0, file, page, thread=page % 3)
                sim.run_deferred()
            stats = sim.stats(0)
            assert sim.resident_pages(0) <= 32
            assert stats.invalid_candidates == 0
            assert stats.hook_errors == 0
            sim.check_invariants()
