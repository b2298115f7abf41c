"""Eviction-list store, iteration modes, registry, and memory accounting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pagecachesim import (
    CANDIDATES_MAX,
    Disposition,
    EvictionContext,
    EvictionLists,
    FolioRegistry,
    IterMode,
    IterOptions,
    ListStatus,
    PolicyCgroup,
    Verdict,
    registry_memory_estimate,
)
from pagecachesim.core import CgroupSim


def make_store(n_folios=0, bucket_count=1024):
    cgroup = CgroupSim(0, bucket_count)
    store = PolicyCgroup(cgroup)
    store.debug = True
    fids = list(range(1, n_folios + 1))
    for fid in fids:
        cgroup.registry.register(fid)
    return store, cgroup.registry, fids


class TestListOps:
    def test_former_name_is_the_handle(self):
        assert EvictionLists is PolicyCgroup

    def test_create_returns_fresh_empty_lists(self):
        store, _, _ = make_store()
        first = store.list_create()
        second = store.list_create()
        assert first != second
        assert store.list_length(first) == 0
        assert store.list_length(second) == 0

    def test_add_tail_order(self):
        store, _, (a, b, c) = make_store(3)
        lst = store.list_create()
        for fid in (a, b, c):
            assert store.list_add(lst, fid, tail=True) is ListStatus.OK
        assert store.list_members(lst) == [a, b, c]

    def test_add_head_order(self):
        store, _, (a, b, c) = make_store(3)
        lst = store.list_create()
        for fid in (a, b, c):
            store.list_add(lst, fid, tail=False)
        assert store.list_members(lst) == [c, b, a]

    def test_add_statuses(self):
        store, registry, (a,) = make_store(1)
        lst = store.list_create()
        assert store.list_add(999, a, tail=True) is ListStatus.INVALID_LIST
        assert store.list_add(lst, 12345, tail=True) is ListStatus.NOT_REGISTERED
        assert store.list_add(lst, a, tail=True) is ListStatus.OK
        assert store.list_add(lst, a, tail=True) is ListStatus.ALREADY_LISTED
        assert store.list_members(lst) == [a]

    def test_move_rotates_within_list(self):
        store, _, (a, b, c) = make_store(3)
        lst = store.list_create()
        for fid in (a, b, c):
            store.list_add(lst, fid, tail=True)
        assert store.list_move(lst, a, tail=True) is ListStatus.OK
        assert store.list_members(lst) == [b, c, a]
        assert store.list_move(lst, c, tail=False) is ListStatus.OK
        assert store.list_members(lst) == [c, b, a]

    def test_move_transfers_between_lists(self):
        store, registry, (a, b) = make_store(2)
        small = store.list_create()
        main = store.list_create()
        store.list_add(small, a, tail=True)
        store.list_add(small, b, tail=True)
        assert store.list_move(main, a, tail=True) is ListStatus.OK
        assert store.list_members(small) == [b]
        assert store.list_members(main) == [a]
        assert registry.membership(a) == main

    def test_move_unlisted_fails_without_changes(self):
        store, _, (a, b) = make_store(2)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        assert store.list_move(lst, b, tail=True) is ListStatus.NOT_LISTED
        assert store.list_members(lst) == [a]

    def test_del_and_double_del(self):
        store, registry, (a, b) = make_store(2)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        store.list_add(lst, b, tail=True)
        assert store.list_del(a) is ListStatus.OK
        assert store.list_members(lst) == [b]
        assert registry.membership(a) is None
        assert store.list_del(a) is ListStatus.NOT_LISTED


class TestRegistry:
    def test_register_validate_unregister(self):
        registry = FolioRegistry(16)
        registry.register(1)
        assert 1 in registry
        registry.unregister(1)
        assert 1 not in registry

    def test_double_register_is_internal_error(self):
        registry = FolioRegistry(16)
        registry.register(1)
        with pytest.raises(RuntimeError):
            registry.register(1)
        registry.unregister(1)
        with pytest.raises(RuntimeError):
            registry.unregister(1)

    def test_unregister_reports_membership_for_auto_detach(self):
        store, registry, (a,) = make_store(1)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        list_id = registry.unregister(a)
        assert list_id == lst
        store.detach(a, list_id)
        assert store.list_length(lst) == 0

    def test_lists_never_exceed_registry(self):
        store, registry, fids = make_store(10)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        total = sum(store.list_length(i) for i in store.list_ids())
        assert total <= len(registry)


class TestMemoryEstimate:
    GIB = 1 << 30

    def test_one_gib_empty_is_point_four_percent(self):
        limit_pages = self.GIB // 4096
        bytes_needed = registry_memory_estimate(limit_pages, 0)
        assert bytes_needed == 4_194_304
        assert round(100 * bytes_needed / self.GIB, 1) == 0.4

    def test_one_gib_full_is_one_point_two_percent(self):
        limit_pages = self.GIB // 4096
        bytes_needed = registry_memory_estimate(limit_pages, limit_pages)
        assert bytes_needed == 12_582_912
        assert round(100 * bytes_needed / self.GIB, 1) == 1.2

    def test_unit_case(self):
        assert registry_memory_estimate(1, 0) == 16

    def test_resident_beyond_limit_rejected(self):
        with pytest.raises(ValueError):
            registry_memory_estimate(4, 5)


class TestIterateEvaluate:
    def test_evict_all_until_ctx_full(self):
        store, _, fids = make_store(6)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(3)
        examined = store.list_iterate(
            lst, lambda fid: Verdict.EVICT, IterOptions(), ctx)
        assert examined == 3
        assert ctx.candidates == fids[:3]

    def test_skip_head_nodes(self):
        store, _, fids = make_store(5)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(1)
        store.list_iterate(lst, lambda fid: Verdict.EVICT,
                           IterOptions(skip=2), ctx)
        assert ctx.candidates == [fids[2]]

    def test_stop_ends_iteration(self):
        store, _, fids = make_store(5)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(5)
        seen = []

        def judge(fid):
            seen.append(fid)
            return Verdict.STOP if len(seen) == 2 else Verdict.KEEP

        examined = store.list_iterate(lst, judge, IterOptions(), ctx)
        assert examined == 2
        assert seen == fids[:2]
        assert ctx.candidates == []

    def test_move_to_tail_disposition_full_rotation(self):
        store, _, (a, b, c) = make_store(3)
        lst = store.list_create()
        for fid in (a, b, c):
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(1)
        opts = IterOptions(disposition=Disposition.MOVE_TO_TAIL, scan_limit=3)
        examined = store.list_iterate(
            lst, lambda fid: Verdict.KEEP, opts, ctx)
        assert examined == 3
        # each examined node moved to the tail exactly once
        assert store.list_members(lst) == [a, b, c]

    def test_move_to_list_disposition(self):
        store, _, (a, b) = make_store(2)
        src = store.list_create()
        dst = store.list_create()
        store.list_add(src, a, tail=True)
        store.list_add(src, b, tail=True)
        ctx = EvictionContext(1)
        opts = IterOptions(disposition=Disposition.MOVE_TO_LIST,
                           target_list=dst, scan_limit=2)
        store.list_iterate(src, lambda fid: Verdict.KEEP, opts, ctx)
        assert store.list_members(src) == []
        assert store.list_members(dst) == [a, b]

    def test_move_to_list_bypasses_instance_list_move(self):
        # wrappers set on the handle instance see only the policy's calls
        store, _, (a,) = make_store(1)
        src = store.list_create()
        dst = store.list_create()
        store.list_add(src, a, tail=True)
        calls = []
        store.list_move = lambda *args, **kwargs: calls.append(args)
        opts = IterOptions(disposition=Disposition.MOVE_TO_LIST,
                           target_list=dst)
        store.list_iterate(src, lambda fid: Verdict.KEEP, opts,
                           EvictionContext(1))
        assert store.list_members(dst) == [a]
        assert calls == []

    def test_evict_and_move_tail(self):
        store, _, (a, b, c) = make_store(3)
        lst = store.list_create()
        for fid in (a, b, c):
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(1)
        store.list_iterate(
            lst, lambda fid: Verdict.EVICT_AND_MOVE_TAIL,
            IterOptions(), ctx)
        assert ctx.candidates == [a]
        assert store.list_members(lst) == [b, c, a]

    def test_scan_limit_bounds_examination(self):
        store, _, fids = make_store(10)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(CANDIDATES_MAX)
        examined = store.list_iterate(
            lst, lambda fid: Verdict.KEEP,
            IterOptions(scan_limit=4), ctx)
        assert examined == 4

    def test_callback_gets_folio_ids_after_skip(self):
        store, _, fids = make_store(5)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        visited = []
        ctx = EvictionContext(1)
        store.list_iterate(
            lst, lambda fid: visited.append(fid) or Verdict.KEEP,
            IterOptions(skip=1, scan_limit=3), ctx)
        assert visited == fids[1:4]

    def test_invalid_list(self):
        store, _, _ = make_store()
        ctx = EvictionContext(1)
        assert store.list_iterate(42, lambda fid: Verdict.KEEP,
                                  IterOptions(), ctx) is ListStatus.INVALID_LIST

    def test_full_ctx_returns_zero_immediately(self):
        store, _, (a,) = make_store(1)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        ctx = EvictionContext(1)
        ctx.propose(a)
        calls = []
        assert store.list_iterate(
            lst, lambda fid: calls.append(fid) or Verdict.EVICT,
            IterOptions(), ctx) == 0
        assert calls == []


class TestIterateScore:
    def run_score(self, scores, k, scan_limit=None):
        store, _, fids = make_store(len(scores))
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        by_fid = dict(zip(fids, scores))
        ctx = EvictionContext(k)
        opts = IterOptions(mode=IterMode.SCORE,
                           scan_limit=scan_limit or max(len(scores), k))
        examined = store.list_iterate(
            lst, by_fid.__getitem__, opts, ctx)
        return store, lst, fids, ctx, examined

    def test_lowest_scores_with_positional_tie_break(self):
        _, _, fids, ctx, _ = self.run_score([5, 2, 7, 2], k=2)
        a, b, c, d = fids
        assert set(ctx.candidates) == {b, d}

    def test_all_equal_takes_head_order(self):
        _, _, fids, ctx, _ = self.run_score([4, 4, 4, 4, 4], k=3)
        assert ctx.candidates == fids[:3]

    def test_nodes_left_in_place(self):
        store, lst, fids, _, _ = self.run_score([3, 1, 2], k=1)
        assert store.list_members(lst) == fids

    def test_scan_limit_window(self):
        # the minimum outside the window must not be selected
        store, _, fids = make_store(6)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        scores = {fids[i]: s for i, s in enumerate([5, 4, 6, 9, 0, 0])}
        ctx = EvictionContext(2)
        opts = IterOptions(mode=IterMode.SCORE, scan_limit=4)
        examined = store.list_iterate(
            lst, scores.__getitem__, opts, ctx)
        assert examined == 4
        assert set(ctx.candidates) == {fids[1], fids[0]}

    def test_score_mode_requires_wide_enough_window(self):
        store, _, fids = make_store(4)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        ctx = EvictionContext(4)
        with pytest.raises(ValueError):
            store.list_iterate(lst, lambda fid: 0,
                               IterOptions(mode=IterMode.SCORE, scan_limit=2),
                               ctx)

    def test_never_exceeds_request_or_capacity(self):
        _, _, _, ctx, _ = self.run_score(list(range(40)), k=CANDIDATES_MAX)
        assert len(ctx.candidates) == CANDIDATES_MAX
        assert ctx.nr_candidates_proposed == CANDIDATES_MAX

    @settings(max_examples=60, deadline=None)
    @given(scores=st.lists(st.integers(-1000, 1000), min_size=1, max_size=64),
           k=st.integers(1, CANDIDATES_MAX))
    def test_matches_sort_based_min_k_oracle(self, scores, k):
        store, lst, fids, ctx, examined = self.run_score(
            scores, k=k, scan_limit=max(len(scores), k))
        expect = [fid for _, _, fid in
                  sorted((s, i, f) for i, (s, f) in
                         enumerate(zip(scores, fids)))][:k]
        assert ctx.candidates == expect
        assert examined == len(scores)


class TestConsistency:
    def test_random_operation_sequences_stay_consistent(self):
        rng = random.Random(5)
        store, registry, fids = make_store(24)
        lists = [store.list_create() for _ in range(3)]
        for _ in range(2000):
            action = rng.randrange(4)
            fid = rng.choice(fids)
            lst = rng.choice(lists)
            if action == 0:
                store.list_add(lst, fid, tail=rng.random() < 0.5)
            elif action == 1:
                store.list_move(lst, fid, tail=rng.random() < 0.5)
            elif action == 2:
                store.list_del(fid)
            else:
                membership = registry.membership(fid)
                if membership is not None:
                    continue
                store.list_add(lst, fid, tail=True)
        store.check_consistency()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9),
                              st.integers(0, 1)), max_size=80))
    def test_single_membership_property(self, ops):
        store, registry, fids = make_store(10)
        lists = [store.list_create(), store.list_create()]
        for action, fid_idx, tail in ops:
            fid = fids[fid_idx]
            if action == 0:
                store.list_add(lists[tail], fid, tail=bool(tail))
            elif action == 1:
                store.list_move(lists[tail], fid, tail=bool(tail))
            else:
                store.list_del(fid)
            seen = set()
            for lst in lists:
                members = store.list_members(lst)
                assert not (seen & set(members))
                seen |= set(members)
