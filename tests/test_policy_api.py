"""Eviction-list store, iteration modes, list membership, and memory
accounting."""

import random
import tracemalloc
from functools import partial
from time import perf_counter
from timeit import repeat

import pytest
from hypothesis import given, settings, strategies as st

from pagecachesim import (
    CANDIDATES_MAX,
    Disposition,
    EvictionContext,
    Folio,
    IterMode,
    IterOptions,
    ListStatus,
    PolicyCgroup,
    PolicyHooks,
    Simulator,
    Verdict,
    registry_memory_estimate,
)
from pagecachesim.core import CgroupSim
from pagecachesim.policies import FifoPolicy


class CheckedPolicyCgroup(PolicyCgroup):
    """A handle that checks its own consistency after every list change and
    every walk."""

    def list_add(self, list_id, folio_id, tail):
        status = super().list_add(list_id, folio_id, tail)
        self.check_consistency()
        return status

    def list_move(self, list_id, folio_id, tail):
        status = super().list_move(list_id, folio_id, tail)
        self.check_consistency()
        return status

    # the walk's own moves, checked like the policy's
    _move = list_move

    def list_del(self, folio_id):
        status = super().list_del(folio_id)
        self.check_consistency()
        return status

    def list_iterate(self, list_id, callback, opts, ctx):
        examined = super().list_iterate(list_id, callback, opts, ctx)
        self.check_consistency()
        return examined


def make_store(n_folios=0, limit_pages=1024, checked=True):
    """A handle on a bare cgroup whose inactive list holds ``n_folios``
    resident folios; ``checked`` checks consistency after each operation."""
    cgroup = CgroupSim(0, limit_pages)
    store = (CheckedPolicyCgroup if checked else PolicyCgroup)(cgroup, [])
    fids = list(range(1, n_folios + 1))
    for fid in fids:
        cgroup.inactive[fid] = Folio(fid, 0, fid, 0, False)
    return store, cgroup, fids


def listed_on(store, fid):
    """The id of the list ``fid`` is on, or None."""
    for list_id in store.list_ids():
        if fid in store.list_members(list_id):
            return list_id
    return None


class TestListOps:
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
        store, _, (a,) = make_store(1)
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
        store, _, (a, b) = make_store(2)
        small = store.list_create()
        main = store.list_create()
        store.list_add(small, a, tail=True)
        store.list_add(small, b, tail=True)
        assert store.list_move(main, a, tail=True) is ListStatus.OK
        assert store.list_members(small) == [b]
        assert store.list_members(main) == [a]
        assert listed_on(store, a) == main

    def test_move_unlisted_fails_without_changes(self):
        store, _, (a, b) = make_store(2)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        assert store.list_move(lst, b, tail=True) is ListStatus.NOT_LISTED
        assert store.list_members(lst) == [a]

    def test_move_to_unknown_list_fails_without_changes(self):
        store, _, (a,) = make_store(1)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        assert store.list_move(999, a, tail=True) is ListStatus.INVALID_LIST
        assert store.list_members(lst) == [a]
        assert listed_on(store, a) == lst

    def test_del_and_double_del(self):
        store, _, (a, b) = make_store(2)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        store.list_add(lst, b, tail=True)
        assert store.list_del(a) is ListStatus.OK
        assert store.list_members(lst) == [b]
        assert listed_on(store, a) is None
        assert store.list_del(a) is ListStatus.NOT_LISTED


class TestMembership:
    class ListsFileOne(PolicyHooks):
        """Lists the folios of file 1 only and proposes nothing, so every
        eviction is the fallback's."""

        name = "lists-file-1"

        def policy_init(self, cg):
            self.cg = cg
            self.queue = cg.list_create()

        def folio_added(self, folio):
            if folio.file == 1:
                self.cg.list_add(self.queue, folio.id, tail=True)

    def test_removal_empties_the_list(self):
        policy = self.ListsFileOne()
        sim = Simulator()
        sim.add_cgroup(0, 1)
        sim.attach_policy(0, policy)
        sim.access_page(0, 1, 0)
        a = sim.find_folio(1, 0).id
        handle = sim.cgroup(0).policy_cg
        assert handle.list_members(policy.queue) == [a]
        sim.access_page(0, 1, 1)  # the fallback evicts a
        b = sim.find_folio(1, 1).id
        assert sim.stats(0).evictions_fallback == 1
        assert handle.list_members(policy.queue) == [b]
        assert listed_on(handle, a) is None
        sim.remove_file(0, 1)
        assert handle.list_length(policy.queue) == 0
        sim.check_invariants()

    def test_removal_of_unlisted_folio_leaves_the_lists_alone(self):
        policy = self.ListsFileOne()
        sim = Simulator()
        sim.add_cgroup(0, 4)
        sim.attach_policy(0, policy)
        sim.access_page(0, 1, 0)
        sim.access_page(0, 2, 0)
        a = sim.find_folio(1, 0).id
        assert sim.remove_file(0, 2) == 1
        handle = sim.cgroup(0).policy_cg
        assert handle.list_members(policy.queue) == [a]
        sim.check_invariants()

    def test_eviction_bypasses_instance_list_del(self):
        # wrappers set on the handle instance see only the policy's calls
        policy = FifoPolicy()
        sim = Simulator()
        sim.add_cgroup(0, 2)
        sim.attach_policy(0, policy)
        handle = sim.cgroup(0).policy_cg
        calls = []
        handle.list_del = lambda *args, **kwargs: calls.append(args)
        for page in range(3):
            sim.access_page(0, 1, page)
        assert sim.stats(0).evictions_policy == 1
        assert sim.find_folio(1, 0) is None
        assert handle.list_members(policy.queue) == [
            sim.find_folio(1, 1).id, sim.find_folio(1, 2).id]
        assert calls == []
        sim.check_invariants()

    def test_add_of_sibling_folio_is_not_registered(self):
        sim = Simulator()
        sim.add_cgroup(0, 4)
        sim.add_cgroup(1, 4)
        sim.attach_policy(0, PolicyHooks())
        sim.access_page(0, 1, 0)
        sim.access_page(1, 2, 0)
        handle = sim.cgroup(0).policy_cg
        lst = handle.list_create()
        own, sibling = sim.find_folio(1, 0).id, sim.find_folio(2, 0).id
        assert handle.list_add(lst, sibling, tail=True) \
            is ListStatus.NOT_REGISTERED
        assert handle.list_add(lst, own, tail=True) is ListStatus.OK
        assert handle.list_members(lst) == [own]
        sim.check_invariants()

    def test_add_of_departed_folio_is_not_registered(self):
        sim = Simulator()
        sim.add_cgroup(0, 4)
        sim.attach_policy(0, PolicyHooks())
        sim.access_page(0, 1, 0)
        fid = sim.find_folio(1, 0).id
        sim.remove_file(0, 1)
        handle = sim.cgroup(0).policy_cg
        lst = handle.list_create()
        assert handle.list_add(lst, fid, tail=True) \
            is ListStatus.NOT_REGISTERED
        assert handle.list_length(lst) == 0

    def test_listed_folio_that_is_not_resident_is_inconsistent(self):
        store, cgroup, (a,) = make_store(1)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        del cgroup.inactive[a]
        with pytest.raises(AssertionError, match="not resident"):
            store.check_consistency()

    def test_folio_on_two_lists_is_inconsistent(self):
        store, _, (a,) = make_store(1, checked=False)
        first, second = store.list_create(), store.list_create()
        store.list_add(first, a, tail=True)
        store._lists[second][a] = None
        with pytest.raises(AssertionError, match="folio %d on two lists" % a):
            store.check_consistency()

    def test_membership_without_a_list_node_is_inconsistent(self):
        store, _, (a, b) = make_store(2, checked=False)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        store._membership[b] = lst
        with pytest.raises(AssertionError,
                           match="recorded memberships != list contents"):
            store.check_consistency()

    def test_lists_never_exceed_resident(self):
        store, cgroup, fids = make_store(10)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        total = sum(store.list_length(i) for i in store.list_ids())
        assert total <= len(cgroup.active) + len(cgroup.inactive)


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

    @pytest.mark.parametrize("junk", [None, "EVICT", 1])
    def test_junk_verdict_raises(self, junk):
        store, _, (a,) = make_store(1)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        ctx = EvictionContext(1)
        with pytest.raises(TypeError,
                           match="evaluate callback returned %r" % (junk,)):
            store.list_iterate(lst, lambda fid: junk, IterOptions(), ctx)
        assert ctx.candidates == []

    def test_junk_verdict_is_a_hook_error(self):
        assert_one_round_is_a_hook_error(lambda fid: "EVICT", IterOptions())

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

    @pytest.mark.parametrize("verdict, disposition, take_off", [
        (Verdict.KEEP, Disposition.MOVE_TO_TAIL, "move"),
        (Verdict.EVICT_AND_MOVE_TAIL, Disposition.LEAVE_IN_PLACE, "move"),
        (Verdict.KEEP, Disposition.MOVE_TO_LIST, "del"),
    ])
    def test_node_the_callback_took_off_is_not_moved(self, verdict,
                                                     disposition, take_off):
        # a change on the window's last node goes unseen, and the walk
        # leaves that node where the callback put it
        store, _, (a, b) = make_store(2)
        walked = store.list_create()
        other = store.list_create()
        store.list_add(walked, a, tail=True)
        store.list_add(walked, b, tail=True)
        ctx = EvictionContext(CANDIDATES_MAX)

        def judge(fid):
            if fid == b:
                if take_off == "move":
                    store.list_move(other, b, tail=True)
                else:
                    store.list_del(b)
            return verdict

        opts = IterOptions(disposition=disposition, target_list=other)
        assert store.list_iterate(walked, judge, opts, ctx) == 2
        assert listed_on(store, b) == (other if take_off == "move"
                                       else None)
        expect_a = other if disposition is Disposition.MOVE_TO_LIST else walked
        assert listed_on(store, a) == expect_a
        assert ctx.candidates == ([a, b] if verdict is not Verdict.KEEP
                                  else [])

    def test_bad_move_to_list_target_names_the_status(self):
        store, _, (a,) = make_store(1)
        lst = store.list_create()
        store.list_add(lst, a, tail=True)
        opts = IterOptions(disposition=Disposition.MOVE_TO_LIST,
                           target_list=42)
        with pytest.raises(ValueError, match="INVALID_LIST"):
            store.list_iterate(lst, lambda fid: Verdict.KEEP, opts,
                               EvictionContext(1))


def copy_window_iterate(store, list_id, callback, opts, ctx):
    """Evaluate-mode ``list_iterate`` written straight: copy the window,
    then visit the copy, passing over ids no longer on the list. A node the
    callback took off the list is not moved by the walk."""
    if list_id not in store.list_ids():
        return ListStatus.INVALID_LIST
    if ctx.room() <= 0:
        return 0

    def move(fid, target):
        if listed_on(store, fid) == list_id:
            status = store.list_move(target, fid, tail=True)
            if status is not ListStatus.OK:
                raise ValueError(status)

    window = store.list_members(list_id)[opts.skip:opts.skip
                                         + opts.scan_limit]
    examined = 0
    for fid in window:
        if listed_on(store, fid) != list_id:
            continue
        verdict = callback(fid)
        examined += 1
        if verdict is Verdict.STOP:
            break
        if verdict is Verdict.KEEP:
            if opts.disposition is Disposition.MOVE_TO_TAIL:
                move(fid, list_id)
            elif opts.disposition is Disposition.MOVE_TO_LIST:
                move(fid, opts.target_list)
            continue
        ctx.propose(fid)
        if verdict is Verdict.EVICT_AND_MOVE_TAIL:
            move(fid, list_id)
        if ctx.room() <= 0:
            break
    return examined


def scripted_walk(iterate, store, fids, lists, walk, script, ctx, log):
    """Run one evaluate-mode walk with ``iterate``, a ``list_iterate`` of
    ``store``, whose callback follows ``script``: per visited node a verdict
    and an optional list operation or nested walk. Everything the callback
    sees or gets back is appended to ``log``."""
    list_idx, skip, scan_limit, (disposition, target) = walk
    opts = IterOptions(scan_limit=scan_limit, skip=skip,
                       disposition=disposition,
                       target_list=None if target is None else lists[target])
    steps = iter(script)

    def callback(fid):
        log.append(fid)
        verdict, action = next(steps, (Verdict.KEEP, None))
        if action is None:
            return verdict
        kind = action[0]
        if kind == "add":
            _, lst, idx, tail = action
            log.append(store.list_add(lists[lst], fids[idx % len(fids)],
                                      tail))
        elif kind == "move":
            _, lst, idx, tail = action
            log.append(store.list_move(lists[lst], fids[idx % len(fids)],
                                       tail))
        elif kind == "del":
            log.append(store.list_del(fids[action[1] % len(fids)]))
        else:
            _, nested, nested_script = action
            log.append(scripted_walk(iterate, store, fids, lists, nested,
                                     nested_script, ctx, log))
        return verdict

    return iterate(lists[list_idx], callback, opts, ctx)


def placed_store(placement):
    """A checked handle with two lists and one folio per ``placement``
    entry: (list index or None, tail)."""
    store, _, fids = make_store(len(placement))
    lists = [store.list_create(), store.list_create()]
    for fid, (where, tail) in zip(fids, placement):
        if where is not None:
            store.list_add(lists[where], fid, tail)
    return store, fids, lists


def run_walk_both_ways(placement, walk, script, room):
    """The outcome of one scripted walk under ``list_iterate`` and under
    ``copy_window_iterate``, each on its own copy of the same lists."""
    outcomes = []
    for reference in (False, True):
        store, fids, lists = placed_store(placement)
        if reference:
            iterate = partial(copy_window_iterate, store)
        else:
            iterate = store.list_iterate
        ctx = EvictionContext(room)
        log = []
        result = scripted_walk(iterate, store, fids, lists, walk, script,
                               ctx, log)
        outcomes.append((result, log, ctx.candidates,
                         [store.list_members(lst) for lst in lists],
                         {fid: listed_on(store, fid) for fid in fids}))
    return outcomes


WALKS = st.tuples(
    st.integers(0, 1), st.integers(0, 4), st.integers(0, 30),
    st.sampled_from([(Disposition.LEAVE_IN_PLACE, None),
                     (Disposition.MOVE_TO_TAIL, None),
                     (Disposition.MOVE_TO_LIST, 0),
                     (Disposition.MOVE_TO_LIST, 1)]))
# KEEP most often, so that walks run long enough to meet the list operations
VERDICTS = st.sampled_from([Verdict.KEEP, Verdict.KEEP, Verdict.KEEP,
                            Verdict.EVICT, Verdict.EVICT_AND_MOVE_TAIL,
                            Verdict.STOP])


@st.composite
def walk_cases(draw):
    """A placement, a walk over list 0 or 1, and a script for it whose list
    operations and nested walks leave the walked list unchanged.

    They act on the other list, and move or delete only folios placed off
    the walked list. The walk makes its own moves when it ends, and the
    reference at once, so where the walk moves nodes to the other list the
    script inserts there at the head only and runs no nested walk."""
    placement = draw(st.lists(
        st.tuples(st.sampled_from([0, 1, None]), st.booleans()),
        min_size=3, max_size=25))
    walk = draw(WALKS)
    other = 1 - walk[0]
    moves_to_other = walk[3][1] == other
    tails = st.just(False) if moves_to_other else st.booleans()
    ops = [st.tuples(st.just("add"), st.just(other), st.integers(0, 24),
                     tails)]
    off_walked = [i for i, (where, _) in enumerate(placement)
                  if where != walk[0]]
    if off_walked:
        folios = st.sampled_from(off_walked)
        ops += [st.tuples(st.just("move"), st.just(other), folios, tails),
                st.tuples(st.just("del"), folios)]
    actions = st.none() | st.one_of(ops)
    if not moves_to_other:
        # over the other list, moving only within it, with no list
        # operations of its own: any would change the list it walks
        nested = st.tuples(
            st.just(other), st.integers(0, 4), st.integers(0, 30),
            st.sampled_from([(Disposition.LEAVE_IN_PLACE, None),
                             (Disposition.MOVE_TO_TAIL, None),
                             (Disposition.MOVE_TO_LIST, other)]))
        actions |= st.tuples(st.just("walk"), nested, st.lists(
            st.tuples(VERDICTS, st.none()), max_size=8))
    script = draw(st.lists(st.tuples(VERDICTS, actions), max_size=30))
    return placement, walk, script


class TestLazyWalk:
    """The evaluate-mode walk reads its window lazily; with a callback that
    leaves the walked list alone it must visit and change exactly what a
    walk over a copy of the window does."""

    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases(), room=st.integers(1, CANDIDATES_MAX))
    def test_matches_copy_window_reference(self, case, room):
        placement, walk, script = case
        lazy, reference = run_walk_both_ways(placement, walk, script, room)
        assert lazy == reference

    @pytest.mark.parametrize("action", [
        ("add", 0, 5, False),   # an unlisted folio onto the walked head
        ("del", 3),             # a window node not yet visited
        ("move", 0, 3, True),   # a window node not yet visited, to the tail
        ("move", 1, 3, True),   # the same node, to the other list
        ("walk", (0, 0, 4, (Disposition.MOVE_TO_TAIL, None)), []),
    ])
    def test_callback_changing_the_walked_list_raises(self, action):
        store, fids, lists = placed_store([(0, True)] * 5 + [(None, True)])
        walk = (0, 0, 5, (Disposition.LEAVE_IN_PLACE, None))
        script = [(Verdict.KEEP, None), (Verdict.KEEP, action)]
        log = []
        with pytest.raises(RuntimeError):
            scripted_walk(store.list_iterate, store, fids, lists, walk,
                          script, EvictionContext(CANDIDATES_MAX), log)
        assert log[0:2] == fids[0:2]
        store.check_consistency()

    def test_folio_leaving_the_cache_mid_walk_raises(self):
        store, cgroup, fids = make_store(4)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        visited = []

        def judge(fid):
            visited.append(fid)
            if fid == fids[0]:
                # what the core does when a folio leaves the cache
                del cgroup.inactive[fids[2]]
                store.list_del(fids[2])
            return Verdict.KEEP

        with pytest.raises(RuntimeError):
            store.list_iterate(lst, judge, IterOptions(), EvictionContext(1))
        assert visited == [fids[0]]
        store.check_consistency()

    def test_callback_changing_the_walked_list_is_a_hook_error(self):
        class RotatingPolicy(PolicyHooks):
            def policy_init(self, cg):
                self.cg = cg
                self.queue = cg.list_create()

            def folio_added(self, folio):
                self.cg.list_add(self.queue, folio.id, tail=True)

            def evict_folios(self, ctx, cg):
                def judge(fid):
                    # rotate the node by hand, then read on
                    cg.list_move(self.queue, fid, tail=True)
                    return Verdict.KEEP

                cg.list_iterate(self.queue, judge, IterOptions(), ctx)

        sim = Simulator()
        sim.add_cgroup(0, 2)
        sim.attach_policy(0, RotatingPolicy())
        for page in range(6):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.hook_errors == 4
        assert stats.evictions_policy == 0
        assert stats.evictions_fallback == 4
        assert sim.resident_pages(0) == 2
        sim.check_invariants()

    def test_moves_after_stays_match_reference(self):
        # every KEEP stays and every EVICT_AND_MOVE_TAIL moves: the moved
        # nodes end on the tail in walk order
        walk = (0, 2, 60, (Disposition.LEAVE_IN_PLACE, None))
        script = [(Verdict.KEEP, None),
                  (Verdict.EVICT_AND_MOVE_TAIL, None)] * 30
        lazy, reference = run_walk_both_ways([(0, True)] * 60, walk, script,
                                             CANDIDATES_MAX)
        assert lazy == reference
        assert lazy[0] == 58

    def test_head_proposing_rounds_do_not_read_the_window(self):
        n = 100_000
        store, _, fids = make_store(n, limit_pages=n, checked=False)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        # copying the whole window once per round is the cost being avoided
        copy_s = min(repeat(lambda: store.list_members(lst), number=1,
                            repeat=3))
        opts = IterOptions(scan_limit=n)
        rounds = 2000
        t0 = perf_counter()
        for _ in range(rounds):
            store.list_iterate(lst, lambda fid: Verdict.EVICT, opts,
                               EvictionContext(1))
        lazy_s = perf_counter() - t0
        assert lazy_s * 10 < rounds * copy_s


class TestIterateScore:
    def run_score(self, scores, k, scan_limit=None, skip=0):
        store, _, fids = make_store(len(scores))
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        by_fid = dict(zip(fids, scores))
        ctx = EvictionContext(k)
        opts = IterOptions(mode=IterMode.SCORE, skip=skip,
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

    @pytest.mark.parametrize("junk", [None, "x"])
    def test_junk_score_raises_on_a_one_node_window(self, junk):
        # nothing to compare it with, yet it is no score
        store, _, fids = make_store(1)
        lst = store.list_create()
        store.list_add(lst, fids[0], tail=True)
        ctx = EvictionContext(1)
        with pytest.raises(TypeError):
            store.list_iterate(lst, lambda fid: junk,
                               IterOptions(mode=IterMode.SCORE), ctx)
        assert ctx.candidates == []

    def test_never_exceeds_request_or_capacity(self):
        _, _, _, ctx, _ = self.run_score(list(range(40)), k=CANDIDATES_MAX)
        assert len(ctx.candidates) == CANDIDATES_MAX
        assert ctx.nr_candidates_proposed == CANDIDATES_MAX

    @settings(max_examples=150, deadline=None)
    @given(scores=st.lists(st.integers(-1000, 1000), min_size=1, max_size=64),
           k=st.integers(1, CANDIDATES_MAX), skip=st.integers(0, 70),
           extra=st.integers(0, 70))
    def test_matches_sort_based_min_k_oracle(self, scores, k, skip, extra):
        # the window may run past the list's end, or start past it
        scan_limit = k + extra
        store, lst, fids, ctx, examined = self.run_score(
            scores, k=k, scan_limit=scan_limit, skip=skip)
        window = list(zip(scores, fids))[skip:skip + scan_limit]
        expect = [fid for _, _, fid in
                  sorted((s, i, f) for i, (s, f) in enumerate(window))][:k]
        assert ctx.candidates == expect
        assert examined == len(window)
        assert store.list_members(lst) == fids

    @pytest.mark.parametrize("change", ["move", "del"])
    def test_callback_changing_the_scored_list_raises(self, change):
        store, _, fids = make_store(4)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)

        def score(fid):
            if fid == fids[0]:
                if change == "move":
                    store.list_move(lst, fid, tail=True)
                else:
                    store.list_del(fid)
            return 0

        with pytest.raises(RuntimeError):
            store.list_iterate(lst, score,
                               IterOptions(mode=IterMode.SCORE),
                               EvictionContext(1))

    def test_round_allocates_no_window_copy(self):
        n = 100_000
        store, _, fids = make_store(n, limit_pages=n, checked=False)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        by_fid = {fid: n - fid for fid in fids}
        ctx = EvictionContext(1)
        opts = IterOptions(mode=IterMode.SCORE, scan_limit=n)
        # a copy of the window, or of its scores, is 800 KB
        tracemalloc.start()
        try:
            examined = store.list_iterate(lst, by_fid.__getitem__, opts, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert examined == n
        assert ctx.candidates == [fids[-1]]
        assert peak < 64 * 1024


class TestScoreFloor:
    """A declared score floor ends the pass at the room-th floor node and
    leaves the candidates of the full pass unchanged."""

    def run_floored(self, scores, k, floor, scan_limit=None, skip=0):
        store, _, fids = make_store(len(scores))
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        by_fid = dict(zip(fids, scores))
        calls = []

        def score(fid):
            calls.append(fid)
            return by_fid[fid]

        ctx = EvictionContext(k)
        opts = IterOptions(mode=IterMode.SCORE, skip=skip, score_floor=floor,
                           scan_limit=scan_limit or max(len(scores), k))
        scored = store.list_iterate(lst, score, opts, ctx)
        return store, lst, fids, ctx, scored, calls

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), floor=st.integers(-3, 3),
           k=st.integers(1, CANDIDATES_MAX), skip=st.integers(0, 70),
           extra=st.integers(0, 70))
    def test_matches_sort_based_min_k_oracle(self, data, floor, k, skip,
                                             extra):
        # offsets of 0 are frequent, so many nodes tie at the floor
        offsets = data.draw(st.lists(
            st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 1000)),
            min_size=1, max_size=64))
        scores = [floor + d for d in offsets]
        scan_limit = k + extra
        store, lst, fids, ctx, scored, calls = self.run_floored(
            scores, k, floor, scan_limit=scan_limit, skip=skip)
        window = list(zip(scores, fids))[skip:skip + scan_limit]
        expect = [fid for _, _, fid in
                  sorted((s, i, f) for i, (s, f) in enumerate(window))][:k]
        assert ctx.candidates == expect
        assert store.list_members(lst) == fids
        # the pass scores a prefix of the window, each node once, and ends
        # at the k-th floor node if the window holds that many
        floor_at = [i for i, (s, _) in enumerate(window) if s == floor]
        stop = floor_at[k - 1] + 1 if len(floor_at) >= k else len(window)
        assert calls == [f for _, f in window[:stop]]
        assert scored == stop

    def test_window_without_a_floor_node_is_scored_once_per_node(self):
        scores = [5, 3, 9, 3, 7, 4, 8, 6]
        _, _, fids, ctx, scored, calls = self.run_floored(scores, k=3,
                                                          floor=0)
        assert calls == fids
        assert scored == len(fids)
        assert ctx.candidates == [fids[1], fids[3], fids[5]]

    @pytest.mark.parametrize("floor_at_end", [False, True])
    def test_round_over_a_large_window_stays_small(self, floor_at_end):
        n = 100_000
        store, _, fids = make_store(n, limit_pages=n, checked=False)
        lst = store.list_create()
        for fid in fids:
            store.list_add(lst, fid, tail=True)
        # falling scores make every node displace the worst kept one
        by_fid = {fid: n + 1 - fid for fid in fids}
        if floor_at_end:
            by_fid[fids[-1]] = 0
        ctx = EvictionContext(CANDIDATES_MAX)
        opts = IterOptions(mode=IterMode.SCORE, scan_limit=n, score_floor=0)
        # a copy of the window, or of its scores, is 800 KB
        tracemalloc.start()
        try:
            scored = store.list_iterate(lst, by_fid.__getitem__, opts, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scored == n
        if floor_at_end:
            expect = [fids[-1]] + fids[-2:-CANDIDATES_MAX - 1:-1]
        else:
            expect = fids[:-CANDIDATES_MAX - 1:-1]
        assert ctx.candidates == expect
        assert peak < 64 * 1024

    def test_score_below_the_floor_raises(self):
        with pytest.raises(ValueError, match="below the declared floor"):
            self.run_floored([2, 1, -1, 3], k=1, floor=0)

    def test_score_below_the_floor_is_a_hook_error(self):
        assert_one_round_is_a_hook_error(
            lambda fid: -1, IterOptions(mode=IterMode.SCORE, score_floor=0))

    @pytest.mark.parametrize("junk", [None, "x"])
    def test_junk_score_without_a_floor_is_a_hook_error(self, junk):
        # the head scores junk and the other node 1: with no floor there
        # is no floor hit, so None must not be taken for one
        scores = iter([junk, 1])
        assert_one_round_is_a_hook_error(lambda fid: next(scores),
                                         IterOptions(mode=IterMode.SCORE))


#: Scores of the five nodes in score mode, which ranks them 1, 3, 2, 4, 0.
WALK_SCORES = (5, 1, 3, 2, 4)

#: The walk modes: evaluate (every node EVICT), and score mode without a
#: floor and with one that only node 1 reaches; both score passes answer
#: alike.
WALK_MODES = {
    "evaluate": IterOptions(scan_limit=5),
    "score": IterOptions(mode=IterMode.SCORE, scan_limit=5),
    "score floor": IterOptions(mode=IterMode.SCORE, scan_limit=5,
                               score_floor=1),
}


def propose_this(ctx, fids, fid):
    ctx.propose(fid)


def propose_last(ctx, fids, fid):
    ctx.propose(fids[4])


def fill(ctx, fids, fid):
    ctx.nr_candidates_proposed = ctx.nr_candidates_requested


def replace_candidates(ctx, fids, fid):
    ctx.candidates = [99]


def unset_count(ctx, fids, fid):
    ctx.nr_candidates_proposed = None


def frozen_candidates(ctx, fids, fid):
    ctx.candidates = ()


def proposal_walk(mode, action):
    """Walk five listed folios for a 3-candidate round in ``mode``; the
    callback runs ``action`` at the second node. Returns the walk's
    return value, the candidates as node positions (99 as itself) and
    the proposed count."""
    store, _, fids = make_store(5)
    lst = store.list_create()
    for fid in fids:
        store.list_add(lst, fid, tail=True)
    ctx = EvictionContext(3)
    opts = WALK_MODES[mode]

    def callback(fid):
        if fid == fids[1]:
            action(ctx, fids, fid)
        if opts.mode is IterMode.SCORE:
            return WALK_SCORES[fids.index(fid)]
        return Verdict.EVICT

    examined = store.list_iterate(lst, callback, opts, ctx)
    return (examined,
            [fids.index(c) if c in fids else c for c in ctx.candidates],
            ctx.nr_candidates_proposed)


class TestWalkProposals:
    """A walk appends its candidates under ``EvictionContext.propose``'s
    rules, reading the context as the callback left it."""

    @pytest.mark.parametrize("mode", list(WALK_MODES))
    @pytest.mark.parametrize("action, evaluate, score", [
        (None, (3, [0, 1, 2], 3), (5, [1, 3, 2], 3)),
        # a node the callback proposed is not appended twice
        (propose_this, (3, [0, 1, 2], 3), (5, [1, 3, 2], 3)),
        (propose_last, (2, [0, 4, 1], 3), (5, [4, 1, 3], 3)),
        (fill, (2, [0], 3), (5, [], 3)),
        # appends go to the list the context holds when they are made
        (replace_candidates, (3, [99, 1, 2], 3), (5, [99, 1, 3, 2], 3)),
    ], ids=["no action", "propose_this", "propose_last", "fill",
            "replace_candidates"])
    def test_candidates_and_return_value(self, mode, action, evaluate,
                                         score):
        result = proposal_walk(mode, action or (lambda *args: None))
        assert result == (evaluate if mode == "evaluate" else score)

    @pytest.mark.parametrize("mode", list(WALK_MODES))
    @pytest.mark.parametrize("action, error, message", [
        (unset_count, TypeError, "'>=' not supported between instances of "
                                 "'NoneType' and 'int'"),
        (frozen_candidates, AttributeError,
         "'tuple' object has no attribute 'append'"),
    ], ids=["unset_count", "frozen_candidates"])
    def test_a_broken_context_raises_as_propose_does(self, mode, action,
                                                     error, message):
        with pytest.raises(error) as raised:
            proposal_walk(mode, action)
        assert str(raised.value) == message


def assert_one_round_is_a_hook_error(callback, opts):
    """A cgroup of 2 pages faults a third, and its one eviction round walks
    the 2-node queue with ``callback`` and ``opts``; the round must be a
    hook error that default eviction covers."""

    class ScoringPolicy(PolicyHooks):
        def policy_init(self, cg):
            self.cg = cg
            self.queue = cg.list_create()

        def folio_added(self, folio):
            self.cg.list_add(self.queue, folio.id, tail=True)

        def evict_folios(self, ctx, cg):
            cg.list_iterate(self.queue, callback, opts, ctx)

    sim = Simulator()
    sim.add_cgroup(0, 2)
    sim.attach_policy(0, ScoringPolicy())
    for page in (0, 1, 2):
        sim.access_page(0, 1, page)
    stats = sim.stats(0)
    assert stats.hook_errors == 1
    assert stats.evictions_policy == 0
    assert stats.evictions_fallback == 1
    assert sim.resident_pages(0) == 2
    sim.check_invariants()


class TestEmptyList:
    """An empty list answers after the checks a non-empty list makes
    before its first read, and never calls the callback."""

    MODES = [IterOptions(),
             IterOptions(disposition=Disposition.MOVE_TO_LIST,
                         target_list=42),
             IterOptions(mode=IterMode.SCORE),
             IterOptions(mode=IterMode.SCORE, score_floor=0)]

    @pytest.mark.parametrize("opts", MODES)
    def test_returns_zero_without_a_callback(self, opts):
        store, _, _ = make_store()
        lst = store.list_create()
        calls = []
        ctx = EvictionContext(2)
        assert store.list_iterate(lst, calls.append, opts, ctx) == 0
        assert calls == [] and ctx.candidates == []

    def test_unknown_list_is_invalid(self):
        store, _, _ = make_store()
        status = store.list_iterate(42, lambda fid: 0, IterOptions(),
                                    EvictionContext(1))
        assert status is ListStatus.INVALID_LIST

    def test_score_window_below_the_request_raises(self):
        store, _, _ = make_store()
        lst = store.list_create()
        with pytest.raises(ValueError, match="scan_limit"):
            store.list_iterate(lst, lambda fid: 0,
                               IterOptions(mode=IterMode.SCORE, scan_limit=2),
                               EvictionContext(4))

    @pytest.mark.parametrize("mode", [IterMode.EVALUATE, IterMode.SCORE])
    @pytest.mark.parametrize("skip, scan_limit", [(-1, 8), (0, -1)])
    def test_bounds_outside_islice_raise(self, mode, skip, scan_limit):
        store, _, _ = make_store()
        lst = store.list_create()
        opts = IterOptions(mode=mode, skip=skip, scan_limit=scan_limit)
        with pytest.raises(ValueError, match="islice"):
            store.list_iterate(lst, lambda fid: 0, opts, EvictionContext(1))


class TestConsistency:
    def test_random_operation_sequences_stay_consistent(self):
        rng = random.Random(5)
        store, _, fids = make_store(24)
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
                if listed_on(store, fid) is not None:
                    continue
                store.list_add(lst, fid, tail=True)
        store.check_consistency()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9),
                              st.integers(0, 1)), max_size=80))
    def test_single_membership_property(self, ops):
        store, _, fids = make_store(10)
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
