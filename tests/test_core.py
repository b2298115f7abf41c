"""Cache-core behavior: access path, refault handling, default eviction,
the eviction driver with policy validation and fallback, and file removal."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest

from pagecachesim import (
    EvictionContext,
    FifoPolicy,
    IterMode,
    IterOptions,
    LfuPolicy,
    PolicyAttachError,
    PolicyHooks,
    RemovalReason,
    S3FifoPolicy,
    SimulationError,
    Simulator,
    UnknownCgroupError,
)
from conftest import RecordingPolicy, make_sim, random_accesses
from reference_twolist import two_list_trace


class TestAccessPage:
    def test_cold_start_miss_lands_on_inactive_tail(self):
        sim = make_sim(limit_pages=8)
        assert sim.access_page(0, 1, 0) is False
        folio = sim.find_folio(1, 0)
        assert folio is not None and not folio.active
        cg = sim.cgroup(0)
        assert list(cg.inactive) == [folio.id]
        assert sim.resident_pages(0) == 1

    def test_second_access_promotes_to_active(self):
        sim = make_sim(limit_pages=8)
        sim.access_page(0, 1, 0)
        assert sim.access_page(0, 1, 0) is True
        folio = sim.find_folio(1, 0)
        assert folio.referenced and not folio.active
        assert sim.access_page(0, 1, 0) is True
        assert folio.active
        assert list(sim.cgroup(0).active) == [folio.id]

    def test_unknown_cgroup_is_a_configuration_error(self):
        sim = make_sim(limit_pages=8)
        with pytest.raises(UnknownCgroupError):
            sim.access_page(99, 1, 0)

    def test_write_sets_dirty(self):
        sim = make_sim(limit_pages=8)
        sim.access_page(0, 1, 0, write=True)
        assert sim.find_folio(1, 0).dirty

    def test_cross_cgroup_access_hits_owner_folio(self, recording_policy):
        sim = Simulator()
        sim.add_cgroup(0, 8)   # A
        sim.add_cgroup(1, 8)   # B
        sim.attach_policy(1, recording_policy)
        sim.access_page(1, 5, 3)
        assert sim.access_page(0, 5, 3) is True
        assert sim.resident_pages(0) == 0
        assert sim.resident_pages(1) == 1
        assert recording_policy.of_kind("accessed") == [sim.find_folio(5, 3).id]
        # the accessing cgroup gets the hit, the owner keeps the folio
        assert sim.stats(0).hits == 1
        assert sim.stats(1).hits == 0

    def test_no_promotion_while_custom_policy_manages_owner(
            self, recording_policy):
        sim = make_sim(limit_pages=8, policy=recording_policy)
        sim.access_page(0, 1, 0)
        sim.access_page(0, 1, 0)
        sim.access_page(0, 1, 0)
        assert not sim.find_folio(1, 0).active


class TestRefaultCheck:
    """The refault decision on ``access_page``'s miss path."""

    def test_no_shadow_entry_goes_inactive(self):
        sim = make_sim(limit_pages=8)
        assert sim.access_page(0, 1, 0) is False
        assert not sim.find_folio(1, 0).active
        assert sim.stats(0).refault_activations == 0

    @pytest.mark.parametrize("now,active", [
        (150, True),     # distance 50 <= resident 100
        (200, True),     # distance 100 == resident 100
        (300, False),    # distance 200 > resident 100
    ])
    def test_refault_distance_rule(self, now, active):
        sim = make_sim(limit_pages=512)
        for page in range(100):
            sim.access_page(0, 9, page)
        cg = sim.cgroup(0)
        assert cg.resident_pages == 100
        cg.shadow_table[(1, 0)] = 100
        cg.eviction_epoch = now
        assert sim.access_page(0, 1, 0) is False
        assert sim.find_folio(1, 0).active is active
        assert sim.stats(0).refault_activations == int(active)
        assert (1, 0) not in cg.shadow_table  # consumed either way

    def test_shadow_entry_consumed_even_when_stale(self):
        sim = make_sim(limit_pages=8)
        cg = sim.cgroup(0)
        cg.shadow_table[(1, 0)] = 1
        cg.eviction_epoch = 1000
        sim.access_page(0, 1, 0)
        assert not sim.find_folio(1, 0).active
        assert (1, 0) not in cg.shadow_table

    def test_quick_refault_activates_on_replay(self):
        sim = make_sim(limit_pages=2)
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        # page 0 was evicted; distance 0 <= resident 2, so straight to active
        assert sim.access_page(0, 1, 0) is False
        assert sim.find_folio(1, 0).active
        assert sim.stats(0).refault_activations == 1

    def test_shadow_table_bounded_by_limit(self):
        sim = make_sim(limit_pages=4)
        for page in range(32):
            sim.access_page(0, 1, page)
        assert len(sim.cgroup(0).shadow_table) <= 4

    def test_shrinking_without_eviction_trims_the_shadow_table(self):
        sim = make_sim(limit_pages=10)
        for page in range(15):
            sim.access_page(0, 1, page)
        sim.remove_file(0, 1)
        sim.set_limit(0, 2)  # nothing resident, so nothing to evict
        # of the shadow entries of evicted pages 0-4, the two newest stay
        assert list(sim.cgroup(0).shadow_table) == [(1, 3), (1, 4)]
        sim.check_invariants()


class TestDefaultEvict:
    def test_evicts_from_inactive_head_in_order(self):
        sim = make_sim(limit_pages=8, record_evictions=True)
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        assert sim.default_evict(sim.cgroup(0), 2) == 2
        assert sim.eviction_log == [(0, 1, 0), (0, 1, 1)]

    def test_pinned_folio_is_skipped(self):
        sim = make_sim(limit_pages=8, record_evictions=True)
        sim.access_page(0, 1, 0)
        sim.access_page(0, 1, 1)
        sim.pin(1, 0)
        assert sim.default_evict(sim.cgroup(0), 1) == 1
        assert sim.eviction_log == [(0, 1, 1)]
        assert sim.find_folio(1, 0) is not None

    def test_demotes_active_head_when_inactive_empty(self):
        sim = make_sim(limit_pages=8, record_evictions=True)
        for page in (0, 1):
            sim.access_page(0, 1, page)
            sim.access_page(0, 1, page)
            sim.access_page(0, 1, page)
        cg = sim.cgroup(0)
        assert len(cg.active) == 2 and len(cg.inactive) == 0
        assert sim.default_evict(cg, 1) == 1
        assert sim.eviction_log == [(0, 1, 0)]  # demoted then evicted

    def test_all_pinned_returns_short(self):
        sim = make_sim(limit_pages=8)
        sim.access_page(0, 1, 0)
        sim.pin(1, 0)
        assert sim.default_evict(sim.cgroup(0), 1) == 0

    def test_eviction_writes_shadow_and_epoch(self):
        sim = make_sim(limit_pages=8)
        sim.access_page(0, 1, 0)
        sim.default_evict(sim.cgroup(0), 1)
        cg = sim.cgroup(0)
        assert cg.eviction_epoch == 1
        assert cg.shadow_table[(1, 0)] == 1

    def test_counts_only_fallback_evictions(self):
        sim = make_sim(limit_pages=8)
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        assert sim.default_evict(sim.cgroup(0), 2) == 2
        stats = sim.stats(0)
        assert stats.evictions_fallback == 2
        assert stats.evictions_policy == 0

    def test_evicts_only_from_the_given_cgroup(self):
        sim = Simulator(record_evictions=True)
        sim.add_cgroup(0, 8)
        sim.add_cgroup(1, 8)
        sim.access_page(0, 1, 0)
        sim.access_page(1, 2, 0)
        sim.access_page(1, 2, 1)
        assert sim.default_evict(sim.cgroup(1), 1) == 1
        assert sim.eviction_log == [(1, 2, 0)]
        assert sim.resident_pages(0) == 1 and sim.resident_pages(1) == 1
        assert sim.stats(0).evictions_fallback == 0
        assert sim.cgroup(0).eviction_epoch == 0

    def test_stops_when_the_cgroup_is_empty(self):
        sim = make_sim(limit_pages=8)
        sim.access_page(0, 1, 0)
        sim.access_page(0, 1, 1)
        sim.access_page(0, 1, 1)  # one folio on each list
        assert sim.default_evict(sim.cgroup(0), 5) == 2
        assert sim.resident_pages(0) == 0
        sim.check_invariants()


class FixedProposalPolicy(PolicyHooks):
    """Proposes a fixed slice of its FIFO list per round (or arbitrary
    ids), for driver validation tests."""

    name = "fixed"

    def __init__(self, per_round=None, inject=None):
        self.per_round = per_round
        self.inject = inject or []

    def policy_init(self, cg):
        self.cg = cg
        self.queue = cg.list_create()

    def folio_added(self, folio):
        self.cg.list_add(self.queue, folio.id, tail=True)

    def evict_folios(self, ctx, cg):
        for fid in self.inject:
            ctx.propose(fid)
        limit = ctx.room() if self.per_round is None else self.per_round
        for fid in cg.list_members(self.queue)[:limit]:
            ctx.propose(fid)


class _FirstFolio(IntEnum):
    ID = 1  # the first folio a fresh simulator faults in


class _FolioId(int):
    """A policy's own folio id type."""


class TestDriveEviction:
    def test_shrink_asks_the_fallback_for_the_overage_in_rounds_of_32(self):
        sim = make_sim(limit_pages=64, record_evictions=True)
        asked = []
        default_evict = sim.default_evict

        def recording(cg, needed):
            asked.append(needed)
            return default_evict(cg, needed)

        sim.default_evict = recording
        for page in range(40):
            sim.access_page(0, 1, page)
        sim.set_limit(0, 1)
        assert asked == [32, 7]
        assert sim.eviction_log == [(0, 1, page) for page in range(39)]
        assert sim.stats(0).evictions_fallback == 39
        assert sim.resident_pages(0) == 1

    def test_full_delivery_counts_only_policy_evictions(self):
        sim = make_sim(limit_pages=32, policy=FixedProposalPolicy())
        for page in range(10):
            sim.access_page(0, 1, page)
        sim.set_limit(0, 4)
        stats = sim.stats(0)
        assert sim.resident_pages(0) == 4
        assert stats.evictions_policy == 6
        assert stats.evictions_fallback == 0

    def test_under_delivery_falls_back(self):
        # asked for 10, proposes 5: five policy evictions plus five fallback
        sim = make_sim(limit_pages=32, policy=FixedProposalPolicy(per_round=5))
        for page in range(32):
            sim.access_page(0, 1, page)
        sim.set_limit(0, 22)
        stats = sim.stats(0)
        assert sim.resident_pages(0) == 22
        assert stats.evictions_policy == 5
        assert stats.evictions_fallback == 5

    def test_unknown_candidate_rejected_and_counted(self):
        policy = FixedProposalPolicy(inject=[999999])
        sim = make_sim(limit_pages=2, policy=policy)
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.invalid_candidates == 1
        assert stats.evictions_policy == 0
        assert stats.evictions_fallback == 1  # fallback covers the round
        assert sim.resident_pages(0) == 2

    def test_foreign_candidate_rejected(self):
        policy = FixedProposalPolicy(per_round=0)
        sim = Simulator()
        sim.add_cgroup(0, 2)
        sim.add_cgroup(1, 8)
        sim.attach_policy(0, policy)
        sim.access_page(1, 7, 0)     # folio owned by cgroup 1
        foreign = sim.find_folio(7, 0).id
        policy.inject = [foreign]
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        assert sim.stats(0).invalid_candidates == 1
        assert sim.find_folio(7, 0) is not None

    def test_pinned_candidate_rejected(self):
        policy = FixedProposalPolicy()
        sim = make_sim(limit_pages=2, policy=policy)
        sim.access_page(0, 1, 0)
        sim.pin(1, 0)
        sim.access_page(0, 1, 1)
        sim.access_page(0, 1, 2)
        assert sim.stats(0).invalid_candidates >= 1
        assert sim.find_folio(1, 0) is not None
        assert sim.resident_pages(0) == 2

    def test_duplicate_proposal_evicts_once(self):
        class DupPolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                members = cg.list_members(self.queue)
                ctx.candidates = [members[0], members[0]]
                ctx.nr_candidates_proposed = 2

        sim = make_sim(limit_pages=32, policy=DupPolicy())
        for page in range(4):
            sim.access_page(0, 1, page)
        sim.set_limit(0, 2)
        stats = sim.stats(0)
        assert stats.evictions_policy + stats.evictions_fallback == 2
        assert stats.invalid_candidates == 0
        assert sim.resident_pages(0) == 2

    def test_repeated_rejections_count_once_and_non_ints_each_time(self):
        class RepeatingPolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                pinned, first, second = cg.list_members(self.queue)[:3]
                ctx.candidates = [999999, 999999, True, True, 1.0, 1.0,
                                  pinned, pinned, first, first,
                                  float(first), second]
                ctx.nr_candidates_proposed = len(ctx.candidates)

        sim = make_sim(limit_pages=32, policy=RepeatingPolicy())
        for page in range(13):
            sim.access_page(0, 1, page)
        sim.pin(1, 0)
        sim.set_limit(0, 1)  # one round asking for 12
        stats = sim.stats(0)
        # unknown and pinned count once; non-ints count every time, also
        # when equal to an earlier int
        assert stats.invalid_candidates == 1 + 2 + 2 + 1 + 1
        assert stats.evictions_policy == 2
        assert stats.evictions_fallback == 10
        assert sim.find_folio(1, 0) is not None

    def test_rejected_int_after_an_equal_bool_is_counted(self):
        # True == 1, but a bool is no folio id, so it does not make the
        # rejected id 1 after it a duplicate
        class BoolThenIntPolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                ctx.candidates = [True, 1]
                ctx.nr_candidates_proposed = 2

        sim = make_sim(limit_pages=4, policy=BoolThenIntPolicy())
        for page in range(4):
            sim.access_page(0, 1, page)
        for page in (0, 1):
            sim.pin(1, page)  # id 1, if resident, is pinned
        sim.set_limit(0, 2)  # one round asking for 2
        stats = sim.stats(0)
        assert stats.invalid_candidates == 2
        assert stats.evictions_fallback == 2

    def test_garbage_candidates_rejected_without_crashing(self):
        class GarbagePolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                ctx.candidates = [[1, 2], "folio", None, -5]
                ctx.nr_candidates_proposed = 32  # lies about the count too

        sim = make_sim(limit_pages=2, policy=GarbagePolicy())
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.invalid_candidates >= 1
        assert stats.evictions_fallback == 1
        assert sim.resident_pages(0) == 2

    @pytest.mark.parametrize("field", ["nr_candidates_proposed",
                                       "candidates"])
    def test_unreadable_context_counts_as_hook_error(self, field):
        class CorruptingPolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                super().evict_folios(ctx, cg)
                setattr(ctx, field, None)

        sim = make_sim(limit_pages=2, policy=CorruptingPolicy())
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.hook_errors == 1
        assert stats.evictions_policy == 0
        assert stats.evictions_fallback == 1
        assert sim.resident_pages(0) == 2
        sim.check_invariants()

    def test_negative_proposed_count_proposes_nothing(self):
        class NegativePolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                ctx.candidates = cg.list_members(self.queue)
                ctx.nr_candidates_proposed = -1

        sim = make_sim(limit_pages=2, policy=NegativePolicy())
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.evictions_policy == 0
        assert stats.evictions_fallback == 1
        assert stats.hook_errors == 0

    def test_bool_candidates_rejected(self):
        # True == 1 == the first folio's id, but a bool is not a folio id
        policy = FixedProposalPolicy(per_round=0, inject=[True])
        sim = make_sim(limit_pages=2, policy=policy)
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.invalid_candidates == 1
        assert stats.evictions_policy == 0
        assert stats.evictions_fallback == 1
        assert sim.resident_pages(0) == 2

    @pytest.mark.parametrize("candidate", [_FirstFolio.ID, _FolioId(1)],
                             ids=["IntEnum", "int-subclass"])
    def test_int_subclass_candidate_is_a_policy_eviction(self, candidate):
        # an int subclass is an int: equal to folio 1's id, it names it
        policy = FixedProposalPolicy(per_round=0, inject=[candidate])
        sim = make_sim(limit_pages=2, policy=policy, record_evictions=True)
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)  # folio ids 1, 2, 3
        stats = sim.stats(0)
        assert stats.evictions_policy == 1
        assert stats.evictions_fallback == 0
        assert stats.invalid_candidates == 0
        assert sim.eviction_log == [(0, 1, 0)]

    def test_each_round_gets_a_fresh_context(self):
        """The core builds each round's context itself: the policy sees
        min(32, overage) requested, nothing proposed and a new, empty
        candidate list, whatever it did to an earlier round's context."""

        class ContextKeepingPolicy(FixedProposalPolicy):
            def __init__(self):
                super().__init__()
                self.rounds = []
                self.kept = []

            def folio_added(self, folio):
                super().folio_added(folio)
                for old in self.kept:
                    old.nr_candidates_requested = 32
                    old.nr_candidates_proposed = 5
                    old.candidates.append(folio.id)

            def evict_folios(self, ctx, cg):
                overage = cg.resident_pages - cg.limit_pages
                self.rounds.append((
                    type(ctx), ctx.nr_candidates_requested,
                    min(32, overage), ctx.nr_candidates_proposed,
                    list(ctx.candidates),
                    any(ctx is old or ctx.candidates is old.candidates
                        for old in self.kept)))
                super().evict_folios(ctx, cg)
                self.kept.append(ctx)

        policy = ContextKeepingPolicy()
        sim = make_sim(limit_pages=64, policy=policy)
        for page in range(64):
            sim.access_page(0, 1, page)
        sim.set_limit(0, 20)  # rounds asking for 32, then 12
        for page in range(64, 70):
            sim.access_page(0, 1, page)  # one page each
        assert [r[1] for r in policy.rounds] == [32, 12] + [1] * 6
        for kind, requested, expected, proposed, candidates, reused in (
                policy.rounds):
            assert kind is EvictionContext
            assert requested == expected
            assert proposed == 0
            assert candidates == []
            assert not reused
        stats = sim.stats(0)
        assert stats.evictions_policy == 50
        assert stats.evictions_fallback == 0
        assert stats.invalid_candidates == 0
        sim.check_invariants()

    def test_round_evicts_only_the_snapshot(self):
        """Candidates are read once, when ``evict_folios`` returns: ids a
        policy adds to the context afterwards, from ``folio_removed``, are
        never evicted."""

        class LateProposingPolicy(FixedProposalPolicy):
            def __init__(self):
                super().__init__(per_round=1)
                self.ctx = None

            def evict_folios(self, ctx, cg):
                super().evict_folios(ctx, cg)
                self.ctx = ctx

            def folio_removed(self, folio):
                ctx = self.ctx
                if ctx is None:
                    return
                for fid in self.cg.list_members(self.queue):
                    if fid not in ctx.candidates:
                        ctx.candidates.append(fid)
                ctx.nr_candidates_proposed = len(ctx.candidates)

        sim = make_sim(limit_pages=4, policy=LateProposingPolicy(),
                       record_evictions=True)
        for page in range(4):
            sim.access_page(0, 1, page)
        sim.set_limit(0, 2)  # one round asking for 2; the policy gives 1
        stats = sim.stats(0)
        assert stats.evictions_policy == 1
        assert stats.evictions_fallback == 1
        assert stats.invalid_candidates == 0
        assert sim.eviction_log == [(0, 1, 0), (0, 1, 1)]
        assert sim.resident_pages(0) == 2
        sim.check_invariants()

    @pytest.mark.parametrize("change", ["move", "del"])
    def test_score_callback_changing_its_list_is_a_hook_error(self, change):
        class ChangingScorePolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                head = cg.list_members(self.queue)[0]

                def score(fid):
                    if fid == head:
                        if change == "move":
                            cg.list_move(self.queue, fid, tail=True)
                        else:
                            cg.list_del(fid)
                    return 0

                cg.list_iterate(self.queue, score,
                                IterOptions(mode=IterMode.SCORE), ctx)

        sim = make_sim(limit_pages=2, policy=ChangingScorePolicy())
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.hook_errors == 1
        assert stats.evictions_policy == 0
        assert stats.evictions_fallback == 1
        assert sim.resident_pages(0) == 2
        sim.check_invariants()

    def test_hook_exception_abandons_round_and_falls_back(self):
        class ExplodingPolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                raise RuntimeError("boom")

        sim = make_sim(limit_pages=2, policy=ExplodingPolicy())
        for page in (0, 1, 2):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert sim.resident_pages(0) == 2
        assert stats.evictions_fallback == 1
        assert stats.hook_errors >= 1

    @pytest.mark.parametrize("make_policy", [lambda: None, RecordingPolicy],
                             ids=["default", "policy"])
    def test_all_pinned_gives_up_over_the_limit(self, deadline, make_policy):
        sim = make_sim(limit_pages=4, policy=make_policy())
        for page in range(4):
            sim.access_page(0, 1, page)
            sim.pin(1, page)
        sim.set_limit(0, 2)
        stats = sim.stats(0)
        # nothing was evictable, so the driver stopped with all four
        # resident; the invariant check forgives a cgroup of pinned folios
        assert sim.resident_pages(0) == 4
        assert stats.evictions == 0
        sim.check_invariants()
        sim.pin(1, 0, False)
        sim.pin(1, 1, False)
        assert sim.access_page(0, 1, 4) is False
        # the fault evicts both unpinned folios and its own, down to 2
        assert sim.resident_pages(0) == 2
        assert stats.evictions == 3
        sim.check_invariants()

    def test_no_policy_matches_default_evict(self):
        trace = [(1, p) for p in range(8)] + [(1, p) for p in range(4)]
        sim = make_sim(limit_pages=4, record_evictions=True)
        for file, page in trace:
            sim.access_page(0, file, page)
        expect, _, _ = two_list_trace(trace, 4)
        assert [(f, o) for _, f, o in sim.eviction_log] == expect


def _parent_snapshot(candidates, count, needed):
    """The snapshot rule as an expression: the round's candidates."""
    return candidates[:max(0, min(count, len(candidates), needed))]


_COUNTS = [-1, 0, True, False, 0.5, 1.0, 2.0, 2.5, float("nan"), None, "x",
           Fraction(5, 2)]
_CONTAINERS = {
    "one id": lambda ids: [ids[0]],
    "three ids": lambda ids: list(ids[:3]),
    "tuple": lambda ids: tuple(ids[:3]),
    "empty": lambda ids: [],
    "None": lambda ids: None,
}


class TestSnapshotRule:
    """Whatever a policy leaves in ``nr_candidates_proposed`` and
    ``candidates``, the round evicts the snapshot
    ``candidates[:max(0, min(count, len(candidates), needed))]``, or counts
    a hook error where that expression raises."""

    @pytest.mark.parametrize("needed", [1, 3], ids=["request 1",
                                                    "request 3"])
    @pytest.mark.parametrize("container", list(_CONTAINERS))
    @pytest.mark.parametrize("count", _COUNTS, ids=repr)
    def test_round_takes_the_snapshot(self, count, container, needed):
        make = _CONTAINERS[container]

        class SettingPolicy(FixedProposalPolicy):
            def evict_folios(self, ctx, cg):
                ctx.candidates = make(cg.list_members(self.queue))
                ctx.nr_candidates_proposed = count

        sim = make_sim(limit_pages=8, policy=SettingPolicy())
        for page in range(8):
            sim.access_page(0, 1, page)  # folio ids 1 to 8
        if needed == 1:
            sim.access_page(0, 1, 8)
        else:
            sim.set_limit(0, 5)
        try:
            accepted = len(_parent_snapshot(make(list(range(1, 10))), count,
                                            needed))
            errors = 0
        except TypeError:
            accepted, errors = 0, 1
        stats = sim.stats(0)
        assert (stats.hook_errors, stats.invalid_candidates,
                stats.evictions_policy, stats.evictions_fallback) == (
                    errors, 0, accepted, needed - accepted)
        sim.check_invariants()


class RearmingPolicy(RecordingPolicy):
    """Takes the deferred slot after every event: requests it from
    ``policy_init`` and again from each ``run_deferred``."""

    def policy_init(self, cg):
        super().policy_init(cg)
        cg.request_deferred()

    def run_deferred(self):
        self.calls.append(("deferred", None))
        self.cg.request_deferred()


class TestHookErrors:
    """A raising hook is counted against the folio's owner, and the
    simulation goes on with its structures intact."""

    @pytest.mark.parametrize("hook", ["folio_accessed", "folio_added",
                                      "folio_removed", "run_deferred"])
    def test_each_raise_is_counted_and_the_replay_finishes(self, hook):
        policy = RearmingPolicy()
        original = getattr(policy, hook)
        raised = []

        def raising(*args):
            original(*args)
            raised.append(args)
            raise RuntimeError(hook)

        setattr(policy, hook, raising)
        sim = make_sim(limit_pages=8, policy=policy)
        events = 0
        for file, page in random_accesses(random.Random(4), 300, files=3,
                                          pages_per_file=8):
            sim.access_page(0, file, page)
            if page == 7:
                sim.remove_file(0, file)
            sim.run_deferred()
            events += 1
        sim.check_invariants()
        stats = sim.stats(0)
        assert stats.accesses == events
        assert stats.hook_errors == len(raised) > 0
        expected = {"folio_accessed": stats.hits,
                    "folio_added": stats.misses,
                    "folio_removed": stats.removals,
                    "run_deferred": events}[hook]
        assert len(raised) == expected


class TestAttachPolicy:
    def test_failed_init_leaves_no_folio_listed(self):
        sim = make_sim(limit_pages=2)
        sim.access_page(0, 1, 0)
        resident = sim.find_folio(1, 0).id

        class ListsThenRaises(PolicyHooks):
            name = "broken"

            def policy_init(self, cg):
                cg.list_add(cg.list_create(), resident, tail=True)
                raise RuntimeError("init failed")

        with pytest.raises(PolicyAttachError):
            sim.attach_policy(0, ListsThenRaises())
        for page in (1, 2, 3):
            sim.access_page(0, 1, page)
        assert sim.resident_pages(0) == 2
        assert sim.find_folio(1, 0) is None
        sim.check_invariants()


class HookRecordingFifo(FifoPolicy):
    """FIFO that overrides folio_accessed and folio_removed to record each
    call with the handle's event context."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def folio_accessed(self, folio):
        self.calls.append(("accessed", folio.id, self.cg.current_thread))

    def folio_removed(self, folio):
        self.calls.append(("removed", folio.id, self.cg.removal_reason))


def hits_evictions_and_a_file_removal(sim):
    """Three pages through a 2-page cgroup with two hits, then file 1
    removed: one eviction (page 0), two file removals."""
    for page, thread in ((0, 1), (1, 2), (1, 3), (2, 4), (2, 5)):
        sim.access_page(0, 1, page, thread=thread)
    sim.remove_file(0, 1)
    stats = sim.stats(0)
    assert (stats.hits, stats.evictions_policy,
            stats.file_removed_folios) == (2, 1, 2)


class TestAttachTimeHooks:
    """Whether the core calls folio_accessed and folio_removed is decided
    when the policy is attached: PolicyHooks' own no-ops are skipped,
    overrides are called."""

    def test_inherited_no_ops_are_never_called(self, monkeypatch):
        sim = make_sim(limit_pages=2, policy=FifoPolicy())
        spied = []
        for hook in ("folio_accessed", "folio_removed"):
            monkeypatch.setattr(PolicyHooks, hook,
                                lambda self, folio, hook=hook:
                                spied.append(hook))
        hits_evictions_and_a_file_removal(sim)
        assert spied == []
        assert sim.stats(0).hook_errors == 0
        sim.check_invariants()

    def test_no_op_replaced_after_attach_is_not_seen(self):
        policy = FifoPolicy()
        sim = make_sim(limit_pages=2, policy=policy)
        seen = []
        policy.folio_accessed = seen.append
        policy.folio_removed = seen.append
        hits_evictions_and_a_file_removal(sim)
        assert seen == []

    @pytest.mark.parametrize("where", ["class", "instance"])
    def test_overrides_set_before_attach_are_called(self, where):
        if where == "class":
            policy = HookRecordingFifo()
            calls = policy.calls
        else:
            # as the benchmark's tracer wraps hooks before attaching
            policy = FifoPolicy()
            calls = []
            policy.folio_accessed = lambda folio: calls.append(
                ("accessed", folio.id, policy.cg.current_thread))
            policy.folio_removed = lambda folio: calls.append(
                ("removed", folio.id, policy.cg.removal_reason))
        sim = make_sim(limit_pages=2, policy=policy)
        sim.access_page(0, 1, 0)
        first = sim.find_folio(1, 0).id
        sim.access_page(0, 1, 0, thread=6)
        sim.access_page(0, 1, 1)
        sim.access_page(0, 1, 2)
        second = sim.find_folio(1, 1).id
        third = sim.find_folio(1, 2).id
        sim.remove_file(0, 1)
        assert calls == [("accessed", first, 6),
                         ("removed", first, RemovalReason.EVICTED),
                         ("removed", second, RemovalReason.FILE_REMOVED),
                         ("removed", third, RemovalReason.FILE_REMOVED)]
        assert policy.cg.removal_reason is None

    @pytest.mark.parametrize("hook", ["folio_accessed", "folio_removed"])
    def test_raising_override_counts_one_hook_error(self, hook):
        class Raising(FifoPolicy):
            pass

        def raising(self, folio):
            raise RuntimeError(hook)

        setattr(Raising, hook, raising)
        sim = make_sim(limit_pages=1, policy=Raising())
        sim.access_page(0, 1, 0)
        sim.access_page(0, 1, 0)  # one hit
        sim.access_page(0, 1, 1)  # one eviction
        stats = sim.stats(0)
        assert (stats.hits, stats.evictions_policy) == (1, 1)
        assert stats.hook_errors == 1
        sim.check_invariants()

    def test_current_thread_follows_hits_without_an_accessed_hook(self):
        policy = FifoPolicy()
        sim = make_sim(limit_pages=4, policy=policy)
        sim.access_page(0, 1, 0, thread=3)
        assert policy.cg.current_thread == 3
        sim.access_page(0, 1, 0, thread=8)
        assert sim.stats(0).hits == 1
        assert policy.cg.current_thread == 8

    def test_removal_reason_is_set_only_inside_an_override(self):
        policy = HookRecordingFifo()
        sim = make_sim(limit_pages=2, policy=policy)
        hits_evictions_and_a_file_removal(sim)
        assert [call[2] for call in policy.calls if call[0] == "removed"] \
            == [RemovalReason.EVICTED, RemovalReason.FILE_REMOVED,
                RemovalReason.FILE_REMOVED]
        assert policy.cg.removal_reason is None


class AddRequestsPolicy(RecordingPolicy):
    """Requests the deferred slot on every admission and records each
    ``run_deferred`` call; ``failure`` set makes the call raise it."""

    failure = None

    def folio_added(self, folio):
        super().folio_added(folio)
        self.cg.request_deferred()

    def run_deferred(self):
        self.calls.append(("deferred", None))
        if self.failure is not None:
            raise self.failure


class TestDeferredRequests:
    """``request_deferred`` queues the cgroup once, and
    ``Simulator.run_deferred`` serves what was queued before it ran."""

    def test_two_requests_in_one_event_give_one_call(self):
        policy = AddRequestsPolicy()
        sim = make_sim(limit_pages=8, policy=policy)
        for page in range(3):  # one three-page event
            sim.access_page(0, 1, page)
        assert sim.deferred_requests == [sim.cgroup(0)]
        sim.run_deferred()
        assert policy.of_kind("deferred") == [None]
        assert sim.deferred_requests == []
        sim.run_deferred()  # nothing requested since
        assert policy.of_kind("deferred") == [None]

    def test_a_request_from_run_deferred_waits_for_the_next_event(self):
        policy = RearmingPolicy()
        sim = make_sim(limit_pages=8, policy=policy)
        sim.run_deferred()
        assert policy.of_kind("deferred") == [None]
        assert sim.deferred_requests == [sim.cgroup(0)]
        sim.run_deferred()
        assert policy.of_kind("deferred") == [None, None]

    def test_requests_are_served_in_request_order(self):
        sim = Simulator()
        policies = {}
        for cgroup in (0, 1):
            sim.add_cgroup(cgroup, 8)
            policies[cgroup] = AddRequestsPolicy()
            sim.attach_policy(cgroup, policies[cgroup])
        served = []
        for cgroup, policy in policies.items():
            policy.run_deferred = lambda cgroup=cgroup: served.append(cgroup)
        sim.access_page(1, 1, 0)
        sim.access_page(0, 2, 0)
        sim.access_page(1, 1, 1)
        sim.run_deferred()
        assert served == [1, 0]

    def test_a_raising_run_deferred_counts_one_error_per_request(self):
        policy = AddRequestsPolicy()
        policy.failure = RuntimeError("deferred")
        sim = make_sim(limit_pages=4, policy=policy)
        for page in range(6):
            sim.access_page(0, 1, page)
            sim.access_page(0, 1, page)  # a hit requests nothing
            sim.run_deferred()
        sim.run_deferred()
        assert len(policy.of_kind("deferred")) == 6
        assert sim.stats(0).hook_errors == 6
        assert sim.deferred_requests == []
        sim.check_invariants()

    def test_failed_init_leaves_nothing_queued(self):
        sim = make_sim(limit_pages=8)

        class RequestsThenRaises(RearmingPolicy):
            def policy_init(self, cg):
                super().policy_init(cg)
                raise RuntimeError("init failed")

        with pytest.raises(PolicyAttachError):
            sim.attach_policy(0, RequestsThenRaises())
        assert sim.deferred_requests == []
        sim.run_deferred()
        assert sim.stats(0).hook_errors == 0
        policy = RearmingPolicy()
        sim.attach_policy(0, policy)
        sim.run_deferred()
        assert policy.of_kind("deferred") == [None]


class ContextRecordingPolicy(RecordingPolicy):
    """Records the handle's event context as each hook sees it."""

    def folio_added(self, folio):
        super().folio_added(folio)
        cg = self.cg
        self.calls[-1] = ("added", folio.id, cg.current_thread,
                          cg.resident_pages, cg.removal_reason)

    def folio_accessed(self, folio):
        self.calls.append(("accessed", folio.id, self.cg.current_thread,
                           self.cg.removal_reason))

    def folio_removed(self, folio):
        self.calls.append(("removed", folio.id, self.cg.removal_reason))


class TestHandleContext:
    def test_hooks_see_the_event_context(self):
        policy = ContextRecordingPolicy()
        sim = Simulator()
        sim.add_cgroup(3, 4)
        sim.attach_policy(3, policy)
        cg = policy.cg
        assert cg.cgroup_id == 3
        assert cg.limit_pages == 4
        sim.access_page(3, 1, 0, thread=7)
        sim.access_page(3, 1, 1, thread=8)
        sim.access_page(3, 1, 0, thread=9)
        first = sim.find_folio(1, 0).id
        second = sim.find_folio(1, 1).id
        assert policy.calls[1:] == [("added", first, 7, 1, None),
                                    ("added", second, 8, 2, None),
                                    ("accessed", first, 9, None)]
        sim.set_limit(3, 1)  # FIFO order evicts the first folio
        assert cg.limit_pages == 1
        assert policy.calls[-1] == ("removed", first, RemovalReason.EVICTED)
        assert cg.removal_reason is None
        sim.remove_file(3, 1)
        assert policy.calls[-1] == ("removed", second,
                                    RemovalReason.FILE_REMOVED)
        assert cg.removal_reason is None


class TestRemoveFile:
    def test_counts_and_hooks(self, recording_policy):
        sim = make_sim(limit_pages=8, policy=recording_policy)
        for page in range(3):
            sim.access_page(0, 1, page)
        sim.access_page(0, 2, 0)
        assert sim.remove_file(0, 1) == 3
        assert len(recording_policy.of_kind("removed")) == 3
        assert sim.resident_pages(0) == 1
        assert sim.stats(0).file_removed_folios == 3

    def test_absent_file_returns_zero(self):
        sim = make_sim(limit_pages=8)
        assert sim.remove_file(0, 77) == 0

    def test_eviction_lists_shrink_with_the_file(self, recording_policy):
        sim = make_sim(limit_pages=8, policy=recording_policy)
        for page in range(3):
            sim.access_page(0, 1, page)
        cg_handle = recording_policy.cg
        assert cg_handle.list_length(recording_policy.queue) == 3
        sim.remove_file(0, 1)
        assert cg_handle.list_length(recording_policy.queue) == 0

    def test_no_shadow_entries_written(self):
        sim = make_sim(limit_pages=8)
        sim.access_page(0, 1, 0)
        sim.remove_file(0, 1)
        assert not sim.cgroup(0).shadow_table
        assert sim.cgroup(0).eviction_epoch == 0

    def test_removes_other_owners_folios_too(self):
        sim = Simulator()
        sim.add_cgroup(0, 8)
        sim.add_cgroup(1, 8)
        sim.access_page(0, 1, 0)
        sim.access_page(1, 1, 1)
        assert sim.remove_file(0, 1) == 2
        assert sim.resident_pages(0) == 0 and sim.resident_pages(1) == 0


class TestInvariants:
    def test_conservation_and_capacity_on_random_traces(self):
        rng = random.Random(7)
        for trial in range(20):
            limit = rng.randrange(2, 40)
            sim = make_sim(limit_pages=limit)
            accesses = random_accesses(rng, rng.randrange(50, 400))
            for file, page in accesses:
                sim.access_page(0, file, page)
                assert sim.resident_pages(0) <= limit
            stats = sim.stats(0)
            assert stats.hits + stats.misses == stats.accesses == len(accesses)
            assert stats.misses - stats.removals == sim.resident_pages(0)
            sim.check_invariants()

    def test_removed_fires_once_per_folio_and_after_added(self):
        rng = random.Random(3)
        policy = RecordingPolicy()
        sim = make_sim(limit_pages=8, policy=policy)
        for file, page in random_accesses(rng, 300, files=3,
                                          pages_per_file=24):
            sim.access_page(0, file, page)
        sim.remove_file(0, 0)
        added = policy.of_kind("added")
        removed = policy.of_kind("removed")
        assert len(set(added)) == len(added)
        assert len(set(removed)) == len(removed)
        added_order = {fid: i for i, fid in enumerate(added)}
        assert set(removed) <= set(added)
        events = [(kind, fid) for kind, fid in policy.calls
                  if kind in ("added", "removed")]
        seen_removed = set()
        for kind, fid in events:
            if kind == "removed":
                assert fid in added_order
                assert fid not in seen_removed
                seen_removed.add(fid)

    def test_oracle_equivalence_small(self):
        rng = random.Random(11)
        for trial in range(30):
            limit = rng.randrange(2, 32)
            accesses = random_accesses(rng, rng.randrange(30, 300),
                                       files=3, pages_per_file=32,
                                       locality=rng.random())
            sim = make_sim(limit_pages=limit, record_evictions=True)
            hits = 0
            for file, page in accesses:
                if sim.access_page(0, file, page):
                    hits += 1
            expect_evictions, expect_hits, expect_resident = two_list_trace(
                accesses, limit)
            got = [(f, o) for _, f, o in sim.eviction_log]
            assert got == expect_evictions
            assert hits == expect_hits
            cg = sim.cgroup(0)
            got_resident = {(f.file, f.offset)
                            for lst in (cg.active, cg.inactive)
                            for f in lst.values()}
            assert got_resident == expect_resident


def corruptible_sim():
    """Two 4-page cgroups that pass ``check_invariants``: cgroup 0 faulted
    pages 0-5 of file 1 and evicted pages 0 and 1; cgroup 1 holds page 0
    of file 2. Also returns the page index entry page (1, 0) had while it
    was resident."""
    sim = make_sim(limit_pages=4)
    sim.add_cgroup(1, 4)
    sim.access_page(0, 1, 0)
    evicted_entry = sim._pages[1][0]
    for page in range(1, 6):
        sim.access_page(0, 1, page)
    sim.access_page(1, 2, 0)
    sim.check_invariants()
    return sim, evicted_entry


class TestInvariantChecks:
    """``check_invariants`` raises for each kind of corruption it covers."""

    def test_stale_page_index_entry(self):
        sim, evicted_entry = corruptible_sim()
        assert sim.find_folio(1, 0) is None
        sim._pages[1][0] = evicted_entry
        with pytest.raises(AssertionError, match="stale page index entry"):
            sim.check_invariants()

    def test_missing_page_index_entry(self):
        sim, _ = corruptible_sim()
        del sim._pages[1][5]
        with pytest.raises(AssertionError, match="page index out of sync"):
            sim.check_invariants()

    def test_active_folio_on_the_inactive_list(self):
        sim, _ = corruptible_sim()
        sim.find_folio(1, 5).active = True
        with pytest.raises(AssertionError,
                           match="active folio on inactive list"):
            sim.check_invariants()

    def test_resident_count_off_by_one(self):
        sim, _ = corruptible_sim()
        sim.cgroup(0).resident_pages -= 1
        with pytest.raises(AssertionError, match="resident count mismatch"):
            sim.check_invariants()

    def test_folio_listed_under_a_second_cgroup(self):
        sim, _ = corruptible_sim()
        folio = sim.find_folio(1, 5)
        other = sim.cgroup(1)
        other.inactive[folio.id] = folio
        other.resident_pages += 1
        with pytest.raises(AssertionError):
            sim.check_invariants()

    def test_folio_moved_to_a_sibling_cgroup(self):
        sim, _ = corruptible_sim()
        folio = sim.find_folio(1, 5)
        del sim.cgroup(0).inactive[folio.id]
        sim.cgroup(0).resident_pages -= 1
        sim.cgroup(1).inactive[folio.id] = folio
        sim.cgroup(1).resident_pages += 1
        with pytest.raises(AssertionError, match="listed by cgroup 1"):
            sim.check_invariants()

    def test_list_key_differs_from_folio_id(self):
        sim, _ = corruptible_sim()
        inactive = sim.cgroup(0).inactive
        folio = sim.find_folio(1, 5)
        del inactive[folio.id]
        inactive[folio.id + 100] = folio
        with pytest.raises(AssertionError, match="listed under id"):
            sim.check_invariants()

    def test_shadow_table_over_capacity(self):
        sim, _ = corruptible_sim()
        shadow = sim.cgroup(0).shadow_table
        for page in range(10, 13):
            shadow[(1, page)] = 0
        with pytest.raises(AssertionError,
                           match="shadow table over capacity"):
            sim.check_invariants()

    def test_over_limit_with_nothing_pinned(self):
        sim, _ = corruptible_sim()
        sim.cgroup(0).limit_pages = 2
        with pytest.raises(AssertionError, match="over limit"):
            sim.check_invariants()

    def test_inactive_folio_on_the_active_list(self):
        sim, _ = corruptible_sim()
        cg = sim.cgroup(0)
        folio = sim.find_folio(1, 5)
        del cg.inactive[folio.id]
        cg.active[folio.id] = folio
        with pytest.raises(AssertionError,
                           match="inactive folio on active list"):
            sim.check_invariants()

    def test_over_limit_with_a_pinned_folio_passes(self):
        sim, _ = corruptible_sim()
        sim.pin(1, 5)
        sim.cgroup(0).limit_pages = 2
        sim.check_invariants()


class TestMisuse:
    """Configuration and driving errors raise ``SimulationError`` and leave
    the simulator as it was."""

    def test_duplicate_cgroup(self):
        sim = make_sim(limit_pages=8)
        with pytest.raises(SimulationError, match="cgroup 0 already exists"):
            sim.add_cgroup(0, 16)
        assert sim.cgroup(0).limit_pages == 8

    @pytest.mark.parametrize("limit", [2.5, True, "8", 0])
    @pytest.mark.parametrize("method", ["add_cgroup", "set_limit"])
    def test_limit_must_be_an_int_of_at_least_one(self, method, limit):
        sim = make_sim(limit_pages=8)
        cgroup = 1 if method == "add_cgroup" else 0
        with pytest.raises(SimulationError, match="positive int page limit"):
            getattr(sim, method)(cgroup, limit)
        assert sim.cgroup_ids() == [0]
        assert sim.cgroup(0).limit_pages == 8

    @pytest.mark.parametrize("cgroup", [-1, "x", True, 1.0, None])
    def test_cgroup_id_must_be_an_int_of_at_least_zero(self, cgroup):
        sim = make_sim(limit_pages=8)
        with pytest.raises(SimulationError, match="cgroup id must be"):
            sim.add_cgroup(cgroup, 8)
        assert sim.cgroup_ids() == [0]

    def test_second_policy(self):
        sim = make_sim(limit_pages=8, policy=RecordingPolicy())
        first = sim.cgroup(0).policy
        with pytest.raises(PolicyAttachError, match="already has policy"):
            sim.attach_policy(0, RecordingPolicy())
        assert sim.cgroup(0).policy is first

    @pytest.mark.parametrize("cls", [FifoPolicy, LfuPolicy, S3FifoPolicy])
    def test_policy_object_serves_one_cgroup(self, cls):
        # attached twice, the second policy_init rebound the object's lists
        # to cgroup 1 and every eviction of cgroup 0 fell back silently
        policy = cls()
        sim = make_sim(limit_pages=8, policy=policy)
        sim.add_cgroup(1, 8)
        with pytest.raises(PolicyAttachError,
                           match="already attached to cgroup 0"):
            sim.attach_policy(1, policy)
        assert sim.cgroup(1).policy is None
        for page in range(40):
            sim.access_page(0, 1, page)
        stats = sim.stats(0)
        assert stats.evictions_policy == 32
        assert stats.evictions_fallback == 0

    @pytest.mark.parametrize("name", ["", "x" * 33, None, 123, b"x",
                                      ["fifo"]])
    def test_bad_policy_name(self, name):
        policy = RecordingPolicy()
        policy.name = name
        sim = make_sim(limit_pages=8)
        with pytest.raises(PolicyAttachError, match="policy name must be"):
            sim.attach_policy(0, policy)
        assert policy.calls == []
        assert sim.cgroup(0).policy is None

    def test_pin_a_page_that_is_not_resident(self):
        sim = make_sim(limit_pages=8)
        with pytest.raises(SimulationError,
                           match=r"no resident folio at \(1, 0\)"):
            sim.pin(1, 0)

    @pytest.mark.parametrize("method", ["cgroup", "stats", "resident_pages"])
    def test_unknown_cgroup_id(self, method):
        sim = make_sim(limit_pages=8)
        with pytest.raises(UnknownCgroupError, match="unknown cgroup 7"):
            getattr(sim, method)(7)


class TestEvictionContext:
    def test_request_bounds(self):
        with pytest.raises(ValueError):
            EvictionContext(0)
        with pytest.raises(ValueError):
            EvictionContext(33)
        ctx = EvictionContext(32)
        assert ctx.room() == 32

    def test_propose_respects_capacity_and_duplicates(self):
        ctx = EvictionContext(2)
        assert ctx.propose(10)
        assert not ctx.propose(10)
        assert ctx.propose(11)
        assert not ctx.propose(12)
        assert ctx.candidates == [10, 11]
        assert ctx.nr_candidates_proposed == 2
