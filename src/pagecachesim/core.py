"""Cache core: folio lifecycle, per-cgroup lists, and the eviction driver.

Models the kernel side of the page cache at page granularity. Every cached
page is a 4 KiB folio owned by the cgroup that first faulted it. Each cgroup
keeps the classic two-FIFO structure (inactive and active lists) plus a
bounded shadow table used to detect thrashing refaults, and may have one
custom eviction policy attached.

Eviction is strict: whenever an insertion pushes a cgroup over its page
limit, the driver runs until the cgroup fits again. With a policy attached
the driver asks it for candidates (validating each against the cgroup's
folio registry) and falls back to the default two-list eviction for any
shortfall, so a broken policy can never violate the capacity limit.

Everything is single-threaded and deterministic: one simulator instance is
one isolated event loop, and independent instances share no state.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from itertools import islice

from .policy_api import (
    CANDIDATES_MAX,
    EvictionContext,
    FolioRegistry,
    PolicyCgroup,
    PolicyHooks,
    POLICY_NAME_MAX,
    RemovalReason,
)

PAGE_SIZE = 4096


class SimulationError(Exception):
    """Base error for simulator misuse."""


class UnknownCgroupError(SimulationError):
    """An operation referenced a cgroup id that was never configured."""


class PolicyAttachError(SimulationError):
    """A policy could not be attached to a cgroup."""


class AccessOutcome(Enum):
    HIT = "hit"
    MISS = "miss"


class InsertTarget(Enum):
    """Where a newly faulted page is inserted."""

    INACTIVE_TAIL = "inactive_tail"
    ACTIVE_TAIL = "active_tail"


class Folio:
    """Metadata for one resident 4 KiB page."""

    __slots__ = ("id", "file", "offset", "owner", "referenced", "active",
                 "dirty", "pinned")

    def __init__(self, folio_id, file, offset, owner, dirty):
        self.id = folio_id
        self.file = file
        self.offset = offset
        self.owner = owner
        self.referenced = False
        self.active = False
        self.dirty = dirty
        self.pinned = False

    def __repr__(self):
        return ("Folio(id=%d, file=%d, offset=%d, owner=%d, active=%s)"
                % (self.id, self.file, self.offset, self.owner, self.active))


class CgroupStats:
    """Per-cgroup counters. Hits and misses are attributed to the accessing
    cgroup; eviction, writeback, and removal counts to the folio's owner."""

    __slots__ = ("accesses", "hits", "misses", "evictions_policy",
                 "evictions_fallback", "invalid_candidates",
                 "refault_activations", "writebacks", "file_removed_folios",
                 "hook_errors")

    def __init__(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions_policy = 0
        self.evictions_fallback = 0
        self.invalid_candidates = 0
        self.refault_activations = 0
        self.writebacks = 0
        self.file_removed_folios = 0
        self.hook_errors = 0

    @property
    def evictions(self):
        return self.evictions_policy + self.evictions_fallback

    @property
    def removals(self):
        return self.evictions + self.file_removed_folios


class CgroupSim:
    """One simulated cgroup: limit, lists, shadow table, optional policy."""

    __slots__ = ("id", "limit_pages", "resident_pages", "active", "inactive",
                 "shadow_table", "eviction_epoch", "registry", "policy",
                 "policy_cg", "stats")

    def __init__(self, cgroup_id: int, limit_pages: int):
        self.id = cgroup_id
        self.limit_pages = limit_pages
        self.resident_pages = 0
        # Folio id -> None; OrderedDict gives FIFO order with O(1) removal.
        self.active: OrderedDict = OrderedDict()
        self.inactive: OrderedDict = OrderedDict()
        # (file, offset) -> eviction epoch at eviction time; bounded at
        # limit_pages entries, oldest dropped first.
        self.shadow_table: OrderedDict = OrderedDict()
        self.eviction_epoch = 0
        self.registry = FolioRegistry(limit_pages)
        self.policy: PolicyHooks | None = None
        self.policy_cg: PolicyCgroup | None = None
        self.stats = CgroupStats()


def _proposed_before(proposed, i, fid) -> bool:
    """Whether candidate ``fid`` at position ``i`` repeats an earlier int
    candidate. Non-ints, bools included, repeat nothing and are repeated by
    nothing, so each is counted."""
    if not isinstance(fid, int) or isinstance(fid, bool):
        return False
    for earlier in islice(proposed, i):
        if (earlier == fid and isinstance(earlier, int)
                and not isinstance(earlier, bool)):
            return True
    return False


def _does_deferred_work(policy) -> bool:
    """False only for a policy whose ``run_deferred`` is the no-op that
    ``PolicyHooks`` defines, inherited and not shadowed on the instance."""
    return ("run_deferred" in getattr(policy, "__dict__", ())
            or getattr(type(policy), "run_deferred", None)
            is not PolicyHooks.run_deferred)


class Simulator:
    """Deterministic single-threaded page-cache simulation.

    ``candidate_batch`` caps how many candidates one eviction round may
    request (at most the fixed context capacity of 32). With
    ``record_evictions`` the simulator appends ``(cgroup, file, offset)``
    to ``eviction_log`` for every eviction, which reference-implementation
    tests compare against.
    """

    def __init__(self, candidate_batch: int = CANDIDATES_MAX,
                 record_evictions: bool = False):
        if not 1 <= candidate_batch <= CANDIDATES_MAX:
            raise ValueError("candidate_batch must be in 1..=%d"
                             % CANDIDATES_MAX)
        self._candidate_batch = candidate_batch
        self._cgroups: dict[int, CgroupSim] = {}
        self._folios: dict[int, Folio] = {}
        self._pages: dict[int, dict[int, int]] = {}  # file -> offset -> fid
        self._next_folio_id = 1
        # Cgroups whose policy does deferred work; see run_deferred.
        self._deferred_cgroups: list[CgroupSim] = []
        self.eviction_log: list | None = [] if record_evictions else None

    # -- configuration ----------------------------------------------------

    def add_cgroup(self, cgroup_id: int, limit_pages: int) -> CgroupSim:
        if cgroup_id in self._cgroups:
            raise SimulationError("cgroup %r already exists" % cgroup_id)
        if limit_pages < 1:
            raise SimulationError("cgroup %r needs a positive page limit"
                                  % cgroup_id)
        cg = CgroupSim(cgroup_id, limit_pages)
        self._cgroups[cgroup_id] = cg
        return cg

    def attach_policy(self, cgroup_id: int, policy: PolicyHooks) -> None:
        cg = self._cgroup(cgroup_id)
        if cg.policy is not None:
            raise PolicyAttachError("cgroup %r already has policy %r"
                                    % (cgroup_id, cg.policy.name))
        name = getattr(policy, "name", "")
        if not name or len(name) > POLICY_NAME_MAX:
            raise PolicyAttachError("policy name must be 1..%d chars"
                                    % POLICY_NAME_MAX)
        handle = PolicyCgroup(cg)
        try:
            policy.policy_init(handle)
        except Exception as exc:
            # The handle is dropped, so no folio may stay listed on it.
            entries = cg.registry.entries
            for fid in entries:
                entries[fid] = None
            raise PolicyAttachError("policy_init of %r failed: %r"
                                    % (name, exc)) from exc
        cg.policy = policy
        cg.policy_cg = handle
        if _does_deferred_work(policy):
            self._deferred_cgroups.append(cg)

    def set_limit(self, cgroup_id: int, limit_pages: int) -> None:
        """Resize a cgroup. Shrinking evicts immediately to fit."""
        cg = self._cgroup(cgroup_id)
        if limit_pages < 1:
            raise SimulationError("cgroup %r needs a positive page limit"
                                  % cgroup_id)
        cg.limit_pages = limit_pages
        if cg.resident_pages > cg.limit_pages:
            self.drive_eviction(cgroup_id)

    # -- introspection ------------------------------------------------------

    def cgroup_ids(self):
        return list(self._cgroups)

    def stats(self, cgroup_id: int) -> CgroupStats:
        return self._cgroup(cgroup_id).stats

    def resident_pages(self, cgroup_id: int) -> int:
        return self._cgroup(cgroup_id).resident_pages

    def limit_pages(self, cgroup_id: int) -> int:
        return self._cgroup(cgroup_id).limit_pages

    def cgroup(self, cgroup_id: int) -> CgroupSim:
        return self._cgroup(cgroup_id)

    def folio(self, folio_id: int) -> Folio | None:
        return self._folios.get(folio_id)

    def find_folio(self, file: int, offset: int) -> Folio | None:
        pages = self._pages.get(file)
        if not pages:
            return None
        fid = pages.get(offset)
        return None if fid is None else self._folios[fid]

    def pin(self, file: int, offset: int, pinned: bool = True) -> None:
        folio = self.find_folio(file, offset)
        if folio is None:
            raise SimulationError("no resident folio at (%r, %r)"
                                  % (file, offset))
        folio.pinned = pinned

    def _cgroup(self, cgroup_id) -> CgroupSim:
        cg = self._cgroups.get(cgroup_id)
        if cg is None:
            raise UnknownCgroupError("unknown cgroup %r" % cgroup_id)
        return cg

    # -- the access path ----------------------------------------------------

    def access_page(self, cgroup_id, file, offset, write=False, thread=0):
        """One page access. Returns HIT or MISS.

        A hit marks the folio referenced; under the default policy a
        referenced inactive folio is promoted to the active tail on its next
        access. The owner's policy (not the accessor's) sees the access. A
        miss faults the page in for the accessing cgroup, consults the
        shadow table for refault activation, and then evicts if the cgroup
        went over its limit.
        """
        cg = self._cgroups.get(cgroup_id)
        if cg is None:
            raise UnknownCgroupError("unknown cgroup %r" % cgroup_id)
        stats = cg.stats
        stats.accesses += 1
        pages = self._pages.get(file)
        fid = pages.get(offset) if pages else None
        if fid is not None:
            folio = self._folios[fid]
            stats.hits += 1
            if write:
                folio.dirty = True
            owner = cg if folio.owner == cgroup_id else self._cgroups[folio.owner]
            policy = owner.policy
            if policy is None:
                if folio.referenced and not folio.active:
                    del owner.inactive[fid]
                    owner.active[fid] = None
                    folio.active = True
            folio.referenced = True
            if policy is not None:
                owner.policy_cg.current_thread = thread
                try:
                    policy.folio_accessed(folio)
                except Exception:
                    owner.stats.hook_errors += 1
            return AccessOutcome.HIT

        stats.misses += 1
        target = self.refault_check(cg, file, offset)
        fid = self._next_folio_id
        self._next_folio_id += 1
        folio = Folio(fid, file, offset, cgroup_id, write)
        if target is InsertTarget.ACTIVE_TAIL:
            folio.active = True
            cg.active[fid] = None
            stats.refault_activations += 1
        else:
            cg.inactive[fid] = None
        if pages is None:
            pages = self._pages[file] = {}
        pages[offset] = fid
        self._folios[fid] = folio
        cg.registry.register(fid)
        cg.resident_pages += 1
        if cg.policy is not None:
            cg.policy_cg.current_thread = thread
            try:
                cg.policy.folio_added(folio)
            except Exception:
                stats.hook_errors += 1
        if cg.resident_pages > cg.limit_pages:
            self._drive(cg)
        return AccessOutcome.MISS

    def refault_check(self, cg: CgroupSim, file, offset) -> InsertTarget:
        """Decide the insert target for a faulting page, consuming any
        shadow entry. A page evicted recently enough (refault distance at
        most the cgroup's current resident count) goes straight to the
        active tail."""
        evicted_epoch = cg.shadow_table.pop((file, offset), None)
        if evicted_epoch is None:
            return InsertTarget.INACTIVE_TAIL
        if cg.eviction_epoch - evicted_epoch <= cg.resident_pages:
            return InsertTarget.ACTIVE_TAIL
        return InsertTarget.INACTIVE_TAIL

    # -- eviction -----------------------------------------------------------

    def drive_eviction(self, cgroup_id: int) -> None:
        self._drive(self._cgroup(cgroup_id))

    def _drive(self, cg: CgroupSim) -> None:
        """Evict until the cgroup fits. Each round asks the attached policy
        for up to min(batch, overage) candidates, validates them, and lets
        the default path cover any shortfall."""
        while cg.resident_pages > cg.limit_pages:
            needed = cg.resident_pages - cg.limit_pages
            if needed > self._candidate_batch:
                needed = self._candidate_batch
            evicted = 0
            policy = cg.policy
            if policy is not None:
                ctx = EvictionContext(needed)
                try:
                    policy.evict_folios(ctx, cg.policy_cg)
                    # The policy may have overwritten the context's fields;
                    # one it left unreadable fails the round like a raise.
                    proposed = ctx.candidates[:max(0, min(
                        ctx.nr_candidates_proposed, len(ctx.candidates),
                        needed))]
                except Exception:
                    cg.stats.hook_errors += 1
                else:
                    evicted = self._evict_candidates(cg, proposed)
            if evicted < needed:
                evicted += self.default_evict(cg.id, needed - evicted)
            if evicted == 0:
                # Nothing evictable (everything pinned); give up rather
                # than spin. The capacity invariant is suspended until a
                # folio is unpinned.
                break

    def _evict_candidates(self, cg: CgroupSim, proposed) -> int:
        """Validate and evict a policy's proposals. Unknown, foreign, or
        pinned candidates and ones that are not ints (bools included) are
        rejected and counted; duplicates are ignored. A repeat of an
        accepted id fails validation, as its folio is gone, so earlier
        proposals are searched for a duplicate only on a rejection."""
        entries = cg.registry.entries
        folios = self._folios
        evicted = 0
        for i, fid in enumerate(proposed):
            if (isinstance(fid, int) and not isinstance(fid, bool)
                    and fid in entries):
                folio = folios[fid]
                if not folio.pinned:
                    self._evict_folio(cg, folio, via_policy=True)
                    evicted += 1
                    continue
            if not _proposed_before(proposed, i, fid):
                cg.stats.invalid_candidates += 1
        return evicted

    def default_evict(self, cgroup_id: int, needed: int) -> int:
        """Default two-list eviction: balance, then evict unpinned folios
        from the inactive head.

        Balancing demotes active-head folios to the inactive tail while the
        inactive list is shorter than max(needed, half the active length);
        referenced folios are demoted like any other. Returns the number
        evicted, which falls short of ``needed`` only when every remaining
        resident folio is pinned.
        """
        cg = self._cgroup(cgroup_id)
        if needed < 1:
            raise SimulationError("needed must be >= 1")
        folios = self._folios
        active, inactive = cg.active, cg.inactive
        while active and len(inactive) < max(needed, len(active) // 2):
            self._demote_head(cg)
        evicted = 0
        while evicted < needed:
            victim = None
            for fid in inactive:
                if not folios[fid].pinned:
                    victim = fid
                    break
            if victim is not None:
                self._evict_folio(cg, folios[victim], via_policy=False)
                evicted += 1
            elif active and any(not folios[f].pinned for f in active):
                self._demote_head(cg)
            else:
                break
        return evicted

    def _demote_head(self, cg: CgroupSim) -> None:
        fid = next(iter(cg.active))
        del cg.active[fid]
        cg.inactive[fid] = None
        folio = self._folios[fid]
        folio.active = False
        folio.referenced = False

    def _evict_folio(self, cg: CgroupSim, folio: Folio, via_policy: bool):
        """Evict one folio: shadow entry, registry and list detach, hook,
        index cleanup, accounting."""
        fid = folio.id
        if folio.active:
            del cg.active[fid]
        else:
            del cg.inactive[fid]
        cg.eviction_epoch += 1
        shadow = cg.shadow_table
        key = (folio.file, folio.offset)
        if key in shadow:
            shadow.move_to_end(key)
        shadow[key] = cg.eviction_epoch
        while len(shadow) > cg.limit_pages:
            shadow.popitem(last=False)
        self._forget_folio(cg, folio, RemovalReason.EVICTED)
        stats = cg.stats
        if via_policy:
            stats.evictions_policy += 1
        else:
            stats.evictions_fallback += 1
        if folio.dirty:
            stats.writebacks += 1
        if self.eviction_log is not None:
            self.eviction_log.append((cg.id, folio.file, folio.offset))

    def _forget_folio(self, cg, folio, reason) -> None:
        """Shared tail of eviction and file removal: unregister (detaching
        from any eviction list first), fire folio_removed, drop indexes."""
        fid = folio.id
        list_id = cg.registry.unregister(fid)
        if list_id is not None:
            cg.policy_cg.detach(fid, list_id)
        if cg.policy is not None:
            cg.policy_cg.removal_reason = reason
            try:
                cg.policy.folio_removed(folio)
            except Exception:
                cg.stats.hook_errors += 1
            cg.policy_cg.removal_reason = None
        pages = self._pages[folio.file]
        del pages[folio.offset]
        if not pages:
            del self._pages[folio.file]
        del self._folios[fid]
        cg.resident_pages -= 1

    # -- file removal ---------------------------------------------------------

    def remove_file(self, cgroup_id: int, file: int) -> int:
        """Drop every resident folio of a file, bypassing eviction: no
        shadow entries are written and pinned folios go too. Returns the
        number of folios dropped across all owning cgroups."""
        self._cgroup(cgroup_id)  # validate the caller
        pages = self._pages.get(file)
        if not pages:
            return 0
        count = 0
        for fid in list(pages.values()):
            folio = self._folios[fid]
            owner = self._cgroups[folio.owner]
            if folio.active:
                del owner.active[fid]
            else:
                del owner.inactive[fid]
            self._forget_folio(owner, folio, RemovalReason.FILE_REMOVED)
            owner.stats.file_removed_folios += 1
            count += 1
        return count

    # -- deferred policy work ---------------------------------------------

    @property
    def has_deferred_work(self) -> bool:
        """Whether some attached policy does deferred work, so that
        ``run_deferred`` is more than a no-op."""
        return bool(self._deferred_cgroups)

    def run_deferred(self) -> None:
        """Give attached policies their between-events maintenance slot.

        Only a policy that does deferred work gets the slot: one that
        overrides ``PolicyHooks.run_deferred`` on its class or on the
        instance, or one that does not derive from ``PolicyHooks``. Which
        policies those are is decided when the policy is attached."""
        for cg in self._deferred_cgroups:
            try:
                cg.policy.run_deferred()
            except Exception:
                cg.stats.hook_errors += 1

    # -- invariant checking (tests) -----------------------------------------

    def check_invariants(self) -> None:
        """Structural consistency of counts, lists, registry, and indexes."""
        by_owner: dict[int, int] = {}
        for fid, folio in self._folios.items():
            by_owner[folio.owner] = by_owner.get(folio.owner, 0) + 1
            if self._pages.get(folio.file, {}).get(folio.offset) != fid:
                raise AssertionError("page index out of sync for %r" % folio)
        for file, pages in self._pages.items():
            for offset, fid in pages.items():
                folio = self._folios.get(fid)
                if folio is None or folio.file != file or folio.offset != offset:
                    raise AssertionError("stale page index entry (%r, %r)"
                                         % (file, offset))
        for cg in self._cgroups.values():
            if cg.resident_pages != by_owner.get(cg.id, 0):
                raise AssertionError("cgroup %r resident count mismatch" % cg.id)
            if cg.resident_pages > cg.limit_pages:
                if not any(self._folios[f].pinned
                           for f in list(cg.active) + list(cg.inactive)):
                    raise AssertionError("cgroup %r over limit" % cg.id)
            if len(cg.active) + len(cg.inactive) != cg.resident_pages:
                raise AssertionError("cgroup %r list lengths != resident"
                                     % cg.id)
            for fid in cg.active:
                if not self._folios[fid].active:
                    raise AssertionError("inactive folio on active list")
            for fid in cg.inactive:
                if self._folios[fid].active:
                    raise AssertionError("active folio on inactive list")
            if set(cg.registry.entries) != set(cg.active) | set(cg.inactive):
                raise AssertionError("cgroup %r registry != resident folios"
                                     % cg.id)
            if len(cg.shadow_table) > cg.limit_pages:
                raise AssertionError("cgroup %r shadow table over capacity"
                                     % cg.id)
            if cg.policy_cg is not None:
                # Also proves the lists hold no more folios than the
                # registry: every listed folio must be registered there.
                cg.policy_cg.check_consistency()
