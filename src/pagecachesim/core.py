"""Cache core: folio lifecycle, per-cgroup lists, and the eviction driver.

Models the kernel side of the page cache at page granularity. Every cached
page is a 4 KiB folio owned by the cgroup that first faulted it. Each cgroup
keeps the classic two-FIFO structure (inactive and active lists) plus a
bounded shadow table used to detect thrashing refaults, and may have one
custom eviction policy attached.

Each cgroup's two lists own its folios, mapping folio id to ``Folio``.
The page index maps file and offset straight to the ``Folio``, so a hit is
one lookup.

Eviction is strict: whenever an insertion pushes a cgroup over its page
limit, the driver runs until the cgroup fits again. With a policy attached
the driver asks it for candidates (each must be an unpinned folio on the
cgroup's own lists) and falls back to the default two-list eviction for
any shortfall, so a broken policy can never violate the capacity limit.

Everything is single-threaded and deterministic: one simulator instance is
one isolated event loop, and independent instances share no state.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice

from .policy_api import (
    CANDIDATES_MAX,
    EvictionContext,
    PolicyCgroup,
    PolicyHooks,
    POLICY_NAME_MAX,
    _EVICTED,
    _FILE_REMOVED,
)


class SimulationError(Exception):
    """Base error for simulator misuse."""


class UnknownCgroupError(SimulationError):
    """An operation referenced a cgroup id that was never configured."""


class PolicyAttachError(SimulationError):
    """A policy could not be attached to a cgroup."""


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


class CgroupSim:
    """One simulated cgroup: limit, lists, shadow table, optional policy,
    and its counters. Hits and misses are attributed to the accessing
    cgroup; eviction, writeback, and removal counts to the folio's owner.
    ``accesses``, ``evictions`` and ``removals`` are read-only sums of
    other counters."""

    __slots__ = ("id", "limit_pages", "resident_pages", "active", "inactive",
                 "shadow_table", "eviction_epoch", "policy",
                 "policy_cg", "calls_accessed", "calls_removed",
                 "hits", "misses", "evictions_policy", "evictions_fallback",
                 "invalid_candidates", "refault_activations", "writebacks",
                 "file_removed_folios", "hook_errors")

    def __init__(self, cgroup_id: int, limit_pages: int):
        self.id = cgroup_id
        self.limit_pages = limit_pages
        self.resident_pages = 0
        # Folio id -> Folio: the cgroup's resident folios, each on the list
        # its ``active`` flag names. OrderedDict gives FIFO order with O(1)
        # removal.
        self.active: OrderedDict = OrderedDict()
        self.inactive: OrderedDict = OrderedDict()
        # (file, offset) -> eviction epoch at eviction time; bounded at
        # limit_pages entries, oldest dropped first.
        self.shadow_table: OrderedDict = OrderedDict()
        # Ticks on each eviction, as it happens; the eviction counters are
        # added once per round, so a shadow entry needs this count.
        self.eviction_epoch = 0
        self.policy: PolicyHooks | None = None
        self.policy_cg: PolicyCgroup | None = None
        # Whether the core calls the policy's folio_accessed and
        # folio_removed, decided at attach (see Simulator.attach_policy).
        self.calls_accessed = False
        self.calls_removed = False
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
    def accesses(self):
        return self.hits + self.misses

    @property
    def evictions(self):
        return self.evictions_policy + self.evictions_fallback

    @property
    def removals(self):
        return self.evictions + self.file_removed_folios


def _proposed_before(proposed, i, fid) -> bool:
    """Whether candidate ``fid`` at position ``i`` repeats an earlier int
    candidate. Non-ints, bools included, repeat nothing and are repeated by
    nothing, so each is counted."""
    return (isinstance(fid, int) and not isinstance(fid, bool)
            and any(earlier == fid and isinstance(earlier, int)
                    and not isinstance(earlier, bool)
                    for earlier in islice(proposed, i)))


#: Builds the core's eviction contexts without ``__init__``'s range check.
_new = object.__new__


#: ``PolicyHooks``' no-op hooks the core skips, as the class defines them.
_NOOP_HOOKS = {hook: getattr(PolicyHooks, hook)
               for hook in ("folio_accessed", "folio_removed")}


def _overrides(policy, hook: str) -> bool:
    """Whether ``policy``'s ``hook`` is anything but ``PolicyHooks``' own
    no-op bound to it: an override in its class or an attribute set on
    the instance. Read through ``getattr``, as the core's calls are."""
    return (getattr(getattr(policy, hook, None), "__func__", None)
            is not _NOOP_HOOKS[hook])


def _check_limit(cgroup_id, limit_pages) -> None:
    if (not isinstance(limit_pages, int) or isinstance(limit_pages, bool)
            or limit_pages < 1):
        raise SimulationError("cgroup %r needs a positive int page limit, "
                              "got %r" % (cgroup_id, limit_pages))


class Simulator:
    """Deterministic single-threaded page-cache simulation.

    One eviction round requests at most the context's fixed capacity of
    ``CANDIDATES_MAX`` (32) candidates. With ``record_evictions`` the
    simulator appends ``(cgroup, file, offset)`` to ``eviction_log`` for
    every eviction, which reference-implementation tests compare against.
    """

    def __init__(self, *, record_evictions: bool = False):
        self._cgroups: dict[int, CgroupSim] = {}
        # The page index: file -> offset -> Folio.
        self._pages: dict[int, dict[int, Folio]] = {}
        self._next_folio_id = 1
        # Cgroups whose policy requested deferred work since the last
        # run_deferred, each once, in request order. Callers read it to
        # skip run_deferred while it is empty; only the handles'
        # request_deferred and the core change it.
        self.deferred_requests: list[CgroupSim] = []
        self.eviction_log: list | None = [] if record_evictions else None

    # -- configuration ----------------------------------------------------

    def add_cgroup(self, cgroup_id: int, limit_pages: int) -> CgroupSim:
        if (not isinstance(cgroup_id, int) or isinstance(cgroup_id, bool)
                or cgroup_id < 0):
            raise SimulationError("cgroup id must be an int >= 0, got %r"
                                  % (cgroup_id,))
        if cgroup_id in self._cgroups:
            raise SimulationError("cgroup %r already exists" % cgroup_id)
        _check_limit(cgroup_id, limit_pages)
        cg = CgroupSim(cgroup_id, limit_pages)
        self._cgroups[cgroup_id] = cg
        return cg

    def attach_policy(self, cgroup_id: int, policy: PolicyHooks) -> None:
        """Attach ``policy`` to a cgroup and call its ``policy_init``.

        Once ``policy_init`` has returned, attach decides whether the core
        will call the policy's ``folio_accessed`` and ``folio_removed``.
        A hook that is still ``PolicyHooks``' own no-op, neither overridden
        in the policy's class nor set on the instance, is never called,
        and replacing it after attach is not seen; the core then sets no
        ``removal_reason`` for the skipped ``folio_removed``. An override
        is looked up on each call, and ``current_thread`` is set on every
        access either way. ``run_deferred`` is exempt: it is called on
        request only, and looked up on each call."""
        cg = self.cgroup(cgroup_id)
        if cg.policy is not None:
            raise PolicyAttachError("cgroup %r already has policy %r"
                                    % (cgroup_id, cg.policy.name))
        for other in self._cgroups.values():
            # one object's lists and state serve one cgroup only
            if other.policy is policy:
                raise PolicyAttachError("policy object is already attached "
                                        "to cgroup %r" % other.id)
        name = getattr(policy, "name", "")
        if not isinstance(name, str) or not 0 < len(name) <= POLICY_NAME_MAX:
            raise PolicyAttachError("policy name must be 1..%d chars"
                                    % POLICY_NAME_MAX)
        handle = PolicyCgroup(cg, self.deferred_requests)
        try:
            policy.policy_init(handle)
        except Exception as exc:
            if cg in self.deferred_requests:
                self.deferred_requests.remove(cg)
            raise PolicyAttachError("policy_init of %r failed: %r"
                                    % (name, exc)) from exc
        cg.policy = policy
        cg.policy_cg = handle
        cg.calls_accessed = _overrides(policy, "folio_accessed")
        cg.calls_removed = _overrides(policy, "folio_removed")

    def set_limit(self, cgroup_id: int, limit_pages: int) -> None:
        """Resize a cgroup. Shrinking evicts immediately to fit, and drops
        the oldest shadow entries beyond the new limit."""
        cg = self.cgroup(cgroup_id)
        _check_limit(cgroup_id, limit_pages)
        cg.limit_pages = limit_pages
        shadow = cg.shadow_table
        while len(shadow) > limit_pages:
            shadow.popitem(last=False)
        if cg.resident_pages > limit_pages:
            self._drive(cg)

    # -- introspection ------------------------------------------------------

    def cgroup_ids(self):
        return list(self._cgroups)

    def resident_pages(self, cgroup_id: int) -> int:
        return self.cgroup(cgroup_id).resident_pages

    def cgroup(self, cgroup_id: int) -> CgroupSim:
        """The cgroup's record, which holds its counters too; ``stats``
        names the same call."""
        cg = self._cgroups.get(cgroup_id)
        if cg is None:
            raise UnknownCgroupError("unknown cgroup %r" % cgroup_id)
        return cg

    stats = cgroup

    def find_folio(self, file: int, offset: int) -> Folio | None:
        pages = self._pages.get(file)
        return pages.get(offset) if pages else None

    def pin(self, file: int, offset: int, pinned: bool = True) -> None:
        folio = self.find_folio(file, offset)
        if folio is None:
            raise SimulationError("no resident folio at (%r, %r)"
                                  % (file, offset))
        folio.pinned = pinned

    # -- the access path ----------------------------------------------------

    def access_page(self, cgroup_id, file, offset, write=False, thread=0):
        """One page access. Returns True on a hit and False on a miss.

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
        pages = self._pages.get(file)
        folio = pages.get(offset) if pages else None
        if folio is not None:
            cg.hits += 1
            if write:
                folio.dirty = True
            owner = cg if folio.owner == cgroup_id else self._cgroups[folio.owner]
            policy = owner.policy
            if policy is None:
                if folio.referenced and not folio.active:
                    del owner.inactive[folio.id]
                    owner.active[folio.id] = folio
                    folio.active = True
                folio.referenced = True
                return True
            folio.referenced = True
            owner.policy_cg.current_thread = thread
            if owner.calls_accessed:
                try:
                    policy.folio_accessed(folio)
                except Exception:
                    owner.hook_errors += 1
            return True

        cg.misses += 1
        fid = self._next_folio_id
        self._next_folio_id += 1
        folio = Folio(fid, file, offset, cgroup_id, write)
        # A page evicted recently enough (refault distance at most the
        # current resident count) goes straight to the active tail; its
        # shadow entry is consumed either way.
        evicted_epoch = cg.shadow_table.pop((file, offset), None)
        if (evicted_epoch is not None
                and cg.eviction_epoch - evicted_epoch <= cg.resident_pages):
            folio.active = True
            cg.active[fid] = folio
            cg.refault_activations += 1
        else:
            cg.inactive[fid] = folio
        if pages is None:
            pages = self._pages[file] = {}
        pages[offset] = folio
        cg.resident_pages += 1
        if cg.policy is not None:
            cg.policy_cg.current_thread = thread
            try:
                cg.policy.folio_added(folio)
            except Exception:
                cg.hook_errors += 1
        if cg.resident_pages > cg.limit_pages:
            self._drive(cg)
        return False

    # -- eviction -----------------------------------------------------------

    def _drive(self, cg: CgroupSim) -> None:
        """Evict until the cgroup fits. Each round asks the attached policy
        for min(32, overage) candidates and hands any shortfall to
        ``default_evict``. The policy's answer is the snapshot
        ``candidates[:max(0, min(nr_candidates_proposed, len(candidates),
        needed))]``, computed with one ``len`` and the comparisons ``min``
        and ``max`` make, in their order, so any value gives their slice or
        their exception. A valid candidate is an int (not a bool) naming
        an unpinned folio on the cgroup's own lists; an exact ``int`` is
        accepted without an ``isinstance`` call. Invalid ones are counted,
        repeats ignored; an accepted id's folio is gone, so earlier
        proposals are searched for a repeat only on a rejection. Each
        accepted candidate counts in ``evictions_policy``."""
        while cg.resident_pages > cg.limit_pages:
            needed = cg.resident_pages - cg.limit_pages
            if needed > CANDIDATES_MAX:
                needed = CANDIDATES_MAX
            evicted = 0
            policy = cg.policy
            if policy is not None:
                ctx = _new(EvictionContext)  # needed is in range
                ctx.nr_candidates_requested = needed
                ctx.nr_candidates_proposed = 0
                ctx.candidates = []
                try:
                    policy.evict_folios(ctx, cg.policy_cg)
                    # The policy may have overwritten the context's fields;
                    # one it left unreadable fails the round like a raise.
                    candidates = ctx.candidates
                    n = ctx.nr_candidates_proposed
                    count = len(candidates)
                    if count < n:
                        n = count
                    if needed < n:
                        n = needed
                    proposed = candidates[:n if n > 0 else 0]
                except Exception:
                    cg.hook_errors += 1
                else:
                    inactive, active = cg.inactive, cg.active
                    i = 0
                    for fid in proposed:
                        if type(fid) is int or (isinstance(fid, int)
                                                and not isinstance(fid, bool)):
                            folio = inactive.get(fid) or active.get(fid)
                            if folio is not None and not folio.pinned:
                                self._remove_folio(cg, folio)
                                evicted += 1
                                i += 1
                                continue
                        if not _proposed_before(proposed, i, fid):
                            cg.invalid_candidates += 1
                        i += 1
                    if evicted:
                        cg.evictions_policy += evicted
            if evicted < needed:
                evicted += self.default_evict(cg, needed - evicted)
            if evicted == 0:
                # Nothing evictable (everything pinned); give up rather
                # than spin. The capacity invariant is suspended until a
                # folio is unpinned.
                break

    def default_evict(self, cg: CgroupSim, needed: int) -> int:
        """The eviction round's fallback, the default two-list policy:
        balance, then evict up to ``needed`` (1 to 32) unpinned folios from
        the inactive head of ``cg``, the core's own cgroup record. It keeps
        its public name because the benchmark's tracer wraps it by name.

        Balancing demotes active-head folios to the inactive tail while the
        inactive list is shorter than max(needed, half the active length);
        referenced folios are demoted like any other. Returns the number
        evicted, all counted in ``evictions_fallback``; it falls short of
        ``needed`` only when every remaining resident folio is pinned.
        """
        active, inactive = cg.active, cg.inactive
        while active and len(inactive) < max(needed, len(active) // 2):
            self._demote_head(cg)
        evicted = 0
        while evicted < needed:
            victim = None
            for folio in inactive.values():
                if not folio.pinned:
                    victim = folio
                    break
            if victim is not None:
                self._remove_folio(cg, victim)
                evicted += 1
            elif active and any(not f.pinned for f in active.values()):
                self._demote_head(cg)
            else:
                break
        cg.evictions_fallback += evicted
        return evicted

    def _demote_head(self, cg: CgroupSim) -> None:
        fid, folio = cg.active.popitem(last=False)
        cg.inactive[fid] = folio
        folio.active = False
        folio.referenced = False

    def _remove_folio(self, cg: CgroupSim, folio: Folio,
                      reason=_EVICTED) -> None:
        """Take one folio out of the cache, by eviction (the default
        ``reason``) or with its file. In order: an eviction's shadow
        entry; the folio off its cgroup list and off any policy eviction
        list, directly, so a wrapper set on the handle's ``list_del``
        sees only the policy's calls; ``folio_removed``, with
        ``removal_reason`` set around it, if the policy overrides it; the
        page index entry and the resident count; an eviction's writeback
        and eviction log entry. The caller counts the removal as its own
        kind."""
        evicted = reason is _EVICTED
        if evicted:
            cg.eviction_epoch += 1
            shadow = cg.shadow_table
            shadow[(folio.file, folio.offset)] = cg.eviction_epoch
            # The table held at most limit_pages entries before this one:
            # set_limit trims it before it evicts, and an eviction adds at
            # most one entry, so one pop restores the bound.
            if len(shadow) > cg.limit_pages:
                shadow.popitem(last=False)
        fid = folio.id
        if folio.active:
            del cg.active[fid]
        else:
            del cg.inactive[fid]
        policy_cg = cg.policy_cg
        if policy_cg is not None:
            list_id = policy_cg._membership.pop(fid, None)
            if list_id is not None:
                del policy_cg._lists[list_id][fid]
            if cg.calls_removed:
                policy_cg.removal_reason = reason
                try:
                    cg.policy.folio_removed(folio)
                except Exception:
                    cg.hook_errors += 1
                policy_cg.removal_reason = None
        pages = self._pages[folio.file]
        del pages[folio.offset]
        if not pages:
            del self._pages[folio.file]
        cg.resident_pages -= 1
        if evicted:
            if folio.dirty:
                cg.writebacks += 1
            if self.eviction_log is not None:
                self.eviction_log.append((cg.id, folio.file, folio.offset))

    # -- file removal ---------------------------------------------------------

    def remove_file(self, cgroup_id: int, file: int) -> int:
        """Drop every resident folio of a file, bypassing eviction: no
        shadow entries are written and pinned folios go too. Returns the
        number of folios dropped across all owning cgroups."""
        self.cgroup(cgroup_id)  # validate the caller
        pages = self._pages.get(file)
        if not pages:
            return 0
        folios = list(pages.values())
        for folio in folios:
            owner = self._cgroups[folio.owner]
            self._remove_folio(owner, folio, _FILE_REMOVED)
            owner.file_removed_folios += 1
        return len(folios)

    # -- deferred policy work ---------------------------------------------

    def run_deferred(self) -> None:
        """Give each policy that asked for it its between-events
        maintenance slot.

        A policy asks through ``PolicyCgroup.request_deferred``; this
        calls its ``run_deferred`` once per request, in request order,
        and a request made while this runs waits for the next call. A
        policy that never requests is never called here, whatever it
        overrides."""
        requests = self.deferred_requests
        served = requests[:]
        requests.clear()
        for cg in served:
            try:
                cg.policy.run_deferred()
            except Exception:
                cg.hook_errors += 1

    # -- invariant checking (tests) -----------------------------------------

    def check_invariants(self) -> None:
        """Structural consistency of counts, lists, and indexes.

        Walks the cgroups' lists: a listed folio is keyed by its id, owned
        by that cgroup, flagged for its list, on no other list, and indexed
        under its file and offset, and the page index holds nothing else.
        Counts, limits, shadow tables and policy handles are checked per
        cgroup."""
        listed: dict[int, Folio] = {}
        pages = self._pages
        for cg in self._cgroups.values():
            for lst, active in ((cg.active, True), (cg.inactive, False)):
                for fid, folio in lst.items():
                    if fid != folio.id:
                        raise AssertionError("%r listed under id %r"
                                             % (folio, fid))
                    if fid in listed:
                        raise AssertionError("%r is on two lists" % folio)
                    listed[fid] = folio
                    if folio.owner != cg.id:
                        raise AssertionError("%r listed by cgroup %r"
                                             % (folio, cg.id))
                    if folio.active != active:
                        raise AssertionError(
                            "active folio on inactive list" if folio.active
                            else "inactive folio on active list")
                    if pages.get(folio.file, {}).get(folio.offset) is not folio:
                        raise AssertionError("page index out of sync for %r"
                                             % folio)
            if cg.resident_pages != len(cg.active) + len(cg.inactive):
                raise AssertionError("cgroup %r resident count mismatch"
                                     % cg.id)
            if cg.resident_pages > cg.limit_pages and not any(
                    folio.pinned for lst in (cg.active, cg.inactive)
                    for folio in lst.values()):
                raise AssertionError("cgroup %r over limit" % cg.id)
            if len(cg.shadow_table) > cg.limit_pages:
                raise AssertionError("cgroup %r shadow table over capacity"
                                     % cg.id)
            if cg.policy_cg is not None:
                # Also proves the policy's lists hold no more folios than
                # are resident: every listed folio must be resident.
                cg.policy_cg.check_consistency()
        # Each listed folio has its own entry, so equal counts leave none
        # stale.
        if sum(map(len, pages.values())) != len(listed):
            raise AssertionError("stale page index entry")
