"""Extension surface for pluggable eviction policies.

A policy is a set of five lifecycle hooks (see ``PolicyHooks``) attached to
one cgroup. It never evicts pages itself: it organizes resident folios on
*eviction lists* it creates, and when the cache core asks for victims it
proposes candidates through an ``EvictionContext``. The core validates every
candidate against the cgroup's folio registry before acting on it, so a
buggy policy can degrade hit ratios but cannot corrupt the cache.

The policy reaches its lists through one handle per cgroup,
``PolicyCgroup``, which owns the lists and carries the event context of the
hook being dispatched. Eviction lists store folio ids, not folios, and
``list_iterate`` hands its callback a folio id. Lists are indexed: the
registry records which list (if any) each resident folio is on, so
detaching a folio on eviction is O(1). List operations return
``ListStatus`` codes instead of raising, mirroring an int-returning
kernel-style API.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import islice

#: Fixed capacity of the candidate array in an eviction round.
CANDIDATES_MAX = 32

#: Maximum length of a policy name.
POLICY_NAME_MAX = 32

#: Default number of list nodes examined per iteration call.
DEFAULT_SCAN_LIMIT = 512


class ListStatus(IntEnum):
    """Return codes for eviction-list operations. Negative means failure."""

    OK = 0
    INVALID_LIST = -1
    NOT_REGISTERED = -2
    ALREADY_LISTED = -3
    NOT_LISTED = -4


class IterMode(Enum):
    """How ``list_iterate`` drives the callback."""

    #: Callback returns a Verdict per node; eviction decisions are explicit.
    EVALUATE = "evaluate"
    #: Callback returns an integer score per node; the lowest-scoring nodes
    #: (ties broken by earlier list position) become candidates.
    SCORE = "score"


class Disposition(Enum):
    """Applied to examined-but-not-evicted nodes in evaluate mode."""

    LEAVE_IN_PLACE = "leave"
    MOVE_TO_TAIL = "move_to_tail"
    MOVE_TO_LIST = "move_to_list"


class Verdict(Enum):
    """Evaluate-mode callback result for one examined node."""

    KEEP = 0
    EVICT = 1
    #: Propose the node and also rotate it to its list's tail so it is not
    #: examined again before the eviction actually happens.
    EVICT_AND_MOVE_TAIL = 2
    STOP = 3


class RemovalReason(Enum):
    """Why a folio left the cache, visible to ``folio_removed`` hooks."""

    EVICTED = "evicted"
    FILE_REMOVED = "file_removed"


@dataclass
class IterOptions:
    """Options controlling one ``list_iterate`` call.

    ``skip`` head nodes are passed over before examination starts. At most
    ``scan_limit`` nodes are examined. ``target_list`` names the destination
    for ``Disposition.MOVE_TO_LIST``. In score mode ``scan_limit`` must be at
    least the round's requested candidate count.
    """

    mode: IterMode = IterMode.EVALUATE
    scan_limit: int = DEFAULT_SCAN_LIMIT
    disposition: Disposition = Disposition.LEAVE_IN_PLACE
    target_list: int | None = None
    skip: int = 0


class EvictionContext:
    """One eviction round's request/response record.

    The core fills in ``nr_candidates_requested`` (1..=32); the policy
    appends folio ids to ``candidates``. Entries beyond
    ``nr_candidates_proposed`` are ignored by the core, as are duplicates
    and ids that fail registry validation.
    """

    __slots__ = ("nr_candidates_requested", "nr_candidates_proposed",
                 "candidates", "_proposed")

    def __init__(self, nr_candidates_requested: int):
        if not 1 <= nr_candidates_requested <= CANDIDATES_MAX:
            raise ValueError(
                "nr_candidates_requested must be in 1..=%d, got %r"
                % (CANDIDATES_MAX, nr_candidates_requested))
        self.nr_candidates_requested = nr_candidates_requested
        self.nr_candidates_proposed = 0
        self.candidates: list[int] = []
        self._proposed: set[int] = set()

    def room(self) -> int:
        return self.nr_candidates_requested - self.nr_candidates_proposed

    def propose(self, folio_id: int) -> bool:
        """Append a candidate. Returns False when full or already proposed."""
        if self.nr_candidates_proposed >= self.nr_candidates_requested:
            return False
        if folio_id in self._proposed:
            return False
        self.candidates.append(folio_id)
        self._proposed.add(folio_id)
        self.nr_candidates_proposed += 1
        return True

    def __contains__(self, folio_id: int) -> bool:
        return folio_id in self._proposed


class FolioRegistry:
    """Registry of the resident folios of one cgroup.

    Folios are registered on insertion and unregistered on eviction or file
    removal, so membership doubles as candidate validation. Each entry also
    records the folio's eviction-list membership (a list id, or None),
    giving O(1) expected access to the folio's list node.

    The bucket count is fixed at the cgroup's page limit when the registry
    is created; it only feeds the memory-overhead estimate. Entries live in
    a native dict.
    """

    __slots__ = ("bucket_count", "entries")

    def __init__(self, bucket_count: int):
        self.bucket_count = bucket_count
        self.entries: dict[int, int | None] = {}

    def register(self, folio_id: int) -> None:
        if folio_id in self.entries:
            raise RuntimeError("folio %d registered twice" % folio_id)
        self.entries[folio_id] = None

    def unregister(self, folio_id: int) -> int | None:
        """Drop a folio; returns the list id it was on, if any."""
        if folio_id not in self.entries:
            raise RuntimeError("folio %d not registered" % folio_id)
        return self.entries.pop(folio_id)

    def __contains__(self, folio_id: int) -> bool:
        return folio_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def membership(self, folio_id: int) -> int | None:
        return self.entries.get(folio_id)

    def memory_estimate(self) -> int:
        return registry_memory_estimate(self.bucket_count, len(self.entries))


def registry_memory_estimate(limit_pages: int, resident: int) -> int:
    """Bytes needed for a registry hash table sized for ``limit_pages``.

    Worst-case sizing: one bucket per page the cgroup may hold, 16 bytes of
    bucket head pointers each, plus 32 bytes of list-node state per filled
    entry. An empty registry therefore costs 0.4% of the cgroup's memory and
    a full one 1.2%.
    """
    if resident > limit_pages:
        raise ValueError("resident (%d) exceeds limit_pages (%d)"
                         % (resident, limit_pages))
    return limit_pages * 16 + resident * 32


class PolicyCgroup:
    """The handle a policy gets for the cgroup it manages.

    It owns the policy's indexed eviction lists. Lists preserve insertion
    order (head = oldest position) and support head/tail insertion, O(1)
    removal by folio id, and bounded iteration. A folio can be on at most
    one list of the handle at a time; membership is kept in the cgroup's
    registry. List ids from other handles are unknown here and rejected as
    INVALID_LIST.

    It also carries the event context the core sets before dispatching
    hooks: ``current_thread`` identifies the thread performing the current
    access (the analog of reading the current task's PID), and
    ``removal_reason`` tells ``folio_removed`` whether the folio was evicted
    or dropped with its file. ``cgroup_id``, ``limit_pages`` and
    ``resident_pages`` describe the cgroup itself.

    ``cgroup`` is the core's per-cgroup record; the handle reads its ``id``,
    ``registry``, ``limit_pages`` and ``resident_pages``.
    """

    def __init__(self, cgroup):
        self.cgroup_id = cgroup.id
        self._cgroup = cgroup
        self._registry = cgroup.registry
        self._lists: dict[int, OrderedDict] = {}
        self._next_id = 1
        self.current_thread = 0
        self.removal_reason: RemovalReason | None = None
        self.debug = False

    @property
    def limit_pages(self) -> int:
        return self._cgroup.limit_pages

    @property
    def resident_pages(self) -> int:
        return self._cgroup.resident_pages

    # -- basic list operations -------------------------------------------

    def list_create(self) -> int:
        list_id = self._next_id
        self._next_id += 1
        self._lists[list_id] = OrderedDict()
        return list_id

    def list_ids(self) -> list[int]:
        return list(self._lists)

    def list_length(self, list_id: int) -> int:
        nodes = self._lists.get(list_id)
        return 0 if nodes is None else len(nodes)

    def list_members(self, list_id: int) -> list[int]:
        """Folio ids on the list, head first. For inspection and tests."""
        nodes = self._lists.get(list_id)
        return [] if nodes is None else list(nodes)

    def list_add(self, list_id: int, folio_id: int, tail: bool) -> ListStatus:
        nodes = self._lists.get(list_id)
        if nodes is None:
            return ListStatus.INVALID_LIST
        entries = self._registry.entries
        if folio_id not in entries:
            return ListStatus.NOT_REGISTERED
        if entries[folio_id] is not None:
            return ListStatus.ALREADY_LISTED
        nodes[folio_id] = None
        if not tail:
            nodes.move_to_end(folio_id, last=False)
        entries[folio_id] = list_id
        if self.debug:
            self.check_consistency()
        return ListStatus.OK

    def list_move(self, list_id: int, folio_id: int, tail: bool) -> ListStatus:
        nodes = self._lists.get(list_id)
        if nodes is None:
            return ListStatus.INVALID_LIST
        entries = self._registry.entries
        current = entries.get(folio_id)
        if current is None:
            return ListStatus.NOT_LISTED
        if current == list_id:
            nodes.move_to_end(folio_id, last=tail)
        else:
            del self._lists[current][folio_id]
            nodes[folio_id] = None
            if not tail:
                nodes.move_to_end(folio_id, last=False)
            entries[folio_id] = list_id
        if self.debug:
            self.check_consistency()
        return ListStatus.OK

    def list_del(self, folio_id: int) -> ListStatus:
        entries = self._registry.entries
        current = entries.get(folio_id)
        if current is None:
            return ListStatus.NOT_LISTED
        del self._lists[current][folio_id]
        entries[folio_id] = None
        if self.debug:
            self.check_consistency()
        return ListStatus.OK

    def detach(self, folio_id: int, list_id: int) -> None:
        """Framework-side removal when a folio leaves the cache."""
        del self._lists[list_id][folio_id]

    # -- iteration --------------------------------------------------------

    def list_iterate(self, list_id, callback, opts: IterOptions,
                     ctx: EvictionContext):
        """Walk a list and let the callback judge each examined node.

        Returns the number of nodes examined, or ``ListStatus.INVALID_LIST``.
        Returns 0 immediately when the context is already full. Bounds
        (scan_limit, candidate capacity) and loop termination are enforced
        here, not by the callback.

        Evaluate mode: the callback receives the folio id and returns a
        ``Verdict``. EVICT verdicts append the folio id to the context
        (iteration stops once it fills); KEEP verdicts apply
        ``opts.disposition``; STOP ends the walk.

        Score mode: the callback receives the folio id and returns an
        integer score. The ``ctx.room()`` lowest-scoring nodes are appended
        to the context, ties broken by earlier list position; all nodes stay
        in place.
        """
        nodes = self._lists.get(list_id)
        if nodes is None:
            return ListStatus.INVALID_LIST
        if ctx.room() <= 0:
            return 0
        window = list(islice(nodes, opts.skip, opts.skip + opts.scan_limit))
        if opts.mode is IterMode.SCORE:
            if opts.scan_limit < ctx.nr_candidates_requested:
                raise ValueError("score mode needs scan_limit >= "
                                 "nr_candidates_requested")
            # Hot path: one score callback per window node, every round.
            scores = list(map(callback, window))
            k = ctx.room()
            if k == 1:
                if window:
                    ctx.propose(window[scores.index(min(scores))])
            else:
                for _, _, folio_id in heapq.nsmallest(
                        k, zip(scores, range(len(window)), window)):
                    ctx.propose(folio_id)
            return len(window)
        entries = self._registry.entries
        examined = 0
        for folio_id in window:
            # A callback may mutate lists mid-walk; skip stale snapshot ids.
            if entries.get(folio_id) != list_id:
                continue
            verdict = callback(folio_id)
            examined += 1
            if verdict is Verdict.STOP:
                break
            if verdict is Verdict.EVICT or verdict is Verdict.EVICT_AND_MOVE_TAIL:
                ctx.propose(folio_id)
                if verdict is Verdict.EVICT_AND_MOVE_TAIL:
                    nodes.move_to_end(folio_id)
                if ctx.room() <= 0:
                    break
            elif verdict is Verdict.KEEP:
                disposition = opts.disposition
                if disposition is Disposition.MOVE_TO_TAIL:
                    nodes.move_to_end(folio_id)
                elif disposition is Disposition.MOVE_TO_LIST:
                    # Called on the class so that a wrapper set on this
                    # instance's list_move does not see internal moves.
                    status = PolicyCgroup.list_move(
                        self, opts.target_list, folio_id, tail=True)
                    if status is not ListStatus.OK:
                        raise ValueError("bad MOVE_TO_LIST target %r"
                                         % (opts.target_list,))
            else:
                raise TypeError("evaluate callback returned %r" % (verdict,))
        if self.debug:
            self.check_consistency()
        return examined

    # -- debugging ---------------------------------------------------------

    def check_consistency(self) -> None:
        """Registry membership and list contents must agree exactly."""
        listed = {}
        for list_id, nodes in self._lists.items():
            for folio_id in nodes:
                if folio_id in listed:
                    raise AssertionError("folio %d on two lists" % folio_id)
                listed[folio_id] = list_id
        for folio_id, list_id in listed.items():
            if self._registry.membership(folio_id) != list_id:
                raise AssertionError("membership mismatch for folio %d"
                                     % folio_id)
        for folio_id, list_id in self._registry.entries.items():
            if list_id is not None and folio_id not in listed:
                raise AssertionError("registry lists folio %d on %d but the "
                                     "list does not contain it"
                                     % (folio_id, list_id))


#: Former name of ``PolicyCgroup``, kept so existing imports still work.
EvictionLists = PolicyCgroup


class PolicyHooks:
    """Base class for eviction policies: five hooks plus deferred work.

    ``policy_init`` receives the cgroup's ``PolicyCgroup`` handle, the one
    object through which the policy creates, updates and walks its eviction
    lists; ``list_iterate`` callbacks receive folio ids. Hooks must not
    evict folios directly; they may only mutate eviction lists,
    policy-private state, and the eviction context they are handed.
    ``folio_removed`` must not touch lists for the removed folio, which the
    framework has already detached. Exceptions escaping a hook are treated
    as policy misbehavior: the core absorbs them and falls back to default
    eviction for the round.
    """

    name = "noop"

    def policy_init(self, cg: PolicyCgroup):
        """Called once at attach time; create lists and private state here."""

    def evict_folios(self, ctx: EvictionContext, cg: PolicyCgroup) -> None:
        """Propose up to ``ctx.room()`` eviction candidates."""

    def folio_added(self, folio) -> None:
        """A folio owned by the managed cgroup entered the cache."""

    def folio_accessed(self, folio) -> None:
        """A managed folio was accessed (by any cgroup)."""

    def folio_removed(self, folio) -> None:
        """A managed folio left the cache; clean up private metadata."""

    def run_deferred(self) -> None:
        """Deferred maintenance, invoked between trace events.

        The simulator calls this after each completed event, off the
        added/accessed hot path, standing in for an asynchronous
        notify-userspace-and-reconfigure mechanism.
        """
