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

An evaluate-mode walk reads its window from the live list as it goes, so a
round that stops after k nodes reads about k nodes (plus ``skip``), not the
whole window. It still visits exactly the window as it stood when the call
began: a list operation made while a walk is open first copies the unread
rest of every open walk.

A score-mode round is one pass over the live window: it keeps the
``ctx.room()`` lowest scores as it reads, without copying the window or its
scores, so a score callback must leave the scored list alone. A policy that
declares the lowest score its callback can return (``score_floor``) ends
the pass as soon as it holds ``ctx.room()`` nodes at that floor: ties go to
the earlier node, so no later node could displace them.
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

    ``score_floor`` (score mode only) is the lowest score the callback can
    return, or None if the policy declares none. With a floor the pass
    stops once it holds ``ctx.room()`` nodes scoring exactly the floor; the
    candidates and their order are those of the full pass. A score below
    the floor breaks the declaration and raises ``ValueError``. A floor
    pays off where floor-scoring nodes sit near the window's head; where
    they sit deep, the unfloored pass, which runs in C, is faster.
    """

    mode: IterMode = IterMode.EVALUATE
    scan_limit: int = DEFAULT_SCAN_LIMIT
    disposition: Disposition = Disposition.LEAVE_IN_PLACE
    target_list: int | None = None
    skip: int = 0
    score_floor: int | None = None


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


class _Walk:
    """One open evaluate-mode walk. ``unread`` yields the window nodes not
    yet visited; while ``live`` it reads them straight from the list, after
    that from a copy."""

    __slots__ = ("unread", "live")

    def __init__(self, unread):
        self.unread = unread
        self.live = True


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
        # Evaluate-mode walks in progress, outermost first.
        self._walks: list[_Walk] = []

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
        if self._walks:
            self._freeze_walks()
        nodes[folio_id] = None
        if not tail:
            nodes.move_to_end(folio_id, last=False)
        entries[folio_id] = list_id
        if self.debug:
            self.check_consistency()
        return ListStatus.OK

    def list_move(self, list_id: int, folio_id: int, tail: bool) -> ListStatus:
        if self._walks:
            self._freeze_walks()
        return self._move(list_id, folio_id, tail)

    def _move(self, list_id: int, folio_id: int, tail: bool) -> ListStatus:
        """``list_move`` without the open-walk copy; ``list_iterate`` uses
        it for its own moves, which it accounts for itself. Being a separate
        method, it is also not seen by a wrapper set on the instance's
        ``list_move``."""
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
        if self._walks:
            self._freeze_walks()
        del self._lists[current][folio_id]
        entries[folio_id] = None
        if self.debug:
            self.check_consistency()
        return ListStatus.OK

    def detach(self, folio_id: int, list_id: int) -> None:
        """Framework-side removal when a folio leaves the cache."""
        if self._walks:
            self._freeze_walks()
        del self._lists[list_id][folio_id]

    def _freeze_walks(self) -> None:
        """Copy the unread window of every open walk that still reads its
        list live; called before a list changes under it."""
        for walk in self._walks:
            if walk.live:
                walk.unread = iter(list(walk.unread))
                walk.live = False

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
        ``opts.disposition``; STOP ends the walk. The walk visits the window
        as it stood when the call began, in order, passing over ids that
        have left the list since. It reads the window lazily, so a walk that
        stops early costs about the nodes it visited plus ``skip``. The
        callback may still call ``list_add``, ``list_move``, ``list_del``
        and a nested ``list_iterate`` on any list, this one included: each
        first copies the unread rest of the open walks, so the window does
        not change under them (nodes a callback adds are not visited). A
        node the callback itself took off this list stays where the callback
        put it: it gets no disposition and no rotation, though an EVICT
        verdict still proposes it.

        Score mode: the callback receives the folio id and returns an
        integer score. The ``ctx.room()`` lowest-scoring nodes are appended
        to the context, ties broken by earlier list position; all nodes stay
        in place. The return value is the number of nodes scored, each
        exactly once. Without ``opts.score_floor`` that is the whole window.
        With one, the pass stops at the node that gives it ``ctx.room()``
        nodes scoring exactly the floor, and a window with fewer such nodes
        is scored in full; either way the candidates and their order are
        those of the full pass. A score below the floor raises
        ``ValueError``. Scoring is one pass over the live list, so a score
        callback must not change the list it scores: the next read after
        such a change raises ``RuntimeError`` (a change made by the call that
        scores the pass's last node goes unseen). The core counts either
        error as a hook error and falls back to default eviction for the
        round.
        """
        nodes = self._lists.get(list_id)
        if nodes is None:
            return ListStatus.INVALID_LIST
        if ctx.room() <= 0:
            return 0
        pos = opts.skip
        if opts.mode is IterMode.SCORE:
            if opts.scan_limit < ctx.nr_candidates_requested:
                raise ValueError("score mode needs scan_limit >= "
                                 "nr_candidates_requested")
            window = islice(nodes, pos, pos + opts.scan_limit)
            if opts.score_floor is not None:
                return self._score_to_floor(window, callback,
                                            opts.score_floor, ctx)
            examined = max(0, min(opts.scan_limit, len(nodes) - pos))
            # Hot path: one score callback per window node, every round.
            # nsmallest is stable (and min() for one), so ties go to the
            # earlier list position.
            for folio_id in heapq.nsmallest(ctx.room(), window, key=callback):
                ctx.propose(folio_id)
            return examined
        # The window is list positions [pos, pos + left) of nodes not yet
        # read. A node this walk moves leaves its position, so the ones after
        # it shift back by one and the walk reopens its read there; nodes it
        # moved to the tail lie past the window and are not read again.
        left = min(opts.scan_limit, len(nodes) - pos)
        walk = _Walk(islice(nodes, pos, pos + left))
        # Each reopen skips ``pos`` nodes again; once those skips would add
        # up to more than the window, copying the rest once is cheaper.
        budget = left
        walks = self._walks
        if walks:
            # This walk's moves would shift the positions the open ones read.
            self._freeze_walks()
        walks.append(walk)
        entries = self._registry.entries
        examined = 0
        try:
            while True:
                folio_id = next(walk.unread, None)
                if folio_id is None:
                    break
                pos += 1
                left -= 1
                # A callback may mutate lists mid-walk; skip stale ids.
                if entries.get(folio_id) != list_id:
                    continue
                verdict = callback(folio_id)
                examined += 1
                if verdict is Verdict.STOP:
                    break
                # Only a callback list operation, which clears ``walk.live``,
                # can have taken the node off this list; such a node stays
                # where the callback put it.
                moved = False
                if (verdict is Verdict.EVICT
                        or verdict is Verdict.EVICT_AND_MOVE_TAIL):
                    ctx.propose(folio_id)
                    if (verdict is Verdict.EVICT_AND_MOVE_TAIL and (
                            walk.live or entries.get(folio_id) == list_id)):
                        nodes.move_to_end(folio_id)
                        moved = True
                    if ctx.room() <= 0:
                        break
                elif verdict is Verdict.KEEP:
                    disposition = opts.disposition
                    if (disposition is not Disposition.LEAVE_IN_PLACE and (
                            walk.live or entries.get(folio_id) == list_id)):
                        if disposition is Disposition.MOVE_TO_TAIL:
                            nodes.move_to_end(folio_id)
                            moved = True
                        elif disposition is Disposition.MOVE_TO_LIST:
                            status = self._move(opts.target_list, folio_id,
                                                tail=True)
                            if status is not ListStatus.OK:
                                raise ValueError(
                                    "bad MOVE_TO_LIST target %r: %s"
                                    % (opts.target_list, status.name))
                            moved = True
                else:
                    raise TypeError("evaluate callback returned %r"
                                    % (verdict,))
                if moved and walk.live:
                    pos -= 1
                    unread = islice(nodes, pos, pos + left)
                    if pos > budget:
                        unread = iter(list(unread))
                        walk.live = False
                    else:
                        budget -= pos
                    walk.unread = unread
        finally:
            walks.pop()
        if self.debug:
            self.check_consistency()
        return examined

    @staticmethod
    def _score_to_floor(window, callback, floor, ctx: EvictionContext) -> int:
        """Score mode with a declared floor; returns the nodes scored.

        Floor-scoring nodes rank before every other node and among
        themselves by position, so the first ``room`` of them are the
        round's answer and the pass ends there. Until then it also keeps
        the ``room`` best other nodes, as ``(-score, -position, id)`` in a
        bounded heap whose root is the worst kept, for a window with fewer
        floor nodes.
        """
        room = ctx.room()
        at_floor = []
        rest = []
        scored = 0
        for folio_id in window:
            score = callback(folio_id)
            scored += 1
            if score == floor:
                at_floor.append(folio_id)
                if len(at_floor) == room:
                    break
            elif score < floor:
                raise ValueError("score %r is below the declared floor %r"
                                 % (score, floor))
            else:
                # Positions are unique, so ids are never compared.
                kept = (-score, -scored, folio_id)
                if len(rest) < room:
                    heapq.heappush(rest, kept)
                elif kept > rest[0]:
                    heapq.heapreplace(rest, kept)
        for folio_id in at_floor:
            ctx.propose(folio_id)
        if len(at_floor) < room:
            rest.sort(reverse=True)
            for _, _, folio_id in rest[:room - len(at_floor)]:
                ctx.propose(folio_id)
        return scored

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
        notify-userspace-and-reconfigure mechanism. It does so only for a
        policy that overrides this no-op, on its class or on the instance
        before ``attach_policy``; see ``Simulator.run_deferred``.
        """
