"""Extension surface for pluggable eviction policies.

A policy is a set of five lifecycle hooks (see ``PolicyHooks``) attached to
one cgroup. It never evicts pages itself: it organizes resident folios on
*eviction lists* it creates, and when the cache core asks for victims it
proposes candidates through an ``EvictionContext``. The core accepts a
candidate only if it finds it, unpinned, on the cgroup's own lists, so a
buggy policy can degrade hit ratios but cannot corrupt the cache.

The policy reaches its lists through one handle per cgroup,
``PolicyCgroup``, which owns the lists and carries the event context of the
hook being dispatched. Eviction lists store folio ids, not folios, and
``list_iterate`` hands its callback a folio id. Lists are indexed: the
handle records which list each listed folio is on, so detaching a folio on
eviction is O(1). List operations return ``ListStatus`` codes instead of
raising, mirroring an int-returning kernel-style API.

A ``list_iterate`` walk, in either mode, is one pass over the live window:
it reads the window as it goes, without copying it, so a round that stops
after k nodes reads about k nodes (plus ``skip``). Its callback must leave
the walked list alone, and may change any other. An evaluate-mode walk
applies its own moves when it ends. A score-mode round keeps the
``ctx.room()`` lowest scores as it reads, without copying their scores. A
policy that declares the lowest score its callback can return
(``score_floor``) ends the pass as soon as it holds ``ctx.room()`` nodes at
that floor: ties go to the earlier node, so no later node could displace
them.
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


# Members the eviction path compares against, bound once (an enum unpacks
# in definition order): on Python 3.11 an ``Enum.MEMBER`` load is slow.
_OK, _NOT_LISTED = ListStatus.OK, ListStatus.NOT_LISTED
_SCORE, _EVICTED = IterMode.SCORE, RemovalReason.EVICTED
_LEAVE_IN_PLACE, _MOVE_TO_TAIL, _MOVE_TO_LIST = Disposition
_KEEP, _EVICT, _EVICT_AND_MOVE_TAIL, _STOP = Verdict


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
    the floor breaks the declaration and raises ``ValueError``.
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
    and ids that are not resident, unpinned folios of the cgroup.
    """

    __slots__ = ("nr_candidates_requested", "nr_candidates_proposed",
                 "candidates")

    def __init__(self, nr_candidates_requested: int):
        if not 1 <= nr_candidates_requested <= CANDIDATES_MAX:
            raise ValueError(
                "nr_candidates_requested must be in 1..=%d, got %r"
                % (CANDIDATES_MAX, nr_candidates_requested))
        self.nr_candidates_requested = nr_candidates_requested
        self.nr_candidates_proposed = 0
        self.candidates: list[int] = []

    def room(self) -> int:
        return self.nr_candidates_requested - self.nr_candidates_proposed

    def propose(self, folio_id: int) -> bool:
        """Append a candidate. Returns False when full or already proposed."""
        if self.nr_candidates_proposed >= self.nr_candidates_requested:
            return False
        if folio_id in self.candidates:
            return False
        self.candidates.append(folio_id)
        self.nr_candidates_proposed += 1
        return True


def registry_memory_estimate(limit_pages: int, resident: int) -> int:
    """Bytes a kernel-side folio registry, the hash table that cachebpf
    validates candidates against, needs when sized for ``limit_pages``.

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
    removal by folio id, and bounded iteration. Only a folio resident in the
    cgroup can be listed, and on at most one list of the handle at a time;
    the handle records which. List ids from other handles are unknown here
    and rejected as INVALID_LIST.

    It also carries the event context the core sets before dispatching
    hooks: ``current_thread`` identifies the thread performing the current
    access (the analog of reading the current task's PID), and
    ``removal_reason`` tells ``folio_removed`` whether the folio was evicted
    or dropped with its file. ``cgroup_id``, ``limit_pages`` and
    ``resident_pages`` describe the cgroup itself.

    ``cgroup`` is the core's per-cgroup record; the handle reads its ``id``,
    ``active`` and ``inactive`` lists, ``limit_pages`` and
    ``resident_pages``. ``requests`` is the simulator's queue of cgroups
    that asked for deferred work (see ``request_deferred``).
    """

    def __init__(self, cgroup, requests: list):
        self.cgroup_id = cgroup.id
        self._cgroup = cgroup
        self._requests = requests
        self._lists: dict[int, OrderedDict] = {}
        # Folio id -> id of the list it is on, for listed folios only.
        self._membership: dict[int, int] = {}
        self._next_id = 1
        self.current_thread = 0
        self.removal_reason: RemovalReason | None = None

    @property
    def limit_pages(self) -> int:
        return self._cgroup.limit_pages

    @property
    def resident_pages(self) -> int:
        return self._cgroup.resident_pages

    def request_deferred(self) -> None:
        """Ask for one ``run_deferred`` call on the policy after the
        current event; see ``Simulator.run_deferred``. Further requests
        before that call add nothing."""
        requests = self._requests
        if self._cgroup not in requests:
            requests.append(self._cgroup)

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
        cgroup = self._cgroup
        if folio_id not in cgroup.inactive and folio_id not in cgroup.active:
            return ListStatus.NOT_REGISTERED
        membership = self._membership
        if folio_id in membership:
            return ListStatus.ALREADY_LISTED
        nodes[folio_id] = None
        if not tail:
            nodes.move_to_end(folio_id, last=False)
        membership[folio_id] = list_id
        return _OK

    def list_move(self, list_id: int, folio_id: int, tail: bool) -> ListStatus:
        nodes = self._lists.get(list_id)
        if nodes is None:
            return ListStatus.INVALID_LIST
        membership = self._membership
        current = membership.get(folio_id)
        if current is None:
            return _NOT_LISTED
        if current == list_id:
            nodes.move_to_end(folio_id, last=tail)
        else:
            del self._lists[current][folio_id]
            nodes[folio_id] = None
            if not tail:
                nodes.move_to_end(folio_id, last=False)
            membership[folio_id] = list_id
        return _OK

    # list_iterate's own moves go through this alias, so a wrapper set on
    # the instance's list_move sees only the policy's calls.
    _move = list_move

    def list_del(self, folio_id: int) -> ListStatus:
        current = self._membership.pop(folio_id, None)
        if current is None:
            return _NOT_LISTED
        del self._lists[current][folio_id]
        return _OK

    # The core's removal of a departing folio, status ignored; a wrapper
    # set on the instance's list_del sees only the policy's calls.
    detach = list_del

    # -- iteration --------------------------------------------------------

    def list_iterate(self, list_id, callback, opts: IterOptions,
                     ctx: EvictionContext):
        """Walk a list and let the callback judge each examined node.

        Returns the number of nodes examined, or ``ListStatus.INVALID_LIST``.
        Returns 0 immediately when the context is already full. An empty
        list returns 0 without a callback call once the options pass the
        checks a non-empty list makes before its first read: the score-mode
        ``scan_limit`` check and the ``skip`` and ``scan_limit`` bounds.
        Bounds (scan_limit, candidate capacity) and loop termination are
        enforced here, not by the callback.

        Both modes make one pass over the live window, reading it lazily, so
        a walk that stops early costs about the nodes it visited plus
        ``skip``. The callback must therefore not change the list being
        walked; it may change other lists. After such a change the next
        read raises ``RuntimeError`` (a change made on the window's last
        node goes unseen). The core counts that as a hook error and falls
        back to default eviction for the round.

        Evaluate mode: the callback receives the folio id and returns a
        ``Verdict``. EVICT verdicts append the folio id to the context
        (iteration stops once it fills); KEEP verdicts apply
        ``opts.disposition``; STOP ends the walk. The walk's own moves (a
        KEEP disposition, EVICT_AND_MOVE_TAIL) are applied when it ends,
        even by an exception, in walk order, each to the tail of its target
        list, and only to nodes still on the walked list: a node the
        callback took off it stays where the callback put it.

        Score mode: the callback receives the folio id and returns an
        integer score. The ``ctx.room()`` lowest-scoring nodes are appended
        to the context, ties broken by earlier list position; all nodes stay
        in place. The return value is the number of nodes scored, each
        exactly once. Without ``opts.score_floor`` that is the whole window.
        With one, the pass stops at the node that gives it ``ctx.room()``
        nodes scoring exactly the floor, and a window with fewer such nodes
        is scored in full; either way the candidates and their order are
        those of the full pass. A score below the floor raises
        ``ValueError``, and one that is not a number ``TypeError``; the core
        counts either as a hook error.
        """
        nodes = self._lists.get(list_id)
        if nodes is None:
            return ListStatus.INVALID_LIST
        room = ctx.nr_candidates_requested - ctx.nr_candidates_proposed
        if room <= 0:
            return 0
        window = islice(nodes, opts.skip, opts.skip + opts.scan_limit)
        score_mode = opts.mode is _SCORE
        if score_mode and opts.scan_limit < ctx.nr_candidates_requested:
            raise ValueError("score mode needs scan_limit >= "
                             "nr_candidates_requested")
        if not nodes:
            # after every check a non-empty list makes before its first read
            return 0
        if score_mode:
            return self._score_pass(window, callback, opts.score_floor, ctx,
                                    room)
        disposition = opts.disposition
        # The walk's own moves as (target list, folio id), applied after the
        # loop: a node moved now would change the list being read. Moved
        # nodes land past the window, so the walked list ends as it would
        # had each moved at once, and no node is read twice.
        moves = []
        examined = 0
        try:
            for folio_id in window:
                verdict = callback(folio_id)
                examined += 1
                if verdict is _EVICT or verdict is _EVICT_AND_MOVE_TAIL:
                    ctx.propose(folio_id)
                    if verdict is _EVICT_AND_MOVE_TAIL:
                        moves.append((list_id, folio_id))
                    if ctx.room() <= 0:
                        break
                elif verdict is _KEEP:
                    if disposition is _MOVE_TO_TAIL:
                        moves.append((list_id, folio_id))
                    elif disposition is _MOVE_TO_LIST:
                        if opts.target_list not in self._lists:
                            raise ValueError(
                                "bad MOVE_TO_LIST target %r: %s"
                                % (opts.target_list,
                                   ListStatus.INVALID_LIST.name))
                        moves.append((opts.target_list, folio_id))
                elif verdict is _STOP:
                    break
                else:
                    raise TypeError("evaluate callback returned %r"
                                    % (verdict,))
        finally:
            if moves:
                membership = self._membership
                for target, folio_id in moves:
                    if membership.get(folio_id) == list_id:
                        self._move(target, folio_id, tail=True)
        return examined

    @staticmethod
    def _score_pass(window, callback, floor, ctx: EvictionContext,
                    room: int) -> int:
        """Score mode's pass; returns the nodes scored.

        Floor-scoring nodes rank before every other node and among
        themselves by position, so the first ``room`` of them are the
        round's answer and the pass ends there. Until then it keeps the
        ``room`` best of the other nodes (of every node when ``floor`` is
        None) as ``(-score, -position, id)`` in a bounded heap whose root
        is the worst kept.
        """
        at_floor = []
        rest = []
        scored = 0
        for folio_id in window:
            score = callback(folio_id)
            scored += 1
            if floor is not None and score <= floor:
                if score < floor:
                    raise ValueError("score %r is below the declared floor "
                                     "%r" % (score, floor))
                at_floor.append(folio_id)
                if len(at_floor) == room:
                    break
            else:
                # Positions are unique, so ids are never compared; a score
                # that is not a number raises TypeError here.
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
        """The recorded memberships and the list contents must agree
        exactly, and every listed folio must be resident in the cgroup."""
        listed = {}
        for list_id, nodes in self._lists.items():
            for folio_id in nodes:
                if folio_id in listed:
                    raise AssertionError("folio %d on two lists" % folio_id)
                listed[folio_id] = list_id
        if listed != self._membership:
            raise AssertionError("recorded memberships != list contents")
        cgroup = self._cgroup
        for folio_id in listed:
            if (folio_id not in cgroup.inactive
                    and folio_id not in cgroup.active):
                raise AssertionError("listed folio %d is not resident"
                                     % folio_id)


class PolicyHooks:
    """Base class for eviction policies: five hooks plus deferred work.

    ``policy_init`` receives the cgroup's ``PolicyCgroup`` handle, the one
    object through which the policy creates, updates and walks its eviction
    lists; ``list_iterate`` callbacks receive folio ids. Hooks must not
    evict folios directly; they may only mutate eviction lists,
    policy-private state, and the eviction context they are handed.
    ``folio_removed`` must not touch lists for the removed folio, which the
    framework has already detached. A ``list_iterate`` callback must not
    change the list being walked; the walk raises ``RuntimeError`` if it
    does. Exceptions escaping a hook are treated as policy misbehavior: the
    core absorbs them and falls back to default eviction for the round.
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
        """Deferred maintenance, invoked between trace events on request.

        The simulator calls this once after an event in which the policy
        called ``cg.request_deferred()`` on its handle, off the
        added/accessed hot path, standing in for the BPF side telling its
        userspace agent that reconfiguration is due. A policy that never
        requests is never called. One that wants the slot after every
        event requests from ``policy_init`` and again from each
        ``run_deferred``; a request made here is served after the next
        event. See ``Simulator.run_deferred``.
        """
