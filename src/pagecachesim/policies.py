"""Eviction policies built on the policy hook and eviction-list API.

Six policies ship here. FIFO and MRU are pure list-order policies; MRU
is FIFO's queue walked from its newest end. LFU evicts the
lowest-frequency folios among the first N folios in fault order, so it
approximates LFU rather than tracking a global minimum; it keeps that
window ranked as folios enter it rather than rescoring it every round.
GET-SCAN is LFU plus a scan list that it drains first. S3-FIFO filters
one-hit wonders through a small probation queue with a ghost table of
recently evicted keys, and LHD ranks folios by the expected hits per unit
of remaining lifetime of their age/class cohort, using integer fixed-point
statistics throughout.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from heapq import heapify, heappop, heappush, heapreplace
from inspect import signature

from .policy_api import (
    DEFAULT_SCAN_LIMIT,
    Disposition,
    IterMode,
    IterOptions,
    PolicyCgroup,
    PolicyHooks,
    _EVICT,
    _EVICT_AND_MOVE_TAIL,
    _EVICTED,
    _KEEP,
)
from .workloads import need_int, need_real, thread_ids


class FifoPolicy(PolicyHooks):
    """Evict in insertion order; accesses never reorder anything."""

    name = "fifo"

    def __init__(self, scan_window: int = DEFAULT_SCAN_LIMIT):
        self._opts = IterOptions(scan_limit=need_int("scan_window",
                                                     scan_window))

    def policy_init(self, cg: PolicyCgroup):
        self.cg = cg
        self.queue = cg.list_create()

    def folio_added(self, folio):
        self.cg.list_add(self.queue, folio.id, tail=True)

    def evict_folios(self, ctx, cg):
        cg.list_iterate(self.queue, _evict_all, self._opts, ctx)


def _evict_all(fid):
    return _EVICT


class MruPolicy(FifoPolicy):
    """Evict the most recently used folios first: FIFO's queue walked from
    its newest end.

    Insertions and accesses both go to the queue's head, where eviction
    walks from. The first ``skip`` folios are passed over so that pages
    still being used to service the current request are not proposed
    immediately after insertion.
    """

    name = "mru"

    def __init__(self, skip: int = 32, scan_window: int = DEFAULT_SCAN_LIMIT):
        super().__init__(scan_window)
        self._opts.skip = need_int("skip", skip, 0)

    def folio_added(self, folio):
        self.cg.list_add(self.queue, folio.id, tail=False)

    def folio_accessed(self, folio):
        self.cg.list_move(self.queue, folio.id, tail=False)


#: The frequency LFU and GET-SCAN folios enter at; it only rises.
_MIN_FREQ = 1


class LfuPolicy(PolicyHooks):
    """Windowed LFU: evict the least-frequently used of the first
    ``scan_window`` folios in fault order, ties to the earlier folio.

    The window is ranked without rescoring it every round. The queue is
    two policy lists: ``window`` holds its first folios, at most
    ``scan_window`` of them, and ``queue``, where folios are added, the
    rest. Both lists only ever gain folios at their tails, in fault order,
    and folio ids rise in fault order, so id order is list order and the
    ``heap`` of ``(freq, fid)`` entries breaks frequency ties by list
    position, exactly as a score pass over the window does.

    A round answers from the heap while its top is at ``_MIN_FREQ``, the
    frequency every folio enters at and never falls below: every folio
    still on the queue comes later and has at least that frequency, so
    none could displace the top. Only when the top is above the floor, or
    the heap holds no live entry, does the round refill the window from
    the queue's head with one evaluate-mode walk, whose callback pushes
    each entering folio's entry, and carry on popping. On a stream of
    misses that is one walk per ``scan_window`` evictions. An entering
    frequency below the floor breaks that rule and raises ``ValueError``.

    Heap entries are refreshed lazily. A folio's frequency only rises
    while it is resident, so a stale entry sits too high, never too low,
    and is pushed back with its current frequency when it reaches the top;
    the entry of a folio that left is dropped there. Entries of folios
    that left without surfacing (fallback eviction, file removal) are
    dropped when a round ends with the heap past twice the window, by
    rebuilding it from the live frequencies.
    """

    name = "lfu"

    def __init__(self, scan_window: int = DEFAULT_SCAN_LIMIT):
        self._scan_window = need_int("scan_window", scan_window)

    def policy_init(self, cg: PolicyCgroup):
        self.cg = cg
        self.queue = cg.list_create()
        self.window = cg.list_create()
        self.freq: dict[int, int] = {}
        self.heap: list[tuple[int, int]] = []
        self._admit_opts = IterOptions(disposition=Disposition.MOVE_TO_LIST,
                                       target_list=self.window)
        freq, heap = self.freq, self.heap

        def admit(fid):
            f = freq[fid]
            if f < _MIN_FREQ:
                raise ValueError("frequency %r is below the floor %r"
                                 % (f, _MIN_FREQ))
            heappush(heap, (f, fid))
            return _KEEP  # moved to the window's tail

        self._admit = admit

    def folio_added(self, folio):
        self.cg.list_add(self.queue, folio.id, tail=True)
        self.freq[folio.id] = _MIN_FREQ

    def folio_accessed(self, folio):
        self.freq[folio.id] += 1

    def evict_folios(self, ctx, cg):
        """Propose the ``ctx.room()`` lowest-frequency window folios,
        lowest first, ties to the earlier folio."""
        size = self._scan_window
        if size < ctx.nr_candidates_requested:
            # a score pass over the window raises the same
            raise ValueError("scan_window (%d) is below the %d candidates "
                             "requested" % (size, ctx.nr_candidates_requested))
        heap = self.heap
        freq = self.freq
        room = ctx.room()
        taken = []
        refilled = False
        try:
            while True:
                if heap:
                    f, fid = heap[0]
                    current = freq.get(fid)
                    if current is None:
                        heappop(heap)
                        continue
                    if current != f:
                        heapreplace(heap, (current, fid))
                        continue
                    if f == _MIN_FREQ or refilled:
                        ctx.propose(fid)
                        room -= 1
                        if room <= 0:
                            break
                        taken.append(heappop(heap))
                        continue
                elif refilled:
                    break
                free = size - cg.list_length(self.window)
                if free > 0:
                    self._admit_opts.scan_limit = free
                    cg.list_iterate(self.queue, self._admit,
                                    self._admit_opts, ctx)
                refilled = True
        finally:
            # Proposed folios stay listed: a pinned one is rejected and
            # stays resident, and an evicted one's entry is dropped when it
            # surfaces.
            for entry in taken:
                heappush(heap, entry)
            if len(heap) > 2 * size:
                heap[:] = [(freq[fid], fid) for _, fid in heap if fid in freq]
                heapify(heap)

    def folio_removed(self, folio):
        self.freq.pop(folio.id, None)


class S3FifoPolicy(PolicyHooks):
    """S3-FIFO: small and main FIFO queues plus a ghost table.

    New folios enter the small queue unless their (file, offset) key is in
    the ghost table, in which case they skip straight to the main queue.
    Access frequency is tracked per folio, capped at 3 so bursts cannot pin
    a folio forever. When the small queue is over its target share, its
    folios are either promoted to the main queue (frequency above 1) or
    proposed for eviction and rotated to the small tail. Otherwise the main
    queue is scanned in up to four passes with rising frequency thresholds;
    every examined folio has its frequency decremented and is rotated to
    the tail. Evicted folios leave a ghost entry keyed by (file, offset),
    since folio ids are not stable across evictions; the ghost table is
    bounded and drops its least recently touched key when full.
    """

    name = "s3fifo"

    FREQ_CAP = 3

    def __init__(self, small_fraction: float = 0.10,
                 ghost_capacity: int | None = None,
                 scan_window: int = DEFAULT_SCAN_LIMIT):
        if not 0.0 < need_real("small_fraction", small_fraction) < 1.0:
            raise ValueError("small_fraction must be in (0, 1)")
        self.small_fraction = small_fraction
        if ghost_capacity is not None:
            need_int("ghost_capacity", ghost_capacity, 0)
        self._ghost_capacity = ghost_capacity
        self._scan_window = need_int("scan_window", scan_window)

    def policy_init(self, cg: PolicyCgroup):
        self.cg = cg
        self.small = cg.list_create()
        self.main = cg.list_create()
        self.freq: dict[int, int] = {}
        freq = self.freq
        self.ghost: OrderedDict = OrderedDict()
        if self._ghost_capacity is None:
            self._ghost_capacity = cg.limit_pages
        self._small_opts = IterOptions(scan_limit=self._scan_window,
                                       disposition=Disposition.MOVE_TO_LIST,
                                       target_list=self.main)
        self._main_opts = IterOptions(scan_limit=self._scan_window,
                                      disposition=Disposition.MOVE_TO_TAIL)

        def judge_small(fid):
            if freq[fid] > 1:
                return _KEEP  # promoted to the main tail
            return _EVICT_AND_MOVE_TAIL

        def judge_main(threshold):
            def judge(fid):
                f = freq[fid]
                if f > 0:
                    freq[fid] = f - 1
                if f <= threshold:
                    return _EVICT_AND_MOVE_TAIL
                return _KEEP
            return judge

        self._judge_small = judge_small
        # One judge per main-queue pass, with rising frequency thresholds.
        self._judges_main = tuple(judge_main(t)
                                  for t in range(self.FREQ_CAP + 1))

    def folio_added(self, folio):
        fid = folio.id
        self.freq[fid] = 0
        key = (folio.file, folio.offset)
        if key in self.ghost:
            del self.ghost[key]
            self.cg.list_add(self.main, fid, tail=True)
        else:
            self.cg.list_add(self.small, fid, tail=True)

    def folio_accessed(self, folio):
        fid = folio.id
        f = self.freq[fid]
        if f < self.FREQ_CAP:
            self.freq[fid] = f + 1

    def evict_folios(self, ctx, cg):
        small_len = cg.list_length(self.small)
        total = small_len + cg.list_length(self.main)
        if small_len > self.small_fraction * total:
            cg.list_iterate(self.small, self._judge_small, self._small_opts,
                            ctx)
        else:
            for judge in self._judges_main:
                if ctx.room() <= 0:
                    break
                cg.list_iterate(self.main, judge, self._main_opts, ctx)

    def folio_removed(self, folio):
        self.freq.pop(folio.id, None)
        if self.cg.removal_reason is _EVICTED:
            ghost = self.ghost
            ghost[(folio.file, folio.offset)] = None
            if len(ghost) > self._ghost_capacity:
                ghost.popitem(last=False)


class LhdPolicy(PolicyHooks):
    """Least hit density: evict the folios least likely to produce hits
    per unit of cache time they would keep occupying.

    Folios fall into classes by how long ago their last hit happened
    (class 0 holds never-hit folios). Each class keeps hit and eviction
    counts per coarsened age bucket. From those, a periodic reconfiguration
    computes a hit density per (class, age): the probability of a hit at or
    beyond that age divided by the expected remaining lifetime. Eviction
    scores each scanned folio with the published density of its current
    class and age; lowest density goes first, and with no recorded events
    all densities are zero so eviction degenerates to list order.

    A folio's class changes only on a hit, so its metadata entry,
    ``[last_access_tick, hit_density row, hits row, evictions row]``, holds
    the three rows of its current class (class 0's at admission). A score
    is one bucket lookup in the density row, a hit adds to the hits row
    and an eviction to the evictions row. The class a hit moves the folio
    to depends only on that hit's age bucket, so a table built at
    ``policy_init`` with one entry per bucket gives the next rows, and a
    hit does no class arithmetic.

    Reconfiguration runs from the deferred-work slot between trace events,
    never on the access path, after every ``reconfig_interval`` admissions:
    an admission that leaves the count at or past the interval requests
    the slot (``PolicyCgroup.request_deferred``), and ``run_deferred``
    keeps its own check of the count.
    It first ages all counters with an EWMA decay of 0.9 and then
    recomputes densities. All statistics are 64-bit fixed point (scaled by
    2**20); nothing here uses floating point.

    Densities are non-negative by construction, so the queue declares a
    ``score_floor`` of 0: a round ends at its ``ctx.room()``-th
    zero-density folio. Zero is the common score: it is every density
    until the first reconfiguration, and after one it is still the density
    of every age at or past which a class recorded no hit.
    """

    name = "lhd"
    #: Lowest density a score can return; see ``IterOptions.score_floor``.
    score_floor = 0

    NUM_CLASSES = 16
    MAX_AGE = 256
    SCALE = 1 << 20
    EWMA_NUM, EWMA_DEN = 9, 10

    def __init__(self, reconfig_interval: int = 1 << 20,
                 age_granularity: int | None = None,
                 scan_window: int = DEFAULT_SCAN_LIMIT):
        self.reconfig_interval = need_int("reconfig_interval",
                                          reconfig_interval)
        if age_granularity is not None:
            need_int("age_granularity", age_granularity)
        self._age_granularity = age_granularity
        self._opts = IterOptions(mode=IterMode.SCORE,
                                 scan_limit=need_int("scan_window",
                                                     scan_window),
                                 score_floor=self.score_floor)

    def policy_init(self, cg: PolicyCgroup):
        self.cg = cg
        self.queue = cg.list_create()
        # fid -> [last_access_tick, hit_density row, hits row,
        #         evictions row], the rows of the folio's current class
        self.meta: dict[int, list] = {}
        n, m = self.NUM_CLASSES, self.MAX_AGE
        self.hits = [[0] * m for _ in range(n)]
        self.evictions = [[0] * m for _ in range(n)]
        # Rewritten in place by reconfigure, never replaced: meta entries
        # and the tables below hold references to these rows.
        self.hit_density = [[0] * m for _ in range(n)]
        rows = list(zip(self.hit_density, self.hits, self.evictions))
        self._admit_rows = rows[0]
        # A hit's bucket a alone picks the class the folio moves to,
        # 1 + floor(log2(a + 1)), as its hit count is then at least 1.
        self._rows_after_hit = [rows[min((a + 1).bit_length(), n - 1)]
                                for a in range(m)]
        self.tick = 0
        self.admissions_since_reconfig = 0
        if self._age_granularity is None:
            self._age_granularity = max(1, cg.limit_pages // self.MAX_AGE)
        meta, gran, top = self.meta, self._age_granularity, m - 1

        def score(fid):
            # runs once per scanned node on every eviction round
            e = meta[fid]
            b = (self.tick - e[0]) // gran
            return e[1][b if b < top else top]

        self._score = score

    def folio_added(self, folio):
        self.tick += 1
        self.meta[folio.id] = [self.tick, *self._admit_rows]
        self.cg.list_add(self.queue, folio.id, tail=True)
        self.admissions_since_reconfig = n = self.admissions_since_reconfig + 1
        if n >= self.reconfig_interval:
            self.cg.request_deferred()

    def folio_accessed(self, folio):
        self.tick = tick = self.tick + 1
        m = self.meta[folio.id]
        age = (tick - m[0]) // self._age_granularity
        if age >= self.MAX_AGE:
            age = self.MAX_AGE - 1
        m[2][age] += self.SCALE  # the hit counts in the class it hit from
        m[0] = tick
        m[1], m[2], m[3] = self._rows_after_hit[age]

    def evict_folios(self, ctx, cg):
        cg.list_iterate(self.queue, self._score, self._opts, ctx)

    def folio_removed(self, folio):
        m = self.meta.pop(folio.id, None)
        if m is not None and self.cg.removal_reason is _EVICTED:
            age = (self.tick - m[0]) // self._age_granularity
            if age >= self.MAX_AGE:
                age = self.MAX_AGE - 1
            m[3][age] += self.SCALE

    def run_deferred(self):
        if self.admissions_since_reconfig >= self.reconfig_interval:
            self.reconfigure()

    def reconfigure(self):
        """Age the statistics and republish hit densities.

        Per class, walking ages from oldest to youngest keeps suffix sums of
        hits, of all events, and of lifetime-weighted events, so each age's
        density is hit_suffix * SCALE // lifetime_suffix, at most SCALE, as
        lifetime_suffix >= event_suffix >= hit_suffix. Touches no
        per-folio metadata.
        """
        self.admissions_since_reconfig = 0
        num, den = self.EWMA_NUM, self.EWMA_DEN
        scale = self.SCALE
        for c in range(self.NUM_CLASSES):
            hits = self.hits[c]
            evictions = self.evictions[c]
            density = self.hit_density[c]
            for a in range(self.MAX_AGE):
                hits[a] = hits[a] * num // den
                evictions[a] = evictions[a] * num // den
            hit_suffix = 0
            event_suffix = 0
            lifetime_suffix = 0
            for a in range(self.MAX_AGE - 1, -1, -1):
                hit_suffix += hits[a]
                event_suffix += hits[a] + evictions[a]
                lifetime_suffix += event_suffix
                if event_suffix == 0:
                    density[a] = 0
                else:
                    density[a] = hit_suffix * scale // lifetime_suffix


class GetScanPolicy(LfuPolicy):
    """Application-informed policy for mixed point-read and scan traffic:
    LFU plus a scan list.

    Folios inserted by threads in ``scan_threads`` (a thread id or an
    iterable of them) go on a scan list, all others on LFU's queue; the
    inserting thread is read from the cgroup handle at insertion time.
    Both keep LFU's frequencies, and eviction drains the scan list first
    so scan traffic cannot push point-query folios out of the cache.

    The scan list is scored in place down to ``score_floor``. Scan pages
    are read once, so the scan list's head holds floor folios and a round
    usually ends at its first node, and a round on an empty scan list
    costs one length test. The queue's window is ranked as LFU ranks it.
    """

    name = "getscan"
    #: Lowest frequency on the scan list; see ``IterOptions.score_floor``.
    score_floor = _MIN_FREQ

    def __init__(self, scan_threads=(), scan_window: int = DEFAULT_SCAN_LIMIT):
        self.scan_threads = frozenset(thread_ids("scan_threads",
                                                 scan_threads))
        super().__init__(scan_window)
        self._scan_opts = IterOptions(mode=IterMode.SCORE,
                                      scan_limit=self._scan_window,
                                      score_floor=self.score_floor)

    def policy_init(self, cg: PolicyCgroup):
        super().policy_init(cg)
        self.scan_list = cg.list_create()

    def folio_added(self, folio):
        cg = self.cg
        cg.list_add(self.scan_list if cg.current_thread in self.scan_threads
                    else self.queue, folio.id, tail=True)
        self.freq[folio.id] = _MIN_FREQ

    def evict_folios(self, ctx, cg):
        if cg.list_length(self.scan_list):
            cg.list_iterate(self.scan_list, self.freq.__getitem__,
                            self._scan_opts, ctx)
        if ctx.room() > 0:
            super().evict_folios(ctx, cg)


#: Policy table: name -> class. A class's ``__init__`` owns its parameters'
#: names, defaults and checks. "default" means no policy.
POLICIES = {
    "default": None,
    "fifo": FifoPolicy,
    "mru": MruPolicy,
    "lfu": LfuPolicy,
    "s3fifo": S3FifoPolicy,
    "lhd": LhdPolicy,
    "getscan": GetScanPolicy,
}

#: Policy names accepted by the harness.
POLICY_NAMES = tuple(POLICIES)


@lru_cache(maxsize=None)
def _param_names(cls) -> frozenset:
    """The keyword parameters ``cls`` accepts (none for None), read from
    its signature once per class: ``inspect.signature`` takes tens of
    microseconds, and every run builds each cgroup's policy twice."""
    return frozenset(signature(cls).parameters) if cls else frozenset()


def make_policy(name: str, params: dict | None = None) -> PolicyHooks | None:
    """Build a policy by name from ``POLICIES``. Returns None for "default".

    ``params`` holds keyword parameters of the class, ``scan_window``
    included. An unknown name or parameter raises ValueError; the class
    raises TypeError or ValueError, naming the parameter, for a bad value.
    """
    if name not in POLICIES:
        raise ValueError("unknown policy %r (expected one of %s)"
                         % (name, ", ".join(POLICY_NAMES)))
    cls = POLICIES[name]
    params = params or {}
    unknown = sorted(set(params).difference(_param_names(cls)))
    if unknown:
        raise ValueError("unknown parameters for policy %r: %s"
                         % (name, ", ".join(unknown)))
    if cls is None:
        return None
    return cls(**params)
