"""Belady's MIN with bypass: the fewest misses any cache of a given
capacity can take on a page sequence.

On a miss with the cache full, MIN drops whichever page is next used
last among the residents and the incoming page; dropping the incoming
page is a bypass, so it is never admitted. Demand-paging MIN, which always
admits the faulted page, is not a lower bound here: every shipped policy
sometimes evicts the page it has just faulted in, in the same round.

The capacity may change between accesses. Where it shrinks, MIN first
drops the residents next used last until the rest fit, which is still
optimal: of the pages that must go, those are the ones needed latest.
"""

from heapq import heappop, heappush


def min_misses(accesses, capacity):
    """Misses MIN with bypass takes on ``accesses`` (hashable, mutually
    comparable page keys). ``capacity`` is the room in pages, each >= 1:
    an int, or a sequence giving the room in force at each access."""
    n = len(accesses)
    if isinstance(capacity, int):
        capacity = [capacity] * n
    # position of each access's next use; n + i (past every real use, and
    # distinct) when there is none
    next_use = [0] * n
    seen = {}
    for i in range(n - 1, -1, -1):
        next_use[i] = seen.get(accesses[i], n + i)
        seen[accesses[i]] = i
    resident = {}  # key -> its next use
    farthest = []  # (-next use, key); an entry is stale once the key moves

    def drop_stale():
        while resident.get(farthest[0][1]) != -farthest[0][0]:
            heappop(farthest)

    misses = 0
    for i, key in enumerate(accesses):
        use, room = next_use[i], capacity[i]
        while len(resident) > room:
            drop_stale()
            del resident[heappop(farthest)[1]]
        if key not in resident:
            misses += 1
            if len(resident) >= room:
                drop_stale()
                if -farthest[0][0] < use:
                    continue  # bypass: the incoming page is used last
                del resident[heappop(farthest)[1]]
        resident[key] = use
        heappush(farthest, (-use, key))
    return misses
