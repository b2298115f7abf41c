"""Independent straight-line reimplementations of the FIFO and MRU policies,
used as oracles by equivalence tests.

Each replays (file, offset) accesses for one cgroup whose limit is never
exceeded by more than the one page a miss faults in, and returns the
eviction order as a list of keys. No sharing with the simulator or the
policy API: a deque for FIFO and a plain list for MRU.
"""

from collections import deque


def fifo_trace(accesses, limit_pages):
    """FIFO: evict the oldest insertion; hits change nothing."""
    queue = deque()
    resident = set()
    evictions = []
    for key in accesses:
        if key in resident:
            continue
        queue.append(key)
        resident.add(key)
        if len(queue) > limit_pages:
            victim = queue.popleft()
            resident.discard(victim)
            evictions.append(victim)
    return evictions


def mru_trace(accesses, limit_pages, skip):
    """MRU: a stack with the most recent use on top. Misses and hits both
    put the key on top; a miss over the limit evicts the key at depth
    ``skip``, passing over the ``skip`` most recent ones."""
    stack = []
    evictions = []
    for key in accesses:
        if key in stack:
            stack.remove(key)
            stack.insert(0, key)
            continue
        stack.insert(0, key)
        if len(stack) > limit_pages:
            evictions.append(stack.pop(skip))
    return evictions
