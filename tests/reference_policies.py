"""Independent straight-line reimplementations of the FIFO, MRU, LFU and
GET-SCAN policies, used as oracles by equivalence tests.

Each replays accesses for one cgroup whose limit is never exceeded by more
than the one page a miss faults in, and returns the eviction order as a
list of keys. No sharing with the simulator or the policy API: a deque for
FIFO and plain lists for the others.
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


def _lowest_in_window(queue, freq, window):
    """Position of the lowest-frequency key among the first ``window``
    keys of ``queue``, ties to the earlier position."""
    return min(range(min(window, len(queue))),
               key=lambda i: (freq[queue[i]], i))


def lfu_trace(accesses, limit_pages, window):
    """Windowed LFU: keys in fault order, each counting its accesses from
    1 at its fault. A miss over the limit evicts the lowest-frequency key
    among the first ``window``, ties to the earlier fault."""
    queue = []
    freq = {}
    evictions = []
    for key in accesses:
        if key in freq:
            freq[key] += 1
            continue
        queue.append(key)
        freq[key] = 1
        if len(queue) > limit_pages:
            victim = queue.pop(_lowest_in_window(queue, freq, window))
            del freq[victim]
            evictions.append(victim)
    return evictions


def getscan_trace(accesses, limit_pages, window, scan_threads):
    """GET-SCAN: ``(thread, key)`` accesses. A key faulted by a thread in
    ``scan_threads`` joins the scan queue, any other the get queue; both
    count frequencies as ``lfu_trace`` does. A miss over the limit evicts
    from the scan queue while it holds a key, else from the get queue, the
    windowed-LFU victim of that queue."""
    scans = []
    gets = []
    freq = {}
    evictions = []
    for thread, key in accesses:
        if key in freq:
            freq[key] += 1
            continue
        (scans if thread in scan_threads else gets).append(key)
        freq[key] = 1
        if len(scans) + len(gets) > limit_pages:
            queue = scans if scans else gets
            victim = queue.pop(_lowest_in_window(queue, freq, window))
            del freq[victim]
            evictions.append(victim)
    return evictions
