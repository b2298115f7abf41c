"""No shipped policy misses less than Belady's MIN with bypass.

A policy that holds one page more than its limit, or hits on a page it
does not hold, can beat MIN, so the bound catches capacity and accounting
defects in any policy, present or future. Traces are single-cgroup and
resize the cgroup now and then, so a shrink's eviction rounds, which ask
the policy and the fallback for more than one page, are checked too. They
have no pins (a pinned cgroup may exceed its limit) and no file
removals (a removed page's next access would be a forced miss MIN does
not model).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pagecachesim import POLICY_NAMES, make_policy
from conftest import make_sim
from reference_opt import min_misses

#: Hypothesis examples per policy; the seven runs take about 2.5 s together.
EXAMPLES = 100

#: The thread multi-page accesses come from; getscan puts its pages on
#: its scan list.
SCAN_THREAD = 9

PARAMS = {"getscan": {"scan_threads": [SCAN_THREAD]},
          # reconfigures often enough to rank folios by live densities
          "lhd": {"reconfig_interval": 8}}

#: Marks a trace event ``(LIMIT, pages)`` that resizes the cgroup.
LIMIT = "limit"


@st.composite
def cases(draw):
    """A limit and a trace of (file, first page, pages) events in one
    file, each a point read or a run of pages, with about one event in
    eight a resize to a limit from 1 to 12, which shrinks or regrows the
    cgroup. Pages come from a span at most two past the first limit, so
    the trace keeps revisiting a working set about the cache's size, where
    holding one page too many shows at once."""
    limit = draw(st.integers(1, 12))
    span = draw(st.integers(1, limit + 2))
    read = st.tuples(st.just(0), st.integers(0, span - 1),
                     st.sampled_from([1, 1, 1, 2, 3]))
    resize = st.tuples(st.just(LIMIT), st.integers(1, 12))
    trace = draw(st.lists(st.one_of([read] * 7 + [resize]), max_size=60))
    return limit, trace


def replay(name, limit, trace):
    """Misses of policy ``name`` on ``trace``, the page keys read, and the
    limit in force at each read."""
    sim = make_sim(limit_pages=limit, policy=make_policy(
        name, PARAMS.get(name, {})))
    keys, limits = [], []
    for event in trace:
        if event[0] == LIMIT:
            limit = event[1]
            sim.set_limit(0, limit)
            continue
        file, first, pages = event
        thread = SCAN_THREAD if pages > 1 else 1
        for page in range(first, first + pages):
            sim.access_page(0, file, page, thread=thread)
            keys.append((file, page))
            limits.append(limit)
        sim.run_deferred()
    assert sim.stats(0).hook_errors == 0
    return sim.stats(0).misses, keys, limits


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=EXAMPLES, deadline=None)
@given(case=cases())
def test_no_policy_misses_less_than_min(name, case):
    misses, keys, limits = replay(name, *case)
    assert misses >= min_misses(keys, limits)


def test_mru_meets_min_on_a_loop_longer_than_the_cache():
    # the benchmark's filesearch-loop: 5 passes over 10 files of 100 pages
    # through a 700-page cache; a cyclic scan larger than the cache is
    # MRU's best case
    misses, keys, _ = replay("mru", 700,
                             [(f, 0, 100) for f in range(10)] * 5)
    assert misses == min_misses(keys, 700) == 1000 + 4 * 300


def brute_force_misses(accesses, capacities):
    """Fewest misses over every choice of what to keep, by breadth over
    the cache contents a schedule can reach; ``capacities`` gives the room
    in force at each access."""
    states = {frozenset(): 0}
    for key, capacity in zip(accesses, capacities):
        fitted = {}
        for held, misses in states.items():
            # a shrink drops any subset that makes the rest fit
            for kept in itertools.combinations(sorted(held),
                                               min(len(held), capacity)):
                kept = frozenset(kept)
                if misses < fitted.get(kept, misses + 1):
                    fitted[kept] = misses
        after = {}
        for held, misses in fitted.items():
            if key in held:
                choices = [(held, misses)]
            else:
                # bypass, or admit and drop any subset that makes room
                choices = [(held, misses + 1)]
                grown = held | {key}
                drop = max(0, len(grown) - capacity)
                choices += [(grown - set(gone), misses + 1)
                            for gone in itertools.combinations(
                                sorted(held), drop)]
            for state, m in choices:
                if m < after.get(state, m + 1):
                    after[state] = m
        states = after
    return min(states.values())


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)),
                      max_size=12))
def test_reference_is_optimal(steps):
    # each step is a page and the capacity in force when it is read
    accesses = [key for key, _ in steps]
    capacities = [cap for _, cap in steps]
    assert min_misses(accesses, capacities) == brute_force_misses(
        accesses, capacities)


def test_reference_shrink_drops_the_page_used_last():
    # a shrink to 2 before the second pass drops c, the page needed last,
    # so only c misses again
    accesses = ["a", "b", "c"] * 2
    assert min_misses(accesses, 3) == 3
    assert min_misses(accesses, [3, 3, 3, 2, 2, 2]) == 4
