"""No shipped policy misses less than Belady's MIN with bypass.

A policy that holds one page more than its limit, or hits on a page it
does not hold, can beat MIN, so the bound catches capacity and accounting
defects in any policy, present or future. Traces are single-cgroup,
without pins (a pinned cgroup may exceed its limit) and without file
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


@st.composite
def cases(draw):
    """A limit and a trace of (file, first page, pages) events in one
    file, each a point read or a run of pages. Pages come from a span at
    most two past the limit, so the trace keeps revisiting a working set about
    the cache's size, where holding one page too many shows at once."""
    limit = draw(st.integers(1, 12))
    span = draw(st.integers(1, limit + 2))
    trace = draw(st.lists(st.tuples(st.just(0), st.integers(0, span - 1),
                                    st.sampled_from([1, 1, 1, 2, 3])),
                          max_size=60))
    return limit, trace


def replay(name, limit, trace):
    """Misses of policy ``name`` on ``trace``, and the page keys read."""
    sim = make_sim(limit_pages=limit, policy=make_policy(
        name, PARAMS.get(name, {})))
    keys = []
    for file, first, pages in trace:
        thread = SCAN_THREAD if pages > 1 else 1
        for page in range(first, first + pages):
            sim.access_page(0, file, page, thread=thread)
            keys.append((file, page))
        sim.run_deferred()
    assert sim.stats(0).hook_errors == 0
    return sim.stats(0).misses, keys


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=EXAMPLES, deadline=None)
@given(case=cases())
def test_no_policy_misses_less_than_min(name, case):
    limit, trace = case
    misses, keys = replay(name, limit, trace)
    assert misses >= min_misses(keys, limit)


def test_mru_meets_min_on_a_loop_longer_than_the_cache():
    # the benchmark's filesearch-loop: 5 passes over 10 files of 100 pages
    # through a 700-page cache; a cyclic scan larger than the cache is
    # MRU's best case
    misses, keys = replay("mru", 700, [(f, 0, 100) for f in range(10)] * 5)
    assert misses == min_misses(keys, 700) == 1000 + 4 * 300


def brute_force_misses(accesses, capacity):
    """Fewest misses over every choice of what to keep, by breadth over
    the cache contents a schedule can reach."""
    states = {frozenset(): 0}
    for key in accesses:
        after = {}
        for held, misses in states.items():
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
@given(capacity=st.integers(1, 3),
       accesses=st.lists(st.integers(0, 4), max_size=12))
def test_reference_is_optimal(capacity, accesses):
    assert min_misses(accesses, capacity) == brute_force_misses(
        accesses, capacity)
