#!/usr/bin/env python3
"""Differential replay of the eviction policies against a base git ref.

A speedup that must not move behaviour is checked by replaying the same
seeded hostile traces through two copies of the simulator and comparing
what they did. The base ref is unpacked with ``git archive`` into a
temporary directory, as ``tools/ab_pairs.py`` does, and its
``src/pagecachesim`` is loaded beside this checkout's under a distinct
package name. Run it from the repository root:

    python3 tools/diff_replay.py --base HEAD~1

Each config is one (policy, scan window, cgroup limit, seed). The
policies are all of this checkout's ``POLICY_NAMES``, unless
``--policies`` names some, so a change to code the policies share
reaches every one of them; ``default`` attaches no policy and takes no
window, so it is replayed at the first window only. Each tree builds its
policies from its own ``POLICIES`` class table (see ``build_policy``). A config's trace
mixes point reads from three threads, 30-page scans from thread 9 (the
scan thread of ``getscan``), pins and unpins, file removals and limit
changes, so rounds ask for several candidates, propose pinned folios,
raise (a window below the request) and fall back to default eviction.
Every config is replayed with ``record_evictions=True`` on both sides, and
the eviction log and every counter of ``COUNTERS`` must be equal. The
tool prints each mismatch, then the number of configs and the totals of
hook errors, invalid candidates, fallback evictions and file-removed
folios, which show the paths the traces reached. It exits 1 on any
mismatch. Standard library only. ``hostile_ops`` and ``replay`` also
drive the full-pass comparisons in ``tests/test_policies.py``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Policy parameters beyond the scan window. MRU passes over its first
#: ``skip`` folios, so at its default skip of 32 a cgroup of 8 or 20
#: pages would get no MRU proposal at all.
PARAMS = {"getscan": {"scan_threads": [9]}, "lhd": {"reconfig_interval": 64},
          "mru": {"skip": 2}}
WINDOWS = (4, 8, 32, 40, 64, 512)
LIMITS = (8, 20, 50, 100)
#: Operations per trace.
EVENTS = 2500
#: The per-cgroup counters compared, read by name from ``sim.stats(id)``
#: whether a tree stores a counter or derives it.
COUNTERS = ("accesses", "hits", "misses", "evictions_policy",
            "evictions_fallback", "invalid_candidates", "refault_activations",
            "writebacks", "file_removed_folios", "hook_errors")
#: The counters whose totals are printed.
REACHED = ("hook_errors", "invalid_candidates", "evictions_fallback",
           "file_removed_folios")

_names = itertools.count()


def load_module(path: str, name: str):
    """Execute the file ``path`` as module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_package(src: str):
    """Import ``src/pagecachesim`` under a fresh package name, so two
    trees can be loaded in one process."""
    root = os.path.join(src, "pagecachesim")
    name = "pagecachesim_%d" % next(_names)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # its relative imports resolve through it
    spec.loader.exec_module(package)
    return package


def hostile_ops(seed: int, limit: int, events: int = EVENTS) -> list[tuple]:
    """A seeded trace of simulator operations around a cgroup limit."""
    rng = random.Random(seed)
    ops = []
    for _ in range(events):
        r = rng.random()
        if r < 0.01:
            ops.append(("remove", rng.randrange(4)))
        elif r < 0.03:
            ops.append(("pin", rng.randrange(4), rng.randrange(60),
                        rng.random() < 0.7))
        elif r < 0.035:
            ops.append(("limit", rng.randrange(max(1, limit - 40),
                                               limit + 10)))
        elif r < 0.05:
            ops.append(("scan", rng.randrange(200)))
        elif r < 0.5:
            ops.append(("read", rng.randrange(2), rng.randrange(20),
                        rng.randrange(3)))
        else:
            ops.append(("read", rng.randrange(4), rng.randrange(60),
                        rng.randrange(3)))
    return ops


def replay(package, make_policy, limit: int, ops) -> tuple:
    """Run ``ops`` on cgroup 0 of ``package``'s simulator under the policy
    ``make_policy()`` builds, or under none if it builds None. Returns
    the eviction log and every stats counter, or the repr of an exception
    that escaped."""
    try:
        sim = package.Simulator(record_evictions=True)
        sim.add_cgroup(0, limit)
        policy = make_policy()
        if policy is not None:
            sim.attach_policy(0, policy)
        for op in ops:
            kind = op[0]
            if kind == "read":
                sim.access_page(0, op[1], op[2], thread=op[3])
            elif kind == "scan":
                for page in range(op[1], op[1] + 30):
                    sim.access_page(0, 5, page, thread=9)
            elif kind == "pin":
                if sim.find_folio(op[1], op[2]) is not None:
                    sim.pin(op[1], op[2], op[3])
            elif kind == "limit":
                sim.set_limit(0, op[1])
            else:
                sim.remove_file(0, op[1])
            sim.run_deferred()
        sim.check_invariants()
    except Exception as exc:  # a difference to report, not a tool failure
        return "raised %r" % (exc,), {}
    stats = sim.stats(0)
    return sim.eviction_log, {name: getattr(stats, name)
                              for name in COUNTERS}


def build_policy(package, name: str, window: int):
    """``name``'s class from ``package``'s ``POLICIES`` table, built with
    ``window`` and ``PARAMS``; None for "default". Both trees have the
    table, whatever their ``make_policy`` takes."""
    cls = package.policies.POLICIES[name]
    if cls is None:
        return None
    return cls(scan_window=window, **PARAMS.get(name, {}))


def describe(base: tuple, change: tuple) -> str:
    """How two replay results differ."""
    parts = []
    (log_a, stats_a), (log_b, stats_b) = base, change
    if log_a != log_b:
        if isinstance(log_a, str) or isinstance(log_b, str):
            parts.append("base %s, change %s" % (
                log_a if isinstance(log_a, str) else "ran",
                log_b if isinstance(log_b, str) else "ran"))
        else:
            at = next((i for i, (a, b) in enumerate(zip(log_a, log_b))
                       if a != b), min(len(log_a), len(log_b)))
            parts.append("eviction logs differ at eviction %d (%d vs %d "
                         "evictions)" % (at, len(log_a), len(log_b)))
    names = sorted(set(stats_a) | set(stats_b))
    changed = ["%s %s -> %s" % (s, stats_a.get(s), stats_b.get(s))
               for s in names if stats_a.get(s) != stats_b.get(s)]
    if changed and stats_a and stats_b:
        parts.append("stats: " + ", ".join(changed))
    return "; ".join(parts)


def compare(base_src: str, change_src: str, policies=None, windows=WINDOWS,
            limits=LIMITS, seeds=10, events=EVENTS) -> tuple:
    """Replay every (policy, window, limit, seed) config in both trees;
    ``policies`` defaults to every policy of the change side's
    ``POLICY_NAMES``, and "default" runs at the first window only.

    Returns the mismatch lines, the number of configs, and the change
    side's totals of the ``REACHED`` counters."""
    base, change = load_package(base_src), load_package(change_src)
    if policies is None:
        policies = change.POLICY_NAMES
    runs = [(policy, window) for policy in policies
            for window in (windows[:1] if policy == "default" else windows)]
    mismatches = []
    totals = dict.fromkeys(REACHED, 0)
    configs = 0
    for limit in limits:
        for seed in range(seeds):
            ops = hostile_ops(seed, limit, events)
            for policy, window in runs:
                configs += 1
                got = [replay(tree, functools.partial(
                           build_policy, tree, policy, window), limit, ops)
                       for tree in (base, change)]
                if got[0] != got[1]:
                    mismatches.append(
                        "MISMATCH %s window=%d limit=%d seed=%d: %s"
                        % (policy, window, limit, seed, describe(*got)))
                for name in REACHED:
                    totals[name] += got[1][1].get(name, 0)
    return mismatches, configs, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--policies",
                        help="comma-separated policy names "
                             "(default: every policy)")
    args = parser.parse_args(argv)
    ab_pairs = load_module(os.path.join(ROOT, "tools", "ab_pairs.py"),
                           "ab_pairs")
    with tempfile.TemporaryDirectory(prefix="diff-base-") as base_tree:
        ab_pairs.unpack(args.base, base_tree)
        mismatches, configs, totals = compare(
            os.path.join(base_tree, "src"), os.path.join(ROOT, "src"),
            args.policies.split(",") if args.policies else None)
    for line in mismatches:
        print(line)
    print("%d configs, %d mismatches; %s" % (
        configs, len(mismatches),
        ", ".join("%s %d" % item for item in totals.items())))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
