"""tools/diff_replay.py, the differential replay of two source trees."""

import functools
import os
import shutil

from conftest import load_tool

diff_replay = load_tool("diff_replay")
SRC = os.path.join(diff_replay.ROOT, "src")
BUDGET = dict(windows=(4, 64), limits=(20,), seeds=2, events=600)


def test_a_tree_matches_itself():
    mismatches, configs, totals = diff_replay.compare(
        SRC, SRC, ["lfu", "getscan"], **BUDGET)
    assert mismatches == []
    assert configs == 8
    # the traces reach a window below the request, pinned candidates,
    # fallback eviction and file removal
    assert all(totals.values()), totals


def test_a_planted_difference_is_reported(tmp_path):
    shutil.copytree(os.path.join(SRC, "pagecachesim"),
                    tmp_path / "pagecachesim")
    policies = tmp_path / "pagecachesim" / "policies.py"
    text = policies.read_text()
    # LfuPolicy.folio_accessed, which GetScanPolicy inherits: both stop
    # counting accesses
    policies.write_text(text.replace("self.freq[folio.id] += 1", "pass", 1))
    mismatches, configs, _ = diff_replay.compare(
        SRC, str(tmp_path), ["lfu", "getscan"], **BUDGET)
    assert configs == 8
    assert mismatches
    assert {line.split()[1] for line in mismatches} == {"lfu", "getscan"}
    assert "eviction logs differ" in mismatches[0]


def test_default_replays_at_one_window():
    mismatches, configs, totals = diff_replay.compare(
        SRC, SRC, None, **BUDGET)
    assert mismatches == []
    # per seed: six policies at both windows, and default, which takes
    # none, at one
    assert configs == 2 * (6 * 2 + 1)
    # every run replayed rather than raising: a raise reaches no counter
    assert totals["evictions_fallback"] > 0


def test_a_planted_default_path_difference_is_reported(tmp_path):
    shutil.copytree(os.path.join(SRC, "pagecachesim"),
                    tmp_path / "pagecachesim")
    core = tmp_path / "pagecachesim" / "core.py"
    text = core.read_text()
    rule = "cg.eviction_epoch - evicted_epoch <= cg.resident_pages"
    assert rule in text
    # the refault rule no longer activates at a distance equal to the
    # resident count
    core.write_text(text.replace(rule, rule.replace("<=", "<"), 1))
    mismatches, configs, _ = diff_replay.compare(
        SRC, str(tmp_path), ["default"], **BUDGET)
    assert configs == 2
    assert mismatches
    assert {line.split()[1] for line in mismatches} == {"default"}


def test_policies_are_built_from_the_class_table(tmp_path):
    # make_policy's signature may differ between the trees; the POLICIES
    # table and each class's scan_window keyword do not
    shutil.copytree(os.path.join(SRC, "pagecachesim"),
                    tmp_path / "pagecachesim")
    with open(tmp_path / "pagecachesim" / "policies.py", "a") as fh:
        fh.write("\n\ndef make_policy(*args, **kwargs):\n"
                 "    raise AssertionError('unused')\n")
    mismatches, configs, totals = diff_replay.compare(
        SRC, str(tmp_path), ["default", "lfu"], **BUDGET)
    assert (mismatches, configs) == ([], 2 * (1 + 2))
    assert totals["evictions_fallback"] > 0
    package = diff_replay.load_package(SRC)
    assert diff_replay.build_policy(package, "default", 4) is None
    policy = diff_replay.build_policy(package, "getscan", 4)
    assert (policy.scan_threads, policy._scan_window) == ({9}, 4)


def test_counters_are_read_by_name():
    # accesses is derived from hits and misses, not stored in a slot
    package = diff_replay.load_package(SRC)
    ops = diff_replay.hostile_ops(0, 20, 600)
    _, stats = diff_replay.replay(package, functools.partial(
        diff_replay.build_policy, package, "mru", 4), 20, ops)
    assert tuple(stats) == diff_replay.COUNTERS
    assert stats["accesses"] == stats["hits"] + stats["misses"] > 0
    # at PARAMS' skip MRU's own walk answers rounds in a 20-page cgroup
    assert stats["evictions_policy"] > 0
