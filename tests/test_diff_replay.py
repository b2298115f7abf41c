"""tools/diff_replay.py, the differential replay of two source trees."""

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
