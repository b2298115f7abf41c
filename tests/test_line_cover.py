"""tools/line_cover.py, run on a toy package so it stays fast.

The tool measures ``src/pagecachesim`` beside its own ``tools/``
directory, so each test copies it into a temporary tree whose
``src/pagecachesim`` is the toy. The copy runs in a subprocess: in this
process it would replace the trace hook of a ``line_cover`` run over this
suite."""

import os
import shutil
import subprocess
import sys
import textwrap

from conftest import load_tool

line_cover = load_tool("line_cover")
TOOL = os.path.join(line_cover.ROOT, "tools", "line_cover.py")

MODULE = '''\
import sys


def used(flag):
    if flag:
        return "yes"
    return ("no"
            + str(flag))


def unused():
    return 1


def main():
    return used(True)


if __name__ == "__main__":
    sys.exit(main())
'''


def toy_tree(tmp_path, test_body):
    """A copy of the tool, a toy ``pagecachesim`` package holding MODULE as
    ``mod.py``, and one test file."""
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools")
    package = tmp_path / "src" / "pagecachesim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_toy.py").write_text(
        "from pagecachesim.mod import main, used\n\n\n" + textwrap.dedent(test_body))
    return package


def run_tool(tmp_path):
    return subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "line_cover.py"), "--",
         "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120,
        check=False)


def test_prints_the_lines_that_never_ran(tmp_path):
    package = toy_tree(tmp_path, """\
        def test_main():
            assert main() == "yes"
        """)
    total = len(line_cover.executable_lines(str(package / "mod.py")))
    proc = run_tool(tmp_path)
    report = proc.stdout.splitlines()[-3:]
    # the untaken branch spans two lines; a function never called shows
    # only its body, as its def ran at import
    assert report == [
        "mod.py: 7-8, 12",
        "expected: mod.py: 20",
        "3 of %d executable lines never ran" % total,
    ]
    assert proc.returncode == 1


def test_exits_zero_when_every_line_ran(tmp_path):
    package = toy_tree(tmp_path, """\
        from pagecachesim.mod import unused


        def test_all():
            assert main() == "yes"
            assert used(0) == "no0"
            assert unused() == 1
        """)
    proc = run_tool(tmp_path)
    assert proc.stdout.splitlines()[-2:] == [
        "expected: mod.py: 20",
        "0 of %d executable lines never ran"
        % len(line_cover.executable_lines(str(package / "mod.py"))),
    ]
    assert proc.returncode == 0


def test_a_failed_pytest_run_gives_its_status(tmp_path):
    toy_tree(tmp_path, """\
        def helper():
            return main()
        """)
    proc = run_tool(tmp_path)
    assert "no tests ran" in proc.stdout
    # pytest's "no tests collected", and no test failed
    assert proc.stdout.splitlines()[-1] == "pytest exited with status 5, " \
                                           "0 failed"
    assert proc.returncode == 3  # lines never ran, and pytest failed


def test_a_failing_test_is_reported_apart_from_the_lines(tmp_path):
    package = toy_tree(tmp_path, """\
        from pagecachesim.mod import unused


        def test_all():
            assert main() == "yes"
            assert used(0) == "no0"
            assert unused() == 1


        def test_budget():
            assert used(1) == "no"
        """)
    proc = run_tool(tmp_path)
    # every line ran, so only the pytest outcome fails the run
    assert proc.stdout.splitlines()[-4:] == [
        "expected: mod.py: 20",
        "0 of %d executable lines never ran"
        % len(line_cover.executable_lines(str(package / "mod.py"))),
        "pytest exited with status 1, 1 failed",
        "failed: tests/test_toy.py::test_budget",
    ]
    assert proc.returncode == 2
