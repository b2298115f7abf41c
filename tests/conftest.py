import importlib.util
import os
import random
import signal

import pytest

from pagecachesim import PolicyHooks, Simulator, Verdict, IterOptions


class RecordingPolicy(PolicyHooks):
    """Keeps one FIFO list and logs every hook invocation. Its eviction
    proposals come from the list head, so with it attached the simulator
    behaves like FIFO while tests observe the hook traffic."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def policy_init(self, cg):
        self.cg = cg
        self.queue = cg.list_create()
        self.calls.append(("init", None))

    def folio_added(self, folio):
        self.cg.list_add(self.queue, folio.id, tail=True)
        self.calls.append(("added", folio.id))

    def folio_accessed(self, folio):
        self.calls.append(("accessed", folio.id))

    def folio_removed(self, folio):
        self.calls.append(("removed", folio.id))

    def evict_folios(self, ctx, cg):
        cg.list_iterate(self.queue, lambda fid: Verdict.EVICT,
                        IterOptions(), ctx)

    def of_kind(self, kind):
        return [fid for k, fid in self.calls if k == kind]


@pytest.fixture
def recording_policy():
    return RecordingPolicy()


class Deadline(BaseException):
    """Raised by the ``deadline`` fixture. Not an ``Exception``, so the
    core's guard around policy hooks cannot swallow it."""


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose loop stops ending."""
    def expire(signum, frame):
        raise Deadline("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def load_tool(name):
    """Import ``tools/<name>.py``, which is not in a package, by path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "tools", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_sim(limit_pages, policy=None, cgroup=0, **kwargs):
    sim = Simulator(**kwargs)
    sim.add_cgroup(cgroup, limit_pages)
    if policy is not None:
        sim.attach_policy(cgroup, policy)
    return sim


def random_accesses(rng: random.Random, count, files=4, pages_per_file=64,
                    locality=0.5):
    """Random page keys with a revisit bias so traces mix hits and misses."""
    out = []
    for _ in range(count):
        if out and rng.random() < locality:
            out.append(rng.choice(out))
        else:
            out.append((rng.randrange(files), rng.randrange(pages_per_file)))
    return out
