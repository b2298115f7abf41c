"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of ``pagecachesim`` from the outside:
it edits no source and touches no private attribute. While installed, every
call through a wrapped entry point is a span. A span's *self time* is its
duration minus the durations of the spans it directly encloses, so the self
times of all spans under a root add up to the root's duration, and none is
below zero.

Wrapping costs time, and that cost lands in the spans: a wrapped call's own
duration includes one clock read and one extra call frame, and its parent
absorbs the wrapper's bookkeeping. Self times are reported as measured;
the benchmark reports the tracer's whole cost separately, as traced minus
untraced host time.

Spans are aggregated by name, not stored one by one: the per-layer metrics
need totals, and a list of millions of span records would distort the
memory and time being measured.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

#: Policy hooks traced on every attached policy. ``policy_init`` is wrapped
#: separately because it hands the policy its cgroup handle.
HOOKS = ("evict_folios", "folio_added", "folio_accessed", "folio_removed",
         "run_deferred")

#: Handle methods that change or read an eviction list, apart from
#: ``list_iterate``, which is traced together with its callback.
LIST_OPS = ("list_create", "list_add", "list_move", "list_del",
            "list_length", "list_members")

#: Simulator methods on the replay path.
CORE_METHODS = {"access_page": "core.access",
                "default_evict": "core.default_evict",
                "run_deferred": "core.run_deferred",
                "remove_file": "core.remove_file"}


class Tracer:
    """Aggregates spans by name: self time, total time and calls."""

    def __init__(self):
        # name -> [self_s, total_s, calls]
        self.spans: dict[str, list] = {}
        # name -> integer count recorded at a layer boundary
        self.counts: dict[str, int] = {}
        # one frame per open span, holding its children's time; the first
        # is the base frame outside every span
        self._stack: list[list] = [[0.0]]
        self.sims: list = []

    def reset(self) -> None:
        for acc in self.spans.values():
            acc[:] = [0.0, 0.0, 0]
        self.counts.clear()
        self._stack[:] = [[0.0]]
        self.sims.clear()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        acc = self.spans.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        perf = perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                acc[0] += dt - frame[0]
                acc[1] += dt
                acc[2] += 1
                stack[-1][0] += dt

        return traced

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0.0, 0.0, 0))[2]

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self, harness, simulator_cls, scenario_cls):
        """Wrap the replay path's entry points for the duration of the
        block and restore the originals afterwards.

        Wrapped: ``ScenarioConfig.validate``; ``build_events``, ``replay``
        and ``collect_metrics`` as the harness module calls them; the
        event iterator ``build_events`` returns; the Simulator's replay-path
        methods; and, through ``attach_policy``, the policy's hooks, the
        ``list_*`` methods of the handle its ``policy_init`` receives, and
        the callback each ``list_iterate`` call is given.
        """
        saved_module = {name: getattr(harness, name) for name in
                        ("build_events", "replay", "collect_metrics")}
        saved_cls = {name: getattr(simulator_cls, name) for name in
                     list(CORE_METHODS) + ["attach_policy"]}
        saved_validate = scenario_cls.validate

        wrap = self.wrap
        build = wrap("workloads.build", saved_module["build_events"])

        def build_events(spec, seed):
            return _TracedEvents(wrap("workloads.next",
                                      build(spec, seed).__next__))

        replay = wrap("harness.replay", saved_module["replay"])

        def traced_replay(sim, events):
            self.sims.append(sim)
            return replay(sim, events)

        attach = wrap("core.attach_policy", saved_cls["attach_policy"])

        def attach_policy(sim, cgroup_id, policy):
            self._wrap_policy(policy)
            return attach(sim, cgroup_id, policy)

        harness.build_events = build_events
        harness.replay = traced_replay
        harness.collect_metrics = wrap("harness.report",
                                       saved_module["collect_metrics"])
        scenario_cls.validate = wrap("harness.validate", saved_validate)
        for method, span in CORE_METHODS.items():
            setattr(simulator_cls, method, wrap(span, saved_cls[method]))
        simulator_cls.attach_policy = attach_policy
        try:
            yield self
        finally:
            for name, fn in saved_module.items():
                setattr(harness, name, fn)
            for name, fn in saved_cls.items():
                setattr(simulator_cls, name, fn)
            scenario_cls.validate = saved_validate

    def _wrap_policy(self, policy) -> None:
        """Shadow the policy's hooks with traced instance attributes."""
        wrap = self.wrap
        for hook in HOOKS:
            setattr(policy, hook, wrap("policies." + hook,
                                       getattr(policy, hook)))
        evict = policy.evict_folios

        def evict_folios(ctx, cg):
            evict(ctx, cg)
            self.count("candidates_proposed",
                       min(ctx.nr_candidates_proposed, len(ctx.candidates),
                           ctx.nr_candidates_requested))

        policy.evict_folios = evict_folios
        init = wrap("policies.policy_init", policy.policy_init)

        def policy_init(cg):
            self._wrap_handle(cg)
            return init(cg)

        policy.policy_init = policy_init

    def _wrap_handle(self, cg) -> None:
        """Shadow the handle's list methods with traced instance
        attributes; ``list_iterate`` also wraps the callback it is given."""
        wrap = self.wrap
        for op in LIST_OPS:
            setattr(cg, op, wrap("policy_api." + op, getattr(cg, op)))
        iterate = wrap("policy_api.list_iterate", cg.list_iterate)

        def list_iterate(list_id, callback, opts, ctx):
            examined = iterate(list_id, wrap("policies.callback", callback),
                               opts, ctx)
            if examined > 0:
                self.count("nodes_examined", examined)
            return examined

        cg.list_iterate = list_iterate


class _TracedEvents:
    """Event iterator whose every step is a ``workloads.next`` span."""

    __slots__ = ("_next",)

    def __init__(self, traced_next):
        self._next = traced_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()
