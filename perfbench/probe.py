"""Spans and output capture around the callables that ``sbmx.harness`` resolves.

The benchmark never edits the program. For the life of one process it
replaces names in the ``sbmx.harness`` namespace (and, when tracing,
``Graph.__init__``) with thin wrappers, so a traced trial follows exactly the
code path of ``run_trial``. Every wrapper records what the checks need (the
graph's edges, the truth and each method's output) into the current trial;
when a tracer is given it also opens a span around the call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

import sbmx.harness
import sbmx.model

# harness-resolved name -> span name
SPANS = {
    "run_trial": "harness.run_trial",
    "generate_sbm": "model.generate_sbm",
    "agreement": "model.agreement",
    "certificate_check": "sdp.certificate_check",
    "signed_adjacency": "sdp.signed_adjacency",
    "sdp_solve": "sdp.sdp_solve",
    "split_graph": "twophase.split_graph",
    "partial_recovery": "twophase.partial_recovery",
    "local_improvement": "twophase.local_improvement",
    "ml_bisection": "mlexact.ml_bisection",
}
# spans opened by the benchmark's own call sites, plus the Graph build
EXTRA_SPANS = ("harness.phase_diagram", "model.graph_build", "tails.ml_failure_upper_bound")
SPAN_NAMES = tuple(SPANS.values()) + EXTRA_SPANS

# the output each wrapper stores into the current trial
CAPTURE = {
    "certificate_check": "report",
    "sdp_solve": "solution",
    "partial_recovery": "partial",
    "local_improvement": "labels",
    "ml_bisection": "ml",
}


class Tracer:
    """Nested spans kept in memory; self time is a span minus its children.

    Spans nest strictly (one thread, calls return in order), so the part of a
    span covered by its children is the sum of the children's durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, list[float]] = {}
        self._stack: list[list] = []  # [name, start, seconds covered by children]

    @contextmanager
    def span(self, name: str):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.clock() - frame[1]
            self._stack.pop()
            own = duration - frame[2]
            self.self_s.setdefault(name, []).append(own)
            if self._stack:
                self._stack[-1][2] += duration

    def total_self_s(self, name: str) -> float:
        return sum(self.self_s.get(name, ()))


class Probe:
    """Installs the wrappers; collects one dict per completed trial.

    Use as a context manager: the original callables are restored on exit,
    also when a trial raises.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.trials: list[dict] = []
        self._current: dict | None = None
        self._saved: dict = {}

    def __enter__(self) -> "Probe":
        for name in SPANS:
            original = getattr(sbmx.harness, name)
            self._saved[name] = original
            setattr(sbmx.harness, name, self._wrap(name, original))
        if self.tracer is not None:
            init = sbmx.model.Graph.__init__
            self._saved["Graph.__init__"] = init
            tracer = self.tracer

            def traced_init(graph, *args, **kwargs):
                with tracer.span("model.graph_build"):
                    init(graph, *args, **kwargs)

            sbmx.model.Graph.__init__ = traced_init
        return self

    def __exit__(self, *exc) -> None:
        init = self._saved.pop("Graph.__init__", None)
        if init is not None:
            sbmx.model.Graph.__init__ = init
        for name, original in self._saved.items():
            setattr(sbmx.harness, name, original)
        self._saved.clear()
        self._current = None

    def take_trials(self) -> list[dict]:
        trials, self.trials = self.trials, []
        return trials

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def _wrap(self, name: str, original):
        span_name = SPANS[name]
        if name == "run_trial":

            def run_trial(method, params, *args, **kwargs):
                trial = {"method": method, "params": params}
                self._current = trial
                start = time.perf_counter()
                try:
                    with self._span(span_name):
                        record = original(method, params, *args, **kwargs)
                finally:
                    self._current = None
                trial["seconds"] = time.perf_counter() - start
                trial["record"] = record
                self.trials.append(trial)
                return record

            return run_trial

        if name == "generate_sbm":

            def generate_sbm(*args, **kwargs):
                with self._span(span_name):
                    g, truth = original(*args, **kwargs)
                if self._current is not None:
                    # a narrow copy: the pass's captured edges count towards peak RSS
                    edges = g.edges.astype(np.int16 if g.n <= 2**15 else np.int32)
                    self._current.update(n=g.n, edges=edges, truth=truth)
                return g, truth

            return generate_sbm

        key = CAPTURE.get(name)

        def wrapper(*args, **kwargs):
            with self._span(span_name):
                out = original(*args, **kwargs)
            if key is not None and self._current is not None:
                self._current[key] = out
            return out

        wrapper.__name__ = name
        return wrapper
