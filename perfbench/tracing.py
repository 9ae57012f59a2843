"""Spans around the calls into each rarefuse layer, recorded from outside.

The benchmark never edits the package: it patches module and class
attributes for the duration of one run and restores them afterwards.
Each wrapped call appends one span ``[id, parent, name, start, end,
points, result]`` to an in-memory list; the list is written out once the
run is over.  ``points`` is the number of input points a model or density
call handled (0 elsewhere); ``result`` is kept only for the calls whose
return value feeds a quality readout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import defaultdict

import numpy as np

# Private helpers wrapped by module attribute; a helper a later version
# removes is reported as absent, never as zero.
PRIVATE_HELPERS = {
    "subset_sim.grow_chains": ("rarefuse.subset_sim", "_grow_chains"),
    "subset_sim.gamma": ("rarefuse.subset_sim", "_chain_correlation_factor"),
    "cli.streams": ("rarefuse.cli", "_stream"),
    "cli.write_outputs": ("rarefuse.cli", "_write_outputs"),
}


def _n_points(z) -> int:
    shape = np.shape(z)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, points=None, keep_result=False):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``points(*args, **kwargs)`` gives the span's point count.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [
                len(spans),
                stack[-1] if stack else -1,
                name,
                clock(),
                0.0,
                points(*args, **kwargs) if points else 0,
                None,
            ]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep_result:
                span[6] = result
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start, end, points."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,points\n")
            for sid, parent, name, start, end, points, _ in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{points}\n")


class _ModelProxy:
    """Stands in for a ``Model``/``LimitState``: same attributes, but
    ``evaluate`` is replaced by the given callable."""

    def __init__(self, inner, evaluate):
        self._inner = inner
        self.evaluate = evaluate

    def __call__(self, z):
        return self.evaluate(z)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class PointCounter:
    """Counts the points handed to one model, for the untraced runs."""

    def __init__(self):
        self.points = 0

    def model(self, inner):
        def evaluate(z):
            self.points += _n_points(z)
            return inner.evaluate(z)

        return _ModelProxy(inner, evaluate)


def _pdf_points(_, z):
    return _n_points(z)


def _sample_points(_, rng, count):
    return count


@contextlib.contextmanager
def instrumented(tracer: Tracer | None = None, counter: PointCounter | None = None):
    """Patch rarefuse for one run, restoring every attribute on exit.

    The benchmark's high-fidelity model is counted by ``counter`` when
    given.  With a ``tracer`` every layer boundary records a span.
    """
    import rarefuse.cli as cli
    from rarefuse.densities import GaussianMixture, UniformBox

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def traced_model(name, model):
        return _ModelProxy(model, tracer.wrap(name, model.evaluate, _n_points))

    original_get_benchmark = cli.get_benchmark

    def get_benchmark(name):
        bench = original_get_benchmark(name)
        hf, surrogates, ls = bench.high_fidelity, bench.surrogates, bench.limit_state
        if tracer is not None:
            hf = traced_model("models.hf", hf)
            surrogates = [traced_model("models.surrogate", s) for s in surrogates]
            ls = _ModelProxy(ls, tracer.wrap("models.limit_state", ls.evaluate))
        if counter is not None:
            hf = counter.model(hf)
        return dataclasses.replace(
            bench, high_fidelity=hf, surrogates=surrogates, limit_state=ls
        )

    try:
        patch(cli, "get_benchmark", get_benchmark)
        if tracer is not None:
            for cls in (UniformBox, GaussianMixture):
                patch(cls, "sample", tracer.wrap("densities.sample", cls.sample, _sample_points))
                patch(cls, "pdf", tracer.wrap("densities.pdf", cls.pdf, _pdf_points))
            for name, attr, keep in (
                ("mfis.build", "build_biasing_density", True),
                ("estimators.is", "importance_sampling_estimate", True),
                ("estimators.mc", "monte_carlo_estimate", False),
                ("fusion.fuse", "fuse", True),
                ("subset_sim.run", "subset_simulation", True),
            ):
                patch(cli, attr, tracer.wrap(name, getattr(cli, attr), keep_result=keep))
            for name, (module_name, attr) in PRIVATE_HELPERS.items():
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    patch(module, attr, tracer.wrap(name, getattr(module, attr)))
                else:
                    tracer.absent.append(name)
        yield
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append((span[3], span[4]))
    return [
        (span[4] - span[3]) - union_length(children.get(span[0], ()), span[3], span[4])
        for span in spans
    ]


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, points, total seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "points": 0, "s": 0.0, "self_s": 0.0}
    )
    for span, self_s in zip(spans, self_times(spans)):
        agg = out[span[2]]
        agg["calls"] += 1
        agg["points"] += span[5]
        agg["s"] += span[4] - span[3]
        agg["self_s"] += self_s
    return dict(out)
