"""Spans around calls into spdelab's public functions, kept in memory.

The tracer replaces a function where the program looks it up (for example
`spdelab.integrate.sup_norm`, the name the integrator calls) with a wrapper
that records a span: id, parent id, layer name, start, end, thread and an
optional work count.  Each thread keeps its own span stack, because the
studies map replicas over a thread pool; a span opened with an empty stack
is a child of the study's root span.  Originals are restored on exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict

from spdelab import averaging, integrate, models, noise, spectral, studies

ROOT = "studies.run"

# (module, attribute) -> layer name.  Every binding a study reaches is
# listed, since `from .x import f` gives each importing module its own.
PATCHES = [
    (spectral, "to_grid", "spectral.to_grid"),
    (models, "to_grid", "spectral.to_grid"),
    (models, "from_grid", "spectral.from_grid"),
    (integrate, "sup_norm", "spectral.sup_norm"),
    (integrate, "sobolev_norm", "spectral.sobolev_norm"),
    (averaging, "sobolev_norm", "spectral.sobolev_norm"),
    (integrate, "sample_stationary", "noise.sample_stationary"),
    (studies, "sample_stationary", "noise.sample_stationary"),
    (integrate, "step_coupled", "noise.step_coupled"),
    (noise.NoiseStream, "normals", "noise.normals"),
    (integrate, "eval_F_eps", "models.drift"),
    (integrate, "eval_F_bar", "models.drift"),
    (integrate, "eval_G", "models.drift"),
    (integrate, "eval_G_bar", "models.drift"),
    (integrate, "truncation_matched_constant",
     "constants.truncation_matched_constant"),
    (studies, "truncation_matched_constant",
     "constants.truncation_matched_constant"),
    (studies, "couple_runs", "integrate.run"),
    (studies, "run_mild", "integrate.run"),
    (studies, "sup_distance", "integrate.sup_distance"),
    (averaging, "compute_phi", "averaging.compute_phi"),
    (averaging, "compute_phi_tilde", "averaging.compute_phi_tilde"),
]


# Work counts taken from a call's result: grid points, and normals drawn.
WORK = {"spectral.to_grid": lambda grid: grid.grid_size * grid.n_components,
        "noise.normals": lambda z: int(z.size)}


class Tracer:
    """Records spans and SpectralField constructions while active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent, name, t0, t1, thread, work)
        self.fields_created = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []
        self._root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((sid, parent, name, t0, t1,
                               threading.get_ident(),
                               work(result) if work else None))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        field_init = spectral.SpectralField.__post_init__
        self._saved.append((spectral.SpectralField, "__post_init__",
                            field_init))

        def counted(obj):
            with self._lock:
                self.fields_created += 1
            field_init(obj)

        spectral.SpectralField.__post_init__ = counted
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_root(self, fn, *args):
        """Call fn as the root span (the study call) and return its result."""
        self._root = next(self._ids)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.spans.append((self._root, 0, ROOT, t0, t1,
                               threading.get_ident(), None))

    def write(self, path: str) -> None:
        """Write the spans out, one JSON object a line."""
        keys = ("id", "parent", "name", "start", "end", "thread", "work")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on several threads
    overlap, and the parent waits for them together)."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


LAYERS = ("spectral.to_grid", "spectral.from_grid", "spectral.sobolev_norm",
          "noise.sample_stationary", "noise.step_coupled", "noise.normals",
          "models.drift", "constants.truncation_matched_constant",
          "integrate.run", "integrate.sup_distance",
          "averaging.compute_phi", "averaging.compute_phi_tilde")
SELF_TIMED = ("models.drift", "integrate.run")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy seconds and self seconds of one traced call."""
    by_id = {span[0]: span for span in tracer.spans}
    children = defaultdict(list)
    for span in tracer.spans:
        children[span[1]].append((span[3], span[4]))

    def self_time(span) -> float:
        return span[4] - span[3] - _covered(children[span[0]])

    def under(span, name: str) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = 0.0
    for kind in ("guard", "distance"):
        out[f"spectral.sup_norm.{kind}.calls"] = 0
        out[f"spectral.sup_norm.{kind}.s"] = 0.0
    out["spectral.to_grid.points"] = 0
    out["noise.normals.values"] = 0

    for span in tracer.spans:
        name = span[2]
        duration = span[4] - span[3]
        if name == ROOT:
            out["studies.self_s"] = self_time(span)
            continue
        if name == "spectral.sup_norm":
            if under(span, "integrate.sup_distance"):
                kind = "distance"
            elif under(span, "integrate.run"):
                kind = "guard"
            else:
                continue
            out[f"spectral.sup_norm.{kind}.calls"] += 1
            out[f"spectral.sup_norm.{kind}.s"] += duration
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += duration
        if name in SELF_TIMED:
            out[f"{name}.self_s"] += self_time(span)
        if span[6] is not None:
            key = ("spectral.to_grid.points" if name == "spectral.to_grid"
                   else "noise.normals.values")
            out[key] += span[6]
    out["spectral.fields_created"] = tracer.fields_created
    return out
