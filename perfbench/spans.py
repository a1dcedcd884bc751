"""Spans around the program's public functions, recorded from outside.

While a Tracer is installed, every module attribute of the blockbeta
package that names one of the TARGETS functions is replaced by a wrapper
that records a span (name, start, end, parent, run id) in memory, and
scipy.integrate.quad is replaced by a counter.  Leaving the context puts
every original back and checks that no wrapper is left behind.  No file
of the program changes.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

import numpy as np
import scipy.integrate
from scipy.spatial import ConvexHull, QhullError

import blockbeta.metacube as metacube

MARK = "_perfbench_span"


def _cap_route(args, kwargs) -> str:
    """Classify a cap_content_meta call: corner iff one_norm - s < min v."""
    cap = args[0] if args else kwargs["cap"]
    v = cap.v[cap.v > metacube.ZERO_COMPONENT_TOL]
    corner = v.size and float(v.sum()) - cap.s < float(v.min())
    return "metacube.cap.corner" if corner else "metacube.cap.general"


def _count_points(tr, args, kwargs, out):
    tr.counts["sampler.points"] += out.shape[0] if out.ndim == 2 else 1


def _keep_cloud(tr, args, kwargs, out):
    pts = args[0] if args else kwargs["points"]
    tr.counts["hull.convex_hull.points_in"] += len(pts)
    tr.clouds.append(pts)


def _count_faces(tr, args, kwargs, out):
    tr.counts["hull.faces_counted"] += sum(out)


def _count_trials(tr, args, kwargs, out):
    tr.counts["metacube.reduction.trials"] += len(out.checks)


# (module, attribute, span name or namer, hook run on the result)
TARGETS = (
    ("blockbeta.sampler", "sample_block_beta", "sampler.sample_block_beta", _count_points),
    ("blockbeta.sampler", "sample_beta_ball", "sampler.sample_beta_ball", None),
    ("blockbeta.hull", "convex_hull", "hull.convex_hull", _keep_cloud),
    ("blockbeta.hull", "f_vector", "hull.f_vector", _count_faces),
    ("blockbeta.hull", "volume", "hull.volume", None),
    ("blockbeta.hull", "ridges_regular", "hull.ridges_regular", None),
    ("blockbeta.hull", "contains_points", "hull.contains_points", None),
    ("blockbeta.metacube", "cap_content_meta", _cap_route, None),
    ("blockbeta.metacube", "section_content_meta", "metacube.section_content_meta", None),
    ("blockbeta.metacube", "cap_content_full_mc", "metacube.cap_content_full_mc", None),
    ("blockbeta.metacube", "verify_reduction", "metacube.verify_reduction", _count_trials),
    ("blockbeta.asymptotics", "aw_integral_numeric", "asymptotics.aw_integral_numeric", None),
    ("blockbeta.asymptotics", "efron_check", "asymptotics.efron_check", None),
    ("blockbeta.cli", "simulate", "cli.simulate", None),
    ("blockbeta.cli", "main", "cli.main", None),
)


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "blockbeta" or name.startswith("blockbeta."))]


class Tracer:
    """In-memory span log; install() swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.clouds: list = []
        self.run = 0

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    self.stack[-1] if self.stack else -1, self.run]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted_quad(self, quad):
        def counted(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0].startswith("metacube."):
                self.counts["metacube.quad_calls"] += 1
            return quad(*args, **kwargs)

        setattr(counted, MARK, True)
        return counted

    @contextlib.contextmanager
    def install(self):
        patches = []
        try:
            modules = _program_modules()
            for modname, attr, name, hook in TARGETS:
                fn = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(fn, name, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, value))
                            setattr(mod, key, wrapper)
            patches.append((scipy.integrate, "quad", scipy.integrate.quad))
            scipy.integrate.quad = self._counted_quad(scipy.integrate.quad)
            yield self
        finally:
            for mod, key, value in reversed(patches):
                setattr(mod, key, value)
        left = [f"{m.__name__}.{k}" for m in _program_modules() + [scipy.integrate]
                for k, v in vars(m).items() if getattr(v, MARK, False)]
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def begin_call(self) -> None:
        self.run += 1
        self.counts = Counter()
        self.clouds = []

    def qhull_reference(self) -> float:
        """scipy's ConvexHull alone on this call's clouds: the floor under convex_hull."""
        total = 0.0
        for pts in self.clouds:
            pts = np.asarray(pts, dtype=float)
            if pts.ndim != 2 or pts.shape[1] < 2:
                continue
            t0 = time.perf_counter()
            try:
                ConvexHull(pts)
            except QhullError:
                continue
            total += time.perf_counter() - t0
        self.clouds = []
        return total

    def call_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the current call (run id), spans only."""
        mine = [i for i, s in enumerate(self.spans) if s[4] == self.run]
        names = {i: self.spans[i][0] for i in mine}
        child_s = Counter()
        for i in mine:
            parent = self.spans[i][3]
            if parent >= 0:
                child_s[parent] += self.spans[i][2] - self.spans[i][1]
        out: Counter = Counter()
        caps_in_reduction = 0
        for i in mine:
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            ancestors = []
            while parent >= 0:
                ancestors.append(self.spans[parent][0])
                parent = self.spans[parent][3]
            out[f"{name}.calls"] += 1
            if name not in ancestors:        # busy time is not counted twice
                out[f"{name}.busy_s"] += dur
            out[f"{name}.self_s"] += dur - child_s[i]
            out[name.split(".")[0] + ".self_s"] += dur - child_s[i]
            if name.startswith("metacube.cap.") and "metacube.verify_reduction" in ancestors:
                caps_in_reduction += 1
        out.update(self.counts)
        trials = self.counts["metacube.reduction.trials"]
        out["metacube.reduction.accept_ratio"] = trials / caps_in_reduction if caps_in_reduction else 0.0
        out["trace.spans"] = len(mine)
        return dict(out)
