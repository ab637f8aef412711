"""Span tracing of qicsim's layers from outside the package.

`Tracer.install` replaces selected functions with timing wrappers in every
qicsim module that binds them by name (``from .x import f`` copies the
function object, so patching the defining module alone would miss those
callers), and wraps `ModeProfileEvaluator.__init__`/``evaluate`` on the
class.  The integrand handed to the quadrature layer is wrapped per call so
its points and time are attributed to the field-kernel layer.

Spans live in memory: (name, start, end, id, parent id).  The parent is the
innermost open span of the calling thread; work submitted to the thread pool
in `qic.weighting_grid` keeps the submitting span as its parent through a
patched `concurrent.futures.ThreadPoolExecutor.submit`.  A layer's self time
is its span minus the union of its children's intervals.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); class methods are handled separately
FUNCTIONS = (
    ("qicsim.quadrature", "oscillatory_integral", "quadrature.oscillatory_integral"),
    ("qicsim.quadrature", "segment_integrals", "quadrature.segment_integrals"),
    ("qicsim.quadrature", "wynn_epsilon", "quadrature.wynn_epsilon"),
    ("qicsim.quadrature", "_tail_model_intercept", "quadrature.tail_model"),
    ("qicsim.quadrature", "damped_tail_integral", "quadrature.damped_tail_integral"),
    ("qicsim.smearing", "radial_ft", "smearing.radial_ft"),
    ("qicsim.smearing", "ft_oracle", "smearing.ft_oracle"),
    ("qicsim.field_kernel", "pairing_detail", "field_kernel.pairing_detail"),
    ("qicsim.field_kernel", "pairing_damped", "field_kernel.pairing_damped"),
    ("qicsim.field_kernel", "pairing_matrix", "field_kernel.pairing_matrix"),
    ("qicsim.qic", "build_qic", "qic.build_qic"),
    ("qicsim.qic", "weighting_grid", "qic.weighting_grid"),
    ("qicsim.channel", "capacity_table", "channel.capacity_table"),
    ("qicsim.channel", "scenario_moments", "channel.scenario_moments"),
    ("qicsim.channel", "distribution_from_moments", "channel.distribution_from_moments"),
    ("qicsim.channel", "capacity", "channel.capacity"),
    ("qicsim.channel", "mutual_information", "channel.mutual_information"),
    ("qicsim.cli", "cmd_capacity", "cli.cmd_capacity"),
    ("qicsim.cli", "cmd_evolve", "cli.cmd_evolve"),
    ("qicsim.cli", "_write_grid_csv", "cli.write_grid_csv"),
)

# integrands handed to these quadrature entry points are wrapped per call
_INTEGRAND_TAKERS = {
    "quadrature.oscillatory_integral": "quadrature.integrand_points",
    "quadrature.damped_tail_integral": "quadrature.damped_tail_integral.integrand_points",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> int:
        st = self._stack()
        return st[-1] if st else 0

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        st = self._stack()
        parent = st[-1] if st else 0
        sid = next(self._ids)
        st.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append((name, t0, t1, sid, parent))
                self.counts[name + ".calls"] += 1

    def _wrap(self, name, fn):
        tracer = self
        integrand_counter = _INTEGRAND_TAKERS.get(name)
        if integrand_counter is not None:
            def wrapper(integrand, *args, **kwargs):
                def traced_integrand(k):
                    tracer.count(integrand_counter, np.size(k))
                    return tracer.span("field_kernel.integrand", integrand, k)
                return tracer.span(name, fn, traced_integrand, *args, **kwargs)
        elif name == "smearing.radial_ft":
            def wrapper(s, k, *args, **kwargs):
                tracer.count("smearing.radial_ft.points", np.size(k))
                return tracer.span(name, fn, s, k, *args, **kwargs)
        elif name == "qic.weighting_grid":
            def wrapper(modes, mode_index, t, spec, *args, **kwargs):
                tracer.count(name + ".points", int(np.prod(spec.shape)))
                return tracer.span(name, fn, modes, mode_index, t, spec, *args, **kwargs)
        elif name == "channel.distribution_from_moments":
            def wrapper(moments, couplings, *args, **kwargs):
                tracer.count(name + ".terms", 2 * 4 ** len(couplings))
                return tracer.span(name, fn, moments, couplings, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------- patching
    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every qicsim module binding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qicsim" or n.startswith("qicsim."))]
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

        fk = sys.modules["qicsim.field_kernel"]
        cls = fk.ModeProfileEvaluator
        tracer = self
        init, evaluate = cls.__init__, cls.evaluate

        def traced_init(ev, *args, **kwargs):
            tracer.span("field_kernel.ModeProfileEvaluator.init", init, ev, *args, **kwargs)

        def traced_evaluate(ev, dx):
            radii = int(np.size(dx))
            nodes = getattr(ev, "_nodes", None)
            tracer.count("field_kernel.ModeProfileEvaluator.evaluate.radii", radii)
            if nodes is not None:
                tracer.count("field_kernel.kernel_evals", radii * len(nodes[0]))
            return tracer.span("field_kernel.ModeProfileEvaluator.evaluate", evaluate, ev, dx)

        self._patch(cls, "__init__", traced_init)
        self._patch(cls, "evaluate", traced_evaluate)

        pool = concurrent.futures.ThreadPoolExecutor
        submit = pool.submit

        def traced_submit(executor, fn, *args, **kwargs):
            parent = tracer.current()

            def run_under_parent(*a, **kw):
                st = tracer._stack()
                st.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    st.pop()

            return submit(executor, run_under_parent, *args, **kwargs)

        self._patch(pool, "submit", traced_submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------- analysis
    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive seconds and self seconds."""
        children = defaultdict(list)
        for name, t0, t1, sid, parent in self.spans:
            children[parent].append((t0, t1))
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, t0, t1, sid, parent in self.spans:
            incl[name] += t1 - t0
            self_s[name] += (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
        return incl, self_s

    def union_wall(self, name: str) -> float:
        """Wall time during which at least one ``name`` span was open."""
        iv = [(t0, t1) for n, t0, t1, _, _ in self.spans if n == name]
        if not iv:
            return 0.0
        return union_length(iv, min(a for a, _ in iv), max(b for _, b in iv))


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
