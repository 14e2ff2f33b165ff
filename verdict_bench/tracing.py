"""Spans around calls into the library, installed from outside.

Each traced function is replaced by a wrapper in every namespace that bound
it: the defining module, every module that did ``from .x import y``, and
the package re-exports, found by identity over the loaded ``hardcore_lab``
modules.  Methods are wrapped on their class, under every name that refers
to them (``Poly.__rmul__`` is ``Poly.__mul__``).

Spans are (name, start, end, parent) rows kept in memory in flat arrays and
summarised when the traced pass ends: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  "orderings.compare." gets each call's
# ordering kind appended.
TRACED = (
    ("hardcore", "independence_polynomial", "hardcore.independence_polynomial"),
    ("hardcore", "subset_polynomial", "hardcore.subset_polynomial"),
    ("hardcore", "profile", "hardcore.profile"),
    ("hardcore", "variance_via_marginals", "hardcore.variance_via_marginals"),
    ("corpus", "all_graphs", "corpus.all_graphs"),
    ("corpus", "canonical_bits", "corpus.canonical_bits"),
    ("polynomials", "Poly.__init__", "polynomials.Poly.init"),
    ("polynomials", "Poly.__mul__", "polynomials.Poly.mul"),
    ("polynomials", "Poly.evaluate", "polynomials.Poly.evaluate"),
    ("polynomials", "RatFunc.__init__", "polynomials.RatFunc.init"),
    ("roots", "nonneg_on_halfline", "roots.nonneg_on_halfline"),
    ("roots", "isolate_positive_roots", "roots.isolate_positive_roots"),
    ("orderings", "compare", "orderings.compare."),
    ("intervals", "lambert_w_interval", "intervals.lambert_w_interval"),
    ("intervals", "exp_interval", "intervals.exp_interval"),
    ("intervals", "log1p_interval", "intervals.log1p_interval"),
    ("bounds", "_interval_le", "bounds.interval_le"),
    ("sampler", "estimate", "sampler.estimate"),
)

ORDERING_KINDS = ("COUNT", "PART", "COEF", "OCC", "MAX", "FV", "VAR")


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in ("hardcore.independence_polynomial", "hardcore.subset_polynomial"):
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [("hardcore.profile.self_s", "s"), ("hardcore.variance_via_marginals.self_s", "s")]
    out += [("corpus.all_graphs.self_s", "s"), ("corpus.canonical_bits.calls", "count"),
            ("corpus.canonical_bits.self_s", "s")]
    out += [("polynomials.Poly.init.calls", "count"), ("polynomials.Poly.mul.calls", "count"),
            ("polynomials.Poly.mul.self_s", "s"), ("polynomials.Poly.evaluate.calls", "count"),
            ("polynomials.Poly.evaluate.self_s", "s"),
            ("polynomials.RatFunc.init.calls", "count"), ("polynomials.RatFunc.init.self_s", "s")]
    for name in ("roots.nonneg_on_halfline", "roots.isolate_positive_roots"):
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    for kind in ORDERING_KINDS:
        out += [(f"orderings.compare.{kind}.calls", "count"),
                (f"orderings.compare.{kind}.self_s", "s")]
    for name in ("intervals.lambert_w_interval", "intervals.exp_interval",
                 "intervals.log1p_interval"):
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [("bounds.interval_le.calls", "count"), ("bounds.interval_le.rounds", "count"),
            ("bounds.interval_le.self_s", "s")]
    out += [("sampler.estimate.calls", "count"), ("sampler.estimate.self_s", "s"),
            ("sampler.estimate.steps_per_s", "1/s")]
    out += [("trace.overhead_s", "s"), ("trace.wall_s", "s"), ("trace.top_self_share", "ratio")]
    return out


class Tracer:
    """Records spans for the calls it wraps while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.patched: list[str] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, span_name: str, fn):
        if span_name == "orderings.compare.":
            def wrapped(kind, *args, **kwargs):
                label = getattr(kind, "value", kind)
                return self.span(span_name + str(label), fn, kind, *args, **kwargs)
        elif span_name == "bounds.interval_le":
            def wrapped(name, g, lam, make_lhs, make_rhs, *args, **kwargs):
                def counted_lhs(tol):
                    self.counts["bounds.interval_le.rounds"] += 1
                    return make_lhs(tol)
                return self.span(span_name, fn, name, g, lam, counted_lhs, make_rhs,
                                 *args, **kwargs)
        elif span_name == "sampler.estimate":
            def wrapped(*args, **kwargs):
                report = self.span(span_name, fn, *args, **kwargs)
                self.counts["sampler.estimate.steps"] += report.steps + report.burn_in
                return report
        else:
            def wrapped(*args, **kwargs):
                return self.span(span_name, fn, *args, **kwargs)
        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", span_name)
        return wrapped

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self.patched = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.split(".")[0] == "hardcore_lab"]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[f"hardcore_lab.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._wrapper(span_name, orig)
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        self._patch(cls, key, wrapper)
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrapper(span_name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        self._patches.append((target, key, getattr(target, key)))
        self.patched.append(f"{getattr(target, '__module__', '')}.{target.__name__}.{key}"
                            if isinstance(target, type) else f"{target.__name__}.{key}")
        setattr(target, key, value)

    def uninstall(self) -> None:
        """Restore every patched binding; a second call does nothing."""
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the top-level total."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_ns = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        top_ns = 0
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self_ns[i] / 1e9
            if self.parent[i] < 0:
                top_ns += dur[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "top_s": top_ns / 1e9, "counts": dict(self.counts), "spans": n}
