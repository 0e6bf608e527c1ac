"""Layer tracing from outside the package.

The tracer rebinds every hypforms module attribute that points to a layer
function, so calls between modules (certify._certify -> hessian,
asymptotics -> is_hyperbolic) are caught as well as the benchmark's own.
Spans are kept in memory as [name, start, end, parent, operation, note] and
written out when the run ends.  The per-point evaluators BinaryForm.eval and
eval_float are methods and are never wrapped: a span around each of the
million calls per figure would cost more than the work.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# (module, function, span name); a span name shared by several functions
# makes them one layer
LAYERS = (
    ("core", "parse_form", "core.parse_form"),
    ("certify", "hessian", "certify.hessian"),
    ("certify", "polar_form", "certify.polar_form"),
    ("certify", "is_negative_form", "certify.is_negative_form"),
    ("certify", "is_hyperbolic", "certify.is_hyperbolic"),
    ("certify", "is_hyperbolic_polar", "certify.is_hyperbolic_polar"),
    ("certify", "sturm_count", "certify.sturm_count"),
    ("classify", "classify_form", "classify.classify_form"),
    ("classify", "winding_gamma_numeric", "classify.winding"),
    ("classify", "winding_alpha_numeric", "classify.winding"),
    ("classify", "zeros_vs_critical_points", "classify.zeros_vs_critical_points"),
    ("families", "arnold", "families"),
    ("families", "p_factorized", "families"),
    ("families", "g_even", "families"),
    ("families", "f_family", "families"),
    ("families", "representatives", "families"),
    ("families", "table1", "families"),
    ("asymptotics", "poincare_index_origin", "asymptotics.poincare_index_origin"),
    ("asymptotics", "integrate_curve", "asymptotics.integrate_curve"),
    ("asymptotics", "polylines_to_svg", "asymptotics.polylines_to_svg"),
    ("asymptotics", "check_isotopies", "asymptotics.check_isotopies"),
    ("cli", "main", "cli.main"),
    ("cli", "figure_curves", "cli.figure_curves"),
)
SUITES = (
    "table1", "conjecture", "lemmas", "hessian_expansion", "equivalence",
    "winding", "obs_arnold", "poincare", "isotopies",
)
TARGETS = LAYERS + tuple(("verify", f"suite_{s}", f"verify.{s}") for s in SUITES)
ENTRIES = ("certify.is_hyperbolic", "certify.is_hyperbolic_polar")
FORM_BUILD = ("certify.hessian", "certify.polar_form")


def _note(name: str, out):
    """The one fact about a result that a layer metric needs."""
    if name == "certify.is_negative_form":
        ok, witness = out
        return "accept" if ok else ("witness" if witness is not None else "none")
    if name == "asymptotics.integrate_curve":
        return len(out.points)
    return None


class Tracer:
    """Spans of every traced call, kept across install/uninstall cycles."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.bound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                span[5] = _note(name, out)
                return out
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def install(self) -> None:
        """Rebind each layer function in every loaded hypforms module."""
        self.bound = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hypforms" or n.startswith("hypforms.")]
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules[f"hypforms.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.bound.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.bound):
            setattr(mod, attr, original)

    def restored(self) -> bool:
        return all(getattr(mod, attr) is original for mod, attr, original in self.bound)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "note"],
                       "spans": self.spans}, fh)

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over all spans, as {name: (value, unit)}."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
                children[s[3]].append(i)

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        def total_ms(name):
            # outermost spans only, so a layer calling itself counts once
            return 1e3 * sum(dur[i] for i, s in enumerate(spans) if s[0] == name
                             and not any(spans[a][0] == name for a in ancestors(i)))

        def self_ms(names):
            return 1e3 * sum(dur[i] - child_time[i] for i, s in enumerate(spans) if s[0] in names)

        def by_name(name):
            return [i for i, s in enumerate(spans) if s[0] == name]

        def route(i):
            return next((spans[a][0] for a in ancestors(i) if spans[a][0] in ENTRIES), None)

        sign = by_name("certify.is_negative_form")
        rejects = [i for i in sign if spans[i][5] != "accept"]
        entries = [i for i, s in enumerate(spans) if s[0] in ENTRIES]
        hits = [i for i in entries if not any(spans[c][0] in FORM_BUILD for c in children[i])]
        curves = by_name("asymptotics.integrate_curve")
        curve_ms = total_ms("asymptotics.integrate_curve")
        vertices = sum(spans[i][5] for i in curves)
        ms, count, ratio = "ms", "count", "ratio"
        out = {
            "core.parse_form.ms": (total_ms("core.parse_form"), ms),
            "certify.hessian.ms": (total_ms("certify.hessian"), ms),
            "certify.polar_form.ms": (total_ms("certify.polar_form"), ms),
            "certify.sign.hessian_ms": (
                1e3 * sum(dur[i] for i in sign if route(i) == ENTRIES[0]), ms),
            "certify.sign.polar_ms": (
                1e3 * sum(dur[i] for i in sign if route(i) == ENTRIES[1]), ms),
            "certify.sign.calls": (len(sign), count),
            "certify.sign.reject_ms": (1e3 * sum(dur[i] for i in rejects), ms),
            "certify.sign.rejections": (len(rejects), count),
            "certify.witness_found_ratio": (_ratio(
                sum(1 for i in rejects if spans[i][5] == "witness"), len(rejects)), ratio),
            "certify.entry_calls": (len(entries), count),
            "certify.cache_hit_ratio": (_ratio(len(hits), len(entries)), ratio),
            "certify.entry_self_ms": (self_ms(ENTRIES), ms),
            "certify.sturm_count.ms": (total_ms("certify.sturm_count"), ms),
            "classify.classify_form.ms": (total_ms("classify.classify_form"), ms),
            "classify.winding.ms": (total_ms("classify.winding"), ms),
            "classify.zeros_vs_critical_points.ms": (
                total_ms("classify.zeros_vs_critical_points"), ms),
            "families.ms": (total_ms("families"), ms),
            "asymptotics.poincare_index_origin.ms": (
                total_ms("asymptotics.poincare_index_origin"), ms),
            "asymptotics.poincare_index_origin.calls": (
                len(by_name("asymptotics.poincare_index_origin")), count),
            "asymptotics.integrate_curve.ms": (curve_ms, ms),
            "asymptotics.integrate_curve.calls": (len(curves), count),
            "asymptotics.integrate_curve.p50_ms": (
                1e3 * statistics.median(dur[i] for i in curves) if curves else 0.0, ms),
            "asymptotics.vertices": (vertices, count),
            "asymptotics.vertices_per_s": (1e3 * vertices / curve_ms if curve_ms else 0.0, "1/s"),
            "asymptotics.polylines_to_svg.ms": (total_ms("asymptotics.polylines_to_svg"), ms),
            "asymptotics.check_isotopies.ms": (total_ms("asymptotics.check_isotopies"), ms),
            "cli.main.self_ms": (self_ms(("cli.main",)), ms),
            "cli.figure_curves.self_ms": (self_ms(("cli.figure_curves",)), ms),
        }
        for s in SUITES:
            out[f"verify.{s}.ms"] = (total_ms(f"verify.{s}"), ms)
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
