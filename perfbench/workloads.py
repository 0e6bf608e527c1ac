"""The benchmark workloads.

Each workload makes its inputs from a seed, runs one operation at a time on
them (a closed loop on one thread) and checks every result against an answer
known in advance.  The operations call hypforms through module attributes
looked up at call time, so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import oracle

# Figure checks from acceptance criterion 14.
RESIDUAL_BOUND = 1e-9
RANDOM_FORMS_SEED = 1


@dataclass(frozen=True)
class Item:
    text: str
    kind: str
    coeffs: tuple[int, ...] = ()
    expected_index: int | None = None
    # a figure curve: its seed point and field
    curve: tuple = ()


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the checks read."""

    attempted: int
    failed: int
    problem: str = ""


class Workload:
    name = ""
    # whole passes over the inputs that every run makes
    min_passes = 1

    def __init__(self, hf):
        self.hf = hf

    def trace_items(self, items: list[Item]) -> list[Item]:
        """The inputs of the traced run."""
        return items

    def signature(self, item: Item, result):
        """What must be equal in every output of an input, traced or not."""
        return result


class Certify(Workload):
    """Time to a verdict on new forms: parse_form, is_hyperbolic,
    is_hyperbolic_polar and, for accepted forms, classify_form; this is what
    `hypforms check` plus `hypforms index` do.  Every input is distinct, so
    the certificate cache answers only classify's re-check."""

    name = "certify"
    accept_degrees = (11, 21, 31, 41)
    shear_degrees = (11, 21)
    reject_degrees = (11, 21, 31)
    slopes = (1, 2)
    per_degree = 6

    def generate(self, rng: random.Random) -> list[Item]:
        reps = self.hf.families.representatives
        forms = []
        for d in self.accept_degrees:
            for k, mem in enumerate(reps(d)):
                c = oracle.int_coeffs(mem.form.coeffs)
                if k % 2:
                    c = oracle.swap_xy(c)
                forms.append((c, "accept", mem.expected_index))
                if d in self.shear_degrees:
                    forms.append((oracle.shear(c), "accept", mem.expected_index))
        for d in self.reject_degrees:
            # l^2 * g: the Hessian vanishes on the line l = 0
            bases = reps(d - 2)
            for k in range(self.per_degree):
                g = oracle.int_coeffs(bases[k * len(bases) // self.per_degree].form.coeffs)
                s = self.slopes[k % 2]
                forms.append((oracle.mul([1, -2 * s, s * s], g), "repeated_line", None))
        # The random coefficients are drawn once, not from the seed: the D = 31
        # forms sit at the median time of a pass, and seeded ones moved it by
        # up to a half from one seed to the next.
        fixed = random.Random(RANDOM_FORMS_SEED)
        for d in self.reject_degrees:
            for _ in range(self.per_degree):
                forms.append((self._random_rejected(fixed, d), "random", None))
        # A sign change moves the time of a form by up to a third, and the
        # forms near the median time of a pass decide op_p50_ms, so the
        # changes alternate in a fixed way and the seed orders the forms:
        # every seed measures the same work.
        items = []
        for k, (c, kind, index) in enumerate(forms):
            c = oracle.SIGN_CHANGES[k % 2](c)
            items.append(Item(oracle.to_text(c), kind, tuple(c), index))
        rng.shuffle(items)
        return items

    @staticmethod
    def _random_rejected(rng: random.Random, d: int) -> list[int]:
        # Keep a random form only when its Hessian is >= 0 at (1, 0) or
        # (0, 1), which proves it is not hyperbolic.  The polar form there is
        # the Hessian over D - 1, so both routes reject it at an endpoint and
        # the seed leaves the cost of the pass alone; the repeated-line forms
        # carry the rejections that need the whole remainder sequence.
        while True:
            c = [rng.randint(-9, 9) for _ in range(d + 1)]
            if oracle.hessian_at(c, 1, 0) >= 0 or oracle.hessian_at(c, 0, 1) >= 0:
                return c

    def run(self, item: Item):
        hf = self.hf
        f = hf.core.parse_form(item.text)
        h = hf.certify.is_hyperbolic(f)
        p = hf.certify.is_hyperbolic_polar(f)
        index = hf.classify.classify_form(f).index if h.is_hyperbolic else None
        return (h.verdict, h.witness, p.verdict, p.witness, index)

    def check(self, item: Item, result, thorough: bool = True) -> Outcome:
        hv, hw, pv, pw, index = result
        problems = []
        if hv != pv:
            problems.append(f"routes disagree: hessian {hv}, polar {pv}")
        if item.kind == "accept":
            if hv != "hyperbolic":
                problems.append(f"family member rejected ({hv})")
            elif index != item.expected_index:
                problems.append(f"index {index}, expected {item.expected_index}")
        elif hv != "not_hyperbolic":
            problems.append(f"{item.kind} form accepted")
        c = list(item.coeffs)
        if hw is not None and oracle.hessian_at(c, *hw) < 0:
            problems.append(f"hessian witness {hw} is not a witness")
        if pw is not None and oracle.polar_at(c, *pw) < 0:
            problems.append(f"polar witness {pw} is not a witness")
        return Outcome(1, 1 if problems else 0, "; ".join(problems))


class VerifyAll(Workload):
    """The suites of the paper-reproduction command `hypforms verify all
    --seed S --d-max 9`.  Each suite but poincare is one operation,
    `hypforms verify <suite> --seed S --d-max 9` through cli.main with its
    output captured.  The poincare suite takes 9 to 15 s at any range, too
    long for a run to see each operation many times; its operations are the
    Poincare lifts of its halving cases, one representative each, for the
    degrees in poincare_degrees.  Suite cases and lifts are the operations
    counted.  The traced run runs the whole command once, so that every
    suite and layer is seen as the command uses it."""

    name = "verify"
    d_max = "9"
    suites = ("table1", "conjecture", "lemmas", "hessian_expansion", "equivalence",
              "winding", "obs_arnold", "isotopies")
    # the poincare suite skips D = 4; about 2.5 s of lifts on a 2-core machine
    poincare_degrees = (3, 5, 6, 7)

    def generate(self, rng: random.Random) -> list[Item]:
        seed = str(rng.randrange(1, 2**31))
        items = [Item(f"verify {s} --seed {seed} --d-max {self.d_max}", "suite")
                 for s in self.suites]
        for d in self.poincare_degrees:
            for mem in self.hf.families.representatives(d):
                c = oracle.int_coeffs(mem.form.coeffs)
                items.append(Item(oracle.to_text(c), "poincare", tuple(c), mem.expected_index))
        rng.shuffle(items)
        return items

    def trace_items(self, items: list[Item]) -> list[Item]:
        argv = next(i.text for i in items if i.kind == "suite").split()
        argv[1] = "all"
        return [Item(" ".join(argv), "suite")]

    def run(self, item: Item):
        if item.kind == "poincare":
            f = self.hf.core.parse_form(item.text)
            return self.hf.asymptotics.poincare_index_origin(f)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.hf.cli.main(item.text.split())
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, json.loads(out.getvalue())

    def signature(self, item: Item, result):
        if item.kind == "poincare":
            return result
        code, reports = result
        # wall_time is the only field that may differ between two runs
        return code, [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]

    def check(self, item: Item, result, thorough: bool = True) -> Outcome:
        if item.kind == "poincare":
            # the poincare suite's halving claim: half the winding index
            want = Fraction(item.expected_index, 2)
            problem = "" if result == want else f"index {result}, expected {want}"
            return Outcome(1, 1 if problem else 0, problem)
        code, reports = result
        cases = sum(len(r["cases"]) for r in reports)
        failed = [c["id"] for r in reports for c in r["cases"] if not c["pass"]]
        problem = ""
        if failed:
            problem = f"{len(failed)} failed cases, first {failed[0]}"
        if code != 0:
            problem = f"exit code {code}; {problem}"
            if not failed:
                return Outcome(max(cases, 1), 1, problem)
        return Outcome(cases, len(failed), problem)


class Figure(Workload):
    """The asymptotic-curve figures of `hypforms curves`.  A whole figure
    takes 2 to 3 s, too long for a run to see it more than a few times, so
    an operation is one curve of a figure: parse_form,
    asymptotics.integrate_curve with the figure's step, length and viewport,
    and polylines_to_svg.  The curves are those through every second point
    of the figure's ring of twelve seeds, in both fields.  The traced run
    draws the four whole figures through cli.figure_curves, seed search
    included."""

    name = "figure"
    # two renders of each curve must give the same bytes
    min_passes = 2
    forms = (
        [1, 0, -1, 0],              # x*(x^2 - y^2)
        [0, 1, 0, -1, 0],           # x*y*(x^2 - y^2)
        [1, 0, -3, 0],              # x^3 - 3*x*y^2
        [1, 0, -2, 0, -3, 0],       # (x^2 + y^2)*(x^3 - 3*x*y^2)
    )
    # as in cli.figure_curves with its defaults
    viewport = 2.0
    ring = tuple(0.1 + i * math.pi / 6.0 for i in range(0, 12, 2))

    def __init__(self, hf):
        super().__init__(hf)
        self.residual_bound = RESIDUAL_BOUND

    def generate(self, rng: random.Random) -> list[Item]:
        # The forms are not changed by a seeded symmetry: that moves the
        # time of single curves, as a sign change does on certify.
        r = 0.625 * self.viewport
        items = []
        for c in self.forms:
            for theta in self.ring:
                for field in ("F1", "F2"):
                    items.append(Item(oracle.to_text(c), "curve", tuple(c),
                                      curve=((r * math.cos(theta), r * math.sin(theta)), field)))
        return items

    def trace_items(self, items: list[Item]) -> list[Item]:
        figures = dict.fromkeys((i.text, i.coeffs) for i in items)
        return [Item(text, "figure", coeffs) for text, coeffs in figures]

    def run(self, item: Item):
        hf = self.hf
        f = hf.core.parse_form(item.text)
        if item.kind == "figure":
            curves = hf.cli.figure_curves(f, viewport=self.viewport)
        else:
            seed, field = item.curve
            curves = [hf.asymptotics.integrate_curve(
                f, seed, field_choice=field, max_len=6.0 * self.viewport,
                viewport=self.viewport)]
        return curves, hf.asymptotics.polylines_to_svg(curves, viewport=self.viewport)

    def signature(self, item: Item, result):
        return result[1]

    def check(self, item: Item, result, thorough: bool = True) -> Outcome:
        """The residual costs a third of the curve, so it is checked only on
        thorough visits; every later curve must give the same bytes, which
        the caller checks."""
        curves, svg = result
        problems = []
        paths = svg.count("<path ")
        if paths != len(curves):
            problems.append(f"{paths} svg paths for {len(curves)} curves")
        if thorough:
            worst = oracle.worst_residual(list(item.coeffs), curves)
            if not worst < self.residual_bound:
                problems.append(
                    f"vertex residual {worst:.3e} not below {self.residual_bound:g}")
        return Outcome(1, 1 if problems else 0, "; ".join(problems))


class Paper(Workload):
    """Every claim and figure of the paper: the operations of VerifyAll and
    of Figure, in one seeded order.  Each of the two alone would leave
    the benchmark a third workload, and three workloads leave each run too
    short to be steady on a shared 2-core host."""

    name = "paper"
    min_passes = Figure.min_passes

    def __init__(self, hf):
        super().__init__(hf)
        self.verify, self.figure = VerifyAll(hf), Figure(hf)

    def part(self, item: Item) -> Workload:
        return self.verify if item.kind in ("suite", "poincare") else self.figure

    def generate(self, rng: random.Random) -> list[Item]:
        items = self.verify.generate(rng) + self.figure.generate(rng)
        rng.shuffle(items)
        return items

    def trace_items(self, items: list[Item]) -> list[Item]:
        mine = {w: [i for i in items if self.part(i) is w] for w in (self.verify, self.figure)}
        return [t for w, its in mine.items() for t in w.trace_items(its)]

    def run(self, item: Item):
        return self.part(item).run(item)

    def signature(self, item: Item, result):
        return self.part(item).signature(item, result)

    def check(self, item: Item, result, thorough: bool = True) -> Outcome:
        return self.part(item).check(item, result, thorough)


WORKLOADS = {w.name: w for w in (Certify, Paper)}
