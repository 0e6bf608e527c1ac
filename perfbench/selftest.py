"""Self-test of the benchmark itself; stdlib only, a few seconds.

    python3 perfbench/selftest.py

Checks that a wrong expected answer or an operation that raises comes out as
a failed operation rather than a crash, that the tracer catches calls between
modules and puts every rebound attribute back, that inputs repeat for a
seed, and that workloads.json names only metrics and workloads the benchmark
has.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import oracle
import run
from tracer import TARGETS, Tracer
from workloads import WORKLOADS, Certify, Figure, Item, VerifyAll

HERE = Path(__file__).resolve().parent
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def snapshot() -> dict:
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "hypforms" or name.startswith("hypforms.")
            for attr, value in vars(mod).items()}


def smallest(items: list[Item], kind: str) -> Item:
    return min((i for i in items if i.kind == kind), key=lambda i: len(i.coeffs))


def main() -> int:
    hf = run.load_package()

    certify = Certify(hf)
    items = certify.generate(random.Random(7))
    expect(items == certify.generate(random.Random(7)), "the same seed gives the same inputs")
    expect(len(items) >= 100 and len({i.text for i in items}) == len(items),
           "certify has at least 100 distinct forms")

    form = smallest(items, "accept")
    p = run.Tally()
    p.run(certify, form)
    p.run(certify, replace(form, expected_index=form.expected_index + 2))
    p.run(certify, Item("x^3 +", "accept", (1, 0, 0, 0), -1))
    p.run(certify, smallest(items, "repeated_line"))
    expect((p.attempted, p.failed) == (4, 2),
           "an index off by 2 and a parse error fail their operations; the others pass")

    fig = Figure(hf)
    fig_item = fig.generate(random.Random(7))[0]
    result = fig.run(fig_item)
    expect(fig.check(fig_item, result).failed == 0, "a figure passes its checks")
    fig.residual_bound = 0.0
    expect(fig.check(fig_item, result).failed == 1, "a residual bound of 0 fails the figure")
    renders = iter([result, result, (result[0], result[1] + " ")])
    fig.run = lambda item: next(renders)
    p = run.Tally()
    for _ in range(3):
        p.run(fig, fig_item, thorough=False)
    expect((p.attempted, p.failed) == (3, 1), "a render with other bytes fails the figure")

    verify = VerifyAll(hf)
    reports = [{"suite": "s", "cases": [{"id": "a", "pass": True}, {"id": "b", "pass": False}]}]
    got = verify.check(Item("1", "suite"), (1, reports))
    expect((got.attempted, got.failed) == (2, 1), "each failed suite case counts")
    got = verify.check(Item("1", "suite"), (1, reports[:0]))
    expect(got.failed == 1, "a nonzero exit code with no failed case still fails")
    lift = smallest(verify.generate(random.Random(7)), "poincare")
    p = run.Tally()
    p.run(verify, lift)
    p.run(verify, replace(lift, expected_index=lift.expected_index + 2))
    expect((p.attempted, p.failed) == (2, 1), "a Poincare index off by 2 fails its lift")
    whole = verify.trace_items(verify.generate(random.Random(7)))
    expect(len(whole) == 1 and whole[0].text.startswith("verify all --seed "),
           "the traced verify part is the whole verify all command")

    before = snapshot()
    tracer = Tracer()
    try:
        tracer.install()
        certify.run(form)
        try:
            certify.run(Item("x^3 +", "accept"))
        except hf.core.ParseError:
            pass
    finally:
        tracer.uninstall()
    after = snapshot()
    expect(len(tracer.bound) > len(TARGETS) and tracer.restored(),
           "the tracer rebinds re-exported names too and restores them")
    expect(before.keys() == after.keys() and all(before[k] is after[k] for k in before),
           "after a traced run every hypforms attribute is the original object")
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    expect(parents.get("certify.hessian") == "certify.is_hyperbolic"
           and parents.get("certify.sturm_count") == "classify.classify_form",
           "calls between modules are traced with their parents")
    expect(all(s[2] >= s[1] for s in tracer.spans) and "core.parse_form" in names,
           "spans are closed, also when the call raised")

    c = oracle.int_coeffs(hf.families.representatives(7)[1].form.coeffs)
    f = hf.core.parse_form(oracle.to_text(c))
    pts = [(Fraction(1), Fraction(k, 3)) for k in range(-4, 5)] + [(Fraction(0), Fraction(1))]
    expect(oracle.int_coeffs(f.coeffs) == c
           and all(hf.certify.hessian(f).eval(*w) == oracle.hessian_at(c, *w) for w in pts)
           and all(hf.certify.polar_form(f).eval(*w) == oracle.polar_at(c, *w) for w in pts),
           "the independent oracle agrees with hypforms on text, Hessian and polar form")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain, traced, tracer, ok = run.traced_passes(certify, [form, Item("x^3 +", "accept")])
    expect(ok and (plain.failed, traced.failed) == (1, 1),
           "a traced pass gives the untraced outputs and restores every attribute")
    layer = run.layer_metrics(certify, plain, traced, tracer)
    expect(list(layer) == [m["name"] for m in bench["per_layer"]]
           and all(u == m["unit"] for (_, u), m in zip(layer.values(), bench["per_layer"])),
           "the traced run reports exactly the per-layer metrics of BENCHMARK.json")
    e2e = run.end_to_end_metrics(plain.best_ms(), [0.1, 0.2])
    expect(list(e2e) == [m["name"] for m in bench["end_to_end"]]
           and all(u == m["unit"] for (_, u), m in zip(e2e.values(), bench["end_to_end"])),
           "the untraced run reports exactly the end-to-end metrics of BENCHMARK.json")
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    record = json.loads((HERE / "workloads.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    claims = [c for pred in record["predictions"]
              for c in pred["moves"] + pred["no_change"]]
    named = {m for pred in record["predictions"] for m in pred["layer"]}
    named |= {c["metric"] for c in claims}
    expect(named <= known, f"workloads.json names only known metrics {sorted(named - known)}")
    expect({c["workload"] for c in claims} <= workloads
           and set(record["workloads"]) == workloads == set(WORKLOADS),
           "workloads.json names only known workloads")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
