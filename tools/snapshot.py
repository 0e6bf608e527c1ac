"""Print one sha256 per output of the hypforms command line of a checkout.

    python3 tools/snapshot.py CHECKOUT > snapshot.txt

The script imports hypforms from CHECKOUT/src and runs cli.main in this
process on a fixed list of command lines.  Each output line is

    <sha256>  <command line>

where the digest covers the exit code, stdout, stderr and any file the
command wrote.  Run it on two checkouts and diff the results: a line that
differs names a command whose bytes changed.  It uses the standard library
only.

The commands are `verify all` at the default ranges and with
`--d-max 9 --n-max 12`, `lemma1`, `check` and `index` of every
representative with D <= 12, `check` of one rejection for each way a
witness is found, the `family` examples of the README and one of each
other kind, and the SVG and CSV of the default figures of four forms, 87
commands in all.  Wall times are the only outputs that change from run to run, so
`wall_time` is dropped from the verify reports and the seconds from their
stderr summary lines.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

FAMILY_ARGS = (
    ("arnold", "7", "3"),
    ("pfact", "3", "--even"),
    ("reps", "9"),
    ("g", "3"),
    ("f", "1", "2"),
    ("f", "2", "1", "--even"),
)
# The representatives are all hyperbolic, so these carry the witness bytes:
# ends of isolating intervals from the Cauchy bound (-179/204 on the
# Hessian route, -163/102 on the polar route), rational touches at 1/3 and
# 7/5, and an irrational touch, whose witness is null.
REJECTIONS = (
    "x^4 - 2*x^2*y^2 + 3*y^4 - x*y^3",
    "(3*y - x)^2*(x^3 - 3*x*y^2)",
    "(5*y - 7*x)^2*(x^5 - 10*x^3*y^2 + 5*x*y^4)",
    "(y^2 - 2*x^2)^2*(x^3 - 3*x*y^2)",
)
FIGURE_FORMS = (
    "x*(x^2 - y^2)",
    "x*y*(x^2 - y^2)",
    "x^3 - 3*x*y^2",
    "(x^2 + y^2)*(x^3 - 3*x*y^2)",
)
REP_D_MAX = 12


def load(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("hypforms.cli")
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"hypforms was imported from {cli.__file__}, not {src}")
    return cli, importlib.import_module("hypforms.families")


def run(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def without_wall_time(stdout: str, stderr: str) -> tuple[str, str]:
    reports = json.loads(stdout)
    if isinstance(reports, dict):  # lemma1 prints one report
        reports = [reports]
    for r in reports:
        del r["wall_time"]
    return json.dumps(reports), re.sub(r" in \d+\.\d+s ", " in _s ", stderr)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/snapshot.py CHECKOUT", file=sys.stderr)
        return 2
    cli, families = load(Path(argv[0]))
    commands: list[list[str]] = [
        ["verify", "all"],
        ["verify", "all", "--d-max", "9", "--n-max", "12"],
        ["lemma1"],
    ]
    for d in range(3, REP_D_MAX + 1):
        if d != 4:
            for mem in families.representatives(d):
                text = str(mem.form)
                commands += [["check", text], ["index", text]]
    commands += [["check", text] for text in REJECTIONS]
    commands += [["family", *args] for args in FAMILY_ARGS]
    for poly in FIGURE_FORMS:
        for suffix in (".svg", ".csv"):
            commands.append(["curves", "--poly", poly, "--out", "figure" + suffix])

    with tempfile.TemporaryDirectory() as tmp:
        for cmd in commands:
            written = b""
            if cmd[0] == "curves":
                path = Path(tmp) / cmd[-1]
                code, out, err = run(cli, [*cmd[:-1], str(path)])
                err = err.replace(str(path), cmd[-1])
                if path.exists():
                    written = path.read_bytes()
                    path.unlink()
            else:
                code, out, err = run(cli, cmd)
            if cmd[0] in ("verify", "lemma1") and out:
                out, err = without_wall_time(out, err)
            blob = repr((code, out, err)).encode() + written
            print(f"{hashlib.sha256(blob).hexdigest()}  {' '.join(cmd)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
