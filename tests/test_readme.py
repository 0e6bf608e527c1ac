"""README's quick tour runs as written, and shows the results its comments
state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    # the first ```python block: the lines after a line that is exactly
    # ```python, up to the next line that is exactly ```
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("```python") + 1
    return "\n".join(lines[start:lines.index("```", start)]) + "\n"


def test_readme_quick_tour_shows_the_results_its_comments_state():
    src = _quick_tour()
    lines = src.splitlines()
    namespace: dict = {}
    stated = {}
    for stmt in ast.parse(src).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        if "#" in lines[stmt.end_lineno - 1][stmt.end_col_offset:]:
            stated[ast.get_source_segment(src, stmt)] = value
    assert stated == {
        "cert.is_hyperbolic": True,
        "is_hyperbolic_polar(f).verdict": "hyperbolic",
        "rep.index": -1,
        "rep.component_rank": 0,
        "admissible_indices(3)": [-1],
        "c.verdict, c.witness": ("not_hyperbolic", (1, 0)),
        "[m.expected_index for m in representatives(9)]": [-1, -3, -5, -7],
    }
    assert namespace["curve"].field_choice == "F1"
