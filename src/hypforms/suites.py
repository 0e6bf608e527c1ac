"""The registry of verification suites: their names in run order and the
range each accepts for its override.

It imports only `core`, so the command line can list the suites without
loading the suites themselves, which live in `verify`.
"""

from __future__ import annotations

from .core import MAX_DEGREE

# The suites in run order, each with its one range-checked override:
# (name, low, high), or None for a suite without one.  With high None the
# suite's own range has no upper end, and n_max stays at most BUMP_N_MAX: the
# critical-point cases build the bump polynomial of degree 2n + 2, which
# MAX_DEGREE bounds.
_SUITES = {
    "table1": ("d_max", 3, 16),
    "conjecture": ("d_max", 3, MAX_DEGREE),
    "lemmas": ("n_max", 11, None),
    "hessian_expansion": ("n_max", 2, 14),
    "equivalence": ("d_max", 3, 20),
    "winding": ("d_max", 3, 16),
    "obs_arnold": ("d_max", 9, 16),
    "poincare": ("d_max", 3, 12),
    "isotopies": None,
}
SUITE_NAMES = tuple(_SUITES)
_RANGES = {**_SUITES, "lemma1": ("n_max", 2, None)}
BUMP_N_MAX = (MAX_DEGREE - 2) // 2


def _check_range(suite: str, value: int) -> None:
    name, lo, hi = _RANGES[suite]
    if hi is not None:
        if not lo <= value <= hi:
            raise ValueError(f"{name} must be within {lo}..{hi}")
    elif value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    elif value > BUMP_N_MAX:
        raise ValueError(
            f"{name} must be <= {BUMP_N_MAX}: the bump polynomial of degree "
            f"2n + 2 may not exceed degree {MAX_DEGREE}"
        )
