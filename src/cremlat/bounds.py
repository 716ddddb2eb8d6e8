"""The explicit bound formulas of the degree-reduction theorem.

This module imports no other layer, so the ``bounds`` command runs no
lattice code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

THEOREM_DEGREE_COEFF = 4700   # mcdeg bound 4700 lambda^5, valid for lambda >= 10^6
THEOREM_COSH_SHIFT = 18       # mcdeg <= cosh(18 + 345 log lambda), all lambda > 1
THEOREM_COSH_SLOPE = 345
DEGREE_THRESHOLD_COEFF = 24   # the loop stops below 24 lambda^3
CONJUGATOR_BASE = 2 ** 57     # conjugator degree bound 2^57 (deg f deg g)^29
CONJUGATOR_EXP = 29
LOXODROMY_CONSTANT = 3 ** 19


def delta(lam: float) -> float:
    """The guaranteed cosh-distance decrease per conjugation step,
    (5 - 2 sqrt 6) / (sqrt 2 (lam + 1)), with 5 - 2 sqrt 6 written as
    1 / (5 + 2 sqrt 6), which cancels no bits."""
    return 1 / ((5 + 2 * math.sqrt(6)) * math.sqrt(2) * (lam + 1))


class BoundReport(NamedTuple):
    lam: Optional[float] = None
    mcdeg_bound: Union[int, Fraction, float, None] = None
    cosh_bound: Optional[float] = None
    log_cosh_bound: Optional[float] = None
    degree_threshold: Union[int, Fraction, float, None] = None
    decrease_quantum: Optional[float] = None
    loxodromy_constant: int = LOXODROMY_CONSTANT
    conjugator_bound: Optional[int] = None

    def as_dict(self):
        out = {}
        for k, v in zip(self._fields, self):
            if v is None:
                continue
            if isinstance(v, float) and math.isinf(v):
                v = "inf"
            elif isinstance(v, (int, Fraction)) and not isinstance(v, bool):
                v = str(v)
            out[k] = v
        return out


def bounds(*args) -> BoundReport:
    """Explicit bound formulas.

    ``bounds(lam)`` evaluates 4700 lam^5, cosh(18 + 345 log lam),
    24 lam^3 and delta(lam); the polynomial bounds are exact when lam is an
    int or Fraction.  ``bounds(deg_f, deg_g)`` gives the exact conjugator
    degree bound 2^57 (deg_f deg_g)^29 as a big integer.
    """
    if len(args) == 1:
        lam = args[0]
        if lam <= 1:
            raise ValueError("the bound formulas need lambda > 1")
        arg = THEOREM_COSH_SHIFT + THEOREM_COSH_SLOPE * math.log(lam)
        cosh_bound = math.cosh(arg) if arg < 700 else math.inf
        return BoundReport(
            lam=float(lam),
            mcdeg_bound=THEOREM_DEGREE_COEFF * lam ** 5,
            cosh_bound=cosh_bound,
            log_cosh_bound=arg - math.log(2) if arg >= 700 else math.log(cosh_bound),
            degree_threshold=DEGREE_THRESHOLD_COEFF * lam ** 3,
            decrease_quantum=delta(float(lam)),
        )
    if len(args) == 2:
        df, dg = args
        if df < 2 or dg < 2:
            raise ValueError("conjugator bound needs degrees >= 2")
        return BoundReport(conjugator_bound=CONJUGATOR_BASE * (int(df) * int(dg)) ** CONJUGATOR_EXP)
    raise TypeError("bounds takes lambda or (deg_f, deg_g)")
