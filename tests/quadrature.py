"""Adaptive Gauss-Kronrod 7-15 quadrature, an independent route for the tests.

The acceptance criteria and the numerics tests integrate the model's
densities with it and compare against the package's closed forms, so it
lives beside the tests and not in the shipped package.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from pointnull.numerics import Bracket, DomainError, EvaluationError

#: Adaptive quadrature gives up once this many panels are in play.
PANEL_CAP = 1_000_000


class QuadratureAccuracyError(ArithmeticError):
    """Subdivision cap hit before the error estimate met the tolerance.

    Carries the best estimate obtained so far in :attr:`result`.
    """

    def __init__(self, message: str, result: "QuadratureResult") -> None:
        super().__init__(message)
        self.result = result


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (positive half; symmetric).
_GK_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_GK_WEIGHTS_K = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Gauss-7 weights aligned with the odd-index Kronrod nodes plus the centre.
_GK_WEIGHTS_G = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk_panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """15-point Kronrod value and |K15 - G7| error estimate on one panel."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    if not math.isfinite(fc):
        raise EvaluationError(f"integrand returned {fc} at {centre}")
    kronrod = _GK_WEIGHTS_K[7] * fc
    gauss = _GK_WEIGHTS_G[3] * fc
    for i in range(7):
        offset = half * _GK_NODES[i]
        f_lo = f(centre - offset)
        f_hi = f(centre + offset)
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            raise EvaluationError(f"integrand returned non-finite value near {centre - offset} or {centre + offset}")
        pair = f_lo + f_hi
        kronrod += _GK_WEIGHTS_K[i] * pair
        if i % 2 == 1:
            gauss += _GK_WEIGHTS_G[i // 2] * pair
    return kronrod * half, abs(kronrod - gauss) * half


def integrate_adaptive(f: Callable[[float], float], bracket: Bracket, tol: float) -> QuadratureResult:
    """Integrate f over the bracket until the error estimate drops below tol.

    Worst-panel-first bisection with an embedded Gauss-Kronrod 7-15 rule.
    Raises QuadratureAccuracyError (carrying the best estimate) if the panel
    cap is hit before convergence.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    value, err = _gk_panel(f, bracket.lo, bracket.hi)
    heap = [(-err, 0, bracket.lo, bracket.hi, value, err)]
    counter = 1
    total_err = err
    while total_err > tol:
        if len(heap) >= PANEL_CAP:
            best = QuadratureResult(
                value=math.fsum(entry[4] for entry in heap),
                abs_error_estimate=math.fsum(entry[5] for entry in heap),
                subdivisions=len(heap),
            )
            raise QuadratureAccuracyError(
                f"quadrature did not reach tol={tol} within {PANEL_CAP} panels", best
            )
        _, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel narrowed to machine resolution; accept its estimate as is.
            heapq.heappush(heap, (0.0, counter, lo, hi, v, e))
            counter += 1
            if all(entry[0] == 0.0 for entry in heap):
                break
            continue
        v_left, e_left = _gk_panel(f, lo, mid)
        v_right, e_right = _gk_panel(f, mid, hi)
        heapq.heappush(heap, (-e_left, counter, lo, mid, v_left, e_left))
        heapq.heappush(heap, (-e_right, counter + 1, mid, hi, v_right, e_right))
        counter += 2
        total_err += e_left + e_right - e
    return QuadratureResult(
        value=math.fsum(entry[4] for entry in heap),
        abs_error_estimate=math.fsum(entry[5] for entry in heap),
        subdivisions=len(heap),
    )
