"""Information retention decay and accumulation-utility curve families.

Retention follows an exponential decay from an initial fraction. Utility of
holding k pieces of information comes in two flavors: a diminishing-returns
curve whose increments shrink as the pile grows (harmonic partial sums), and
a compounding-interaction curve whose increments grow (power law). Scalar
arithmetic is plain Python so exact number types pass through untouched.
"""

import math
from enum import Enum
from typing import Iterator

from ._record import field, record, require
from .scenario import DynamicsSection, _keys


@record
class RetentionParams:
    """Initial retention fraction and per-time-unit decay rate."""

    initial: float = _keys(DynamicsSection)["initial_retention"]
    decay: float = field(0.5, _keys(DynamicsSection)["decay_grid"].metadata)


def retention(params: RetentionParams, t) -> float:
    """Fraction of information still held after time t: initial * exp(-decay*t)."""
    if not (type(t) is int and 0 <= t <= 1.7976931348623157e308):  # sys.float_info.max
        require("t", t, ">=", 0, finite=True)  # inline above: a dynamics run calls this per row
    return params.initial * math.exp(-params.decay * t)


class CurveFamily(Enum):
    DIMINISHING = "diminishing"  # shrinking increments
    COMPOUNDING = "compounding"  # growing increments


@record
class UtilityCurve:
    """Utility of holding k information pieces, evaluated at integer k.

    The diminishing family is ``scale * (1 + 1/2 + ... + 1/k)``; the compounding
    family is ``scale * k**exponent``. Either needs a finite exponent > 1.
    """

    family: CurveFamily
    scale: float = _keys(DynamicsSection)["compounding_scale"]
    exponent: float = _keys(DynamicsSection)["compounding_exponent"]


def diminishing_curve(scale=UtilityCurve.scale) -> UtilityCurve:
    return UtilityCurve(family=CurveFamily.DIMINISHING, scale=scale)


def compounding_curve(scale=UtilityCurve.scale, exponent=UtilityCurve.exponent) -> UtilityCurve:
    return UtilityCurve(family=CurveFamily.COMPOUNDING, scale=scale, exponent=exponent)


def increments(curve: UtilityCurve) -> Iterator:
    """Yield utility(k+1) - utility(k) for k = 0, 1, 2, ..."""
    k = 0
    while True:
        if curve.family is CurveFamily.DIMINISHING:
            yield curve.scale / (k + 1)
        else:
            yield curve.scale * ((k + 1) ** curve.exponent - k**curve.exponent)
        k += 1


def utility(curve: UtilityCurve, k: int):
    """Utility of holding k pieces; zero at k = 0."""
    if not (type(k) is int and k >= 0):  # tested inline, as in retention
        require("k", k, ">=", 0, integer=True)
    if curve.family is CurveFamily.COMPOUNDING:
        return curve.scale * k**curve.exponent
    total = 0
    for i in range(1, k + 1):
        total += curve.scale / i
    return total


def info_marginal_contribution(curve: UtilityCurve, k: int):
    """Utility gained by the (k+1)-th information piece."""
    return utility(curve, k + 1) - utility(curve, k)


@record
class IncrementVerdict:
    passed: bool
    violation_at: int | None = None


def check_increment_profile(curve: UtilityCurve, n: int) -> IncrementVerdict:
    """Verify the curve's increments behave as its family promises.

    Diminishing curves need nonincreasing increments over k < n, compounding
    curves nondecreasing ones. On failure the verdict carries the first k at
    which the comparison breaks.
    """
    require("n", n, ">=", 2, integer=True)
    gen = increments(curve)
    prev = next(gen)
    for k in range(1, n):
        cur = next(gen)
        if curve.family is CurveFamily.DIMINISHING and cur > prev:
            return IncrementVerdict(passed=False, violation_at=k)
        if curve.family is CurveFamily.COMPOUNDING and cur < prev:
            return IncrementVerdict(passed=False, violation_at=k)
        prev = cur
    return IncrementVerdict(passed=True)
