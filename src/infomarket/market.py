"""Supply/demand market clearing for competing news types.

Markets are linear: supply ``S(p) = a*p`` against demand ``D(p) = b - c*p``.
The clearing price solves ``S(p) = D(p)``, giving ``p* = b/(a+c)`` in closed
form. A bisection solver doubles as an independent numerical route and also
handles non-linear curves, and a cobweb iteration classifies whether the
clearing point attracts or repels out-of-equilibrium prices.
"""

from enum import Enum
from typing import Callable

from ._record import record, require
from .errors import InfeasibleEquilibrium, NonMonotone, NoRoot
from .scenario import MarketParams, MarketScenario

BISECTION_MAX_ITER = 200
DEFAULT_TOLERANCE = 1e-9
MONOTONE_SAMPLES = 1000


class NewsType(Enum):
    """The two kinds of information traded in the model."""

    FAKE = "fake"
    TRUE = "true"


@record
class Equilibrium:
    """A cleared market: ``supply(price) == demand(price) == quantity``."""

    price: float
    quantity: float

    def __post_init__(self):
        if self.price < 0 or self.quantity < 0:
            raise ValueError(f"equilibrium must be nonnegative, got {self}")


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    NEUTRAL = "neutral"


@record
class StabilityReport:
    """Cobweb classification plus the visited price trace."""

    classification: Stability
    iterates: list[float]


def equilibrium_closed_form(params: MarketParams) -> Equilibrium:
    """Solve the linear market in closed form.

    Returns the unique positive clearing point ``p* = b/(a+c)``,
    ``q* = a*p*``.

    Raises:
        InfeasibleEquilibrium: if the demand intercept is non-positive, which
            would force a non-positive price and quantity.
    """
    a, b, c = params.supply_slope, params.demand_intercept, params.demand_slope
    if b <= 0:
        raise InfeasibleEquilibrium(
            f"demand intercept {b} gives non-positive equilibrium price and quantity"
        )
    price = b / (a + c)
    return Equilibrium(price=price, quantity=a * price)


def _probe_monotone(fn, lo, hi, increasing):
    """Check fn is (weakly) monotone over a uniform grid on [lo, hi].

    Tries one vectorized evaluation first; callables that only accept scalars
    are probed point by point. numpy is imported here, not at module top, so
    that importing the package (and every CLI run) does not pay for it.
    """
    import numpy as np

    grid = np.linspace(lo, hi, MONOTONE_SAMPLES)
    try:
        values = np.asarray(fn(grid), dtype=float)
        if values.shape != grid.shape:
            raise TypeError
    except Exception:
        values = np.array([float(fn(p)) for p in grid])
    diffs = np.diff(values)
    slack = 1e-12 * (1.0 + np.abs(values[:-1]))
    if increasing:
        return bool(np.all(diffs >= -slack))
    return bool(np.all(diffs <= slack))


def equilibrium_numeric(
    supply: Callable[[float], float],
    demand: Callable[[float], float],
    bracket: tuple[float, float],
) -> Equilibrium:
    """Find the clearing price of arbitrary curves by bisection.

    Requires supply nondecreasing and demand nonincreasing on the bracket,
    and a sign change of supply - demand across it. Both curves are always
    probed at ``MONOTONE_SAMPLES`` evenly spaced prices before any halving.
    Halving stops at the fixed ``DEFAULT_TOLERANCE`` (tol below): once the
    residual satisfies ``|supply(p) - demand(p)| <= tol * (1 + |quantity|)``
    and the bracket has shrunk below ``2 * tol`` (the returned midpoint then
    sits within ``tol`` of the root), capped at ``BISECTION_MAX_ITER``
    halvings.

    Raises:
        NoRoot: no sign change of the excess supply over the bracket.
        NonMonotone: a curve fails its monotonicity probe.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")
    if not _probe_monotone(supply, lo, hi, increasing=True):
        raise NonMonotone("supply is not nondecreasing on the bracket")
    if not _probe_monotone(demand, lo, hi, increasing=False):
        raise NonMonotone("demand is not nonincreasing on the bracket")

    f_lo = supply(lo) - demand(lo)
    f_hi = supply(hi) - demand(hi)
    if f_lo == 0.0:
        return Equilibrium(price=lo, quantity=supply(lo))
    if f_hi == 0.0:
        return Equilibrium(price=hi, quantity=supply(hi))
    if f_lo > 0 or f_hi < 0:
        raise NoRoot(f"supply - demand has no sign change on {bracket}")

    mid = 0.5 * (lo + hi)
    quantity = supply(mid)
    for _ in range(BISECTION_MAX_ITER):
        f_mid = quantity - demand(mid)
        if (abs(f_mid) <= DEFAULT_TOLERANCE * (1.0 + abs(quantity))
                and hi - lo <= 2.0 * DEFAULT_TOLERANCE):
            break
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        quantity = supply(mid)
    return Equilibrium(price=mid, quantity=quantity)


def stability_cobweb(params: MarketParams, p0: float, steps: int) -> StabilityReport:
    """Iterate the discrete price-response map and classify the fixed point.

    The map ``p -> (b - a*p)/c`` sends a price to the one at which demand
    absorbs the quantity supplied at the old price. The clearing price is
    attracting iff a/c < 1, repelling iff a/c > 1, and a = c oscillates with
    period two. ``iterates`` holds the trace after each of the ``steps``
    applications (the starting price is not included).
    """
    require("steps", steps, ">=", 1, integer=True)
    a, b, c = params.supply_slope, params.demand_intercept, params.demand_slope
    ratio = a / c
    if ratio < 1:
        classification = Stability.STABLE
    elif ratio == 1:
        classification = Stability.NEUTRAL
    else:
        classification = Stability.UNSTABLE
    iterates = []
    p = p0
    for _ in range(steps):
        p = (b - a * p) / c
        iterates.append(p)
    return StabilityReport(classification=classification, iterates=iterates)
