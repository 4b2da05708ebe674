"""How information is kept and how it pays off as it accumulates.

Retention decays exponentially at a configurable rate; slow decay keeps a
story alive for weeks, fast decay buries it in days. Piling up information
pays off along two very different curves: one with shrinking increments
(each extra piece adds less) and one with growing increments (pieces
reinforce each other).
"""

from infomarket.dynamics import (
    RetentionParams,
    check_increment_profile,
    compounding_curve,
    diminishing_curve,
    info_marginal_contribution,
    retention,
    utility,
)
from infomarket.scenario import DynamicsSection

print("=== Retention over time ===")
times = list(range(0, 11, 2))
header = "decay " + "".join(f"t={t:<7}" for t in times)
print(header)
for decay in DynamicsSection().decay_grid:
    params = RetentionParams(initial=1.0, decay=decay)
    row = "".join(f"{retention(params, t):<9.4f}" for t in times)
    print(f"{decay:<6}{row}")
print("(halving the decay rate roughly squares the retained share: "
      "r(2t) = r(t)^2 / r(0))")

print()
print("=== Two utility curves ===")
dim = diminishing_curve(scale=1.0)
comp = compounding_curve(scale=1.0, exponent=2.0)
print(f"{'pieces':>6} {'shrinking returns':>18} {'compounding returns':>20}")
for k in range(0, 9):
    print(f"{k:>6} {utility(dim, k):>18.4f} {utility(comp, k):>20.1f}")

print()
print("=== Marginal value of the next piece ===")
for k in (0, 1, 4, 9):
    print(
        f"  piece {k + 1}: shrinking {info_marginal_contribution(dim, k):.4f}, "
        f"compounding {info_marginal_contribution(comp, k):.1f}"
    )

print()
print("=== Shape verification ===")
for label, curve in (("shrinking", dim), ("compounding", comp)):
    verdict = check_increment_profile(curve, n=1000)
    print(f"  {label} increments behave as promised over 1000 pieces: {verdict.passed}")
