# Reproduce the classical one-variable Bohr radius 1/3 numerically.
#
# Upper endpoint: bisection against truncated disk automorphisms
# z -> (a - z) / (1 - a z), whose Bohr sums exceed 1 just above 1/3.
# Lower endpoint: a Monte Carlo suite of random truncated series whose
# coefficient sums at 1/3 - tol stay below their circle sups.  Each end is
# an Endpoint: its value, and the source it comes from.

from bohrlab.bohr import bohr_1d_bracket
from bohrlab.optimize import bohr_sum
from bohrlab.polynomial import moebius_series

br = bohr_1d_bracket(1e-3)
print(f"one-variable Bohr radius bracket: [{br.lower.value:.6f}, {br.upper.value:.6f}]")
print(f"  width {br.upper.value - br.lower.value:.2e}, contains 1/3: "
      f"{br.lower.value <= 1 / 3 <= br.upper.value}")
print(f"  lower from: {br.lower.source}\n  upper from: {br.upper.source}")

# The extremal family at a glance: for the automorphism with parameter a,
# the Bohr sum hits 1 exactly at r = 1/(1 + 2a), which tends to 1/3 as
# a -> 1.
print("\nequality radii of the disk-automorphism family:")
for a in (0.5, 0.8, 0.95):
    r = 1.0 / (1.0 + 2.0 * a)
    v = bohr_sum(moebius_series(a, 80), r, 2.0).value
    print(f"  a={a:.2f}  r=1/(1+2a)={r:.4f}  Bohr sum at r = {v:.8f}")
