# Assemble a two-sided bracket for the mixed unconditionality constant
# chi(m, n; p, q) and push it through to the degree-m Bohr radius K_m.
#
# Lower endpoints come from explicit witness polynomials (sign patterns
# found by annealing, flat coefficients, random ensembles) and, at m = 2,
# the Fourier quadratic form z^T F z with its certified value; uppers from
# the least closed-form record.  At p = q = 2 and m = 2 both ends are
# sqrt(n): the Fourier form attains it and the Frobenius-Hoelder record
# (Banach's polarization theorem on l_2) bounds it, so the bracket
# closes.  Witness values are slack-deflated because the norm optimizer
# certifies only lower bounds, and the endpoint they set is marked
# estimate; one above the proved upper end is dropped.  K_m's ends keep
# the marks of the chi ends they come from.

from bohrlab.bohr import k_m_bracket
from bohrlab.bounds import ExponentPair
from bohrlab.optimize import OptConfig
from bohrlab.witness import brute_chi, chi_bracket, sign_search

cfg = OptConfig(restarts=8, iters=100, seed=0)
e = ExponentPair(2.0, 2.0)
m, n = 2, 4

br = chi_bracket(m, n, e, cfg, sign_budget=2000, samples=1000)
print(f"chi bracket for m={m}, n={n}, p=q=2:")
print(f"  [{br.lower.value:.6f}, {br.upper.value:.6f}]")
print(f"  lower from: {br.lower.source} (estimate: {br.lower.estimate})")
print(f"  upper from: {br.upper.source} (estimate: {br.upper.estimate})")

bc = brute_chi(m, n, e, seed=0, cfg=cfg)
print(f"\nrandom-ensemble search: raw {bc.raw:.6f}, "
      f"slack-deflated {bc.deflated:.6f}")

eps, est = sign_search(m, n, 2.0, budget=2000, seed=0, cfg=cfg)
neg = sum(1 for v in eps.values() if v < 0)
print(f"sign witness: {neg}/{len(eps)} negative signs, "
      f"sup-norm estimate {est.value:.6f}")

km = k_m_bracket(m, n, e, cfg, sign_budget=2000, samples=1000)
print(f"\ndegree-{m} radius K_{m} = chi^(-1/{m}):")
print(f"  [{km.lower.value:.6f}, {km.upper.value:.6f}]  (1/3 reference: {1 / 3:.6f})")
print(f"  upper from: {km.upper.source} (estimate: {km.upper.estimate})")
bc1 = brute_chi(1, n, e, seed=0, cfg=cfg)
print(f"  exact linear-case sanity: chi(1) = {bc1.raw:.6f} vs closed form 1")
