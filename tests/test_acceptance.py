"""Acceptance suite: one test per criterion, one pass/fail line each."""

import itertools
import math
import time

import numpy as np
import pytest

from bohrlab.bohr import bohr_1d_bracket, k_bracket, k_m_bracket, random_series, wiener_check
from bohrlab.bounds import (
    ExponentPair,
    chi_upper_ends,
    conjugate,
    envelope_constant,
    inv,
    j_sum,
    log_chi_uppers,
    rate,
    region_classify,
)
from bohrlab.cli import run
from bohrlab.multiindex import (
    alpha_to_tuple,
    enumerate_j,
    enumerate_lambda,
    lambda_card,
    multiplicity,
    tuple_to_alpha,
)
from bohrlab.optimize import OptConfig
from bohrlab.polynomial import HomPoly, moebius_series
from bohrlab.witness import brute_chi, chi_bracket, lempoly_check


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"acceptance {num}: {tag} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_one_dim_bohr_radius(capsys):
    t0 = time.time()
    br = bohr_1d_bracket(1e-3)
    dt = time.time() - t0
    lo, up = br.lower.value, br.upper.value
    ok = lo <= 1 / 3 <= up and up - lo <= 2e-3 and dt <= 60
    with capsys.disabled():
        report(1, ok, f"bracket [{lo:.6f}, {up:.6f}] in {dt:.1f}s")


def test_criterion_02_linear_case_exactness(capsys):
    t0 = time.time()
    cfg = OptConfig(restarts=8, iters=80, seed=0)
    exps = [1.0, 4 / 3, 2.0, 4.0, math.inf]
    worst = 0.0
    ok = True
    for p, q in itertools.product(exps, exps):
        e = ExponentPair(p, q)
        for n in (2, 8, 32):
            exact = max(1.0, n ** (inv(conjugate(q)) - inv(conjugate(p))))
            bc = brute_chi(1, n, e, seed=0, cfg=cfg)
            worst = max(worst, abs(bc.raw - exact) / exact)
            km = k_m_bracket(1, n, e, cfg, sign_budget=200, samples=1000)
            ok &= km.lower.value <= 1.0 / exact <= km.upper.value + 1e-12
    dt = time.time() - t0
    ok &= worst <= 0.01 and dt <= 300
    with capsys.disabled():
        report(2, ok, f"worst relative error {worst:.2e}, 75 instances in {dt:.0f}s")


def test_criterion_03_exact_identities(capsys):
    ok = True
    for n in range(1, 9):
        for m in range(0, 9):
            items = list(enumerate_lambda(m, n))
            ok &= len(items) == math.comb(n + m - 1, m) == lambda_card(m, n)
            ok &= sum(multiplicity(a) for a in items) == n**m
            if m >= 1:
                for j in enumerate_j(m, n):
                    ok &= alpha_to_tuple(tuple_to_alpha(j, n)) == j
    with capsys.disabled():
        report(3, ok, "multinomial sums, cardinalities, occurrence-map roundtrips")


def test_criterion_04_jsum_oracle_equivalence(capsys):
    t0 = time.time()
    ok = True
    for m in range(1, 7):
        for n in range(1, 9):
            for beta in (0.0, 0.5, 1.0, 2.0):
                a = j_sum(m, n, beta=beta, method="naive")
                b = j_sum(m, n, beta=beta)
                ok &= abs(a - b) <= 1e-12 * abs(b)
    dt = time.time() - t0
    ok &= dt <= 60
    with capsys.disabled():
        report(4, ok, f"naive vs generating-function routes agree on full grid in {dt:.1f}s")


def test_criterion_05_bracket_soundness(capsys):
    cfg = OptConfig(restarts=4, iters=60, seed=0)
    exps = [4 / 3, 3 / 2, 2.0]
    violations = 0
    for p in exps:
        for q in exps:
            if q > p:
                continue
            e = ExponentPair(p, q)
            for m in range(1, 5):
                for n in (2, 4, 8, 16):
                    br = chi_bracket(m, n, e, cfg, sign_budget=300, samples=1000)
                    violations += br.lower.value > br.upper.value
                    if lambda_card(m, n) <= 50:
                        bc = brute_chi(m, n, e, seed=0, cfg=cfg)
                        [(log_up, _)] = log_chi_uppers([m], n, e)
                        violations += bc.deflated > chi_upper_ends(log_up, m)[0]
    with capsys.disabled():
        report(5, violations == 0, f"{violations} violations on the m<=4, n<=16 grid")


def test_criterion_06_envelope_boundedness(capsys):
    e = ExponentPair(2.0, 2.0)
    mx = 0.0
    ok = True
    for m in range(1, 13):
        for k in range(4, 13):
            mx = max(mx, envelope_constant(m, 2**k, e).value)
        # eventual monotonicity: past the turnover (log n > m) the sequence
        # in n is nonincreasing
        k0 = max(4, int(m * 1.6) + 1)
        vals = [envelope_constant(m, 2**k, e).value for k in range(k0, k0 + 6)]
        ok &= all(vals[i + 1] <= vals[i] + 1e-12 for i in range(5))
    ok &= mx <= 10
    with capsys.disabled():
        report(6, ok, f"max fitted envelope constant {mx:.4f} (p=q=2 sweep)")


def test_criterion_07_region_map(capsys):
    ok = True
    rep = region_classify(math.inf, math.inf)
    ok &= rep.tag == "II" and (rep.n_exponent, rep.log_exponent) == (0.5, 0.5)
    for n in (10, 100):
        ok &= rate(math.inf, math.inf, n) == pytest.approx(
            math.sqrt(math.log(n) / n))
    for q in (1.2, 1.5, 2.0):
        r2 = region_classify(2.0, q)
        ok &= r2.n_exponent == pytest.approx(0.5 + 0.5 - 1 / q)  # II formula
        ok &= r2.n_exponent == pytest.approx(1.0 - 1 / q)        # III formula
        ok &= r2.log_exponent == 0.5
    rI = region_classify(4.0, 4 / 3)
    ok &= rI.tag == "I" and rate(4.0, 4 / 3, 50) == 1.0
    rq1 = region_classify(3.0, 1.0)
    ok &= rq1.tag == "Q1" and rate(3.0, 1.0, 50) == 1.0
    with capsys.disabled():
        report(7, ok, "region tags and rate exponents match the case table")


def test_criterion_08_wiener_suite(capsys):
    cfg = OptConfig(restarts=8, iters=80, seed=1)
    fails = 0
    for i in range(1000):
        p = 2.0 if i % 2 == 0 else math.inf
        n = 1 + i % 3
        F = random_series(n, 1 + i % 4, seed=5000 + i, budget=10**5, p=p)
        try:
            fails += not wiener_check(F, p, 1.0, cfg).all_pass
        except ValueError:
            fails += 1
    eq_ok = True
    for a in (0.4, 0.7):
        rep = wiener_check(moebius_series(a, 40), 2.0, 1.0, cfg, norm_tol=1e-5)
        eq_ok &= abs(rep.rows[0].norm_est - (1 - a * a)) <= 1e-9
    ok = fails == 0 and eq_ok
    with capsys.disabled():
        report(8, ok, f"{fails}/1000 failures; degree-1 equality ok={eq_ok}")


def test_criterion_09_slice_inequality_suite(capsys):
    rng = np.random.default_rng(99)
    cfg = OptConfig(restarts=8, iters=80, seed=2)
    fails = 0
    for m in (2, 3):
        alphas = list(enumerate_lambda(m, 4))
        for p in (1.0, 2.0, math.inf):
            for _ in range(50):
                c = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(
                    len(alphas))
                P = HomPoly(4, m, dict(zip(alphas, c)))
                fails += not lempoly_check(P, p, 1.05, cfg).all_pass
    with capsys.disabled():
        report(9, fails == 0, f"{fails}/300 slice-inequality failures at slack 1.05")


def test_criterion_10_k_below_third_and_km(capsys):
    cfg = OptConfig(restarts=6, iters=60, seed=0)
    kw = dict(sign_budget=500, samples=1000)
    bad = 0
    for p, q in [(math.inf, math.inf), (2.0, 2.0), (2.0, math.inf)]:
        e = ExponentPair(p, q)
        for n in (1, 2, 4):
            kb = k_bracket(n, e, 3, cfg, **kw)
            bad += kb.upper.value > 1 / 3 + 1e-9
            for m in (1, 2, 3):
                km = k_m_bracket(m, n, e, cfg, **kw)
                bad += kb.upper.value > km.upper.value + 1e-9
    with capsys.disabled():
        report(10, bad == 0, f"{bad} ordering violations on the sweep grid")


def test_criterion_11_reproducibility(capsys, tmp_path):
    outs = []
    for path in ("a.csv", "b.csv"):
        f = tmp_path / path
        code = run(["sweep", "--m-grid", "1,2", "--n-grid", "2,4", "--p", "2",
                    "--q", "2", "--budget", "200", "--restarts", "6",
                    "--iters", "60", "--out", str(f)])
        assert code == 0
        outs.append(f.read_bytes())
    sweep_ok = outs[0] == outs[1]

    st = []
    for _ in range(2):
        code = run(["selftest"])
        st.append((code, capsys.readouterr().out))
    self_ok = st[0] == st[1] and st[0][0] == 0
    ok = sweep_ok and self_ok
    with capsys.disabled():
        report(11, ok, f"sweep byte-identical={sweep_ok}, selftest stable={self_ok}")
