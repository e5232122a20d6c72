import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import bohr
from bohrlab.bohr import (
    MC_DEGREE,
    MC_SERIES,
    _random_series_failures,
    bohr_1d_bracket,
    k_bracket,
    k_m_bracket,
    random_series,
    wiener_check,
    wiener_lower,
)
from bohrlab import optimize
from bohrlab.bounds import FOURIER_SOURCE, ExponentPair, chi_upper_ends, log_chi_uppers, rate
from bohrlab.multiindex import enumerate_lambda
from bohrlab.optimize import OptConfig, bohr_sum, series_part_sups, series_sup, sup_norm
from bohrlab.polynomial import HomPoly, TruncatedSeries, moebius_series
from bohrlab.witness import BoundBracket, Endpoint, brute_chi

OPT = OptConfig(restarts=10, iters=100, seed=21)
KW = dict(sign_budget=400, samples=1000)


def test_radius_bracket_validation():
    with pytest.raises(ValueError, match=r"lower 0\.5 \(a\) is not <= upper 0\.4 \(b\)"):
        BoundBracket(Endpoint(0.5, "a"), Endpoint(0.4, "b"), 1)
    with pytest.raises(ValueError):  # NaN fails too
        BoundBracket(Endpoint(math.nan, "a"), Endpoint(0.4, "b"), 1)
    BoundBracket(Endpoint(0.4, "a"), Endpoint(0.4, "b"), 1)


@settings(max_examples=15, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 4), p=st.sampled_from([1.0, 4 / 3, 2.0, math.inf]),
       q=st.sampled_from([1.0, 4 / 3, 2.0, math.inf]), seed=st.integers(0, 2**16),
       sign_budget=st.integers(0, 100))
def test_k_ends_keep_direction_and_strength(m, n, p, q, seed, sign_budget):
    # K lower ends come from chi upper ends (closed forms), K upper ends from
    # chi lower ends; an end's estimate flag agrees with its rendered source
    e, cfg = ExponentPair(p, q), OptConfig(4, 20, seed)
    km = k_m_bracket(m, n, e, cfg, sign_budget=sign_budget, samples=1000)
    assert km.lower.source.startswith("chi upper: ") and not km.lower.estimate
    assert km.upper.source.startswith("chi lower: ")
    kb = k_bracket(n, e, m, cfg, sign_budget=sign_budget, samples=1000)
    for end in (km.lower, km.upper, kb.lower, kb.upper):
        assert end.estimate == ("estimate-based" in end.source), end


def test_k_m_bracket_linear():
    br = k_m_bracket(1, 3, ExponentPair(2.0, 2.0), OPT, **KW)
    assert br.lower.value <= 1.0 <= br.upper.value + 1e-9
    br2 = k_m_bracket(1, 4, ExponentPair(2.0, math.inf), OPT, **KW)
    assert br2.lower.value <= 0.5 <= br2.upper.value + 1e-9


def test_k_m_bracket_monotone_map():
    # the K_2 upper end at (inf, inf) is the Fourier end chi >= sqrt(2), at
    # or below the one the deflated brute value would give, and at least
    # the true 2^(-1/4)
    e = ExponentPair(math.inf, math.inf)
    br = k_m_bracket(2, 2, e, OPT, **KW)
    bc = brute_chi(2, 2, e, seed=OPT.seed, cfg=OPT)
    assert br.lower.value <= bc.raw ** (-0.5) * 1.05
    assert br.upper.source == f"chi lower: {FOURIER_SOURCE}" and not br.upper.estimate
    assert br.upper.value <= bc.deflated ** (-0.5)
    with localcontext(prec=50):
        assert Decimal(br.upper.value) >= 1 / Decimal(2).sqrt().sqrt()


def test_round_trip_identity():
    for x in (1.0, 2.5, 17.0):
        for m in (1, 2, 5):
            y = x ** (-1.0 / m)
            assert y ** (-m) == pytest.approx(x, rel=1e-12)


def test_k_bracket_disk():
    br = k_bracket(1, ExponentPair(math.inf, math.inf), 3, OPT, **KW)
    assert br.lower.value <= 1 / 3 <= br.upper.value + 1e-12


def test_k_bracket_q1_lower_dimension_free():
    e = ExponentPair(2.0, 1.0)
    lows = [
        k_bracket(n, e, 3, OPT, sign_budget=0, samples=1000).lower.value
        for n in (2, 4, 8, 16, 32, 64)
    ]
    assert min(lows) >= 0.1  # bounded below, independent of n
    assert max(lows[1:]) == pytest.approx(min(lows[1:]), rel=1e-9)


ANCHOR_PAIRS = [(p, q) for p in (1.0, 4 / 3, 2.0, 3.0, math.inf)
                for q in (1.0, 1.2, 4 / 3, 2.0, 4.0, math.inf)]


@pytest.mark.parametrize("p, q", ANCHOR_PAIRS)
def test_bohr_anchor_in_one_variable(p, q):
    # Bohr: K = 1/3 on the disk, and both ends say so at every (p, q)
    br = k_bracket(1, ExponentPair(p, q), 3, OptConfig(2, 10, 0), sign_budget=0)
    assert br.lower.value == br.upper.value == 1 / 3


@pytest.mark.parametrize("n", [2, 2**10, 2**20, 2**40])
@pytest.mark.parametrize("M", [1, 4])
def test_boas_khavinson_anchor(n, M):
    # K(B_inf^n) >= 1/(3 sqrt n) (Boas and Khavinson, Proc. AMS 125 (1997)):
    # the split record |Lambda(m, n)|^(1/2) gives it degree by degree
    br = k_bracket(n, ExponentPair(math.inf, math.inf), M, OptConfig(2, 10, 0), sign_budget=0)
    with localcontext(prec=50):
        anchor = 1 / (3 * Decimal(n).sqrt())
        assert Decimal(br.lower.value) >= anchor and Decimal(br.upper.value) >= anchor


@pytest.mark.parametrize("n", [1, 2, 2**10, 2**40])
def test_aizenberg_anchor(n):
    # K(B_1^n) >= e^(-1/3)/3 (Aizenberg, Proc. AMS 128 (2000)): the
    # polarization-Hoelder record m^m / m! sums to 1/2 at r = e^(-1/3)/3,
    # and at (1, 2) the transfer record scales it by n^(-1/2); the Wiener
    # root reaches both up to its tail share
    with localcontext(prec=50):
        anchor = (-Decimal(1) / 3).exp() / 3 * (1 - Decimal(2) ** -20)
        assert Decimal(wiener_lower(n, ExponentPair(1.0, 1.0)).value) >= anchor
        assert Decimal(wiener_lower(n, ExponentPair(1.0, 2.0)).value) * Decimal(n).sqrt() >= anchor


@pytest.mark.parametrize("p, q", [(math.inf, 4 / 3), (math.inf, 2.0), (2.0, 1.0), (3.0, 1.0),
                                  (3.0, 1.2)])
@pytest.mark.parametrize("n", [2**10, 2**20, 2**40])
def test_region_one_and_q1_close_at_a_third(p, q, n):
    # region I (its I-II boundary and (3, 6/5) included) and q = 1 at
    # p >= 2: the split record gives chi <= 1 at every degree, so K = 1/3
    br = k_bracket(n, ExponentPair(p, q), 3, sign_budget=0)
    assert br.lower.value == br.upper.value == 1 / 3


def test_k_bracket_upper_below_third():
    for (p, q) in [(math.inf, math.inf), (2.0, 2.0), (2.0, math.inf)]:
        for n in (1, 2, 4):
            br = k_bracket(n, ExponentPair(p, q), 2, OPT, **KW)
            assert br.upper.value <= 1 / 3 + 1e-9


def test_k_below_k_m():
    e = ExponentPair(2.0, 2.0)
    for n in (2, 4):
        kb = k_bracket(n, e, 3, OPT, **KW)
        for m in (1, 2, 3):
            km = k_m_bracket(m, n, e, OPT, **KW)
            assert kb.upper.value <= km.upper.value + 1e-9


def _grid_lower(n: int, e: ExponentPair, M: int) -> float:
    """The K lower end the Wiener sum replaced: a third of the least K_m
    lower end over m <= M and a geometric grid up to 10 M, rounded down."""
    grid, mm = list(range(1, M + 1)), M
    while mm < 10 * M:
        mm = min(max(mm + 1, int(mm * 1.5)), 10 * M)
        grid.append(mm)
    low = min(chi_upper_ends(v, m)[1] for m, (v, _) in zip(grid, log_chi_uppers(grid, n, e)))
    return low / 3 if low == 1 else math.nextafter(low / 3, 0.0)


INF = math.inf
RATE_TABLE_PAIRS = [(INF, 4 / 3), (INF, 2.0), (INF, INF), (INF, 4.0), (4.0, 2.0), (2.0, 2.0),
                    (1.5, 1.5), (1.5, 4.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (3.0, 1.0)]


@pytest.mark.parametrize("p, q", RATE_TABLE_PAIRS)
@pytest.mark.parametrize("n", [2**10, 2**20, 2**40])
def test_wiener_lower_end_never_below_the_grid_end(p, q, n):
    # the rate table's cells (demos/05_rate_table.py): the Wiener sum over
    # every degree is never below the grid formula it replaced, and cells
    # that read exactly 1/3 still do
    e = ExponentPair(p, q)
    lower, grid = k_bracket(n, e, 3, sign_budget=0).lower.value, _grid_lower(n, e, 3)
    assert lower >= grid
    if grid == 1 / 3:
        assert lower == 1 / 3


@pytest.mark.parametrize("p, q", [(2.0, 4 / 3), (1.5, 1.25)])
def test_wiener_lower_end_never_below_the_grid_end_on_radius_bounds(p, q):
    # the benchmark's radius_bounds cells: n near 64, 256 and 1024 (the
    # seed adds 0..15), M_max = 4
    e = ExponentPair(p, q)
    for n in [d + j for d in (64, 256, 1024) for j in range(16)]:
        assert wiener_lower(n, e).value >= 1.3 * _grid_lower(n, e, 4), n


@pytest.mark.parametrize("p, q", ANCHOR_PAIRS)
def test_wiener_lower_end_is_a_third_at_n_1(p, q):
    # every U_m is 1 at n = 1, so the sum is r / (1 - r) and the end 1/3
    end = wiener_lower(1, ExponentPair(p, q))
    assert end.value == 1 / 3
    assert end.source == ("Wiener sum over all m (dense to m0 = 16; dominant m = 1, "
                          "exact at m = 1 (linear forms))")


@pytest.mark.parametrize("p, q, floor", [(INF, INF, 0.12), (2.0, 2.0, 0.44), (1.5, 1.5, 0.19),
                                         (1.0, 1.0, 0.238)])
def test_rate_table_lower_ends_on_their_rate(p, q, floor):
    # the rate table's cells (demos/05_rate_table.py) that the Wiener sum,
    # at (2, 2) the Schur-Hadamard record and at (1, 1) the
    # polarization-Hoelder record moved: lower / rate at n = 2^10, 2^20 and
    # 2^40
    e = ExponentPair(p, q)
    for n in (2**10, 2**20, 2**40):
        assert k_bracket(n, e, 3, sign_budget=0).lower.value / rate(p, q, n) >= floor, n


@pytest.mark.parametrize("p, q, growth", [(INF, INF, 5.3), (2.0, 2.0, 4.6)])
def test_rate_table_upper_ends_on_their_rate(p, q, growth):
    # the Fourier end sets K_2 <= n^(-1/4) at (inf, inf) and (2, 2): upper /
    # rate at n = 2^10, 2^20 and 2^40 stays below 2.2 / 8.7 / 200, and
    # ln(upper / lower) grows by at most `growth` from 2^10 to 2^40 (10.38
    # and 9.29 with the K_2 end from the searches)
    e, gaps = ExponentPair(p, q), []
    for n, ceiling in [(2**10, 2.2), (2**20, 8.7), (2**40, 200.0)]:
        br = k_bracket(n, e, 3, sign_budget=0)
        assert br.upper.source == f"K_2 upper (chi lower: {FOURIER_SOURCE})"
        assert br.upper.value / rate(p, q, n) <= ceiling, n
        gaps.append(math.log(br.upper.value / br.lower.value))
    assert gaps[-1] - gaps[0] <= growth


def test_bohr_1d_bracket():
    br = bohr_1d_bracket(1e-3)
    assert br.lower.value <= 1 / 3 <= br.upper.value
    assert br.upper.value - br.lower.value <= 2e-3


def test_bohr_1d_validation():
    for tol in (0.0, -1e-3, math.nan, math.inf, 0.5, 1.0):
        with pytest.raises(ValueError):
            bohr_1d_bracket(tol)


def test_moebius_equality_radius():
    # closed form a + (1-a^2) r/(1-ar) hits 1 exactly at r = 1/(1+2a)
    for a in (0.3, 0.6, 0.9):
        r = 1.0 / (1.0 + 2 * a)
        v = bohr_sum(moebius_series(a, 80), r, 2.0, OPT).value
        assert v <= 1.0 + 1e-12
        assert v >= 1.0 - (a * r) ** 80 / (1 - a * r) - 1e-12


def test_random_series_pass_below_third():
    assert _random_series_failures(0.30, 2000, 12, seed=1) == 0


def _dense_failures(r: float, count: int, M: int, seed: int) -> int:
    """The check without the Parseval screen: every series on the circle."""
    rng = np.random.default_rng(seed)
    k = np.arange(M + 1)
    rk = r**k
    theta = np.exp(2j * np.pi * np.outer(np.arange(4096) / 4096.0, k))
    fails = 0
    for lo in range(0, count, 512):
        b = min(512, count - lo)
        coeffs = (rng.standard_normal((b, M + 1))
                  + 1j * rng.standard_normal((b, M + 1))) / np.sqrt(2)
        lhs = np.abs(coeffs) @ rk
        sup = np.concatenate([np.abs(coeffs[i:i + 64] @ theta.T).max(axis=1)
                              for i in range(0, b, 64)])
        fails += int((lhs > sup).sum())
    return fails


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("r", [1 / 3 - 1e-3, 0.5, 0.7, 0.8, 0.9, 1.0])
def test_parseval_screen_keeps_the_dense_count(r, seed):
    # at r = 0.8 the screen settles about 1 row in 9 and a few rows fail
    fails = _random_series_failures(r, MC_SERIES, MC_DEGREE, seed)
    assert fails == _dense_failures(r, MC_SERIES, MC_DEGREE, seed)
    if r <= 0.7:
        assert fails == 0
    if r == 1.0:  # sum |c_k| > sup |F| on the circle for every such series
        assert fails == MC_SERIES


def _dense_rows(monkeypatch) -> list[int]:
    """The number of rows each _circle_sup call evaluates, from now on."""
    rows, circle_sup = [], bohr._circle_sup

    def spy(coeffs):
        rows.append(len(coeffs))
        return circle_sup(coeffs)

    monkeypatch.setattr(bohr, "_circle_sup", spy)
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_no_series_reaches_the_circle_at_the_default_radius(monkeypatch, seed):
    rows = _dense_rows(monkeypatch)
    br = bohr_1d_bracket(1e-3, seed)  # bohr oned's default --tol
    assert br.lower.value == 1 / 3 - 1e-3
    assert sum(rows) == 0


def test_screen_sends_the_unsettled_rows_to_the_circle(monkeypatch):
    rows = _dense_rows(monkeypatch)
    assert _random_series_failures(0.7, MC_SERIES, MC_DEGREE, 1) == 0
    assert 0 < sum(rows) < MC_SERIES // 4
    rows.clear()
    assert _random_series_failures(1.0, MC_SERIES, MC_DEGREE, 1) == MC_SERIES
    assert sum(rows) == MC_SERIES


def _peak_bytes(r: float) -> int:
    tracemalloc.start()
    try:
        _random_series_failures(r, 512, 12, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_series_check_evaluates_in_row_chunks():
    # one block of 512 series on 4096 circle points is 32 MB of values
    assert _peak_bytes(0.30) < 10 * 2**20


def test_random_series_check_evaluates_in_row_chunks_when_every_row_is_open():
    # at r = 1.0 the screen settles no row, so all 512 go to the circle
    assert _peak_bytes(1.0) < 10 * 2**20


def test_wiener_moebius_equality_m1():
    # a truncated disk automorphism overshoots sup 1 by at most (1+a)a^M
    for a in (0.4, 0.7):
        rep = wiener_check(moebius_series(a, 40), 2.0, 1.0, OPT, norm_tol=1e-5)
        assert rep.rows[0].norm_est == pytest.approx(1 - a * a, abs=1e-9)
        assert rep.all_pass


def test_wiener_constant_series():
    F = TruncatedSeries(1, 0.8, [])
    rep = wiener_check(F, 2.0, 1.0, OPT)
    assert rep.all_pass and rep.rows == ()


def test_wiener_unnormalized_rejected():
    F = TruncatedSeries(1, 0.0, [HomPoly(1, 1, {(1,): 3.0})])
    with pytest.raises(ValueError):
        wiener_check(F, 2.0, 1.0, OPT)


def test_wiener_random_sample():
    for i in range(25):
        F = random_series(3, 4, seed=900 + i, budget=10**4, p=2.0)
        assert wiener_check(F, 2.0, 1.0, OPT).all_pass


def test_wiener_reduction_consistency():
    # the one-variable reduction g(w) = F(w z) of a normalized series, |z| = 1,
    # is itself normalized: its degree-m coefficient is the part P_m at z
    rng = np.random.default_rng(6)
    F = random_series(3, 3, seed=17, budget=10**4, p=2.0)
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = z / np.linalg.norm(z)
        g = TruncatedSeries(1, F.a0, [HomPoly(1, P.m, {(P.m,): P.eval(z)}) for P in F.parts])
        assert series_sup(g, 2.0, OPT).value <= 1.0 + 1e-9


def _normalized_series(seed, n, M, p, a0=None, zero_part=None):
    """A random series scaled so its estimated sup on the l_p ball is 1/2
    (the estimate moves with the scale, so 1/2 leaves room), optionally with
    a0 = 0 or one all-zero part."""
    rng = np.random.default_rng(seed)
    parts = []
    for k in range(1, M + 1):
        alphas = [] if k == zero_part else list(enumerate_lambda(k, n))
        c = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas))
        parts.append(HomPoly(n, k, dict(zip(alphas, c))))
    F = TruncatedSeries(n, complex(*rng.standard_normal(2)) if a0 is None else a0, parts)
    s = 2.0 * series_sup(F, p, OPT).value
    return TruncatedSeries(n, F.a0 / s, [HomPoly(n, P.m, {a: c / s for a, c in P.coeffs.items()})
                                         for P in parts])


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, math.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_wiener_batch_matches_one_row_calls(n, p):
    # the series row against series_sup and each part's row against sup_norm:
    # values within 1e-12, the same restart counts and convergence flags
    cases = [(M, {}) for M in (1, 2, 3, 4)]
    cases += [(3, {"zero_part": 2}), (2, {"a0": 0.0}), (4, {"a0": 0.0, "zero_part": 1})]
    for i, (M, kw) in enumerate(cases):
        F = _normalized_series(100 * n + i, n, M, p, **kw)
        series, *parts = series_part_sups(F, p, OPT)
        want = series_sup(F, p, OPT)
        assert series.value == pytest.approx(want.value, rel=1e-12)
        assert (series.restarts, series.converged) == (want.restarts, want.converged)
        rep = wiener_check(F, p, 1.0, OPT)
        assert [r.m for r in rep.rows] == list(range(1, M + 1))
        for P, est, row in zip(F.parts, parts, rep.rows):
            assert row.norm_est == est.value
            if not P.coeffs:
                assert est.value == 0.0 and est.converged
                continue
            one = sup_norm(P, p, OPT)
            assert est.value == pytest.approx(one.value, rel=1e-12)
            assert (est.restarts, est.converged) == (one.restarts, one.converged)
            assert type(est.restarts) is int


def test_wiener_check_is_one_ascent(monkeypatch):
    ascend, calls = optimize._ascend, []

    def spy(*args):
        calls.append(args)
        return ascend(*args)

    def forbidden(*args, **kw):
        raise AssertionError("wiener_check called a one-row estimator")

    monkeypatch.setattr(optimize, "_ascend", spy)
    monkeypatch.setattr(optimize, "sup_norm", forbidden)
    monkeypatch.setattr(optimize, "series_sup", forbidden)
    rep = wiener_check(moebius_series(0.4, 40), 2.0, 1.0, OPT, norm_tol=1e-5)
    assert len(calls) == 1 and len(rep.rows) == 40
    # the series and its 40 parts, each with its own start list
    assert len(np.unique(calls[0][4])) == 41
