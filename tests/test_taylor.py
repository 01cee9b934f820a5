"""Closed-form Taylor-coefficient tests: profile extrema, thresholds,
residue oracles, and a second independent derivation of the flat-pair
formula."""

import math

import numpy as np
import pytest

from vortexwavelab.taylor import (PairConfig, a1_flat_pair, crossing_depth,
                                  f_reduced, g_profile, inf_a1_flat, inf_a1_flat_rows,
                                  interaction_sum, residue_pair_integral,
                                  residue_pair_integral_quad, stability_profile)


def test_pair_config_validation():
    with pytest.raises(ValueError):
        PairConfig(-1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        PairConfig(1.0, 2.0, 1.0)


def test_g_profile_extrema_exact():
    assert g_profile(1.0) == 0.25
    assert g_profile(-1.0) == 0.25
    assert g_profile(0.0) == -1.0
    assert g_profile(2.0) == pytest.approx(55.0 / 625.0, abs=1e-15)
    k = np.linspace(-100, 100, 400_001)
    gk = g_profile(k)
    assert gk.min() >= -1.0 and gk.max() <= 0.25


def test_f_reduced_trichotomy():
    assert f_reduced(4.0, 1.0) == 0.0
    assert f_reduced(4.0, -1.0) == 0.0
    assert f_reduced(8.0, 1.0) == -1.0
    k = np.linspace(-50, 50, 200_001)
    assert np.all(f_reduced(3.9, k) > 0)
    assert f_reduced(4.1, 1.0) < 0
    with pytest.raises(ValueError):
        f_reduced(-1.0, 0.0)


def test_a1_flat_pair_headline_value():
    cfg = PairConfig(1.0, -2.0, 2 * math.pi)
    # 1 + 4*10/625 + 21/250 exactly
    assert a1_flat_pair(0.0, cfg) == pytest.approx(1.148, abs=1e-13)
    assert a1_flat_pair(0.0, PairConfig(1.0, -2.0, 0.0)) == 1.0


def test_a1_flat_pair_even_and_decaying():
    rng = np.random.default_rng(21)
    for _ in range(5):
        cfg = PairConfig(rng.uniform(0.3, 2.0), -rng.uniform(1.5, 8.0),
                         rng.uniform(-20, 20))
        a = rng.uniform(0, 30, size=40)
        assert np.allclose(a1_flat_pair(a, cfg), a1_flat_pair(-a, cfg),
                           rtol=0, atol=1e-14)
        assert abs(a1_flat_pair(1e4, cfg) - 1.0) <= 1e-4


def test_g2_nonnegative_random():
    from vortexwavelab.taylor import _g2
    rng = np.random.default_rng(22)
    for _ in range(10):
        cfg = PairConfig(rng.uniform(0.1, 3.0), -rng.uniform(0.5, 10.0),
                         rng.uniform(-30, 30))
        a = rng.uniform(-50, 50, size=100)
        assert np.min(_g2(a, cfg)) >= 0.0


def test_a1_flat_pair_residue_route():
    # independent derivation: 1 + interaction_sum - sum_j (lam_j/2pi) *
    # Re{ 2/(a - z_j)^2 * (Qbar - zdot_j) } with zdot = lam i/(4 pi x);
    # must agree with the single closed formula to near machine level.
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = rng.uniform(0.4, 2.0)
        y = -rng.uniform(1.5, 6.0)
        lam = rng.uniform(-15, 15)
        cfg = PairConfig(x, y, lam)
        z = [complex(-x, y), complex(x, y)]
        lams = [lam, -lam]
        alpha = np.linspace(-30, 30, 401)
        qbar = sum(lj * 1j / (2 * math.pi) / (alpha - np.conj(zj))
                   for zj, lj in zip(z, lams))
        zdot = lam * 1j / (4 * math.pi * x)
        vortex_term = np.zeros_like(alpha)
        for zj, lj in zip(z, lams):
            vortex_term += (lj / (2 * math.pi)) * (
                2.0 / (alpha - zj) ** 2 * (qbar - zdot)).real
        other = 1.0 + interaction_sum(list(zip(z, lams)), alpha) - vortex_term
        assert np.max(np.abs(other - a1_flat_pair(alpha, cfg))) <= 1e-10


def test_inf_a1_flat_basic():
    val, _ = inf_a1_flat(PairConfig(1.0, -5.0, 0.0))
    assert val == 1.0
    # reduced-profile limit: x -> 0 proxy, gamma = 8 gives inf ~ 1 - 8/4 = -1
    y = -10.0
    lam = math.pi * math.sqrt(8.0) * abs(y) ** 1.5
    val, argmin = inf_a1_flat(PairConfig(1e-3, y, lam))
    assert val == pytest.approx(-1.0, abs=1e-2)
    assert abs(abs(argmin) - abs(y)) <= 0.2
    # deep pair at fixed strength approaches 1
    val, _ = inf_a1_flat(PairConfig(1.0, -50.0, 10.0))
    assert abs(val - 1.0) <= 50.0 / 50.0
    assert abs(val - 1.0) <= 1e-4          # actual size at this depth


def test_inf_matches_dense_scan():
    cfg = PairConfig(1.0, -3.0, 9.0)
    val, argmin = inf_a1_flat(cfg)
    a = np.linspace(-40, 40, 2_000_001)
    brute = a1_flat_pair(a, cfg)
    i = np.argmin(brute)
    assert val <= brute[i] + 1e-12
    assert abs(val - brute[i]) <= 1e-8


def _a1_mp(a, x, y, lam):
    """a1_flat_pair in mpmath, straight from the G1 + G2 formula."""
    import mpmath as mp
    r2 = x * x + y * y
    g1 = (lam ** 2 / mp.pi ** 2) * (3 * y * a ** 4 + r2 * y * (3 * x * x - y * y + 2 * a * a)) \
        / (a ** 4 + r2 * r2 + 2 * a * a * (y * y - x * x)) ** 2
    g2 = (lam ** 2 / (4 * mp.pi ** 2)) * (a * a * x * x + x ** 4 + 5 * x * x * y * y) \
        / (((a + x) ** 2 + y * y) * ((a - x) ** 2 + y * y) * r2 * abs(y))
    return 1 + g1 + g2


def test_inf_rows_match_a_40_digit_stationary_point():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2007)
    n = 30
    x = rng.uniform(1e-3, 5.0, n)
    y = rng.uniform(-50.0, -0.5, n)
    lam = rng.uniform(-200.0, 200.0, n)
    lam[::6] = 0.0
    inf, argmin = inf_a1_flat_rows(x, y, lam)
    assert inf.shape == argmin.shape == (n,)
    for j in range(n):
        assert (inf[j], argmin[j]) == inf_a1_flat(PairConfig(x[j], y[j], lam[j]))
        if lam[j] == 0.0:
            assert (inf[j], argmin[j]) == (1.0, 0.0)
            continue
        # start from a scan of alpha >= 0 (A1 is even), polish at 40 digits
        step = abs(y[j]) / 200.0
        a = np.arange(0.0, 10.0 * (abs(y[j]) + x[j]), step)
        start = a[np.argmin(a1_flat_pair(a, PairConfig(x[j], y[j], lam[j])))]
        with mp.workdps(40):
            xj, yj, lj = mp.mpf(x[j]), mp.mpf(y[j]), mp.mpf(lam[j])
            star = mp.findroot(lambda t: mp.diff(lambda s: _a1_mp(s, xj, yj, lj), t), start)
            value = float(_a1_mp(star, xj, yj, lj))
            star = float(star)
        assert argmin[j] >= 0.0
        assert abs(argmin[j] - star) <= 1e-9 * max(1.0, star)
        assert abs(inf[j] - value) <= 1e-12 * max(1.0, abs(value))


def test_crossing_depth():
    y0 = 9.0
    lam = 2 * math.pi * y0 ** 1.5
    assert crossing_depth(lam) == pytest.approx(9.0, rel=1e-14)
    assert crossing_depth(4 * math.pi) == pytest.approx(4.0 ** (1 / 3), rel=1e-14)
    assert crossing_depth(2 * math.pi) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        crossing_depth(0.0)


def test_stability_profile_bundle():
    prof = stability_profile(PairConfig(1.0, -10.0, 2 * math.pi * 10 ** 1.5))
    assert prof.gamma == pytest.approx(4.0, rel=1e-13)
    assert prof.crossing_depth == pytest.approx(10.0, rel=1e-13)
    assert prof.inf_value == pytest.approx(0.0, abs=2e-2)


def test_residue_pair_integral_values():
    assert residue_pair_integral(-1j, -1j) == pytest.approx(math.pi, rel=1e-15)
    assert residue_pair_integral(-2j, -1j) == pytest.approx(2 * math.pi / 3, rel=1e-15)
    # conjugating the integrand swaps the roles of w1 and w2:
    # value(w1, w2) = conj(value(w2, w1))
    w1, w2 = -1.5 - 2.0j, 0.5 - 1.0j
    lhs = residue_pair_integral(w1, w2)
    rhs = np.conj(residue_pair_integral(w2, w1))
    assert lhs == pytest.approx(rhs, rel=1e-14)
    with pytest.raises(ValueError):
        residue_pair_integral(1j, -1j)
    with pytest.raises(ValueError):
        residue_pair_integral_quad(-1j, 1j)


def test_residue_quadrature_agreement():
    got = residue_pair_integral_quad(-2j, -1j)
    assert abs(got - 2 * math.pi / 3) <= 1e-9


def test_interaction_sum_values():
    assert np.all(interaction_sum([], np.linspace(-5, 5, 11)) == 0.0)
    # single vortex at -i with lam = 2 pi: value at 0 is 1/2
    val = interaction_sum([(-1j, 2 * math.pi)], np.array([0.0]))
    assert val[0] == pytest.approx(0.5, rel=1e-14)
    # symmetric pair: real (asserted internally) and even
    pair = [(-1.0 - 2.0j, 5.0), (1.0 - 2.0j, -5.0)]
    a = np.linspace(0, 20, 101)
    assert np.allclose(interaction_sum(pair, a), interaction_sum(pair, -a),
                       rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        interaction_sum([(1j, 1.0)], a)
