import math

import numpy as np
import pytest

from parityflux import FilmState, dos, mu_from_xqp, occupation, xqp_from_mu
from parityflux.constants import KB_GHZ_PER_K
from parityflux.superconductor import (nups_integral, nups_integral_grid,
                                       paps_integral, paps_integral_grid,
                                       structure_factor_nups,
                                       structure_factor_paps)

GAP_L, GAP_H = 49.37, 54.23
GBAR = 0.5 * (GAP_L + GAP_H)


def film(gap, mu=0.0, t=0.05, dynes=1e-4):
    return FilmState(gap=gap, temperature=t, mu=mu, x_qp=0.0, volume=2100.0,
                     dynes=dynes)


# ---------------------------------------------------------------- DOS

def test_dos_closed_forms():
    assert dos(2.0, 1.0, 0.0) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
    assert dos(0.5, 1.0, 0.0) == 0.0
    assert dos(1e9, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_dos_near_edge_high_precision_oracle():
    import mpmath
    mpmath.mp.dps = 50
    gap, dynes = 1.0, 1e-5
    eps = 1.0 + 1e-6
    z = mpmath.mpc(eps, dynes * gap)
    expect = abs(mpmath.re(z / mpmath.sqrt(z * z - gap * gap)))
    assert dos(eps, gap, dynes) == pytest.approx(float(expect), rel=1e-10)


def test_dos_finite_everywhere_with_dynes():
    eps = np.linspace(0.0, 3.0, 1001)
    vals = dos(eps, 1.0, 1e-4)
    assert np.all(np.isfinite(vals))
    assert vals.max() < 1.0 / math.sqrt(1e-4)


# ---------------------------------------------------------------- occupation

def test_occupation_midpoint_and_tail():
    assert occupation(3.0, 0.1, 3.0) == 0.5
    kt = KB_GHZ_PER_K * 0.1
    val = occupation(3.0 + 40 * kt, 0.1, 3.0)
    assert val == pytest.approx(math.exp(-40.0), rel=1e-10)
    # no overflow far in the tail
    assert occupation(1e6, 0.01, 0.0) == 0.0


def test_occupation_gap_edge_value():
    # f(Delta_L) at mu = 0, 50 mK ~ e^{-47.4}
    x = GAP_L / (KB_GHZ_PER_K * 0.05)
    assert occupation(GAP_L, 0.05, 0.0) == pytest.approx(math.exp(-x), rel=1e-8)
    assert x == pytest.approx(47.4, abs=0.1)


# ---------------------------------------------------------------- densities

def test_xqp_boltzmann_asymptote():
    kt = KB_GHZ_PER_K * 0.05
    expect = math.sqrt(2 * math.pi * kt / GAP_L) * math.exp(-GAP_L / kt)
    assert xqp_from_mu(GAP_L, 0.05, 0.0, dynes=0.0) == pytest.approx(expect, rel=0.01)


def test_xqp_zero_sentinel():
    assert mu_from_xqp(GAP_L, 0.05, 0.0) == -math.inf
    assert xqp_from_mu(GAP_L, 0.05, -math.inf) == 0.0


def test_xqp_roundtrip_device_density():
    mu = mu_from_xqp(GAP_L, 0.05, 6.2e-9, dynes=1e-4)
    back = xqp_from_mu(GAP_L, 0.05, mu, dynes=1e-4)
    assert back == pytest.approx(6.2e-9, rel=1e-8)
    assert mu < GAP_L


def test_mu_from_xqp_degenerate_error():
    with pytest.raises(ValueError, match="kT of the gap"):
        mu_from_xqp(GAP_L, 0.05, 0.5)


def _mu_reference(gap, t, x_qp, dynes, rtol=1e-10):
    """Root of xqp_from_mu(mu) = x_qp by brentq over direct quadratures."""
    from scipy.optimize import brentq

    kt = KB_GHZ_PER_K * t
    mu_est = kt * math.log(x_qp / xqp_from_mu(gap, t, 0.0, dynes, rtol))
    lo, hi = mu_est - 4.0 * kt, min(mu_est + 4.0 * kt, gap - 1e-9)
    return brentq(lambda mu: xqp_from_mu(gap, t, mu, dynes, rtol) - x_qp,
                  lo, hi, xtol=1e-14, rtol=1e-13)


@pytest.mark.parametrize("t", [0.02, 0.05, 0.12, 0.2, 0.26])
@pytest.mark.parametrize("gap", [GAP_L, GAP_H])
def test_mu_from_xqp_matches_direct_quadrature_root(t, gap):
    kt = KB_GHZ_PER_K * t
    for mu in np.linspace(-5.0 * kt, gap - 2.05 * kt, 6):
        x = xqp_from_mu(gap, t, mu, 1e-4)
        got = mu_from_xqp(gap, t, x, 1e-4)
        assert abs(got - _mu_reference(gap, t, x, 1e-4)) <= 1e-10 * kt


@pytest.mark.parametrize("t", [0.05, 0.26])
def test_mu_from_xqp_degenerate_threshold_unchanged(t):
    # the error fires where the Boltzmann estimate from the direct thermal
    # density reaches gap - 2 kT
    kt = KB_GHZ_PER_K * t
    x_crit = (xqp_from_mu(GAP_L, t, 0.0, 1e-4)
              * math.exp((GAP_L - 2.0 * kt) / kt))
    mu = mu_from_xqp(GAP_L, t, x_crit * (1 - 1e-6), 1e-4)
    # Fermi occupation puts the root above the Boltzmann estimate
    assert GAP_L - 2.0 * kt < mu < GAP_L - kt
    with pytest.raises(ValueError, match="kT of the gap"):
        mu_from_xqp(GAP_L, t, x_crit * (1 + 1e-6), 1e-4)


def test_mu_from_xqp_one_quadrature_per_call(monkeypatch):
    import parityflux.superconductor as sc

    calls = []
    original = sc.adaptive_quad

    def counting(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(sc, "adaptive_quad", counting)
    for x in (1e-12, 6.2e-9, 1e-6):
        before = len(calls)
        mu_from_xqp(GAP_L, 0.05, x, 1e-4)
        assert len(calls) - before == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_density_and_mu_rejected(bad):
    with pytest.raises(ValueError, match="x_qp must be finite"):
        mu_from_xqp(GAP_L, 0.05, bad, 1e-4)
    with pytest.raises(ValueError, match="mu must be finite"):
        xqp_from_mu(GAP_L, 0.05, bad, 1e-4)


# ---------------------------------------------------------------- NUPS

def test_nups_vanishes_without_qps():
    out = nups_integral(0.0, film(GAP_L, mu=-math.inf), film(GAP_H))
    assert np.all(out == 0.0)
    # T -> 0 at mu = 0: occupation underflows to zero
    cold = nups_integral(-5.0, film(GAP_L, t=0.001), film(GAP_H, t=0.001))
    assert np.all(cold < 1e-200)


def test_nups_detailed_balance_grid():
    # assembled excitation/relaxation ratio = exp(-h f_q / k T) for mu_l = mu_r
    for t in (0.03, 0.05, 0.1):
        for dd in (0.0, 4.86):
            gl, gh = GBAR - dd / 2, GBAR + dd / 2
            for fq in (3.8, 5.06):
                for mu in (0.0, 10.0):
                    l, r = film(gl, mu, t), film(gh, mu, t)
                    exc = (nups_integral(+fq, l, r, rtol=1e-9, mean_gap=GBAR)
                           + nups_integral(+fq, r, l, rtol=1e-9, mean_gap=GBAR))
                    rel = (nups_integral(-fq, l, r, rtol=1e-9, mean_gap=GBAR)
                           + nups_integral(-fq, r, l, rtol=1e-9, mean_gap=GBAR))
                    expect = math.exp(-fq / (KB_GHZ_PER_K * t))
                    assert exc[0] / rel[0] == pytest.approx(expect, rel=1e-4)
                    assert exc[1] / rel[1] == pytest.approx(expect, rel=1e-4)


def test_nups_resonance_enhancement():
    # relaxing low->high channel at h f_q = dDelta vs 0.5 GHz off resonance;
    # thermal averaging softens the log divergence, so the computed factor is
    # ~2.7 (above) / ~4.4 (below), monotone toward resonance
    dd = 4.86
    gl, gh = GBAR - dd / 2, GBAR + dd / 2
    l, r = film(gl, mu=30.0), film(gh, mu=-math.inf)
    on = nups_integral(-dd, l, r, rtol=1e-9, pauli_blocking=False, mean_gap=GBAR)
    above = nups_integral(-(dd + 0.5), l, r, rtol=1e-9, pauli_blocking=False,
                          mean_gap=GBAR)
    below = nups_integral(-(dd - 0.5), l, r, rtol=1e-9, pauli_blocking=False,
                          mean_gap=GBAR)
    assert on[0] / above[0] == pytest.approx(2.707, rel=0.02)
    assert on[0] / below[0] == pytest.approx(4.389, rel=0.02)
    # enhancement grows monotonically approaching the resonance
    nearer = nups_integral(-(dd + 0.2), l, r, rtol=1e-9, pauli_blocking=False,
                           mean_gap=GBAR)
    assert above[0] < nearer[0] < on[0]


def test_nups_monotone_in_mu():
    l0 = film(GAP_L, mu=20.0)
    vals = []
    for mu in (20.0, 25.0, 30.0):
        out = nups_integral(-5.06, film(GAP_L, mu=mu), film(GAP_H))
        vals.append(out)
    assert vals[0][0] < vals[1][0] < vals[2][0]
    assert vals[0][1] < vals[1][1] < vals[2][1]


def test_nups_dynes_limit_off_resonance():
    # off resonance the structure factors converge as dynes -> 0.  The
    # occupied film's own gap edge is thermally sampled, so the residual
    # sensitivity scales like sqrt(dynes) (~5% at 1e-4) rather than being
    # negligible; assert the magnitude and the shrinking trend.
    dd = 4.86
    gl, gh = GBAR - dd / 2, GBAR + dd / 2
    fq = dd + 0.6
    a = nups_integral(-fq, film(gl, 30.0, dynes=1e-4), film(gh, dynes=1e-4),
                      rtol=1e-10, mean_gap=GBAR)
    b = nups_integral(-fq, film(gl, 30.0, dynes=1e-5), film(gh, dynes=1e-5),
                      rtol=1e-10, mean_gap=GBAR)
    c = nups_integral(-fq, film(gl, 30.0, dynes=1e-6), film(gh, dynes=1e-6),
                      rtol=1e-10, mean_gap=GBAR)
    d45 = abs(a[0] - b[0]) / b[0]
    d56 = abs(b[0] - c[0]) / c[0]
    assert d45 < 0.06
    assert d56 < 0.5 * d45


def test_nups_boltzmann_shortcut_matches_fermi():
    # (gap - mu)/kT ~ 18.6 GHz / 1.04 GHz > 17; shortcut must agree to 1e-6
    l, r = film(GAP_L, mu=28.0), film(GAP_H, mu=-math.inf)
    full = nups_integral(-5.06, l, r, rtol=1e-10, boltzmann=False,
                         pauli_blocking=True, mean_gap=GBAR)
    fast = nups_integral(-5.06, l, r, rtol=1e-10, boltzmann=True,
                         mean_gap=GBAR)
    assert fast[0] == pytest.approx(full[0], rel=1e-6)
    assert fast[1] == pytest.approx(full[1], rel=1e-6)


def _nups_reference_oracle(omega, occ, emp, n=200000):
    """Midpoint rule at fixed very high resolution in u on [0, umax], with
    eps = edge cosh(u) + shift from the binding gap edge (Fermi occupations,
    Pauli blocking of the empty film)."""
    t = occ.temperature
    if occ.gap >= emp.gap + omega:
        edge, shift = occ.gap, 0.0
    else:
        edge, shift = emp.gap, omega
    umax = math.acosh((edge + 40.0 * KB_GHZ_PER_K * t) / edge)
    u = (np.arange(n) + 0.5) * umax / n
    eps = edge * np.cosh(u) + shift
    ef = eps - omega
    w = (dos(eps, occ.gap, occ.dynes) * dos(ef, emp.gap, emp.dynes)
         * occupation(eps, t, occ.mu) * (1.0 - occupation(ef, t, emp.mu)))
    base = w * edge * np.sinh(u) * (umax / n) / GBAR
    coh = occ.gap * emp.gap / (eps * ef)
    return np.array([np.sum(base * (1 + coh)), np.sum(base * (1 - coh))])


@pytest.mark.parametrize("omega", [-5.06, -3.8, 0.0, 3.8])
def test_nups_refinement_oracle(omega):
    # occupied-edge (omega <= 0) and shifted empty-edge (omega > 0) domains
    l, r = film(GAP_L, mu=40.0, t=0.1), film(GAP_H, mu=35.0, t=0.1)
    for occ, emp in ((l, r), (r, l)):
        mine = nups_integral(omega, occ, emp, rtol=1e-9, mean_gap=GBAR)
        ref = _nups_reference_oracle(omega, occ, emp)
        assert mine[0] == pytest.approx(ref[0], rel=1e-7)
        assert mine[1] == pytest.approx(ref[1], rel=1e-7)


def test_nups_grid_matches_scalar():
    l, r = film(GAP_L, mu=25.0), film(GAP_H, mu=20.0)
    omegas = np.array([-5.06, -1.0, 0.0, 2.2, 5.06])
    grid = nups_integral_grid(omegas, l, r, rtol=1e-9, mean_gap=GBAR)
    for k, om in enumerate(omegas):
        one = nups_integral(float(om), l, r, rtol=1e-10, mean_gap=GBAR)
        assert grid[k, 0] == pytest.approx(one[0], rel=1e-6)
        assert grid[k, 1] == pytest.approx(one[1], rel=1e-6)


def test_structure_factor_directional_api():
    l, r = film(GAP_L, mu=25.0), film(GAP_H, mu=20.0)
    s = structure_factor_nups(-5.0, l, r, +1, "lr", mean_gap=GBAR)
    pair = nups_integral(-5.0, l, r, mean_gap=GBAR)
    assert s == pytest.approx(pair[0], rel=1e-12)
    s_rl = structure_factor_nups(-5.0, l, r, -1, "rl", mean_gap=GBAR)
    pair_rl = nups_integral(-5.0, r, l, mean_gap=GBAR)
    assert s_rl == pytest.approx(pair_rl[1], rel=1e-12)
    with pytest.raises(ValueError):
        structure_factor_nups(0.0, l, r, 1, "xy")


# ---------------------------------------------------------------- PAPS

def test_paps_below_threshold_zero():
    l, r = film(GAP_L), film(GAP_H)
    assert np.all(paps_integral(0.0, GAP_L + GAP_H - 1.0, l, r) == 0.0)
    assert structure_factor_paps(2.0, GAP_L + GAP_H + 1.0, l, r, +1) == 0.0


def test_paps_pauli_blocking_negligible_when_dilute():
    l = film(GAP_L, mu=mu_from_xqp(GAP_L, 0.05, 1e-9, 1e-4))
    r = film(GAP_H, mu=-math.inf)
    blocked = paps_integral(0.0, 112.0, l, r, rtol=1e-9, pauli_blocking=True)
    free = paps_integral(0.0, 112.0, l, r, rtol=1e-9, pauli_blocking=False)
    assert blocked[0] == pytest.approx(free[0], rel=1e-6)
    assert blocked[1] == pytest.approx(free[1], rel=1e-6)


def _paps_reference_oracle(omega, f_p, gap_l, gap_r, dynes, n=20000):
    """Midpoint-split cosh substitution at fixed very high resolution."""
    lo, hi = gap_l, f_p - omega - gap_r
    mid = 0.5 * (lo + hi)
    total = np.zeros(2)
    for from_left in (True, False):
        if from_left:
            umax = math.acosh(mid / gap_l)
            u = (np.arange(n) + 0.5) * umax / n
            eps = gap_l * np.cosh(u)
            jac = gap_l * np.sinh(u) * umax / n
        else:
            umax = math.acosh((f_p - omega - mid) / gap_r)
            u = (np.arange(n) + 0.5) * umax / n
            e2 = gap_r * np.cosh(u)
            eps = f_p - omega - e2
            jac = gap_r * np.sinh(u) * umax / n
        e2 = f_p - omega - eps
        base = dos(eps, gap_l, dynes) * dos(e2, gap_r, dynes) * jac / GBAR
        coh = gap_l * gap_r / (eps * e2)
        total += np.array([np.sum(base * (1 + coh)), np.sum(base * (1 - coh))])
    return total


def test_paps_refinement_oracle():
    l, r = film(GAP_L), film(GAP_H)
    mine = paps_integral(0.0, 112.0, l, r, rtol=1e-9, pauli_blocking=False,
                         mean_gap=GBAR)
    ref = _paps_reference_oracle(0.0, 112.0, GAP_L, GAP_H, 1e-4, n=200000)
    assert mine[0] == pytest.approx(ref[0], rel=1e-7)
    assert mine[1] == pytest.approx(ref[1], rel=1e-7)


def test_paps_gap_swap_symmetry():
    l, r = film(GAP_L), film(GAP_H)
    ab = paps_integral(0.0, 112.0, l, r, rtol=1e-9, pauli_blocking=False,
                       mean_gap=GBAR)
    ba = paps_integral(0.0, 112.0, r, l, rtol=1e-9, pauli_blocking=False,
                       mean_gap=GBAR)
    assert ab[0] == pytest.approx(ba[0], rel=1e-8)
    assert ab[1] == pytest.approx(ba[1], rel=1e-8)


def test_paps_grid_matches_scalar():
    l, r = film(GAP_L), film(GAP_H)
    omegas = np.array([-5.0, 0.0, 5.0, 20.0])
    grid = paps_integral_grid(omegas, 112.0, l, r, rtol=1e-9, mean_gap=GBAR)
    for k, om in enumerate(omegas):
        one = paps_integral(float(om), 112.0, l, r, rtol=1e-10, mean_gap=GBAR)
        assert grid[k, 0] == pytest.approx(one[0], rel=1e-6, abs=1e-14)
        assert grid[k, 1] == pytest.approx(one[1], rel=1e-6, abs=1e-14)
    # sub-threshold member of the batch stays zero
    out = paps_integral_grid(np.array([0.0, 20.0]), GAP_L + GAP_H + 5.0, l, r)
    assert np.all(out[1] == 0.0) and np.all(out[0] > 0.0)


def test_film_state_constructors():
    f = FilmState.from_xqp(GAP_L, 0.05, 6.2e-9, volume=2100.0)
    assert f.x_qp == 6.2e-9
    g = FilmState.from_mu(GAP_L, 0.05, f.mu, volume=2100.0)
    assert g.x_qp == pytest.approx(6.2e-9, rel=1e-8)
    with pytest.raises(ValueError):
        FilmState(gap=GAP_L, temperature=0.05, mu=GAP_L + 1, x_qp=0.0, volume=1.0)
    with pytest.raises(ValueError):
        FilmState(gap=GAP_L, temperature=0.05, mu=0.0, x_qp=-1.0, volume=1.0)
    # NaN fails every range check, so it is rejected by name; mu may be -inf
    assert FilmState(gap=GAP_L, temperature=0.05, mu=-math.inf, x_qp=0.0,
                     volume=1.0).mu == -math.inf
    for name in ("gap", "temperature", "mu", "x_qp", "volume", "dynes"):
        fields = dict(gap=GAP_L, temperature=0.05, mu=0.0, x_qp=0.0,
                      volume=1.0, dynes=1e-4)
        fields[name] = math.nan
        with pytest.raises(ValueError, match="%s must be finite" % name):
            FilmState(**fields)
