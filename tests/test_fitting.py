import math

import numpy as np
import pytest

from parityflux import DeviceParams, DynamicsParams, PhotonDrive
from parityflux.fitting import (DegenerateFitError, FitDataset, FitProblem,
                                GammaModel, LampTheta, band_power, fit, fit_lamp,
                                fit_thermal, lamp_model, lamp_temperature,
                                lm_least_squares, pseudo_r2,
                                thermal_nups_rate)
from parityflux.steady_state import gamma_curve


# ---------------------------------------------------------------- LM core

def _quad_residual(scale=1.0):
    xdata = np.linspace(0, 1, 25)
    truth = np.array([2.0, 0.3])
    y = truth[0] * np.exp(-truth[1] * xdata * 5)

    def resid(p):
        return (p[0] * np.exp(-p[1] * xdata * 5) - y) / scale

    return resid, truth


def test_lm_converges_and_cost_monotone():
    resid, truth = _quad_residual()
    res = lm_least_squares(resid, np.array([1.0, 1.0]),
                           np.array([1e-3, 1e-3]), np.array([10.0, 10.0]),
                           np.array([True, True]))
    assert np.allclose(res.x, truth, rtol=1e-6)
    assert all(b <= a + 1e-15 for a, b in zip(res.cost_history,
                                              res.cost_history[1:]))
    assert res.cost < 1e-18


def test_lm_zero_noise_truth_init_is_fixed_point():
    resid, truth = _quad_residual()
    res = lm_least_squares(resid, truth.copy(),
                           np.array([1e-3, 1e-3]), np.array([10.0, 10.0]),
                           np.array([True, True]))
    assert res.iterations <= 2
    assert res.cost == pytest.approx(0.0, abs=1e-24)


def test_lm_sigma_rescale_invariance():
    resid1, _ = _quad_residual(scale=1.0)
    resid3, _ = _quad_residual(scale=3.0)
    x0 = np.array([1.0, 1.0])
    lo, hi = np.array([1e-3, 1e-3]), np.array([10.0, 10.0])
    mask = np.array([True, True])
    r1 = lm_least_squares(resid1, x0, lo, hi, mask)
    r3 = lm_least_squares(resid3, x0, lo, hi, mask)
    assert np.allclose(r1.x, r3.x, rtol=1e-8)
    # uncertainties from the scaled normal matrix rescale accordingly: with
    # zero residual the cost-based scale keeps them both ~0; perturb instead
    rng = np.random.default_rng(5)
    xdata = np.linspace(0, 1, 40)
    y = 2.0 * np.exp(-1.5 * xdata) * (1 + 0.02 * rng.standard_normal(40))

    def make(scale):
        def resid(p):
            return (p[0] * np.exp(-p[1] * xdata) - y) / scale
        return resid

    a = lm_least_squares(make(1.0), np.array([1.0, 1.0]), lo, hi, mask)
    b = lm_least_squares(make(2.0), np.array([1.0, 1.0]), lo, hi, mask)
    assert np.allclose(a.x, b.x, rtol=1e-6)
    assert np.allclose(np.diag(a.cov), np.diag(b.cov), rtol=1e-4)


def test_lm_jacobian_check_smooth_problem():
    # forward vs central at 2x step agree to ~1e-3 on a smooth residual
    resid, truth = _quad_residual()
    res = lm_least_squares(resid, truth * 1.05,
                           np.array([1e-3, 1e-3]), np.array([10.0, 10.0]),
                           np.array([True, True]))
    assert res.jacobian_check < 1e-3


def test_lm_termination_names_each_exit(monkeypatch):
    import parityflux.fitting as fitting

    resid, truth = _quad_residual()
    lo, hi = np.array([1e-3, 1e-3]), np.array([10.0, 10.0])
    mask = np.array([True, True])
    res = lm_least_squares(resid, np.array([1.0, 1.0]), lo, hi, mask)
    assert res.termination in ("ftol", "xtol")
    # a kink minimum with a nonzero residual: every trial step costs more
    res = lm_least_squares(lambda p: np.array([1.0 + abs(p[0] - 0.5)]),
                           np.array([0.5]), np.array([0.0]), np.array([1.0]),
                           np.array([False]))
    assert res.termination == "no_improving_step" and res.iterations == 1
    monkeypatch.setattr(fitting, "_LM_MAX_ITER", 1)
    res = lm_least_squares(resid, np.array([1.0, 1.0]), lo, hi, mask)
    assert res.termination == "max_iter" and res.iterations == 1


def test_lm_too_few_residuals_names_both_counts():
    calls = []

    def resid(p):
        calls.append(p)
        return np.array([p[0] - 1.0])

    with pytest.raises(ValueError, match=r"1 residuals for 2 parameters "
                                         r"\(a, b\)"):
        lm_least_squares(resid, np.array([2.0, 2.0]), np.array([0.0, 0.0]),
                         np.array([5.0, 5.0]), np.array([False, False]),
                         names=["a", "b"])
    # only the evaluation at the start that gives the residual count
    assert len(calls) == 1


def test_lm_nan_start_is_outside_bounds():
    resid, _ = _quad_residual()
    box = (np.array([1e-3, 1e-3]), np.array([10.0, 10.0]),
           np.array([True, True]))
    with pytest.raises(ValueError, match="outside bounds"):
        lm_least_squares(resid, np.array([np.nan, 1.0]), *box)
    # a start value outside its box is named
    with pytest.raises(ValueError, match=r"initial b = 50 lies outside "
                                         r"bounds \[0\.001, 10\]"):
        lm_least_squares(resid, np.array([1.0, 50.0]), *box,
                         names=["a", "b"])


def test_model_photon_modes_are_photon_drives():
    phi = np.linspace(0.0, 0.5, 5)
    ones = np.ones(5)

    def evaluate(**fixed):
        problem = FitProblem(
            datasets=[FitDataset("syn", phi, ones, ones)], free=("s",),
            bindings={"s": "shared"},
            fixed=dict(dict(f_P=0.0, n_bar=0.0, g_other=8e-8,
                            gap_diff=4.844), **fixed))
        return GammaModel(problem, DeviceParams()).evaluate([11.0])[0]

    # an empty mode needs no frequency and adds nothing
    curve = gamma_curve(DeviceParams(), DynamicsParams(s=11.0, g_other=8e-8),
                        None, phi)
    assert evaluate() == pytest.approx([cp.gamma_total for cp in curve],
                                       rel=1e-6)
    with pytest.raises(ValueError, match="n_bar must be nonnegative"):
        evaluate(f_P=110.0, n_bar=-1e-3)
    with pytest.raises(ValueError, match="f_p must be positive"):
        evaluate(n_bar=2e-3)


def test_lm_degenerate_parameters_named():
    xdata = np.linspace(0, 1, 30)
    y = np.exp(-xdata)

    def resid(p):
        # p0 and p1 only enter through their product: exactly collinear
        return p[0] * p[1] * np.exp(-xdata) - y

    with pytest.raises(DegenerateFitError) as err:
        lm_least_squares(resid, np.array([1.0, 1.0]), np.array([1e-3, 1e-3]),
                         np.array([10.0, 10.0]), np.array([True, True]),
                         names=["amp_a", "amp_b"])
    assert set(err.value.names) == {"amp_a", "amp_b"}


# ---------------------------------------------------------------- model fit

def _synthetic_problem(device_early, seed, s_truth, noise=0.05, points=17):
    phi = np.linspace(0.0, 0.5, points)
    dyn = DynamicsParams(s=s_truth, r=1 / 120e-9, g_other=0.0)
    curve = gamma_curve(device_early, dyn, PhotonDrive(112.0, 1.9e-3), phi)
    gam = np.array([cp.gamma_total for cp in curve])
    rng = np.random.default_rng(seed)
    noisy = gam * (1 + noise * rng.standard_normal(gam.size))
    return FitDataset("syn", phi, noisy, noise * gam)


def test_single_dataset_roundtrip(device_early):
    from parityflux.steady_state import solve_trapping_for_density
    s_truth = solve_trapping_for_density(device_early, 0.0,
                                         PhotonDrive(112.0, 1.9e-3), 6.2e-9)
    ds = _synthetic_problem(device_early, 11, s_truth)
    problem = FitProblem(
        datasets=[ds], free=("f_P", "n_bar", "s", "gap_diff"),
        bindings={"f_P": "per", "n_bar": "per", "s": "shared",
                  "gap_diff": "shared"},
        fixed={"g_other": 0.0})
    res = fit(problem, dict(f_P=125.0, n_bar=1.2e-3, s=6.0, gap_diff=4.9),
              params=device_early)
    assert abs(res.values["f_P[syn]"] - 112.0) < 5.0
    assert abs(res.values["n_bar[syn]"] / 1.9e-3 - 1) < 0.15
    assert abs(res.values["gap_diff[shared]"] - 4.860) < 0.020
    assert res.pseudo_r2 > 0.9
    assert all(u >= 0 for u in res.uncertainties.values())
    cov = res.covariance
    assert np.allclose(cov, cov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-9 * np.abs(cov).max())


def test_fit_determinism(device_early):
    ds = _synthetic_problem(device_early, 3, 3.0, points=9)
    problem = FitProblem(
        datasets=[ds], free=("f_P", "n_bar"),
        bindings={"f_P": "per", "n_bar": "per"},
        fixed={"g_other": 0.0, "s": 3.0, "gap_diff": 4.860})
    init = dict(f_P=120.0, n_bar=1e-3)
    a = fit(problem, init, params=device_early)
    b = fit(problem, init, params=device_early)
    assert a.values == b.values


def test_fit_degeneracy_s_g_other(device_early):
    # the documented single-dataset degeneracy: with no photon generation,
    # negligible recombination and symmetric gaps (no pumping imbalance) the
    # model depends on (s, g_other) only through their ratio
    sym = device_early.with_(gap_diff=1e-9)
    phi = np.linspace(0.0, 0.5, 9)
    dyn = DynamicsParams(s=11.0, r=1e-9, g_other=8e-8)
    curve = gamma_curve(sym, dyn, PhotonDrive(109.0, 0.0), phi)
    gam = np.array([cp.gamma_total for cp in curve])
    ds = FitDataset("bg", phi, gam, 0.05 * gam)
    problem = FitProblem(
        datasets=[ds], free=("s", "g_other"),
        bindings={"s": "shared", "g_other": "shared"},
        fixed={"f_P": 109.0, "n_bar": 0.0, "gap_diff": 1e-9})
    with pytest.raises(DegenerateFitError) as err:
        fit(problem, dict(s=11.0, g_other=8e-8), params=sym, r=1e-9)
    assert {"s[shared]", "g_other[shared]"} <= set(err.value.names)


def test_duplicate_dataset_labels_rejected():
    phi = np.linspace(0.0, 0.5, 3)
    ones = np.ones(3)
    datasets = [FitDataset("syn", phi, ones, ones),
                FitDataset("syn", phi, ones, ones)]
    with pytest.raises(ValueError, match="'syn' is used more than once"):
        FitProblem(datasets=datasets, free=("n_bar",),
                   bindings={"n_bar": "per"})


def test_model_memo_keyed_on_the_flux_grid(device, monkeypatch):
    import parityflux.fitting as fitting
    calls = {"flux_point": [], "dilute_tables_grid": [], "paps_unit_grid": []}

    def counting(name):
        original = getattr(fitting, name)

        def wrapped(params, *a, **kw):
            calls[name].append((params.gap_diff,) + a[1:])
            return original(params, *a, **kw)
        return wrapped

    for name in calls:
        monkeypatch.setattr(fitting, name, counting(name))
    phi = np.linspace(0.0, 0.5, 5)
    ones = np.ones(5)
    problem = FitProblem(
        datasets=[FitDataset("bg", phi, ones, ones),
                  FitDataset("lamp", phi, ones, ones)],
        free=("f_P", "n_bar", "gap_diff"),
        bindings={"f_P": "per", "n_bar": "per", "gap_diff": "shared"},
        fixed={"s": 11.0, "g_other": 8e-8}, lamp_mode=True)
    model = fitting.GammaModel(problem, device)
    # two datasets on one grid: its flux points are diagonalized once
    assert len(calls["flux_point"]) == phi.size
    for vector in ([109.0, 125.0, 2.1e-3, 12.8e-3, 4.844],
                   [109.0, 125.0, 3e-3, 9e-3, 4.844],
                   [109.0, 125.0, 2.1e-3, 12.8e-3, 4.85]):
        model.evaluate(vector)
    # one table per gap_diff, one unit PAPS grid per (gap_diff, f_P); the
    # lamp dataset's background mode reuses the background dataset's grid
    assert len(calls["dilute_tables_grid"]) == 2
    assert sorted(calls["paps_unit_grid"]) == [
        (4.844, 109.0, fitting._FIT_RTOL), (4.844, 125.0, fitting._FIT_RTOL),
        (4.85, 109.0, fitting._FIT_RTOL), (4.85, 125.0, fitting._FIT_RTOL)]


def test_pseudo_r2_limits():
    phi = np.linspace(0, 1, 10)
    gam = 100 + 30 * phi
    ds = FitDataset("d", phi, gam, np.ones_like(gam))
    assert pseudo_r2([gam.copy()], [ds]) == pytest.approx(1.0)
    assert pseudo_r2([np.full_like(gam, gam.mean())], [ds]) == pytest.approx(0.0)
    flat = FitDataset("flat", phi, np.full_like(gam, 5.0), np.ones_like(gam))
    with pytest.raises(ValueError, match="zero variance"):
        pseudo_r2([np.full_like(gam, 5.0)], [flat])


# ---------------------------------------------------------------- thermal

def _thermal_data(device, gap_mean, offset, temps):
    p = device.with_(gap_mean=gap_mean)
    return [(t, offset + thermal_nups_rate(p, t)) for t in temps]


def test_thermal_fit_recovers_gap(device):
    temps = np.linspace(0.03, 0.21, 10)
    data = _thermal_data(device, 51.8, 300.0, temps)
    gap, offset, res = fit_thermal(data, device, mode="paps_offset")
    assert abs(gap - 51.8) < 0.5
    assert offset == pytest.approx(300.0, rel=0.05)


def test_thermal_fit_background_mode_same_gap(device):
    temps = np.linspace(0.03, 0.21, 10)
    data = _thermal_data(device, 51.8, 300.0, temps)
    gap, x_bg, _ = fit_thermal(data, device, mode="qp_background")
    assert abs(gap - 51.8) < 0.5
    assert x_bg > 0


def test_thermal_onset_temperature(device):
    # modeled rate rises steeply only above ~125-150 mK
    g50 = thermal_nups_rate(device, 0.050)
    g100 = thermal_nups_rate(device, 0.100)
    g150 = thermal_nups_rate(device, 0.150)
    g175 = thermal_nups_rate(device, 0.175)
    assert g100 < 20.0
    assert g150 > 10 * g100
    assert g175 > 5 * g150


def test_thermal_fit_flat_data_degenerate(device):
    temps = np.linspace(0.02, 0.05, 8)  # far below activation
    data = [(t, 300.0) for t in temps]
    with pytest.raises(DegenerateFitError):
        fit_thermal(data, device, mode="paps_offset")


# ---------------------------------------------------------------- lamp

def test_band_power_riemann_oracle():
    t = 2.5
    mine = band_power(t, (100.0, 300.0), "3d", rtol=1e-10)
    nu = np.linspace(100.0, 300.0, 1_000_001)
    riemann = np.trapezoid(nu**3 / np.expm1(nu / (20.836619 * t)), nu)
    assert mine == pytest.approx(riemann, rel=1e-6)
    mine1 = band_power(t, (100.0, 300.0), "1d", rtol=1e-10)
    riemann1 = np.trapezoid(nu / np.expm1(nu / (20.836619 * t)), nu)
    assert mine1 == pytest.approx(riemann1, rel=1e-6)


def test_band_power_quadratic_in_temperature():
    # on 1-5 K the 3d band power is ~quadratic in (T - 1 K)
    temps = np.linspace(1.0, 5.0, 17)
    bp = np.array([band_power(t) for t in temps])
    coef = np.polyfit(temps - 1.0, bp, 2)
    fitq = np.polyval(coef, temps - 1.0)
    assert np.max(np.abs(fitq - bp)) / bp.max() < 0.05


def test_lamp_model_limits_and_linearity():
    theta = LampTheta(a=2.0, b=40.0)
    # P = 0: band power at 30 mK is negligible, Gamma ~ b
    assert lamp_model(0.0, theta) == pytest.approx(theta.b, rel=1e-6)
    with pytest.raises(ValueError):
        lamp_model(-1.0, theta)
    powers = np.linspace(1.0, 12.6, 25)
    gam = lamp_model(powers, theta)
    coef = np.polyfit(powers, gam, 1)
    resid = gam - np.polyval(coef, powers)
    assert np.max(np.abs(resid)) / (gam.max() - gam.min()) < 0.05


def test_fit_lamp_roundtrip():
    theta = LampTheta(k_agg=3.0, t_mc=0.03, a=3.0e-5, b=35.0)
    powers = np.array([0.0, 0.5, 1.4, 2.8, 5.6, 8.0, 12.6])
    rng = np.random.default_rng(4)
    gam = lamp_model(powers, theta) * (1 + 0.03 * rng.standard_normal(powers.size))
    fitted, res = fit_lamp(list(zip(powers, gam)))
    assert fitted.b == pytest.approx(theta.b, rel=0.15)
    model_check = lamp_model(powers, fitted)
    assert np.allclose(model_check, gam, rtol=0.12)
    assert lamp_temperature(12.6, fitted) == pytest.approx(
        math.sqrt(fitted.k_agg * 12.6 + 0.03**2), rel=1e-12)
