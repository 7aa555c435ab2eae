"""Damped least-squares fitting of parity-rate datasets.

The main entry point fits one or more measured Gamma(Phi) datasets to the
self-consistent rate model with shared or per-dataset parameter bindings
(free names among f_P, n_bar, s, g_other, gap_diff).  A small
Levenberg-Marquardt core with multiplicative damping is used everywhere;
positive scale-spanning parameters (n_bar, s, g_other) are fitted in log
space.  Quadrature tolerances are tightened while fitting so the
finite-difference Jacobians stay smooth.

Also here: the pseudo-R^2 multi-dataset goodness-of-fit metric, the
thermal-activation fit that extracts the mean superconducting gap from a
temperature sweep, and the lamp-power model (blackbody band power against a
heater temperature following a square-root-of-power law).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import thermal_energy_ghz
from .device import DeviceParams, require_finite
from .quadrature import adaptive_quad
from .rates import (DEFAULT_NG, dilute_tables_grid, flux_point,
                    nups_rates, paps_unit_grid, rho_weighted)
from .steady_state import DynamicsParams, balance_curve
# unused here; perfbench/tracer.py checks that fitting.solve_balance resolves
from .steady_state import solve_balance  # noqa: F401
from .superconductor import FilmState, mu_from_xqp, xqp_from_mu

FIT_PARAMETERS = ("f_P", "n_bar", "s", "g_other", "gap_diff")
_LOG_SCALED = {"n_bar", "s", "g_other"}
# quadrature tolerance inside fit loops (smooth finite differences)
_FIT_RTOL = 1e-9
# Levenberg-Marquardt settings
_LM_REL_STEP = 1e-4  # relative finite-difference step
_LM_MAX_ITER = 200
_LM_FTOL = 1e-10     # relative cost improvement that counts as a stall
_LM_XTOL = 1e-10     # relative step size that ends the loop

# fit_lamp_series: the background prefit's start, the (s, g_other) held in
# the prefits, and the trapping rates of the conditional scan
_LAMP_PRE_INIT = dict(f_P=115.0, n_bar=2.5e-3, gap_diff=4.88)
_LAMP_PRE_FIXED = dict(s=8.0, g_other=4e-8)
_LAMP_S_GRID = (3.0, 5.5, 8.0, 11.0, 16.0, 24.0, 40.0)

DEFAULT_BOUNDS = {
    "f_P": (104.5, 400.0),
    "n_bar": (1e-6, 1.0),
    "s": (1e-3, 1e4),
    "g_other": (1e-12, 1e-4),
    "gap_diff": (3.0, 7.0),
}


class DegenerateFitError(RuntimeError):
    """Normal matrix singular; names the collinear parameters."""

    def __init__(self, names):
        self.names = list(names)
        super().__init__(
            "normal matrix is singular; collinear parameters: %s"
            % ", ".join(self.names)
        )


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core

@dataclass
class LMResult:
    x: np.ndarray
    cov: np.ndarray          # covariance in the untransformed parameter space
    cost: float              # sum of squared residuals at the solution
    iterations: int
    cost_history: list
    jacobian_check: float    # forward-vs-central relative agreement, 1st iter
    termination: str         # ftol, xtol, max_iter or no_improving_step


def _fd_jacobian(fun, z, f0, step):
    m, n = f0.size, z.size
    jac = np.empty((m, n))
    for k in range(n):
        dz = step * max(abs(z[k]), 1.0)
        zp = z.copy()
        zp[k] += dz
        jac[:, k] = (fun(zp) - f0) / dz
    return jac


def lm_least_squares(residual_fn, x0, lower, upper, log_mask, names=None):
    """Levenberg-Marquardt with multiplicative damping (nu = 2 schedule).

    residual_fn maps the parameter vector (untransformed) to the weighted
    residual vector.  log_mask marks parameters optimized as log(x); trial
    steps landing outside the box bounds are rejected (damping grows until
    the step stays inside).  Accepted steps never increase the cost.  The
    first Jacobian is checked against central differences (jacobian_check).
    ``termination`` names the exit after MINPACK lmdif: repeated cost stalls
    ("ftol"), a step below _LM_XTOL ("xtol"), "max_iter", or no lower cost
    in 60 damping doublings ("no_improving_step").  Raises ValueError when
    x0 is not inside the bounds (NaN included) or there are fewer residuals
    than parameters, and DegenerateFitError when the normal matrix at the
    solution is numerically singular.
    """
    x0 = np.asarray(x0, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    log_mask = np.asarray(log_mask, dtype=bool)
    names = names or ["p%d" % k for k in range(x0.size)]
    if not np.all((lower <= x0) & (x0 <= upper)):
        raise ValueError("initial point outside bounds")
    if np.any(log_mask & (lower <= 0)):
        raise ValueError("log-scaled parameters need positive lower bounds")

    def to_z(x):
        z = x.copy()
        z[log_mask] = np.log(x[log_mask])
        return z

    def to_x(z):
        x = z.copy()
        x[log_mask] = np.exp(z[log_mask])
        return x

    def in_bounds(z):
        x = to_x(z)
        return np.all(x >= lower) and np.all(x <= upper)

    def fun(z):
        return np.asarray(residual_fn(to_x(z)), dtype=float)

    z = to_z(x0)
    r = fun(z)
    if r.size < z.size:
        raise ValueError("too few data points: %d residuals for %d "
                         "parameters (%s)" % (r.size, z.size, ", ".join(names)))
    cost = float(r @ r)
    history = [cost]
    lam = 1e-3
    jac_check = 0.0
    n_iter = 0
    stalls = 0
    termination = "max_iter"
    # finite differences stay inside the box near an active bound
    z_lo, z_hi = to_z(lower), to_z(np.where(np.isfinite(upper), upper, 1e300))

    def fd_point(zq):
        return fun(np.minimum(np.maximum(zq, z_lo), z_hi))

    for n_iter in range(1, _LM_MAX_ITER + 1):
        jac = _fd_jacobian(fd_point, z, r, _LM_REL_STEP)
        if n_iter == 1:
            jac_c = np.empty_like(jac)
            for k in range(z.size):
                dz = 2.0 * _LM_REL_STEP * max(abs(z[k]), 1.0)
                zp, zm = z.copy(), z.copy()
                zp[k] += dz
                zm[k] -= dz
                jac_c[:, k] = (fd_point(zp) - fd_point(zm)) / (2.0 * dz)
            scale = np.abs(jac_c).max() or 1.0
            jac_check = float(np.abs(jac - jac_c).max() / scale)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        if not np.all(np.isfinite(jtj)):
            raise RuntimeError("non-finite Jacobian in fit")
        improved = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj).clip(min=1e-30)),
                                       -jtr)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            z_try = z + step
            if not in_bounds(z_try):
                lam *= 2.0
                continue
            r_try = fun(z_try)
            cost_try = float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try <= cost:
                improved = True
                break
            lam *= 2.0
        if not improved:
            termination = "no_improving_step"
            break
        rel_impr = (cost - cost_try) / max(cost, 1e-300)
        step_size = np.max(np.abs(z_try - z) / np.maximum(np.abs(z), 1.0))
        z, r, cost = z_try, r_try, cost_try
        history.append(cost)
        lam = max(lam / 2.0, 1e-12)
        # a tiny improvement only counts as converged once damping has
        # relaxed and it repeats; single stalls in flat valleys are not minima
        if (rel_impr < _LM_FTOL and lam <= 1e-2) or step_size < _LM_XTOL:
            stalls += 1
            if stalls >= 2 or step_size < _LM_XTOL:
                termination = "xtol" if step_size < _LM_XTOL else "ftol"
                break
        else:
            stalls = 0

    x = to_x(z)
    # covariance from the scaled inverse normal matrix at the solution
    jac = _fd_jacobian(fun, z, r, _LM_REL_STEP)
    jtj = jac.T @ jac
    u, sv, vt = np.linalg.svd(jtj)
    if sv[0] == 0 or sv[-1] / sv[0] < 1e-12:
        null = vt[-1]
        bad = [names[k] for k in np.argsort(-np.abs(null))[:max(2, int((np.abs(null) > 0.3).sum()))]]
        raise DegenerateFitError(bad)
    dof = max(r.size - z.size, 1)
    cov_z = np.linalg.inv(jtj) * (cost / dof)
    scale = np.where(log_mask, x, 1.0)
    cov = cov_z * np.outer(scale, scale)
    return LMResult(x=x, cov=cov, cost=cost, iterations=n_iter,
                    cost_history=history, jacobian_check=jac_check,
                    termination=termination)


# ---------------------------------------------------------------------------
# dataset model and parameter binding

@dataclass
class FitDataset:
    label: str
    phi: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.phi.size == 0:
            raise ValueError("dataset %r is empty" % self.label)
        if np.any(self.sigma <= 0):
            raise ValueError("dataset %r has nonpositive sigmas" % self.label)


@dataclass
class FitProblem:
    """Datasets plus the free-parameter layout.

    bindings maps each free name to "shared" or "per".  In lamp_mode the
    first dataset is the background; later datasets add their own photon
    mode on top of the background drive (per-dataset f_P/n_bar then refer to
    the added mode).  Dataset labels name the fitted slots, so they must be
    distinct.  The model is the full four-film balance with the qubit in
    either state with probability 1/2, and the box bounds are
    DEFAULT_BOUNDS.
    """

    datasets: list
    free: tuple
    bindings: dict
    fixed: dict = field(default_factory=dict)
    lamp_mode: bool = False
    n_g: float = DEFAULT_NG

    def __post_init__(self):
        labels = [ds.label for ds in self.datasets]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError("dataset label %r is used more than once"
                                 % label)
        for name in self.free:
            if name not in FIT_PARAMETERS:
                raise ValueError("unknown fit parameter %r" % name)
            if self.bindings.get(name) not in ("shared", "per"):
                raise ValueError("parameter %r needs a 'shared' or 'per' binding"
                                 % name)

    def layout(self):
        """Vector layout: [(name, dataset_index | None), ...]."""
        slots = []
        for name in self.free:
            if self.bindings[name] == "shared":
                slots.append((name, None))
            else:
                for k in range(len(self.datasets)):
                    slots.append((name, k))
        return slots

    def slot_names(self):
        return ["%s[%s]" % (n, "shared" if k is None else self.datasets[k].label)
                for n, k in self.layout()]


@dataclass
class FitResult:
    values: dict             # slot name -> fitted value
    uncertainties: dict      # slot name -> one-sigma
    covariance: np.ndarray
    pseudo_r2: float
    residuals: list          # per-dataset weighted residual vectors
    model_curves: list       # per-dataset model Gamma arrays
    iterations: int
    termination: str         # why the LM loop stopped (LMResult.termination)
    jacobian_check: float


class GammaModel:
    """Evaluates the self-consistent Gamma(Phi) model for a FitProblem.

    Everything the quadratures depend on is memoized on the flux grid, so
    datasets that share a grid share the work: its flux points are
    diagonalized once, its dilute NUPS tables are computed once per
    gap_diff and its unit PAPS grids once per (gap_diff, f_P).  Damping
    steps that only move n_bar, s or g_other cost no quadrature at all.
    Each evaluation sums the photon modes' Gamma_P, solves the density
    balance of all of a dataset's flux points in one batched call
    (steady_state.balance_curve) and returns the rho-weighted
    Gamma_N + Gamma_P at rho = (1/2, 1/2); it never computes chemical
    potentials.
    """

    def __init__(self, problem: FitProblem, params: DeviceParams,
                 r=1.0 / 120e-9):
        self.problem = problem
        self.base = params
        self.r = r
        self.grids = [tuple(map(float, ds.phi)) for ds in problem.datasets]
        self.points = {grid: [flux_point(params, p, problem.n_g) for p in grid]
                       for grid in dict.fromkeys(self.grids)}
        self._memo = {}

    def _on_grid(self, compute, grid, gap_diff, *args):
        """compute(params, points, *args, rtol) on a grid, memoized on the
        grid and on gap_diff and args rounded to 10 decimals."""
        key = (compute, grid) + tuple(round(float(v), 10)
                                      for v in (gap_diff,) + args)
        if key not in self._memo:
            self._memo[key] = compute(
                self.base.with_(gap_diff=float(gap_diff)), self.points[grid],
                *map(float, args), _FIT_RTOL)
        return self._memo[key]

    def dataset_values(self, vector):
        """Slot vector -> list of per-dataset parameter dicts.

        Fixed entries may be scalars (broadcast) or sequences with one value
        per dataset.
        """
        per = [{name: float(val[k]) if np.ndim(val) else float(val)
                for name, val in self.problem.fixed.items()}
               for k in range(len(self.problem.datasets))]
        for (name, ds), val in zip(self.problem.layout(), vector):
            if ds is None:
                for d in per:
                    d[name] = float(val)
            else:
                per[ds][name] = float(val)
        return per

    def evaluate(self, vector):
        """Model Gamma arrays for every dataset at a slot vector."""
        per = self.dataset_values(vector)
        rho = (0.5, 0.5)
        out = []
        for ds_idx, (vals, grid) in enumerate(zip(per, self.grids)):
            gap_diff = vals.get("gap_diff", self.base.gap_diff)
            params = self.base.with_(gap_diff=float(gap_diff))
            dyn = DynamicsParams(s=vals.get("s", 0.0), r=self.r,
                                 g_other=vals.get("g_other", 0.0))
            # a lamp dataset's mode adds to the background dataset's mode
            modes = [per[0], vals] if self.problem.lamp_mode and ds_idx else [vals]
            gamma_p = sum(m["n_bar"] * self._on_grid(paps_unit_grid, grid,
                                                     gap_diff, m["f_P"])
                          for m in modes)
            _, _, gamma_n = balance_curve(
                params, dyn, self._on_grid(dilute_tables_grid, grid, gap_diff),
                gamma_p, rho)
            out.append(rho_weighted(gamma_p, rho) + rho_weighted(gamma_n, rho))
        return out

    def residuals(self, vector):
        curves = self.evaluate(vector)
        return np.concatenate([
            (c - ds.gamma) / ds.sigma
            for c, ds in zip(curves, self.problem.datasets)
        ])


def fit(problem: FitProblem, init, params: DeviceParams = None,
        r=1.0 / 120e-9):
    """Fit the model to the problem's datasets from an initial guess.

    ``init`` maps parameter names to scalars (shared) or per-dataset lists.
    Returns a FitResult; deterministic given init.
    """
    params = params or DeviceParams()
    model = GammaModel(problem, params, r=r)
    slots = problem.layout()
    names = problem.slot_names()

    def init_value(name, ds):
        v = init[name]
        if np.isscalar(v):
            return float(v)
        return float(v[ds if ds is not None else 0])

    x0 = np.array([init_value(n, d) for n, d in slots])
    lower = np.array([DEFAULT_BOUNDS[n][0] for n, _ in slots])
    upper = np.array([DEFAULT_BOUNDS[n][1] for n, _ in slots])
    log_mask = np.array([n in _LOG_SCALED for n, _ in slots])

    res = lm_least_squares(model.residuals, x0, lower, upper, log_mask,
                           names=names)
    curves = model.evaluate(res.x)
    resids = [(c - ds.gamma) / ds.sigma
              for c, ds in zip(curves, problem.datasets)]
    r2 = pseudo_r2(curves, problem.datasets)
    sigmas = np.sqrt(np.clip(np.diag(res.cov), 0.0, None))
    return FitResult(
        values=dict(zip(names, map(float, res.x))),
        uncertainties=dict(zip(names, map(float, sigmas))),
        covariance=res.cov,
        pseudo_r2=r2,
        residuals=resids,
        model_curves=curves,
        iterations=res.iterations,
        termination=res.termination,
        jacobian_check=res.jacobian_check,
    )


def pseudo_r2(model_curves, datasets):
    """Multi-dataset goodness of fit: mean over datasets of 1 - Sres/Stot."""
    total = 0.0
    for curve, ds in zip(model_curves, datasets):
        s_tot = float(np.sum((ds.gamma - ds.gamma.mean()) ** 2))
        if s_tot == 0.0:
            raise ValueError("dataset %r has zero variance; pseudo-R^2 undefined"
                             % ds.label)
        s_res = float(np.sum((ds.gamma - curve) ** 2))
        total += 1.0 - s_res / s_tot
    return total / len(datasets)


def fit_lamp_series(datasets, params: DeviceParams = None, n_g=DEFAULT_NG):
    """Staged shared-parameter fit of a background + lamp-power dataset series.

    The direct 11-parameter problem (per-dataset f_P/n_bar, shared s,
    g_other, gap_diff) is multimodal in the trapping/generation plane, so
    the fit proceeds in stages: (0) the background dataset alone pins its
    photon mode and the gap difference (from _LAMP_PRE_INIT, with
    _LAMP_PRE_FIXED held); (0b) each lamp dataset pins its added mode on top
    of the background; (1) a conditional scan over the trapping rates
    _LAMP_S_GRID (the goodness-of-fit profile machinery) finds the right
    basin; (2) all eleven parameters are released jointly from the best
    conditional point.  Returns the final FitResult.
    """
    params = params or DeviceParams()
    labels = [ds.label for ds in datasets]
    # the final problem is built first, so bad labels fail before any fit
    prob = FitProblem(datasets=datasets,
                      free=("f_P", "n_bar", "s", "g_other", "gap_diff"),
                      bindings={"f_P": "per", "n_bar": "per", "s": "shared",
                                "g_other": "shared", "gap_diff": "shared"},
                      fixed={}, lamp_mode=True, n_g=n_g)
    pre = FitProblem(datasets=[datasets[0]], free=("f_P", "n_bar", "gap_diff"),
                     bindings={"f_P": "per", "n_bar": "per",
                               "gap_diff": "shared"},
                     fixed=_LAMP_PRE_FIXED, n_g=n_g)
    p0 = fit(pre, _LAMP_PRE_INIT, params=params)
    fp = [p0.values["f_P[%s]" % labels[0]]]
    nb = [p0.values["n_bar[%s]" % labels[0]]]
    dd = p0.values["gap_diff[shared]"]
    for ds in datasets[1:]:
        prek = FitProblem(datasets=[datasets[0], ds], free=("f_P", "n_bar"),
                          bindings={"f_P": "per", "n_bar": "per"},
                          fixed=dict(_LAMP_PRE_FIXED, gap_diff=dd),
                          lamp_mode=True, n_g=n_g)
        pk = fit(prek, dict(f_P=[fp[0], fp[0] + 8.0],
                            n_bar=[nb[0], 3.0 * nb[0]]), params=params)
        fp.append(pk.values["f_P[%s]" % ds.label])
        nb.append(pk.values["n_bar[%s]" % ds.label])
    best = None
    for s_fix in _LAMP_S_GRID:
        prob1 = FitProblem(datasets=datasets, free=("n_bar", "g_other"),
                           bindings={"n_bar": "per", "g_other": "shared"},
                           fixed={"s": s_fix, "gap_diff": dd, "f_P": fp},
                           lamp_mode=True, n_g=n_g)
        try:
            r1 = fit(prob1, dict(n_bar=nb, g_other=_LAMP_PRE_FIXED["g_other"]),
                     params=params)
        except DegenerateFitError:
            continue
        cost1 = float(sum(np.sum(rr**2) for rr in r1.residuals))
        if best is None or cost1 < best[0]:
            nb1 = [r1.values["n_bar[%s]" % lab] for lab in labels]
            best = (cost1, s_fix, r1.values["g_other[shared]"], nb1)
    if best is None:
        raise DegenerateFitError(["s", "g_other"])
    init = dict(f_P=fp, n_bar=best[3], s=best[1], g_other=best[2],
                gap_diff=dd)
    return fit(prob, init, params=params)


# ---------------------------------------------------------------------------
# thermal sweep: extract the mean gap

def thermal_nups_rate(params: DeviceParams, t_kelvin, phi=0.0, n_g=DEFAULT_NG,
                      x_background=0.0, point=None):
    """NUPS rate at rho = (1/2, 1/2) with thermal (mu = 0) films at t.

    x_background adds a temperature-independent excess density on both
    sides (shifting mu accordingly), used by the qp_background fit mode.
    """
    if x_background == 0.0:
        mu_l = mu_r = 0.0
    else:
        x_th = xqp_from_mu(params.gap_low, t_kelvin, 0.0, params.dynes)
        mu_l = mu_from_xqp(params.gap_low, t_kelvin, x_th + x_background,
                           params.dynes)
        x_th_h = xqp_from_mu(params.gap_high, t_kelvin, 0.0, params.dynes)
        mu_r = mu_from_xqp(params.gap_high, t_kelvin,
                           x_th_h + x_background * math.exp(
                               -params.gap_diff / thermal_energy_ghz(t_kelvin)),
                           params.dynes)
    left = FilmState(gap=params.gap_low, temperature=t_kelvin, mu=mu_l,
                     x_qp=0.0, dynes=params.dynes)
    right = FilmState(gap=params.gap_high, temperature=t_kelvin, mu=mu_r,
                      x_qp=0.0, dynes=params.dynes)
    return float(rho_weighted(nups_rates(params, phi, left, right, n_g,
                                         point=point), (0.5, 0.5)))


def fit_thermal(data, params: DeviceParams = None, mode="paps_offset",
                phi=0.0, n_g=DEFAULT_NG):
    """Two-parameter fit of a (T, Gamma) sweep.

    mode "paps_offset": Gamma(T) = offset + Gamma_N_thermal(T; gap_mean);
    mode "qp_background": Gamma(T) = Gamma_N(T; gap_mean, x_bg), a constant
    excess density instead of a constant photon rate.  Both recover the same
    gap_mean.  Returns (gap_mean, second_parameter, LMResult).
    """
    params = params or DeviceParams()
    if mode not in ("paps_offset", "qp_background"):
        raise ValueError("mode must be 'paps_offset' or 'qp_background'")
    temps = np.asarray([t for t, _ in data], dtype=float)
    if not np.all(temps > 0):
        raise ValueError("temperature %g K is not positive" % temps.min())
    gammas = np.asarray([g for _, g in data], dtype=float)
    sigmas = np.maximum(0.05 * np.abs(gammas), 1e-3)
    point = flux_point(params, phi, n_g)
    offset = mode == "paps_offset"

    def model(theta):
        gap_mean, extra = theta
        p = params.with_(gap_mean=float(gap_mean))
        gamma_n = np.array([thermal_nups_rate(
            p, t, phi, n_g, x_background=0.0 if offset else extra,
            point=point) for t in temps])
        return extra + gamma_n if offset else gamma_n

    def residual(theta):
        return (model(theta) - gammas) / sigmas

    if offset:
        x0 = np.array([51.0, max(gammas.min(), 1.0)])
        lower = np.array([40.0, 0.0])
        upper = np.array([65.0, max(gammas.max(), 10.0) * 10])
        log_mask = np.array([False, False])
    else:
        x0 = np.array([51.0, 1e-9])
        lower = np.array([40.0, 1e-14])
        upper = np.array([65.0, 1e-4])
        log_mask = np.array([False, True])
    res = lm_least_squares(residual, x0, lower, upper, log_mask,
                           names=["gap_mean", "offset" if offset else "x_bg"])
    return float(res.x[0]), float(res.x[1]), res


# ---------------------------------------------------------------------------
# lamp (heater) power model

def band_power(t_kelvin, band=(100.0, 300.0), kind="3d", rtol=1e-9):
    """Blackbody band integral: int nu^k/(exp(h nu/kT)-1) dnu over the band.

    kind "3d" uses nu^3 (radiated power of a 3d blackbody), "1d" uses nu^1.
    Frequencies in GHz; the overall radiometric scale is absorbed by the
    caller's amplitude parameter.
    """
    if t_kelvin <= 0:
        raise ValueError("temperature must be positive")
    power = 3 if kind == "3d" else 1
    if kind not in ("3d", "1d"):
        raise ValueError("kind must be '3d' or '1d'")
    kt = thermal_energy_ghz(t_kelvin)

    def integrand(nu):
        return nu**power / np.expm1(nu / kt)

    return adaptive_quad(integrand, band[0], band[1], rtol=rtol)


@dataclass(frozen=True)
class LampTheta:
    """Lamp model parameters: T_lamp = sqrt(k_agg * P + T_mc^2),
    Gamma = a * band_power(T_lamp) + b."""

    k_agg: float = 3.0    # K^2 per uW (2l/c_kappa aggregate)
    t_mc: float = 0.03    # K
    a: float = 1.0        # rate per band-power unit
    b: float = 0.0        # background rate (1/s)

    def __post_init__(self):
        require_finite(self)
        if self.t_mc <= 0:
            raise ValueError("t_mc must be positive, got %r" % self.t_mc)


def lamp_temperature(p_lamp_uw, theta: LampTheta):
    if np.any(np.asarray(p_lamp_uw) < 0):
        raise ValueError("lamp power must be nonnegative")
    return np.sqrt(theta.k_agg * np.asarray(p_lamp_uw, dtype=float)
                   + theta.t_mc**2)

def lamp_model(p_lamp_uw, theta: LampTheta):
    """Modeled Gamma as a function of lamp power (uW); 3d default band."""
    temps = np.atleast_1d(lamp_temperature(p_lamp_uw, theta))
    vals = np.array([theta.a * band_power(t) + theta.b for t in temps])
    return float(vals[0]) if np.isscalar(p_lamp_uw) else vals


def fit_lamp(data, t_mc=0.03):
    """Fit (k_agg, a, b) of lamp_model to (P_lamp, Gamma) data."""
    powers = np.asarray([p for p, _ in data], dtype=float)
    gammas = np.asarray([g for _, g in data], dtype=float)
    sigmas = np.maximum(0.05 * np.abs(gammas), 1e-6)
    bp_cache = {}

    def model(theta):
        th = LampTheta(k_agg=theta[0], t_mc=t_mc, a=theta[1], b=theta[2])
        temps = lamp_temperature(powers, th)
        out = np.empty_like(temps)
        for i, t in enumerate(temps):
            key = round(float(t), 12)
            if key not in bp_cache:
                bp_cache[key] = band_power(t)
            out[i] = th.a * bp_cache[key] + th.b
        return out

    def residual(theta):
        return (model(theta) - gammas) / sigmas

    # amplitude scale from the data range against a unit band power
    bp_ref = band_power(math.sqrt(3.0 * max(powers.max(), 1.0)))
    a0 = max((gammas.max() - gammas.min()) / max(bp_ref, 1e-30), 1e-12)
    x0 = np.array([3.0, a0, max(gammas.min(), 1e-3)])
    lower = np.array([1e-3, a0 * 1e-6, 1e-6])
    upper = np.array([1e3, a0 * 1e6, max(gammas.max() * 10, 1.0)])
    log_mask = np.array([True, True, True])
    res = lm_least_squares(residual, x0, lower, upper, log_mask,
                           names=["k_agg", "a", "b"])
    return LampTheta(k_agg=float(res.x[0]), t_mc=t_mc, a=float(res.x[1]),
                     b=float(res.x[2])), res
