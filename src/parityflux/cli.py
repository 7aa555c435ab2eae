"""Command-line pipelines with reproducible, config-driven runs.

Every output file starts with a manifest block of `#` comments recording
the subcommand, tool version, normalized arguments, config and data digests
and the seed, so identical manifests rerun to byte-identical files.
Outputs are written atomically (temp file + rename).  Exit codes: 0
success, 1 domain/numeric errors, 2 usage errors.
"""

import argparse
import functools
import hashlib
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .device import (ConfigError, DeviceParams, FluxFrequencyMap,
                     config_from_values, fq_to_flux, parse_config_text)
from .fitting import (FIT_PARAMETERS, DegenerateFitError, FitDataset,
                      FitProblem, fit, fit_lamp, fit_lamp_series, fit_thermal,
                      lamp_model)
from .quadrature import QuadratureError
from .rates import DEFAULT_NG, PhotonDrive, rate_breakdown
from .spectrum import DEFAULT_NTRUNC, Junction, TruncationError, solve_sectors
from .steady_state import (DynamicsParams, SteadyStateError, curve_point,
                           gamma_curve, solve_trapping_for_density)
from .superconductor import FilmState
from .telegraph import (BandwidthError, BurstEvent, conditional_rates,
                        detect_bursts, gamma_statistics, psd_gamma,
                        read_trace, simulate_trace, write_trace)

STOCHASTIC = {"telegraph-simulate", "telegraph-conditional", "make-synthetic"}


class UsageError(ValueError):
    pass


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_lines(subcommand, args, config_path=None, config_values=None,
                    data_paths=(), seed=None):
    lines = ["# parityflux %s" % __version__,
             "# subcommand: %s" % subcommand]
    skip = {"out", "out_prefix", "func"}
    arg_items = sorted((k, v) for k, v in vars(args).items()
                       if k not in skip and v is not None)
    lines.append("# args: " + " ".join("%s=%s" % kv for kv in arg_items))
    if config_path:
        lines.append("# config: %s sha256=%s" % (config_path, _sha256(config_path)))
    if config_values:
        lines.append("# config_values: " + " ".join(
            "%s=%.12g" % (k, v) for k, v in sorted(config_values.items())))
    for p in data_paths:
        lines.append("# data: %s sha256=%s" % (p, _sha256(p)))
    if seed is not None:
        lines.append("# seed: %d" % seed)
    return lines


def _write_atomic(path, lines):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".parityflux-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x):
    return "%.12g" % x


def _parse_flux_grid(spec):
    try:
        a, b, n = spec.split(":")
        if int(n) >= 1:
            return np.linspace(float(a), float(b), int(n))
    except ValueError:
        pass
    raise UsageError("--flux expects start:stop:count with count >= 1, got %r"
                     % spec)


def _load_device(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            vals = parse_config_text(fh.read())
        return config_from_values(vals) + (vals,)
    return DeviceParams(), FluxFrequencyMap(), {}, {}


def _setting(args, name, dyn_cfg, key, default):
    """The flag ``name`` if given, else config key ``key``, else default."""
    value = getattr(args, name, None)
    return value if value is not None else dyn_cfg.get(key, default)


def _dyn_from(args, dyn_cfg):
    d = DynamicsParams()
    return DynamicsParams(
        s=_setting(args, "s", dyn_cfg, "s_per_s", d.s),
        r=_setting(args, "r", dyn_cfg, "r_per_s", d.r),
        g_other=_setting(args, "g_other", dyn_cfg, "g_other_per_s", d.g_other))


def _drive_from(args, dyn_cfg):
    return PhotonDrive(f_p=_setting(args, "fp", dyn_cfg, "fp_ghz", 110.0),
                       n_bar=_setting(args, "nbar", dyn_cfg, "nbar", 0.0))


def _rho_from(args, dyn_cfg):
    rho1 = _setting(args, "rho1", dyn_cfg, "rho1", 0.5)
    if not 0.0 <= rho1 <= 1.0:
        raise UsageError("rho1 must lie in [0, 1]")
    return (1.0 - rho1, rho1)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    grid = _parse_flux_grid(args.flux)
    lines = _manifest_lines("spectrum", args, args.config, cfg_vals)
    cols = ["phi", "ng", "fq_even_ghz", "fq_odd_ghz", "fq_mean_ghz", "delta_fq_mhz"]
    cols += ["%s%d%d_%s" % (kind, i, k, j) for j in ("j1", "j2")
             for kind in ("mcos", "msin") for i in range(2) for k in range(2)]
    lines.append(",".join(cols))
    for phi in grid:
        sectors = solve_sectors(params, phi, args.ng, args.n_trunc,
                                check_convergence=True)
        spec = sectors.spectrum()
        row = [phi, args.ng, spec.fq_even, spec.fq_odd, spec.fq_mean,
               spec.delta_fq * 1e3]
        for junction in (Junction.J1, Junction.J2):
            m = sectors.matrix_elements(junction)
            row.extend(list(m.m_cos.ravel()) + list(m.m_sin.ravel()))
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(args.out, lines)
    return 0


def cmd_rates(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    grid = _parse_flux_grid(args.flux)
    rho = _rho_from(args, dyn_cfg)
    drive = _drive_from(args, dyn_cfg)
    left = FilmState.from_xqp(params.gap_low, params.t_ph, args.x0,
                              params.dynes)
    right = FilmState.from_xqp(params.gap_high, params.t_ph, args.x3,
                               params.dynes)
    lines = _manifest_lines("rates", args, args.config, cfg_vals)
    cols = (["phi", "fq_ghz"]
            + ["gn%d%d" % (i, j) for i in range(2) for j in range(2)]
            + ["gp%d%d" % (i, j) for i in range(2) for j in range(2)]
            + ["gamma_total"])
    lines.append(",".join(cols))
    for phi in grid:
        br = rate_breakdown(params, phi, left, right, drive, args.ng, rho)
        row = ([phi, br.fq] + list(br.gamma_n.ravel())
               + list(br.gamma_p.ravel()) + [br.gamma_total])
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(args.out, lines)
    return 0


def _curve_lines(points):
    lines = ["phi,gamma_per_s,gamma_n_per_s,gamma_p_per_s,x0,x3"]
    for cp in points:
        lines.append(",".join(_fmt(v) for v in (
            cp.phi, cp.gamma_total, cp.gamma_n_total, cp.gamma_p_total,
            cp.state.x0, cp.state.x3)))
    return lines


def cmd_curve(args):
    """steady-state at one flux point (--phi), sweep over a grid (--flux)."""
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    grid = _parse_flux_grid(args.flux) if args.subcommand == "sweep" else None
    dyn = _dyn_from(args, dyn_cfg)
    drive = _drive_from(args, dyn_cfg)
    rho = _rho_from(args, dyn_cfg)
    if grid is None:
        points = [curve_point(params, dyn, args.phi, drive, rho, args.ng)]
    else:
        points = gamma_curve(params, dyn, drive, grid, rho, args.ng)
    lines = _manifest_lines(args.subcommand, args, args.config, cfg_vals)
    _write_atomic(args.out, lines + _curve_lines(points))
    return 0


def _read_table(path):
    """Header cells and (line number, cells) data rows of a CSV file;
    blank lines and '#' comment lines are skipped."""
    with open(path) as fh:
        rows = [(n, [c.strip() for c in ln.strip().split(",")])
                for n, ln in enumerate(fh, 1)
                if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise UsageError("data file %s has no header line" % path)
    return rows[0][1], rows[1:]


def _row_values(path, row, columns):
    """Floats in the given columns of a data row from _read_table."""
    lineno, cells = row
    try:
        values = [float(cells[c]) for c in columns]
        if all(map(math.isfinite, values)):
            return values
    except (IndexError, ValueError):
        pass
    raise UsageError("%s line %d: expected finite numbers in columns %s, got %r"
                     % (path, lineno, ", ".join(str(c + 1) for c in columns),
                        ",".join(cells)))


def _read_data_csv(path, fmap):
    """phi (or fq_ghz), gamma_per_s, sigma_per_s columns."""
    header, rows = _read_table(path)
    for need in ("gamma_per_s", "sigma_per_s"):
        if need not in header:
            raise UsageError("data file %s lacks column %r" % (path, need))
    if "phi" in header:
        xcol = header.index("phi")
        convert = lambda v: v
    elif "fq_ghz" in header:
        xcol = header.index("fq_ghz")
        convert = lambda v: fq_to_flux(fmap, v)
    else:
        raise UsageError("data file %s needs a 'phi' or 'fq_ghz' column" % path)
    columns = (xcol, header.index("gamma_per_s"), header.index("sigma_per_s"))
    phi, gam, sig = [], [], []
    for row in rows:
        x, g, s = _row_values(path, row, columns)
        phi.append(convert(x))
        gam.append(g)
        sig.append(s)
    return np.array(phi), np.array(gam), np.array(sig)


def _parse_bindings(spec):
    """name:shared|per items of --bind, each name from FIT_PARAMETERS."""
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        name, _, mode = item.partition(":")
        name = {"f_p": "f_P"}.get(name.strip().lower(), name.strip())
        if name not in FIT_PARAMETERS or mode.strip() not in ("shared", "per"):
            raise UsageError("--bind items look like name:shared|per with a "
                             "name among %s, got %r"
                             % (", ".join(FIT_PARAMETERS), item))
        out[name] = mode.strip()
    return out


def _parse_init(spec, bindings):
    """name=value items of --init: a name from FIT_PARAMETERS and a finite
    value each, and a value for every bound parameter."""
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        name, eq, val = item.partition("=")
        name = {"f_p": "f_P"}.get(name.strip().lower(), name.strip())
        try:
            value = float(val)
        except ValueError:
            value = math.nan
        if not eq or name not in FIT_PARAMETERS or not math.isfinite(value):
            raise UsageError("--init items look like name=number with a "
                             "finite number and a name among %s, got %r"
                             % (", ".join(FIT_PARAMETERS), item))
        out[name] = value
    for name in bindings:
        if name not in out:
            raise UsageError("--init needs a value for the bound parameter %r"
                             % name)
    return out


def cmd_fit(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    if args.staged and not args.lamp_mode:
        raise UsageError("--staged applies to --lamp-mode series fits")
    if not args.staged:
        for flag in ("bind", "init"):
            if getattr(args, flag) is None:
                raise UsageError("fit needs --%s unless --staged is given"
                                 % flag)
        bindings = _parse_bindings(args.bind)
        init = _parse_init(args.init, bindings)
    datasets = []
    for k, path in enumerate(args.data):
        phi, gam, sig = _read_data_csv(path, fmap)
        label = os.path.splitext(os.path.basename(path))[0]
        datasets.append(FitDataset(label=label, phi=phi, gamma=gam, sigma=sig))
    if args.staged:
        result = fit_lamp_series(datasets, params=params, n_g=args.ng)
    else:
        fixed = {n: init.get(n, params.gap_diff if n == "gap_diff" else 0.0)
                 for n in FIT_PARAMETERS if n not in bindings}
        problem = FitProblem(datasets=datasets, free=tuple(bindings),
                             bindings=bindings, fixed=fixed,
                             lamp_mode=args.lamp_mode, n_g=args.ng)
        result = fit(problem, init, params=params)
    lines = _manifest_lines("fit", args, args.config, cfg_vals,
                            data_paths=args.data)
    lines.append("pseudo_r2 = %.6f" % result.pseudo_r2)
    lines.append("iterations = %d" % result.iterations)
    lines.append("termination = %s" % result.termination)
    lines.append("jacobian_check = %.2e" % result.jacobian_check)
    for name in sorted(result.values):
        lines.append("%s = %.8g +- %.3g"
                     % (name, result.values[name], result.uncertainties[name]))
    _write_atomic(args.out, lines)
    stem, _ = os.path.splitext(args.out)
    for ds, curve, resid in zip(datasets, result.model_curves, result.residuals):
        rl = _manifest_lines("fit-residuals", args, args.config, cfg_vals,
                             data_paths=args.data)
        rl.append("phi,gamma_per_s,model_per_s,residual_sigma")
        for p, g, m, r in zip(ds.phi, ds.gamma, curve, resid):
            rl.append(",".join(_fmt(v) for v in (p, g, m, r)))
        _write_atomic("%s_%s_residuals.csv" % (stem, ds.label), rl)
    return 0


def cmd_thermal_fit(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    data = [tuple(_row_values(args.data, row, (0, 1)))
            for row in _read_table(args.data)[1]]
    gap_mean, extra, res = fit_thermal(data, params, mode=args.mode,
                                       n_g=args.ng)
    lines = _manifest_lines("thermal-fit", args, args.config, cfg_vals,
                            data_paths=[args.data])
    lines.append("mode = %s" % args.mode)
    lines.append("gap_mean_ghz = %.6f" % gap_mean)
    lines.append("%s = %.8g" % ("gamma_p_offset_per_s" if args.mode == "paps_offset"
                                else "x_background", extra))
    lines.append("iterations = %d" % res.iterations)
    lines.append("termination = %s" % res.termination)
    lines.append("jacobian_check = %.2e" % res.jacobian_check)
    _write_atomic(args.out, lines)
    return 0


def cmd_lamp(args):
    data = [tuple(_row_values(args.data, row, (0, 1)))
            for row in _read_table(args.data)[1]]
    theta, res = fit_lamp(data, t_mc=args.t_mc)
    lines = _manifest_lines("lamp", args, None, None, data_paths=[args.data])
    lines.append("k_agg_k2_per_uw = %.8g" % theta.k_agg)
    lines.append("t_mc_k = %.6g" % theta.t_mc)
    lines.append("a = %.8g" % theta.a)
    lines.append("b_per_s = %.8g" % theta.b)
    lines.append("p_lamp_uw,gamma_per_s,model_per_s")
    for p, g in data:
        lines.append(",".join(_fmt(v) for v in (p, g, lamp_model(p, theta))))
    _write_atomic(args.out, lines)
    return 0


def _parse_burst(spec):
    parts = spec.split(":")
    try:
        if len(parts) not in (3, 4) or parts[3:] not in ([], ["ng"]):
            raise ValueError
        onset, amplitude, decay = int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise UsageError("--burst expects onset:amplitude:decay[:ng] with an "
                         "integer onset, got %r" % spec) from None
    return BurstEvent(onset_index=onset, amplitude=amplitude,
                      decay_time=decay, ng_jump=len(parts) == 4)


# flags each telegraph action reads; numeric ones must be finite
TELEGRAPH_FLAGS = {
    "simulate": ("gamma", "n", "dt", "fidelity"),
    "analyze": ("trace", "segment_len", "n_avg"),
    "conditional": ("gamma0", "gamma1", "t1"),
    "bursts": ("trace", "window", "threshold"),
}


def cmd_telegraph(args):
    sub = args.action
    for name in TELEGRAPH_FLAGS[sub]:
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value is None:
            raise UsageError("telegraph %s needs %s" % (sub, flag))
        if not isinstance(value, str) and not math.isfinite(value):
            raise UsageError("%s must be finite, got %r" % (flag, value))
    if sub == "simulate":
        bursts = [_parse_burst(b) for b in (args.burst or [])]
        trace = simulate_trace(args.gamma, args.n, args.dt, args.fidelity,
                               seed=args.seed, bursts=bursts)
        write_trace(args.out, trace)
        return 0
    if sub == "analyze":
        trace = read_trace(args.trace)
        gamma, floor, diag = psd_gamma(trace, args.segment_len, args.n_avg)
        lines = _manifest_lines("telegraph-analyze", args,
                                data_paths=[args.trace])
        if diag["gammas"].size >= 20:
            mu, sig, info = gamma_statistics(diag["gammas"])
            lines.append("gaussian_mean_per_s = %.6g" % mu)
            lines.append("gaussian_sigma_per_s = %.6g" % sig)
            lines.append("gaussian_fallback = %s" % info["fallback"])
        lines.append("mean_gamma_per_s = %.6g" % gamma)
        lines.append("mean_white_floor = %.6g" % floor)
        lines.append("group,gamma_per_s,white_floor")
        for k, (g, c) in enumerate(zip(diag["gammas"], diag["floors"])):
            lines.append("%d,%s,%s" % (k, _fmt(g), _fmt(c)))
    elif sub == "conditional":
        res = conditional_rates(args.gamma0, args.gamma1, args.t1, seed=args.seed)
        lines = _manifest_lines("telegraph-conditional", args, seed=args.seed)
        lines.append("gamma0_per_s = %.6g +- %.3g" % (res.gamma0, res.gamma0_err))
        lines.append("gamma1_per_s = %.6g +- %.3g" % (res.gamma1, res.gamma1_err))
        lines.append("theta,mq,gamma_per_s,gamma_err")
        for t, m, g, e in zip(res.thetas, res.mq, res.gamma, res.gamma_err):
            lines.append(",".join(_fmt(v) for v in (t, m, g, e)))
    else:
        trace = read_trace(args.trace)
        events = detect_bursts(trace, args.window, args.threshold)
        lines = _manifest_lines("telegraph-bursts", args, data_paths=[args.trace])
        lines.append("onset_index,onset_s,amplitude,decay_s,ng_jump")
        for b in events:
            lines.append("%d,%s,%s,%s,%d" % (
                b.onset_index, _fmt(b.onset_index * trace.dt),
                _fmt(b.amplitude), _fmt(b.decay_time), int(b.ng_jump)))
    _write_atomic(args.out, lines)
    return 0


def cmd_make_synthetic(args):
    """Bundled synthetic datasets for self-contained round-trip fits."""
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    rng = np.random.default_rng(args.seed)
    if args.points is None:
        args.points = 101 if args.kind == "single" else 51
    if args.noise is None:
        args.noise = 0.05 if args.kind == "single" else 0.01
    if args.points < 1:
        raise UsageError("--points must be at least 1, got %d" % args.points)
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise UsageError("--noise must be finite and nonnegative, got %r"
                         % args.noise)
    grid = np.linspace(0.0, 0.5, args.points)
    if args.kind == "single":
        p = params.with_(gap_diff=4.860)
        drive = PhotonDrive(112.0, 1.9e-3)
        s = solve_trapping_for_density(p, 0.0, drive, 6.2e-9)
        dyn = DynamicsParams(s=s, r=1.0 / 120e-9, g_other=0.0)
        configs = [("single", p, dyn, [drive])]
    else:
        p = params.with_(gap_diff=4.844)
        dyn = DynamicsParams(s=11.0, r=1.0 / 120e-9, g_other=8e-8)
        bg = PhotonDrive(109.0, 2.1e-3)
        lamp = [(125.0, 2.9e-3), (125.0, 12.8e-3), (124.0, 32.6e-3)]
        configs = [("p0", p, dyn, [bg])]
        for k, (fp, nb) in enumerate(lamp, start=1):
            configs.append(("p%d" % k, p, dyn, [bg, PhotonDrive(fp, nb)]))
    paths = []
    for label, p, dyn, drive in configs:
        points = gamma_curve(p, dyn, drive, grid)
        gam = np.array([cp.gamma_total for cp in points])
        sig = args.noise * gam
        noisy = gam * (1.0 + args.noise * rng.standard_normal(gam.size))
        lines = _manifest_lines("make-synthetic", args, args.config, cfg_vals,
                                seed=args.seed)
        lines.append("phi,gamma_per_s,sigma_per_s")
        for ph, g, sg in zip(grid, noisy, sig):
            lines.append(",".join(_fmt(v) for v in (ph, g, sg)))
        path = "%s%s.csv" % (args.out_prefix, label)
        _write_atomic(path, lines)
        paths.append(path)
    print("\n".join(paths))
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="parityflux", allow_abbrev=False,
        description="Charge-parity switching pipelines: spectra, rates, "
                    "steady-state curves, fits, and telegraph analysis.")
    sub = p.add_subparsers(dest="subcommand", required=True)
    # a flag matches only its full name, never a prefix of it
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(q, config=True, dynamics=False):
        if config:
            q.add_argument("--config", help="flat key=value device config")
        q.add_argument("--ng", type=float, default=DEFAULT_NG)
        q.add_argument("--out", required=True)
        if dynamics:
            for name in ("s", "g-other", "r", "nbar", "fp", "rho1"):
                q.add_argument("--%s" % name, type=float,
                               dest=name.replace("-", "_"))

    q = add_parser("spectrum", help="parity spectra and matrix elements")
    add_common(q)
    q.add_argument("--flux", required=True, help="start:stop:count")
    q.add_argument("--n-trunc", type=int, default=DEFAULT_NTRUNC)
    q.set_defaults(func=cmd_spectrum)

    q = add_parser("rates", help="rate breakdown at fixed densities")
    add_common(q)
    q.add_argument("--flux", required=True)
    q.add_argument("--x0", type=float, required=True, help="low-gap film density")
    q.add_argument("--x3", type=float, required=True, help="high-gap film density")
    q.add_argument("--nbar", type=float)
    q.add_argument("--fp", type=float)
    q.add_argument("--rho1", type=float)
    q.set_defaults(func=cmd_rates)

    q = add_parser("steady-state", help="solve one flux point")
    add_common(q, dynamics=True)
    q.add_argument("--phi", type=float, required=True)
    q.set_defaults(func=cmd_curve)

    q = add_parser("sweep", help="model curve over a flux grid")
    add_common(q, dynamics=True)
    q.add_argument("--flux", required=True)
    q.set_defaults(func=cmd_curve)

    q = add_parser("fit", help="multi-dataset model fit")
    add_common(q)
    q.add_argument("--data", action="append", required=True)
    q.add_argument("--bind",
                   help='free parameters, e.g. "s:shared,g_other:shared,'
                        'gap_diff:shared,f_P:per,n_bar:per"; required '
                        'unless --staged')
    q.add_argument("--init",
                   help='start values, e.g. "f_P=110,n_bar=2e-3,s=10,'
                        'g_other=5e-8,gap_diff=4.85"; required unless '
                        '--staged')
    q.add_argument("--lamp-mode", action="store_true")
    q.add_argument("--staged", action="store_true",
                   help="staged lamp-series pipeline (prefits + trapping-rate "
                        "scan); requires --lamp-mode; it starts from its own "
                        "constants, frees all parameters and does not read "
                        "--bind or --init")
    q.set_defaults(func=cmd_fit)

    q = add_parser("thermal-fit", help="mean gap from a temperature sweep")
    add_common(q)
    q.add_argument("--data", required=True, help="CSV: t_kelvin,gamma_per_s")
    q.add_argument("--mode", choices=("paps_offset", "qp_background"),
                   default="paps_offset")
    q.set_defaults(func=cmd_thermal_fit)

    q = add_parser("lamp", help="lamp-power model fit")
    q.add_argument("--data", required=True, help="CSV: p_lamp_uw,gamma_per_s")
    q.add_argument("--t-mc", type=float, default=0.03, dest="t_mc")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_lamp)

    q = add_parser("telegraph", help="trace simulation and estimators")
    q.add_argument("action", choices=("simulate", "analyze", "conditional",
                                      "bursts"))
    q.add_argument("--gamma", type=float)
    q.add_argument("--gamma0", type=float)
    q.add_argument("--gamma1", type=float)
    q.add_argument("--t1", type=float)
    q.add_argument("--n", type=int)
    q.add_argument("--dt", type=float, default=10e-6)
    q.add_argument("--fidelity", type=float, default=1.0)
    q.add_argument("--seed", type=int)
    q.add_argument("--burst", action="append",
                   help="onset:amplitude:decay[:ng]")
    q.add_argument("--trace")
    q.add_argument("--segment-len", type=int, default=40000, dest="segment_len")
    q.add_argument("--n-avg", type=int, default=5, dest="n_avg")
    q.add_argument("--window", type=int, default=200)
    q.add_argument("--threshold", type=float, default=8.0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_telegraph)

    q = add_parser("make-synthetic",
                   help="bundled synthetic round-trip datasets")
    q.add_argument("--config")
    q.add_argument("--kind", choices=("single", "lamp-series"), default="lamp-series")
    q.add_argument("--seed", type=int)
    q.add_argument("--points", type=int)
    q.add_argument("--noise", type=float)
    q.add_argument("--out-prefix", required=True, dest="out_prefix")
    q.set_defaults(func=cmd_make_synthetic)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    name = args.subcommand
    if name == "telegraph":
        name = "telegraph-%s" % args.action
    if name in STOCHASTIC and getattr(args, "seed", None) is None:
        parser.exit(2, "error: --seed is mandatory for stochastic subcommand %s\n"
                    % name)
    t0 = time.time()
    try:
        code = args.func(args)
    except (UsageError,) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ConfigError, ValueError, SteadyStateError, TruncationError,
            QuadratureError, BandwidthError, DegenerateFitError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("done in %.2f s" % (time.time() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
