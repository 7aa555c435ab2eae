"""Command-line pipelines with reproducible, config-driven runs.

Every output file starts with a manifest block of `#` comments recording
the subcommand, tool version, normalized arguments, config and data digests
and the seed, so identical manifests rerun to byte-identical files.
Outputs are written atomically (temp file + rename).  Exit codes: 0
success, 1 domain/numeric errors, 2 usage errors.
"""

import argparse
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .device import (ConfigError, DeviceParams, FluxFrequencyMap,
                     config_from_values, fq_to_flux, parse_config_text)
from .fitting import (DegenerateFitError, FitDataset, FitProblem, fit,
                      fit_lamp, fit_lamp_series, fit_thermal, lamp_model)
from .quadrature import QuadratureError
from .rates import DEFAULT_NG, PhotonDrive, rate_breakdown
from .spectrum import (DEFAULT_NTRUNC, Junction, TruncationError,
                       charge_matrix_elements, parity_spectrum)
from .steady_state import (DynamicsParams, SteadyStateError, curve_point,
                           gamma_curve)
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
        return np.linspace(float(a), float(b), int(n))
    except Exception:
        raise UsageError("--flux expects start:stop:count, got %r" % spec)


def _load_device(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            vals = parse_config_text(fh.read())
        return config_from_values(vals) + (vals,)
    return DeviceParams(), FluxFrequencyMap(), {}, {}


def _dyn_from(args, dyn_cfg):
    s = args.s if getattr(args, "s", None) is not None else dyn_cfg.get("s_per_s", 11.0)
    g = args.g_other if getattr(args, "g_other", None) is not None else dyn_cfg.get("g_other_per_s", 8e-8)
    r = args.r if getattr(args, "r", None) is not None else dyn_cfg.get("r_per_s", 1.0 / 120e-9)
    return DynamicsParams(s=s, r=r, g_other=g)


def _drive_from(args, dyn_cfg):
    nbar = args.nbar if getattr(args, "nbar", None) is not None else dyn_cfg.get("nbar", 0.0)
    fp = args.fp if getattr(args, "fp", None) is not None else dyn_cfg.get("fp_ghz", 110.0)
    return PhotonDrive(f_p=fp, n_bar=nbar)


def _rho_from(args, dyn_cfg):
    rho1 = args.rho1 if getattr(args, "rho1", None) is not None else dyn_cfg.get("rho1", 0.5)
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
    for j in ("j1", "j2"):
        for kind in ("mcos", "msin"):
            for i in range(2):
                for k in range(2):
                    cols.append("%s%d%d_%s" % (kind, i, k, j))
    lines.append(",".join(cols))
    for phi in grid:
        spec = parity_spectrum(params, phi, args.ng, args.n_trunc)
        row = [phi, args.ng, spec.fq_even, spec.fq_odd, spec.fq_mean,
               spec.delta_fq * 1e3]
        for junction in (Junction.J1, Junction.J2):
            m = charge_matrix_elements(params, phi, args.ng, junction,
                                       args.n_trunc)
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
                              params.volume_low, params.dynes)
    right = FilmState.from_xqp(params.gap_high, params.t_ph, args.x3,
                               params.volume_high, params.dynes)
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


def cmd_steady_state(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    dyn = _dyn_from(args, dyn_cfg)
    drive = _drive_from(args, dyn_cfg)
    rho = _rho_from(args, dyn_cfg)
    cp = curve_point(params, dyn, args.phi, drive, rho, args.ng)
    lines = _manifest_lines("steady-state", args, args.config, cfg_vals)
    lines += _curve_lines([cp])
    _write_atomic(args.out, lines)
    return 0


def cmd_sweep(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    grid = _parse_flux_grid(args.flux)
    dyn = _dyn_from(args, dyn_cfg)
    drive = _drive_from(args, dyn_cfg)
    rho = _rho_from(args, dyn_cfg)
    points = gamma_curve(params, dyn, drive, grid, rho, args.ng)
    lines = _manifest_lines("sweep", args, args.config, cfg_vals)
    lines += _curve_lines(points)
    _write_atomic(args.out, lines)
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
        return [float(cells[c]) for c in columns]
    except (IndexError, ValueError):
        raise UsageError("%s line %d: expected numbers in columns %s, got %r"
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
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        try:
            name, mode = item.split(":")
        except ValueError:
            raise UsageError("--bind items look like name:shared|per, got %r" % item)
        name = {"f_p": "f_P"}.get(name.strip().lower(), name.strip())
        if mode.strip() not in ("shared", "per"):
            raise UsageError("binding mode for %r must be shared or per" % name)
        out[name] = mode.strip()
    return out


def _parse_init(spec):
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        name, _, val = item.partition("=")
        name = {"f_p": "f_P"}.get(name.strip().lower(), name.strip())
        out[name] = float(val)
    return out


def cmd_fit(args):
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    bindings = _parse_bindings(args.bind)
    init = _parse_init(args.init)
    datasets = []
    for k, path in enumerate(args.data):
        phi, gam, sig = _read_data_csv(path, fmap)
        label = os.path.splitext(os.path.basename(path))[0]
        datasets.append(FitDataset(label=label, phi=phi, gamma=gam, sigma=sig))
    fixed = {}
    for name in ("f_P", "n_bar", "s", "g_other", "gap_diff"):
        if name not in bindings:
            fixed[name] = init.get(name, {"gap_diff": params.gap_diff,
                                          "g_other": 0.0, "s": 0.0}.get(name, 0.0))
    if args.staged:
        if not args.lamp_mode:
            raise UsageError("--staged applies to --lamp-mode series fits")
        result = fit_lamp_series(datasets, params=params)
    else:
        problem = FitProblem(datasets=datasets, free=tuple(bindings),
                             bindings=bindings, fixed=fixed,
                             lamp_mode=args.lamp_mode)
        result = fit(problem, init, params=params)
    lines = _manifest_lines("fit", args, args.config, cfg_vals,
                            data_paths=args.data)
    lines.append("pseudo_r2 = %.6f" % result.pseudo_r2)
    lines.append("iterations = %d" % result.iterations)
    lines.append("final_damping = %.3g" % result.final_damping)
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
    gap_mean, extra, res = fit_thermal(data, params, mode=args.mode)
    lines = _manifest_lines("thermal-fit", args, args.config, cfg_vals,
                            data_paths=[args.data])
    lines.append("mode = %s" % args.mode)
    lines.append("gap_mean_ghz = %.6f" % gap_mean)
    lines.append("%s = %.8g" % ("gamma_p_offset_per_s" if args.mode == "paps_offset"
                                else "x_background", extra))
    lines.append("iterations = %d" % res.iterations)
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
    if len(parts) not in (3, 4):
        raise UsageError("--burst expects onset:amplitude:decay[:ng], got %r" % spec)
    return BurstEvent(onset_index=int(parts[0]), amplitude=float(parts[1]),
                      decay_time=float(parts[2]),
                      ng_jump=len(parts) == 4 and parts[3] == "ng")


def cmd_telegraph(args):
    sub = args.action
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
        _write_atomic(args.out, lines)
        return 0
    if sub == "conditional":
        res = conditional_rates(args.gamma0, args.gamma1, args.t1, seed=args.seed)
        lines = _manifest_lines("telegraph-conditional", args, seed=args.seed)
        lines.append("gamma0_per_s = %.6g +- %.3g" % (res.gamma0, res.gamma0_err))
        lines.append("gamma1_per_s = %.6g +- %.3g" % (res.gamma1, res.gamma1_err))
        lines.append("theta,mq,gamma_per_s,gamma_err")
        for t, m, g, e in zip(res.thetas, res.mq, res.gamma, res.gamma_err):
            lines.append(",".join(_fmt(v) for v in (t, m, g, e)))
        _write_atomic(args.out, lines)
        return 0
    if sub == "bursts":
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
    raise UsageError("unknown telegraph action %r" % sub)


def cmd_make_synthetic(args):
    """Bundled synthetic datasets for self-contained round-trip fits."""
    params, fmap, dyn_cfg, cfg_vals = _load_device(args)
    rng = np.random.default_rng(args.seed)
    if args.points is None:
        args.points = 101 if args.kind == "single" else 51
    if args.noise is None:
        args.noise = 0.05 if args.kind == "single" else 0.01
    grid = np.linspace(0.0, 0.5, args.points)
    if args.kind == "single":
        p = params.with_(gap_diff=4.860)
        from .steady_state import solve_trapping_for_density
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
        prog="parityflux",
        description="Charge-parity switching pipelines: spectra, rates, "
                    "steady-state curves, fits, and telegraph analysis.")
    p.add_argument("--threads", type=int, default=0,
                   help="worker cap (0 = all cores); results independent of it")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_common(q, config=True):
        if config:
            q.add_argument("--config", help="flat key=value device config")
        q.add_argument("--ng", type=float, default=DEFAULT_NG)
        q.add_argument("--out", required=True)

    q = sub.add_parser("spectrum", help="parity spectra and matrix elements")
    add_common(q)
    q.add_argument("--flux", required=True, help="start:stop:count")
    q.add_argument("--n-trunc", type=int, default=DEFAULT_NTRUNC)
    q.set_defaults(func=cmd_spectrum)

    q = sub.add_parser("rates", help="rate breakdown at fixed densities")
    add_common(q)
    q.add_argument("--flux", required=True)
    q.add_argument("--x0", type=float, required=True, help="low-gap film density")
    q.add_argument("--x3", type=float, required=True, help="high-gap film density")
    q.add_argument("--nbar", type=float)
    q.add_argument("--fp", type=float)
    q.add_argument("--rho1", type=float)
    q.set_defaults(func=cmd_rates)

    q = sub.add_parser("steady-state", help="solve one flux point")
    add_common(q)
    q.add_argument("--phi", type=float, required=True)
    for name in ("s", "g-other", "r", "nbar", "fp", "rho1"):
        q.add_argument("--%s" % name, type=float, dest=name.replace("-", "_"))
    q.set_defaults(func=cmd_steady_state)

    q = sub.add_parser("sweep", help="model curve over a flux grid")
    add_common(q)
    q.add_argument("--flux", required=True)
    for name in ("s", "g-other", "r", "nbar", "fp", "rho1"):
        q.add_argument("--%s" % name, type=float, dest=name.replace("-", "_"))
    q.set_defaults(func=cmd_sweep)

    q = sub.add_parser("fit", help="multi-dataset model fit")
    add_common(q)
    q.add_argument("--data", action="append", required=True)
    q.add_argument("--bind", required=True,
                   help='e.g. "s:shared,g_other:shared,gap_diff:shared,'
                        'f_P:per,n_bar:per"')
    q.add_argument("--init", required=True,
                   help='e.g. "f_P=110,n_bar=2e-3,s=10,g_other=5e-8,gap_diff=4.85"')
    q.add_argument("--lamp-mode", action="store_true")
    q.add_argument("--staged", action="store_true",
                   help="staged lamp-series pipeline (prefits + trapping-rate "
                        "scan); requires --lamp-mode")
    q.set_defaults(func=cmd_fit)

    q = sub.add_parser("thermal-fit", help="mean gap from a temperature sweep")
    add_common(q)
    q.add_argument("--data", required=True, help="CSV: t_kelvin,gamma_per_s")
    q.add_argument("--mode", choices=("paps_offset", "qp_background"),
                   default="paps_offset")
    q.set_defaults(func=cmd_thermal_fit)

    q = sub.add_parser("lamp", help="lamp-power model fit")
    q.add_argument("--data", required=True, help="CSV: p_lamp_uw,gamma_per_s")
    q.add_argument("--t-mc", type=float, default=0.03, dest="t_mc")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_lamp)

    q = sub.add_parser("telegraph", help="trace simulation and estimators")
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

    q = sub.add_parser("make-synthetic",
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
