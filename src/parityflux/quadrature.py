"""Globally adaptive Gauss-Kronrod quadrature with vectorized integrands.

The rate integrals evaluated in this package have inverse-square-root
endpoint singularities which are removed analytically by cosh substitutions
before reaching this routine, so the transformed integrands are smooth apart
from narrow Dynes-regularized spikes.  A plain G7/K15 pair with interval
bisection handles both cases; integrands are evaluated on whole node arrays
(one numpy call per refinement round) which keeps the fit loop fast.
"""

import math

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and weights, embedded 7-point Gauss.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights sit on Kronrod nodes 1, 3, 5, ... (odd indices).
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


class QuadratureError(RuntimeError):
    """Adaptive refinement stalled; carries the worst offending interval."""

    def __init__(self, msg, interval=None):
        super().__init__(msg)
        self.interval = interval


def _panel(f, a, b):
    """Evaluate K15/G7 on panels; a, b are arrays of interval edges."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _XK[None, :]  # (n_intervals, 15)
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    y = y.reshape(x.shape + (y.shape[-1],))
    ik = np.einsum("k,ikc->ic", _WK, y) * half[:, None]
    ig = np.einsum("k,ikc->ic", _WG, y[:, 1::2, :]) * half[:, None]
    err = np.abs(ik - ig).max(axis=1)
    return ik, err


def adaptive_quad(f, a, b, rtol=1e-9, max_intervals=4096):
    """Integrate ``f`` over [a, b].

    ``f`` takes a 1-d array of abscissae and returns either an array of the
    same length or an (len(x), ncomp) array for ncomp simultaneously
    integrated components (used to share DOS evaluations between the two
    coherence signs).

    Returns a float (ncomp == 1) or 1-d array of the component integrals.

    Raises QuadratureError when the requested tolerance is unreachable
    within ``max_intervals`` subdivisions, or when a panel integral or its
    error estimate is not finite (NaN or inf in the integrand).
    """
    if b <= a:
        return 0.0
    edges_a = np.array([a], dtype=float)
    edges_b = np.array([b], dtype=float)
    vals, errs = _panel(f, edges_a, edges_b)
    while True:
        total = vals.sum(axis=0)
        tot_err = errs.sum()
        if not math.isfinite(tot_err):
            # a NaN error compares False against every split threshold
            # below, so refinement would never split or stop.  A panel's
            # error is finite only if all its component integrals are.
            worst = int(np.argmax(~np.isfinite(errs)))
            raise QuadratureError(
                "integrand is not finite on [%g, %g]"
                % (edges_a[worst], edges_b[worst]),
                interval=(edges_a[worst], edges_b[worst]),
            )
        bound = rtol * np.abs(total).max()
        if tot_err <= bound or tot_err == 0.0:
            break
        if len(edges_a) >= max_intervals:
            worst = int(np.argmax(errs))
            raise QuadratureError(
                "quadrature did not converge to rtol=%g within %d intervals"
                % (rtol, max_intervals),
                interval=(edges_a[worst], edges_b[worst]),
            )
        # split the intervals that carry the bulk of the error
        cut = max(tot_err / (2.0 * len(edges_a)), 0.25 * bound / max(len(edges_a), 1))
        bad = errs >= cut
        if not bad.any():
            bad = errs == errs.max()
        mids = 0.5 * (edges_a[bad] + edges_b[bad])
        new_a = np.concatenate([edges_a[bad], mids])
        new_b = np.concatenate([mids, edges_b[bad]])
        new_vals, new_errs = _panel(f, new_a, new_b)
        edges_a = np.concatenate([edges_a[~bad], new_a])
        edges_b = np.concatenate([edges_b[~bad], new_b])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
    total = vals.sum(axis=0)
    return float(total[0]) if total.size == 1 else total
