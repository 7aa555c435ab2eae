import math

import numpy as np
import pytest

from parityflux.quadrature import QuadratureError, adaptive_quad


def test_polynomial_exact():
    val = adaptive_quad(lambda x: 3 * x**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert adaptive_quad(lambda x: x, 1.0, 1.0) == 0.0
    assert adaptive_quad(lambda x: x, 2.0, 1.0) == 0.0


def test_matches_scipy_on_peaked_integrand():
    from scipy.integrate import quad

    f = lambda x: np.exp(-50 * (x - 0.3) ** 2) + 0.1 * np.sin(8 * x)
    mine = adaptive_quad(f, 0.0, 2.0, rtol=1e-11)
    ref, _ = quad(lambda x: f(np.array([x]))[0], 0.0, 2.0, epsabs=0,
                  epsrel=1e-12, limit=200)
    assert mine == pytest.approx(ref, rel=1e-10)


def test_multicomponent_shared_nodes():
    def f(x):
        return np.stack([np.exp(-x), np.cos(x)], axis=-1)

    out = adaptive_quad(f, 0.0, 1.0, rtol=1e-12)
    assert out[0] == pytest.approx(1 - math.exp(-1), rel=1e-12)
    assert out[1] == pytest.approx(math.sin(1.0), rel=1e-12)


def test_regularized_spike():
    # Dynes-like capped near-singularity at an endpoint
    eps = 1e-6
    val = adaptive_quad(lambda x: 1.0 / np.sqrt(x * x + eps), 0.0, 1.0,
                        rtol=1e-10)
    exact = math.asinh(1.0 / math.sqrt(eps))
    assert val == pytest.approx(exact, rel=1e-9)


def test_unreachable_tolerance_raises():
    rng = np.random.default_rng(0)

    def noisy(x):
        return 1.0 + 1e-3 * rng.standard_normal(x.size)

    with pytest.raises(QuadratureError) as err:
        adaptive_quad(noisy, 0.0, 1.0, rtol=1e-12, max_intervals=64)
    assert err.value.interval is not None


@pytest.mark.parametrize("f", [lambda x: x * math.nan,
                               lambda x: np.where(x > 0.7, np.nan, x),
                               lambda x: 1.0 / (x - x)])
def test_non_finite_integrand_raises(f):
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="not finite") as err:
            adaptive_quad(f, 0.0, 1.0)
    assert err.value.interval is not None
