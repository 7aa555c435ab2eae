"""Charge-basis diagonalization of the two-junction transmon.

H = 4 E_C (n - n_g)^2 - E_J1 cos(phi - phi_ext) - E_J2 cos(phi), with
phi_ext = 2 pi Phi/Phi0; the flux placement is an argument (flux_on_j2
gives the gauge -E_J1 cos(phi) - E_J2 cos(phi + phi_ext), which changes no
modulus).  The odd-parity sector is represented by shifting n_g -> n_g - 1/2
on the integer charge basis; e^{+-i phi/2} then acts as a half-unit charge
translation between the sectors.  solve_sectors makes one eigensystem call
per sector, and the parity spectrum and the matrix elements of both
junctions are read off that one solve; parity_spectrum and
charge_matrix_elements are views of it.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_NG = 0.25   # midpoint between the charge-dispersion extremes
DEFAULT_NTRUNC = 31  # charge states -15..15
N_LEVELS = 5         # levels per parity sector kept in a SpectrumResult


class TruncationError(RuntimeError):
    """Charge basis too small: low levels still move when it is enlarged."""


class Junction(Enum):
    J1 = 1
    J2 = 2


@dataclass(frozen=True)
class SpectrumResult:
    levels_even: np.ndarray  # GHz, relative to even ground state
    fq_even: float
    fq_odd: float

    @property
    def fq_mean(self):
        return 0.5 * (self.fq_even + self.fq_odd)

    @property
    def delta_fq(self):
        return abs(self.fq_even - self.fq_odd)


@dataclass(frozen=True)
class ChargeMatrixElements:
    """|<i,e|cos(phi_J/2)|j,o>|^2 and the sine analogue, i, j in {0, 1}."""

    m_cos: np.ndarray  # 2x2
    m_sin: np.ndarray  # 2x2


def _hamiltonian(params, phi, n_g, n_trunc, flux_on_j2=False):
    dim = int(n_trunc)
    if dim % 2 == 0:
        dim += 1
    cut = (dim - 1) // 2
    n = np.arange(-cut, cut + 1)
    h = np.zeros((dim, dim), dtype=complex)
    h[np.arange(dim), np.arange(dim)] = 4.0 * params.ec * (n - n_g) ** 2
    if flux_on_j2:
        # H = ... - EJ1 cos(phi) - EJ2 cos(phi + phi_ext)
        off = -0.5 * (params.ej1 + params.ej2 * np.exp(2j * np.pi * phi))
    else:
        # <n+1| cos(phi - phi_ext) |n> = e^{-i phi_ext}/2 ; junction 2 unrotated
        off = -0.5 * (params.ej1 * np.exp(-2j * np.pi * phi) + params.ej2)
    h[np.arange(1, dim), np.arange(dim - 1)] = off
    h[np.arange(dim - 1), np.arange(1, dim)] = np.conj(off)
    return h


def eigensystem(params, phi, n_g, n_trunc=DEFAULT_NTRUNC, check_convergence=True,
                flux_on_j2=False):
    """Eigenvalues (GHz, relative to the ground state) and eigenvectors.

    Eigenvectors are columns in the integer charge basis -cut..cut, unit
    norm.  With check_convergence the lowest two levels are compared against
    a basis enlarged by 4 charge states; a shift above 1e-6 GHz raises
    TruncationError.
    """
    if n_trunc < 15:
        raise ValueError("n_trunc must be at least 15")
    h = _hamiltonian(params, phi, n_g, n_trunc, flux_on_j2)
    w, v = np.linalg.eigh(h)
    w = w - w[0]
    if check_convergence:
        w2 = np.linalg.eigvalsh(_hamiltonian(params, phi, n_g, n_trunc + 4,
                                             flux_on_j2))
        w2 = w2 - w2[0]
        if max(abs(w2[0] - w[0]), abs(w2[1] - w[1])) > 1e-6:
            raise TruncationError(
                "levels shift by more than 1e-6 GHz between n_trunc=%d and +4; "
                "increase n_trunc" % n_trunc
            )
    return w, v


def _translation_amplitudes(vec_even, vec_odd):
    """Complex amplitudes <j,o|e^{+-i phi/2}|i,e> on the integer basis.

    The odd eigenvector (at n_g - 1/2) represents half-integer charges
    m + 1/2; e^{i phi/2} maps charge n -> n + 1/2, so the two overlaps are
    index-aligned and index-shifted sums.
    """
    a = vec_even
    b = vec_odd
    up = np.vdot(b, a)                    # sum_n b*_n a_n
    down = np.dot(np.conj(b[:-1]), a[1:])  # sum_n b*_{n-1} a_n
    amp_cos = 0.5 * (up + down)
    amp_sin = (up - down) / 2j
    return amp_cos, amp_sin


@dataclass(frozen=True)
class Sectors:
    """Levels (relative to each ground state) and eigenvector columns of
    the even sector at n_g and the odd sector at n_g - 1/2."""

    phi: float
    flux_on_j2: bool
    w_even: np.ndarray
    v_even: np.ndarray
    w_odd: np.ndarray
    v_odd: np.ndarray

    def spectrum(self):
        we, wo = self.w_even, self.w_odd
        k = min(N_LEVELS, len(we))
        return SpectrumResult(levels_even=we[:k].copy(),
                              fq_even=float(we[1] - we[0]),
                              fq_odd=float(wo[1] - wo[0]))

    def matrix_elements(self, junction):
        """Single-charge-tunneling matrix elements of one junction, from
        even-sector state i to odd-sector state j."""
        junction = Junction(junction)
        # phi_J = phi_hat - rot; the flux sits on J1 (rot = phi_ext) or J2 (-phi_ext)
        rot = 2.0 * math.pi * self.phi * ((junction is Junction.J1)
                                          - self.flux_on_j2)
        m_cos = np.zeros((2, 2))
        m_sin = np.zeros((2, 2))
        c, s = math.cos(rot / 2.0), math.sin(rot / 2.0)
        for i in range(2):
            for j in range(2):
                amp_c, amp_s = _translation_amplitudes(self.v_even[:, i],
                                                       self.v_odd[:, j])
                # cos((phi - rot)/2) = cos(rot/2) cos(phi/2) + sin(rot/2) sin(phi/2)
                m_cos[i, j] = abs(c * amp_c + s * amp_s) ** 2
                m_sin[i, j] = abs(c * amp_s - s * amp_c) ** 2
        return ChargeMatrixElements(m_cos=m_cos, m_sin=m_sin)


def solve_sectors(params, phi, n_g, n_trunc=DEFAULT_NTRUNC,
                  check_convergence=False, flux_on_j2=False):
    """One eigensystem call per parity sector; check_convergence applies to
    the even sector."""
    for name, value in (("phi", phi), ("n_g", n_g)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    we, ve = eigensystem(params, phi, n_g, n_trunc, check_convergence,
                         flux_on_j2)
    wo, vo = eigensystem(params, phi, n_g - 0.5, n_trunc, False, flux_on_j2)
    return Sectors(phi, flux_on_j2, we, ve, wo, vo)


def parity_spectrum(params, phi, n_g, n_trunc=DEFAULT_NTRUNC,
                    check_convergence=True):
    """Even manifold at n_g, odd at n_g - 1/2."""
    return solve_sectors(params, phi, n_g, n_trunc,
                         check_convergence).spectrum()


def charge_matrix_elements(params, phi, n_g=DEFAULT_NG, junction=Junction.J1,
                           n_trunc=DEFAULT_NTRUNC, flux_on_j2=False):
    """Sectors.matrix_elements of one junction; flux_on_j2 solves in the
    other gauge, which must not change any modulus."""
    return solve_sectors(params, phi, n_g, n_trunc,
                         flux_on_j2=flux_on_j2).matrix_elements(junction)
