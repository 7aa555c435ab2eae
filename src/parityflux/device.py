"""Device parameters and the flux <-> qubit-frequency map.

Defaults describe the measured SQUID transmon: two Josephson junctions with
strongly asymmetric energies, two aluminum films with slightly different
superconducting gaps, and pad films large enough to act as quasiparticle
reservoirs.
"""

import math
from dataclasses import dataclass, fields, replace

from .constants import H_JS


class ConfigError(ValueError):
    """Bad key or value in a flat key=value configuration file."""


def require_finite(params):
    """Raise ValueError naming the first field of a parameter dataclass that
    is NaN or infinite; range checks alone let NaN through."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (f.name, value))


@dataclass(frozen=True)
class DeviceParams:
    """Fixed physical identity of the device.

    Energies are h*f in GHz; volumes in um^3; dos_fermi is the single-spin
    density of states at the Fermi level in 1/(um^3 J).
    """

    ej1: float = 2.465          # E_J1/h (GHz)
    ej2: float = 8.045          # E_J2/h (GHz)
    ec: float = 0.352           # E_C/h (GHz)
    gap_mean: float = 51.8      # (Delta_L + Delta_H)/2h (GHz)
    gap_diff: float = 4.844     # (Delta_H - Delta_L)/h (GHz), per-cooldown value
    volume_low: float = 100.0 * 700.0 * 0.03    # low-gap film volume (um^3)
    volume_high: float = 100.0 * 700.0 * 0.02   # high-gap film volume (um^3)
    dos_fermi: float = 0.72e29  # single-spin D(eps_F) (1/(um^3 J))
    g_coupling: float = 0.331   # qubit-readout coupling g/2pi (GHz)
    f_readout: float = 9.126    # readout mode omega_r/2pi (GHz)
    t_ph: float = 0.050         # phonon temperature (K)
    dynes: float = 1e-4         # dimensionless DOS broadening

    def __post_init__(self):
        require_finite(self)
        if min(self.ej1, self.ej2, self.ec, self.gap_mean) <= 0:
            raise ValueError("ej1, ej2, ec and gap_mean must be positive")
        if not 0 <= self.gap_diff < 2 * self.gap_mean:
            raise ValueError("gap_diff must satisfy 0 <= gap_diff < 2*gap_mean")
        if min(self.volume_low, self.volume_high) <= 0:
            raise ValueError("film volumes must be positive")
        if not 0 < self.dynes < 1e-2:
            raise ValueError("dynes broadening must lie in (0, 1e-2)")
        if self.t_ph <= 0:
            raise ValueError("t_ph must be positive")

    @property
    def gap_low(self):
        """Delta_L/h in GHz."""
        return self.gap_mean - 0.5 * self.gap_diff

    @property
    def gap_high(self):
        """Delta_H/h in GHz."""
        return self.gap_mean + 0.5 * self.gap_diff

    @property
    def junction_asymmetry(self):
        """d = (ej2 - ej1)/(ej1 + ej2), in (0, 1) for ej2 > ej1."""
        return abs(self.ej2 - self.ej1) / (self.ej1 + self.ej2)

    def with_(self, **kw):
        return replace(self, **kw)


def cooper_pair_number(gap_ghz, volume_um3, dos_fermi):
    """Number of Cooper pairs in a film, N_CP = 2 D(eps_F) Delta V.

    The gap is converted from GHz to joules; linear in both gap and volume.
    """
    if gap_ghz <= 0 or volume_um3 <= 0 or dos_fermi <= 0:
        raise ValueError("cooper_pair_number needs positive inputs")
    return 2.0 * dos_fermi * (H_JS * gap_ghz * 1e9) * volume_um3


_CALIBRATION_TOL = 1e-9  # allowed |fq0 sqrt(d) - fq_half| / fq0


@dataclass(frozen=True)
class FluxFrequencyMap:
    """Two-point calibration of f_q(Phi).

    f_q(Phi) = fq0 * (cos^2(pi*Phi) + d^2 sin^2(pi*Phi))^(1/4).  The default
    construction calibrates d from the two endpoint frequencies, mirroring
    how measured points are assigned flux values; ``from_device`` instead
    derives d from the junction asymmetry.
    """

    fq0: float = 5.0594      # f_q at Phi = 0 (GHz)
    fq_half: float = 3.5624  # f_q at Phi/Phi0 = 0.5 (GHz)
    d: float | None = None   # asymmetry; (fq_half/fq0)^2 when omitted

    def __post_init__(self):
        if not self.fq0 > self.fq_half > 0:
            raise ValueError("need fq0 > fq_half > 0")
        if self.d is None:
            object.__setattr__(self, "d", (self.fq_half / self.fq0) ** 2)
        if not 0 < self.d < 1:
            raise ValueError("asymmetry d must lie in (0, 1)")
        mismatch = abs(self.fq0 * math.sqrt(self.d) - self.fq_half)
        if mismatch > _CALIBRATION_TOL * self.fq0:
            raise ValueError(
                "fq0*sqrt(d) = %.6f GHz disagrees with fq_half = %.6f GHz "
                "beyond the calibration tolerance" % (self.fq0 * math.sqrt(self.d), self.fq_half)
            )

    @classmethod
    def from_device(cls, params: DeviceParams, fq0=5.0594):
        """Map with d taken from the junction energies; fq_half implied."""
        d = params.junction_asymmetry
        return cls(fq0=fq0, fq_half=fq0 * math.sqrt(d), d=d)


def flux_to_fq(fmap: FluxFrequencyMap, phi):
    """Qubit frequency at reduced flux phi (Phi/Phi0 units).

    Total function: periodic with period 1, symmetric about 0 and 0.5.
    Accepts scalars or arrays.
    """
    import numpy as np

    c2 = np.cos(np.pi * np.asarray(phi, dtype=float)) ** 2
    val = fmap.fq0 * (c2 + fmap.d**2 * (1.0 - c2)) ** 0.25
    return float(val) if np.isscalar(phi) or getattr(phi, "ndim", 0) == 0 else val


def fq_to_flux(fmap: FluxFrequencyMap, fq_ghz):
    """Inverse of flux_to_fq on [0, 0.5].

    Raises ValueError for frequencies outside [fq_half, fq0].
    """
    if not fmap.fq_half <= fq_ghz <= fmap.fq0:
        raise ValueError(
            "fq = %.6f GHz outside the mapped interval [%.6f, %.6f] GHz"
            % (fq_ghz, fmap.fq_half, fmap.fq0)
        )
    x = (fq_ghz / fmap.fq0) ** 4
    d2 = fmap.d**2
    c2 = min(1.0, max(0.0, (x - d2) / (1.0 - d2)))
    return math.acos(math.sqrt(c2)) / math.pi


# ---------------------------------------------------------------------------
# flat key=value configuration files

_DEVICE_KEYS = {
    "ej1", "ej2", "ec", "gap_mean", "gap_diff", "volume_low", "volume_high",
    "dos_fermi", "g_coupling", "f_readout", "t_ph", "dynes",
}
_MAP_KEYS = {"fq0_ghz", "fq_half_ghz"}
# dynamics section consumed by the steady-state solver / CLI
_DYNAMICS_KEYS = {"s_per_s", "g_other_per_s", "r_per_s", "nbar", "fp_ghz", "rho1"}


def parse_config_text(text):
    """Parse `key = value` lines; '#' starts a comment; unknown keys error."""
    known = _DEVICE_KEYS | _MAP_KEYS | _DYNAMICS_KEYS
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw))
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in known:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        try:
            values[key] = float(val)
        except ValueError:
            raise ConfigError("line %d: value for %r is not a number: %r" % (lineno, key, val))
    return values


def load_config(path):
    """Read a config file; returns (DeviceParams, FluxFrequencyMap, dynamics dict)."""
    with open(path) as fh:
        return config_from_values(parse_config_text(fh.read()))


def config_from_values(values):
    """(DeviceParams, FluxFrequencyMap, dynamics dict) from parsed config values."""
    dev_kw = {k: v for k, v in values.items() if k in _DEVICE_KEYS}
    try:
        params = DeviceParams(**dev_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    map_kw = {}
    if "fq0_ghz" in values:
        map_kw["fq0"] = values["fq0_ghz"]
    if "fq_half_ghz" in values:
        map_kw["fq_half"] = values["fq_half_ghz"]
    fmap = FluxFrequencyMap(**map_kw)
    dyn = {k: v for k, v in values.items() if k in _DYNAMICS_KEYS}
    return params, fmap, dyn
