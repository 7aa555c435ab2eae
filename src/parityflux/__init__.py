"""Charge-parity switching in a flux-tunable offset-charge-sensitive transmon.

Library layout:

- device:        fixed device parameters, flux <-> frequency map, config files
- spectrum:      charge-basis diagonalization and tunneling matrix elements
- superconductor: BCS DOS, occupations, density/potential conversions,
                 structure-factor integrals
- rates:         number-conserving and photon-assisted parity rates,
                 dilute per-QP tables, effective-single-frequency reduction
- steady_state:  coupled quasiparticle density balance and model curves
- fitting:       damped least squares, multi-dataset model fits, thermal and
                 lamp-power models
- telegraph:     parity jump-trace simulation and estimators (PSD,
                 autocorrelation, conditional rates, burst detection)
- cli:           reproducible command-line pipelines
"""

from .device import (ConfigError, DeviceParams, FluxFrequencyMap,
                     cooper_pair_number, flux_to_fq, fq_to_flux, load_config)
from .spectrum import (ChargeMatrixElements, Junction, SpectrumResult,
                       TruncationError, charge_matrix_elements, eigensystem,
                       parity_spectrum)
from .superconductor import FilmState, dos, mu_from_xqp, occupation, xqp_from_mu
from .rates import (PhotonDrive, RateBreakdown, blackbody_weights,
                    effective_single_frequency, nups_rates, paps_rates,
                    rate_breakdown)
from .steady_state import (CurvePoint, DynamicsParams, QPState,
                           SteadyStateError, gamma_curve,
                           solve_trapping_for_density)
from .fitting import (DegenerateFitError, FitDataset, FitProblem, FitResult,
                      band_power, fit, fit_lamp, fit_lamp_series, fit_thermal,
                      lamp_model, LampTheta, pseudo_r2)
from .telegraph import (BurstEvent, JumpTrace, conditional_rates,
                        detect_bursts, gamma_statistics, psd_gamma,
                        read_trace, simulate_trace, write_trace)

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
