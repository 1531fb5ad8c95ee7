"""Parasitic-emission side channels of carrier-injection VOAs in BB84.

A silicon p-n junction used as a variable optical attenuator emits
weak broadband light under forward bias. In a chip-based decoy-state
BB84 transmitter that emission leaks protocol information in two ways,
depending on where the attenuator sits:

* before the encoder, the leaked light is modulated and an
  eavesdropper holding it makes the source basis-dependent
  (a passive Trojan-horse attack, bounded via the GLLP/Koashi
  quantum-coin argument);
* after the encoder, the unmodulated light co-propagates with the
  signal and biases the receiver's decoy estimates and error rates
  (a dual-source flaw).

The subpackages cover the chain from device physics to key rate:

- `voa_physics`: free-carrier plasma dispersion, attenuation,
  band-edge wavelength, diode ideality fits.
- `fringe`: emission center wavelength from asymmetric-MZI fringe
  scans via the squared-heater-voltage ratio method.
- `leakage`: detected count rates to leaked mean photon numbers.
- `channel`: fiber/receiver model and dual-source gain/QBER.
- `decoy`: two-decoy single-photon bounds.
- `security`: asymptotic key rates for both attack geometries.
- `scenario` / `cli`: config-driven distance sweeps and file IO.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    TraceParseError,
    TraceSchemaError,
    VoaleakError,
)
from .voa_physics import (
    DEFAULT_FIT_WINDOWS,
    CarrierState,
    IdealityFit,
    IvCurve,
    attenuation_db,
    attenuation_from_counts,
    bandgap_wavelength,
    fit_ideality,
    plasma_dispersion_general,
    soref_1550,
)
from .fringe import (
    ExtremaPair,
    FringeTrace,
    center_wavelength,
    find_extrema_pair,
)
from .leakage import EmissionSpec, mean_photon_number
from .channel import (
    ChannelParams,
    Observables,
    observables_for_intensity,
)
from .decoy import DecoyObservations, SinglePhotonBounds, single_photon_bounds
from .security import (
    binary_entropy,
    calibrated_intensity,
    coin_imbalance,
    dual_source_key_rate,
    gllp_key_rate,
    phase_error_with_tha,
)
from .scenario import (
    RESULT_HEADER,
    IvFitResult,
    LeakageResult,
    ScenarioConfig,
    SweepResult,
    WavelengthResult,
    emit_results,
    load_config,
    load_trace,
    read_results,
    run_scenario,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VoaleakError", "DomainError", "InsufficientDataError",
    "ConfigurationError", "TraceParseError", "TraceSchemaError",
    # voa_physics
    "CarrierState", "IvCurve", "IdealityFit", "DEFAULT_FIT_WINDOWS",
    "plasma_dispersion_general", "soref_1550", "attenuation_db",
    "attenuation_from_counts", "bandgap_wavelength", "fit_ideality",
    # fringe
    "FringeTrace", "ExtremaPair", "find_extrema_pair", "center_wavelength",
    # leakage
    "EmissionSpec", "mean_photon_number",
    # channel
    "ChannelParams", "Observables", "observables_for_intensity",
    # decoy
    "DecoyObservations", "SinglePhotonBounds", "single_photon_bounds",
    # security
    "binary_entropy", "coin_imbalance", "phase_error_with_tha",
    "gllp_key_rate", "dual_source_key_rate", "calibrated_intensity",
    # scenario
    "ScenarioConfig", "SweepResult", "WavelengthResult",
    "IvFitResult", "LeakageResult", "RESULT_HEADER", "load_config",
    "run_scenario", "load_trace", "save_trace", "emit_results",
    "read_results",
]
