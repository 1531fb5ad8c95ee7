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

from . import channel, decoy, errors, fringe, leakage, scenario, security, voa_physics
from .errors import *
from .voa_physics import *
from .fringe import *
from .leakage import *
from .channel import *
from .decoy import *
from .security import *
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

# Each module's export list, and the part of scenario's imported above.
__all__ = ["__version__", *errors.__all__, *voa_physics.__all__, *fringe.__all__,
           *leakage.__all__, *channel.__all__, *decoy.__all__, *security.__all__,
           *(name for name in scenario.__all__ if name in globals())]
