"""Mode tracking and channel capacities for instantaneously coupled
detectors on a massless scalar field in 2+1 and 3+1 dimensions."""

from .channel import (
    CapacityResult,
    ChannelScenario,
    capacity,
    capacity_table,
    make_channel_scenario,
    marginalize,
    mutual_information,
)
from .errors import ConfigurationError, NumericConsistencyError, QuadratureError
from .field_kernel import PairingMatrix, pairing, pairing_matrix
from .qic import (
    FieldGrid,
    Generator,
    GridAxis,
    GridSpec,
    QicModeSet,
    build_qic,
    weighting_grid,
)
from .scenarios import (
    preset,
    shockwave_scenario,
    single_qic_scenario,
    table1_scenario,
)
from .smearing import RadialSmearing, radial_ft

__all__ = [
    "CapacityResult",
    "ChannelScenario",
    "ConfigurationError",
    "FieldGrid",
    "Generator",
    "GridAxis",
    "GridSpec",
    "NumericConsistencyError",
    "PairingMatrix",
    "QicModeSet",
    "QuadratureError",
    "RadialSmearing",
    "build_qic",
    "capacity",
    "capacity_table",
    "make_channel_scenario",
    "marginalize",
    "mutual_information",
    "pairing",
    "pairing_matrix",
    "preset",
    "radial_ft",
    "shockwave_scenario",
    "single_qic_scenario",
    "table1_scenario",
    "weighting_grid",
]
