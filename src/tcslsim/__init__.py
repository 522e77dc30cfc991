"""Statistical indoor channel simulator for 28 GHz and 140 GHz office
scenarios, with closed-loop analysis of the generated channels.

The package root re-exports the main entry points; everything else is
imported from its submodule (`tcslsim.randcore`, `tcslsim.campaign`, ...).
"""

__version__ = "0.1.0"

from .scenario import (
    ALL_SCENARIOS,
    Scenario,
    ScenarioParams,
    SimConfig,
    lookup_params,
    params_table,
    validate_config,
)
from .generate import DropBlock, generate_batch, generate_drop, generate_drops
from .stats import build_pas, circular_angular_spread, rms_delay_spread
from .analysis import compare_distributions, extract_spatial_lobes
