"""Statistical indoor channel simulator for 28 GHz and 140 GHz office
scenarios, with closed-loop analysis of the generated channels."""

__version__ = "0.1.0"

from .errors import (
    ChannelSimError,
    ConfigValidationError,
    InvalidParamsError,
)
from .scenario import (
    ALL_SCENARIOS,
    FrequencyBand,
    Scenario,
    ScenarioParams,
    SimConfig,
    Visibility,
    apply_overrides,
    lookup_params,
    params_table,
    resolved_params,
    validate_config,
)
from .randcore import (
    CompositeSubpath,
    DiscreteUniform,
    Exponential,
    Lognormal,
    Normal,
    PoissonShifted,
    RandomStream,
    Uniform,
)
from .pathloss import LinkBudget, fspl_1m, link_budget, path_loss_ci
from .generate import (
    ChannelDrop,
    SpatialLobe,
    generate_batch,
    generate_drop,
    generate_drops,
)
from .stats import (
    PowerAngularSpectrum,
    PowerDelayProfile,
    build_pas,
    build_pdp,
    circular_angular_spread,
    drop_rms_delay_spread,
    global_rms_as,
    rms_delay_spread,
    summarize,
)
from .analysis import (
    ClusterPartition,
    FitReport,
    LobeSet,
    compare_distributions,
    extract_spatial_lobes,
    fit_composite_subpath,
    fit_exponential,
    fit_lognormal,
    fit_poisson_shifted,
    partition_time_clusters,
)
from .campaign import (
    CampaignResult,
    DropRecord,
    emit_outputs,
    reproduce_report,
    run_campaign,
)
