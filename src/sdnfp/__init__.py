"""sdnfp: a desk-scale lab for timing-based fingerprinting of OpenFlow
controller-switch interactions, and the group-table delay countermeasure."""

from .defense import (
    DelayElementConfig,
    FlowActivity,
    TABLE4_DELTA_RTT,
    TABLE4_DISPERSION,
    apply_delay_element,
    delay_for,
    select_bucket,
)
from .distributions import DelayModel
from .features import (
    DELTA_RTT,
    DISPERSION,
    Samples,
    ScenarioContext,
    delta_rtt_ms,
    dispersion_ms,
    label_samples,
    passive_samples,
)
from .netsim import (
    ControllerSpec,
    DriftModel,
    FlowKey,
    FlowTable,
    LinkSpec,
    Packet,
    PathSpec,
    Simulation,
    SwitchSpec,
    clear_flow_tables,
    handle_table_miss,
    transmission_delay_ns,
    uniform_path,
)
from .probes import (
    ProbeSchedule,
    Trace,
    build_probe_train,
    extract_passive_pairs,
)
from .scenario import (
    ConfigError,
    ResultBundle,
    Scenario,
    builtin_scenarios,
    drift_variant,
    emit_report,
    load_scenarios,
    run_scenario,
)
from .stats import (
    EERResult,
    GPDParams,
    Histogram,
    build_histogram,
    compute_eer,
    fit_gpd,
    gpd_quantile,
    gpd_sample,
    welch_t_test,
)

__version__ = "0.1.0"
