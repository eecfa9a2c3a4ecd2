"""Desk-scale simulator of stochastic-MTJ probabilistic bits.

Subpackages cover the telegraph-noise junction model (smtj), trace and sweep
analysis (analysis), the 3T-1MTJ circuit (device), coupled P-Bit networks
with an exact Boltzmann oracle (pcircuit), power / throughput bookkeeping
(metrics) and the command line front end (cli).
"""

__version__ = "0.1.0"

from .analysis import (
    DwellEstimate,
    FieldSweep,
    LevelEstimate,
    StochasticWindow,
    autocorrelation,
    extract_stochastic_window,
    fit_dwell_time,
    mean_dwell_direct,
    threshold_states,
    tmr_from_levels,
)
from .device import (
    InverterParams,
    NmosParams,
    PbitParams,
    TransferCurve,
    calibrate_match,
    drain_voltage,
    nmos_resistance,
    output_voltage,
    sample_output,
    transfer_curve,
)
from .metrics import (
    PerfPoint,
    comparison_table,
    inverter_dynamic_power,
    pbit_static_power,
    projection_p4,
    throughput_from_dwell,
)
from .pcircuit import (
    EmpiricalActivation,
    IdealTanh,
    PCircuit,
    StateHistogram,
    and_gate,
    boltzmann_exact,
    clamp,
    compare_to_oracle,
    gibbs_run,
    or_gate,
)
from .smtj import (
    MtjState,
    SmtjParams,
    TelegraphTrace,
    dwell_times,
    occupancy_ap,
    r_antiparallel,
    sample_trajectory,
    simulate_field_sweep,
    switching_times,
)
