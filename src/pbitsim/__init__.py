"""Desk-scale simulator of stochastic-MTJ probabilistic bits.

Subpackages cover the parameters and scalar physics (params), the
telegraph-noise junction model (smtj), trace and sweep analysis (analysis)
and its least-squares solver (fit), the 3T-1MTJ circuit (device), coupled
P-Bit networks with an exact Boltzmann oracle (pcircuit), power / throughput
bookkeeping (metrics) and the command line front end (cli).

The names below load their submodule on first access (PEP 562), so
`import pbitsim` alone imports neither a submodule nor NumPy.  The names of
params load no NumPy at all; every other submodule but metrics loads it.
"""

import sys

__version__ = "0.1.0"

# exported name: the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": [
            "DwellEstimate", "FieldSweep", "LevelEstimate", "StochasticWindow",
            "autocorrelation", "extract_stochastic_window", "fit_dwell_time",
            "mean_dwell_direct", "threshold_states", "tmr_from_levels",
        ],
        "device": [
            "TransferCurve", "drain_voltage", "output_voltage", "sample_output",
            "transfer_curve",
        ],
        "metrics": [
            "PerfPoint", "comparison_table", "inverter_dynamic_power",
            "pbit_static_power", "projection_p4", "throughput_from_dwell",
        ],
        "pcircuit": [
            "EmpiricalActivation", "IdealTanh", "PCircuit", "StateHistogram",
            "and_gate", "boltzmann_exact", "clamp", "compare_to_oracle", "gibbs_run",
            "or_gate",
        ],
        "params": [
            "InverterParams", "MtjState", "NmosParams", "PbitParams", "SmtjParams",
            "calibrate_match", "dwell_times", "nmos_resistance", "occupancy_ap",
            "r_antiparallel",
        ],
        "smtj": [
            "TelegraphTrace", "sample_trajectory", "simulate_field_sweep", "switching_times",
        ],
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_EXPORTS[name]}"
    __import__(module)  # the import statement's own path, which -X importtime reports
    value = getattr(sys.modules[module], name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
