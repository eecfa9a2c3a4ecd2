"""Desk-scale simulator of stochastic-MTJ probabilistic bits.

Subpackages cover the telegraph-noise junction model (smtj), trace and sweep
analysis (analysis), the 3T-1MTJ circuit (device), coupled P-Bit networks
with an exact Boltzmann oracle (pcircuit), power / throughput bookkeeping
(metrics) and the command line front end (cli).

The names below load their submodule, and with it NumPy, on first access
(PEP 562), so `import pbitsim` alone imports neither.  That lets `pbitsim.cli`
run before NumPy loads and choose its BLAS thread count.
"""

import importlib

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
            "InverterParams", "NmosParams", "PbitParams", "TransferCurve",
            "calibrate_match", "drain_voltage", "nmos_resistance", "output_voltage",
            "sample_output", "transfer_curve",
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
        "smtj": [
            "MtjState", "SmtjParams", "TelegraphTrace", "dwell_times", "occupancy_ap",
            "r_antiparallel", "sample_trajectory", "simulate_field_sweep",
            "switching_times",
        ],
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
