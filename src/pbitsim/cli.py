"""Command line front end: reproducible experiments with CSV/JSON outputs.

Every command resolves its configuration from built-in defaults, an optional
JSON config file and explicit flags (in that order) and returns its output
files.  Only once the command has succeeded does `main` make the output
directory and write them, each but an SVG stamped with a metadata header line
(tool version, seed, config hash) prefixed with '#'.

Exit codes: 0 success, 2 configuration error, 3 runtime / analysis error
(a request too large for memory, or a write the OS refuses, included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

# One OpenBLAS thread unless the user chose a count (OpenBLAS reads these
# three in this order): pbitsim's BLAS calls are fits of 1-4 parameters and
# one matrix-vector product, and a pool of more threads busy-waits after
# NumPy's import.  OpenBLAS reads it once, as NumPy loads, so it is set here,
# before any runner imports a module that loads NumPy; --jobs workers
# inherit it.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .params import (
    IDEAL_GAIN,
    AnalysisError,
    InverterParams,
    NmosParams,
    PbitParams,
    PCircuitError,
    SmtjParams,
    calibrate_match,
    check_bound,
    config_bounds,
    r_antiparallel,
)

# The modules the runners call into.  None of them is imported with this
# module: a runner binds the functions and classes its modules define here
# first (_load), and so does looking a name up on this module (__getattr__).
# So a command imports only what it runs, and --help or a rejected config
# loads no NumPy.  The runners look the names up here when they call them,
# so a name set on this module (a test's stub, perfbench's traced wrapper)
# is the one that runs.
_MODULES = ("analysis", "device", "fit", "metrics", "pcircuit", "smtj", "svg")


def _load(*modules: str) -> None:
    """Import modules and bind the functions and classes each defines here,
    keeping any name already bound."""
    for module in modules:
        # the import statement's own path, which -X importtime reports and
        # importlib.import_module bypasses
        __import__(f"{__package__}.{module}")
        loaded = sys.modules[f"{__package__}.{module}"]
        for name, value in vars(loaded).items():
            if callable(value) and getattr(value, "__module__", None) == loaded.__name__:
                globals().setdefault(name, value)


def __getattr__(name: str):
    if not name.startswith("__"):
        _load(*_MODULES)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Node index of the gate output C in the AND / OR presets.
GATE_OUTPUT_NODE = 2

# Point index, under smtj._point_seed, of the stream that builds the default
# empirical activation.
_ACTIVATION_STREAM = 999331

# Most points a stepped field or input grid may hold.  Each point is a
# simulation of its own (the default grids hold 22 and 21), so a step that
# gives more is a mistake, reported before the grid is built.
_GRID_POINTS = 100_000


class ConfigError(Exception):
    """Invalid or inconsistent configuration; maps to exit code 2."""


SMTJ_DEFAULTS = SmtjParams().to_json()

# Keys every simulating command takes.
_RUN_DEFAULTS = {"seed": 1, "out_dir": "pbitsim_out", "svg": False}

TRACE_DEFAULTS = {
    **SMTJ_DEFAULTS,
    **_RUN_DEFAULTS,
    "b_field_T": None,  # defaults to b_5050_T
    "duration_s": 50.0,  # reference acquisition length
    "dt_s": 1e-5,  # 100 kHz sampling
    "input_trace": None,
    # DC read current for voltage-trace conversion when neither a flag, the
    # config file nor the export's sidecar gives one
    "bias_current_A": 1e-5,
    "offset_ohm": 0.0,
}

SWEEP_DEFAULTS = {
    **SMTJ_DEFAULTS,
    **_RUN_DEFAULTS,
    "b_min_T": -8.0e-3,
    "b_max_T": -6.44e-3,
    "b_step_T": 7.5e-5,
    "point_duration_s": 2.0,
    "dt_s": 1e-5,
    "jobs": 1,
}

TRANSFER_DEFAULTS = {
    **SMTJ_DEFAULTS,
    **_RUN_DEFAULTS,
    "v_dd_V": PbitParams().v_dd,
    "nmos_v_threshold_V": NmosParams().v_threshold,
    "nmos_k_factor_A_per_V2": None,  # None selects resistance-matched calibration
    "inverter_v_switch_V": None,  # defaults to v_dd / 2
    "inverter_gain": None,  # None selects the ideal comparator
    "b_field_T": None,
    "v_start_V": 0.58,
    "v_stop_V": 0.62,
    "v_step_V": 0.002,
    "v_inputs_V": None,  # explicit grid overrides start/stop/step
    "n_per_point": 500,
    "sample_interval_s": 0.1,
    "jobs": 1,
}

GATE_DEFAULTS = {
    **_RUN_DEFAULTS,
    "gate": "and",
    "clamp_c": None,
    "i0": 2.0,
    "sweeps": 1_000_000,
    "burn_in": 1000,
    "all_modes": False,
    "activation": "ideal",
}

METRICS_DEFAULTS = {
    "seed": 0,
    "out_dir": "pbitsim_out",
}


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",")]


# What a key's default cannot say, as add_argument keywords: the type of a
# None default, choices and help; "flag" where the flag is not the key's own
# spelling.
FLAGS = {
    "seed": {"help": "master RNG seed"},
    "out_dir": {"help": "output directory"},
    "svg": {"help": "also render a minimal SVG plot"},
    "jobs": {"help": "parallel workers across grid points"},
    "b_field_T": {"type": float},
    "input_trace": {"type": str, "help": "analyze this CSV instead of simulating"},
    "nmos_k_factor_A_per_V2": {"type": float, "flag": "--nmos-k-factor"},
    "inverter_v_switch_V": {"type": float},
    "inverter_gain": {"type": float},
    "v_inputs_V": {
        "type": _float_list,
        "flag": "--v-inputs",
        "help": "comma-separated explicit input list, overrides start/stop/step",
    },
    "gate": {"choices": ["and", "or"]},
    "clamp_c": {"type": int, "choices": [0, 1]},
    "activation": {"choices": ["ideal", "empirical"]},
}

# Each key's own range, (">", low) or (">=", low), checked for every key a
# command takes, whichever of its modes uses it: the run keys' here, the
# device keys' from their parameter dataclass fields.  Rules that join two
# keys stay with their runner, which checks them in either mode too.
BOUNDS = {
    **dict.fromkeys(("duration_s", "dt_s", "point_duration_s", "b_step_T", "v_step_V",
                     "sample_interval_s", "i0", "bias_current_A"), (">", 0)),
    # numpy seeds take non-negative integers only
    "seed": (">=", 0), "burn_in": (">=", 0),
    **dict.fromkeys(("jobs", "n_per_point", "sweeps"), (">=", 1)),
    **config_bounds(SmtjParams, NmosParams, InverterParams, PbitParams),
}


def _kind(key: str, default) -> type:
    """What a key's value must be: its FLAGS type, else its default's type."""
    return FLAGS.get(key, {}).get("type", type(default))


def _resolve(defaults: dict, config_path, overrides: dict) -> tuple[dict, set]:
    """Defaults < config file < flags, and the set of keys the file or a flag gave.

    Each value must be of its key's kind, among its FLAGS choices and inside
    its BOUNDS; where the default is None, null passes too.  An out_dir that
    exists must be a directory.
    """
    cfg = dict(defaults)
    given = set()
    if config_path is not None:
        try:
            with open(config_path) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
        given.update(file_cfg)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
            given.add(key)
    for key, value in cfg.items():
        if value is None and defaults[key] is None:
            continue
        kind = _kind(key, defaults[key])
        if not _is_kind(value, kind):
            raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
        choices = FLAGS.get(key, {}).get("choices")
        if choices is not None and value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        if key in BOUNDS:
            check_bound(key, value, BOUNDS[key], ConfigError)
    out = Path(cfg["out_dir"])
    _require(out.is_dir() or not out.exists(), f"out_dir {out} is not a directory")
    return cfg, given


def _is_kind(value, kind) -> bool:
    """Finite int or float for float, int for int; a bool is neither."""
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is _float_list:
        return isinstance(value, list) and all(_is_kind(v, float) for v in value)
    return isinstance(value, kind)


_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               bool: "true or false", _float_list: "a list of finite numbers"}


_UNHASHED_KEYS = {"out_dir", "jobs"}  # execution details that cannot change results


def _config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k not in _UNHASHED_KEYS}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(cfg: dict) -> str:
    return f"# pbitsim {__version__} seed={cfg.get('seed')} config_sha256={_config_hash(cfg)}"


def _write_files(cfg: dict, files: dict) -> None:
    """Make out_dir and write a command's files in order, each but an SVG after _meta.

    A dict body is written as JSON, a str as is, and a callable as body(file).
    """
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg)
    for name, body in files.items():
        with open(out / name, "w", newline="") as f:
            if not name.endswith(".svg"):
                f.write(meta + "\n")
            if isinstance(body, dict):
                f.write(json.dumps(body, sort_keys=True, indent=2) + "\n")
            elif isinstance(body, str):
                f.write(body)
            else:
                body(f)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _grid(start: float, stop: float, step: float, name: str) -> list:
    """Points start + k * step up to stop, or to within 1e-9 steps short of it.

    The count is checked before the grid is built: a step far below the span
    would otherwise ask for a list of astronomically many points.
    """
    steps = (stop - start) / step + 1e-9
    # floor(steps) < _GRID_POINTS exactly when steps is, and math.floor
    # raises on inf, so the bound is checked first
    _require(
        steps < _GRID_POINTS,
        f"{name} grid of step {step:g} holds more than {_GRID_POINTS} points",
    )
    return [start + k * step for k in range(math.floor(steps) + 1)]


# ---------------------------------------------------------------- smtj-trace


def cmd_smtj_trace(cfg: dict, given: set) -> dict:
    _load("analysis", "smtj")
    smtj = SmtjParams.from_json(cfg)
    _require(cfg["duration_s"] >= cfg["dt_s"], "duration_s must cover one sample")
    if cfg["input_trace"] is not None:
        _require(Path(cfg["input_trace"]).is_file(), f"no such trace: {cfg['input_trace']}")
        # a voltage export's sidecar overrides the default bias current, not
        # one given as a flag or in the config file
        bias = cfg["bias_current_A"]
        if "bias_current_A" not in given and bias_sidecar(cfg["input_trace"]).exists():
            bias = None
        trace = load_trace(cfg["input_trace"], bias_current=bias, offset_ohm=cfg["offset_ohm"])
    else:
        b = cfg["b_field_T"] if cfg["b_field_T"] is not None else smtj.b_5050
        trace = sample_trajectory(smtj, b, cfg["duration_s"], cfg["dt_s"], cfg["seed"])

    levels, labeled = threshold_states(trace)
    occupancy = float(labeled.labels.mean())
    dwell_direct = mean_dwell_direct(labeled)
    dt = labeled.sample_interval
    tau_corr_est = 2.0 * dwell_direct * occupancy * (1.0 - occupancy)
    max_lag = min(max(int(4 * tau_corr_est / dt) + 1, 8), len(labeled) // 4 - 1)
    acf = autocorrelation(labeled, max_lag)
    dwell = fit_dwell_time(acf, dt, occupancy)

    files = {"trace.csv": labeled.to_csv}
    if cfg["svg"]:
        _load("svg")
        stride = max(1, len(labeled) // 4000)
        files["trace.svg"] = line_svg(
            [k * dt for k in range(0, len(labeled), stride)],
            labeled.values[::stride],
            "sMTJ resistance trace",
            "time (s)",
            "resistance (ohm)",
        )
    files["analysis.json"] = {
        "n_samples": len(labeled),
        "r_low_ohm": levels.r_low,
        "r_high_ohm": levels.r_high,
        "threshold_ohm": levels.threshold,
        "tmr": tmr_from_levels(levels),
        "occupancy_ap": occupancy,
        "dwell_acf_s": dwell.tau,
        "tau_corr_s": dwell.tau_corr,
        "acf_fit_rmse": dwell.fit_rmse,
        "dwell_direct_s": dwell_direct,
    }
    return files


# --------------------------------------------------------------- field-sweep


def cmd_field_sweep(cfg: dict, given: set) -> dict:
    _load("analysis", "smtj")
    smtj = SmtjParams.from_json(cfg)
    _require(cfg["b_max_T"] > cfg["b_min_T"], "b_max_T must exceed b_min_T")
    _require(cfg["point_duration_s"] >= cfg["dt_s"], "point_duration_s must cover one sample")
    grid = _grid(cfg["b_min_T"], cfg["b_max_T"], cfg["b_step_T"], "field")
    _require(len(grid) >= 2, "sweep needs at least two field points")

    r_p, r_ap = smtj.r_parallel, r_antiparallel(smtj)
    mid = 0.5 * (r_p + r_ap)
    if not math.isfinite(mid):
        raise LevelOverflow(f"levels {r_p:.4g} and {r_ap:.4g} ohm overflow their midpoint")
    points = simulate_field_sweep(
        smtj, grid, cfg["point_duration_s"], cfg["dt_s"], cfg["seed"], jobs=cfg["jobs"]
    )
    overflowed = [b for b, r in points if not math.isfinite(r)]
    if overflowed:
        raise LevelOverflow(f"mean resistance at {overflowed[0]:.4g} T overflows a double")
    levels = LevelEstimate(r_low=r_p, r_high=r_ap, threshold=mid)
    window = extract_stochastic_window(FieldSweep(points), levels)

    rows = "".join(f"{b:.12g},{r:.12g}\n" for b, r in points)
    files = {"sweep.csv": "b_T,mean_resistance_ohm\n" + rows}
    if cfg["svg"]:
        _load("svg")
        files["sweep.svg"] = line_svg(
            [b for b, _ in points],
            [r for _, r in points],
            "field sweep",
            "B (T)",
            "mean resistance (ohm)",
        )
    files["window.json"] = {
        "b_low_T": window.b_low,
        "b_high_T": window.b_high,
        "b_5050_T": window.b_5050,
        "width_T": window.width,
        "r_low_ohm": levels.r_low,
        "r_high_ohm": levels.r_high,
    }
    return files


# ------------------------------------------------------------------ transfer


def _pbit_from_cfg(cfg: dict) -> PbitParams:
    v_dd = cfg["v_dd_V"]
    v_switch = cfg["inverter_v_switch_V"]
    gain = cfg["inverter_gain"]
    k_factor = cfg["nmos_k_factor_A_per_V2"]
    try:
        p = PbitParams(
            smtj=SmtjParams.from_json(cfg),
            inverter=InverterParams(
                v_dd / 2 if v_switch is None else v_switch, IDEAL_GAIN if gain is None else gain
            ),
            nmos=NmosParams(cfg["nmos_v_threshold_V"], 1.0 if k_factor is None else k_factor),
            v_dd=v_dd,
        )
        return replace(p, nmos=calibrate_match(p)) if k_factor is None else p
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _transfer_grid(cfg: dict) -> list:
    # the stepped grid must hold a point even where an input list overrides it
    grid = _grid(cfg["v_start_V"], cfg["v_stop_V"], cfg["v_step_V"], "input")
    _require(len(grid) >= 1, "v_stop_V must not lie below v_start_V")
    if cfg["v_inputs_V"] is not None:
        grid = [float(v) for v in cfg["v_inputs_V"]]
    _require(len(grid) >= 1, "input grid is empty")
    v_dd = cfg["v_dd_V"]
    _require(all(0 <= v <= v_dd for v in grid), "grid inputs must lie in [0, v_dd]")
    return grid


def _measure_transfer(cfg: dict, seed) -> tuple[PbitParams, TransferCurve]:
    """The P-Bit of a transfer config and its curve over the config's grid."""
    p = _pbit_from_cfg(cfg)
    grid = _transfer_grid(cfg)
    b = cfg["b_field_T"] if cfg["b_field_T"] is not None else p.smtj.b_5050
    curve = transfer_curve(
        p, grid, cfg["n_per_point"], cfg["sample_interval_s"], b, seed, jobs=cfg["jobs"]
    )
    return p, curve


def cmd_transfer(cfg: dict, given: set) -> dict:
    _load("device", "fit")
    p, curve = _measure_transfer(cfg, cfg["seed"])

    if len(curve.points) >= 4:
        try:
            center, width = fit_sigmoid(curve.v_in, curve.means, p.v_dd)
        except FitDiverged:
            center = width = None
    else:
        center = width = None

    files = {"samples.csv": curve.to_samples_csv, "curve.csv": curve.to_summary_csv}
    if cfg["svg"] and len(curve.points) >= 2:
        _load("svg")
        files["curve.svg"] = line_svg(
            curve.v_in, curve.means,
            "P-Bit transfer curve", "v_in (V)", "mean v_out (V)",
        )
    files["sigmoid.json"] = {
        "center_V": center,
        "width_V": width,
        "mixed_span_V": mixed_region_span(curve, p.v_dd),
        "v_dd_V": p.v_dd,
        "nmos_k_factor_A_per_V2": p.nmos.k_factor,
    }
    return files


# ---------------------------------------------------------------------- gate


def _default_empirical_activation(seed: int) -> EmpiricalActivation:
    """Activation table measured off the calibrated default P-Bit.

    Uses the soft-inverter mode: a hard comparator would give a three-level
    table with exactly saturated tails that pins the sampler in one state.
    """
    cfg = {**TRANSFER_DEFAULTS, "inverter_gain": 60.0, "n_per_point": 2000,
           "v_inputs_V": [round(0.54 + 0.001 * k, 5) for k in range(121)]}
    p, curve = _measure_transfer(cfg, _point_seed(seed, _ACTIVATION_STREAM))
    return EmpiricalActivation.from_transfer_curve(curve, p.v_dd)


def cmd_gate(cfg: dict, given: set) -> dict:
    _load("device", "pcircuit", "smtj")
    if cfg["all_modes"]:
        modes = [("and", 0), ("and", 1), ("or", 0), ("or", 1)]
    else:
        modes = [(cfg["gate"], cfg["clamp_c"])]

    if cfg["activation"] == "ideal":
        act = IdealTanh()
    else:
        act = _default_empirical_activation(cfg["seed"])

    if cfg["svg"]:
        _load("svg")
    files = {}
    for mode_index, (gate, clamp_c) in enumerate(modes):
        circuit = and_gate(cfg["i0"]) if gate == "and" else or_gate(cfg["i0"])
        if clamp_c is not None:
            circuit = clamp(circuit, GATE_OUTPUT_NODE, clamp_c)
        run_seed = _point_seed(cfg["seed"], mode_index)
        hist = gibbs_run(circuit, act, cfg["sweeps"], cfg["burn_in"], run_seed)
        exact = boltzmann_exact(circuit)
        l1 = compare_to_oracle(hist, exact)

        prefix = f"{gate}_{'free' if clamp_c is None else f'c{clamp_c}'}"
        files[f"{prefix}_histogram.csv"] = hist.to_csv
        if cfg["svg"]:
            words = [format(i, f"0{hist.n}b") for i in range(2**hist.n)]
            freqs = hist.frequencies()
            files[f"{prefix}_histogram.svg"] = bar_svg(
                words,
                [freqs.get(w, 0.0) for w in words],
                f"{gate.upper()} gate, {'free' if clamp_c is None else f'C={clamp_c}'}",
                "word (ABC)",
                "frequency",
            )
        rows = "".join(f"{word},{exact[word]:.12g}\n" for word in sorted(exact))
        files[f"{prefix}_oracle.csv"] = "word,probability\n" + rows
        files[f"{prefix}_summary.json"] = {
            "gate": gate,
            "clamp_c": clamp_c,
            "i0": cfg["i0"],
            "sweeps": cfg["sweeps"],
            "burn_in": cfg["burn_in"],
            "activation": cfg["activation"],
            "l1_distance": l1,
            "modal_word": hist.modal_word(),
        }
    return files


# ------------------------------------------------------------------- metrics


def cmd_metrics(cfg: dict, given: set) -> dict:
    _load("metrics")
    return {"perf_points.csv": partial(write_perf_csv, comparison_table())}


# -------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    """Key foo_bar_V of a command's defaults gives its flag --foo-bar-V.

    The flag parses to the key's kind (_kind), a bool key's flag sets True,
    and FLAGS adds choices and help or respells the flag.
    """
    parser = argparse.ArgumentParser(
        prog="pbitsim",
        description="Stochastic-MTJ P-Bit simulator: traces, sweeps, transfer "
        "curves, invertible gates and performance points.",
    )
    parser.add_argument("--version", action="version", version=f"pbitsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (defaults, _, summary) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        # No flag starts with -<digit> or -.<digit>, so such a token is a
        # value: argparse's own pattern misses -8e-3 and -0.1,0.6.
        sub._negative_number_matcher = re.compile(r"-\.?\d")
        sub.add_argument("--config", help="JSON config file")
        for key, default in defaults.items():
            options = {**FLAGS.get(key, {}), "dest": key}
            flag = options.pop("flag", "--" + key.replace("_", "-"))
            if isinstance(default, bool):
                options.update(action="store_const", const=True)
            else:
                options["type"] = _kind(key, default)
            sub.add_argument(flag, **options)
    return parser


# command: (its config keys and their defaults, runner, --help summary)
_COMMANDS = {
    "smtj-trace": (TRACE_DEFAULTS, cmd_smtj_trace, "simulate or analyze a telegraph trace"),
    "field-sweep": (
        SWEEP_DEFAULTS, cmd_field_sweep, "extract the stochastic window from a field sweep"
    ),
    "transfer": (TRANSFER_DEFAULTS, cmd_transfer, "sample the P-Bit transfer curve"),
    "gate": (GATE_DEFAULTS, cmd_gate, "run the invertible AND/OR gate against the exact oracle"),
    "metrics": (
        METRICS_DEFAULTS, cmd_metrics, "write the power / throughput comparison points"
    ),
}


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    defaults, runner, _ = _COMMANDS[args.pop("command")]
    config_path = args.pop("config")
    try:
        cfg, given = _resolve(defaults, config_path, args)
        _write_files(cfg, runner(cfg, given))
    except ConfigError as exc:
        print(f"pbitsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnalysisError, PCircuitError, ValueError, MemoryError, OSError) as exc:
        print(f"pbitsim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
