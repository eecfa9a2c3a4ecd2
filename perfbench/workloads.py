"""Workloads: the CLI commands each one runs, its generated inputs and its output checks.

Every command is one operation.  It fails on a nonzero exit, on a traceback
on stderr, or when one of its outputs falls outside the paper's tolerance
(the bounds of tests/test_acceptance.py and the README).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Reference device of the paper: 27.6 kOhm, 14.5% TMR, 4.2 ms mean dwell.
R_PARALLEL = 27.6e3
TMR = 0.145
DWELL_S = 4.2e-3
TRACE_SAMPLES = 5_000_000  # 50 s at 100 kHz, the smtj-trace default

# Synthetic scope export read back by `smtj-trace --input-trace`.
SCOPE_DT_S = 1e-5
SCOPE_BIAS_A = 1e-5  # equals the CLI's default bias_current_A
SCOPE_NOISE_V = 2e-3
_SCOPE_STREAM = 0x5C0FE  # entropy tag separating the input stream from the CLI's
_SCOPE_CHUNK = 100_000


@dataclass
class Command:
    """One CLI invocation: a name, its argv and the check of its out dir."""

    name: str
    argv: list
    check: Callable[[Path], list]
    out_dir: Path = field(default=None)


@dataclass
class Workload:
    name: str
    why: str
    commands: Callable[[Path, int], list]
    prepare: Callable[[Path, int], dict] = lambda work, seed: {}


# ------------------------------------------------------------------ inputs


def write_scope_export(path: Path, seed: int, n: int = TRACE_SAMPLES) -> dict:
    """Write a noisy `time_s,voltage_V` telegraph export and its bias sidecar.

    The telegraph has exponential 4.2 ms dwells in both states (equal
    occupancy), levels of the reference device read at 10 uA, and 2 mV
    Gaussian read noise.  It is drawn with NumPy alone, so the input does not
    depend on pbitsim's own random streams.  Returns rows and bytes written.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SCOPE_STREAM)))
    duration = n * SCOPE_DT_S
    flips = np.cumsum(rng.exponential(DWELL_S, int(1.25 * duration / DWELL_S) + 64))
    while flips[-1] < duration:
        more = np.cumsum(rng.exponential(DWELL_S, flips.size // 4 + 64))
        flips = np.concatenate([flips, flips[-1] + more])
    state0 = int(rng.integers(0, 2))
    k = np.arange(n)
    high = (np.searchsorted(flips, k * SCOPE_DT_S, side="right") + state0) & 1
    volts = np.where(high == 1, R_PARALLEL * (1.0 + TMR), R_PARALLEL) * SCOPE_BIAS_A
    volts += rng.normal(0.0, SCOPE_NOISE_V, n)
    times = k * SCOPE_DT_S

    with open(path, "w", newline="") as f:
        f.write("time_s,voltage_V\n")
        for start in range(0, n, _SCOPE_CHUNK):
            rows = np.column_stack([times[start:start + _SCOPE_CHUNK], volts[start:start + _SCOPE_CHUNK]])
            f.write(("%.5f,%.6f\n" * len(rows)) % tuple(rows.ravel().tolist()))
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps({"bias_current_A": SCOPE_BIAS_A}) + "\n")
    return {"input_rows": n, "input_bytes": path.stat().st_size}


# ------------------------------------------------------------------ checks


def _read_json(path: Path) -> dict:
    lines = path.read_text().splitlines()
    return json.loads("\n".join(line for line in lines if not line.startswith("#")))


def _read_csv(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _within(label, value, target, tol, problems):
    if value is None or not abs(value - target) <= tol:
        problems.append(f"{label}={value} outside {target:g} +- {tol:g}")


def check_trace(out: Path) -> list:
    """Dwell by both estimators within 10% of 4.2 ms, TMR within 0.0005, 5M samples."""
    a = _read_json(out / "analysis.json")
    problems = []
    _within("dwell_acf_s", a["dwell_acf_s"], DWELL_S, 0.10 * DWELL_S, problems)
    _within("dwell_direct_s", a["dwell_direct_s"], DWELL_S, 0.10 * DWELL_S, problems)
    _within("tmr", a["tmr"], TMR, 0.0005, problems)
    if a["n_samples"] != TRACE_SAMPLES:
        problems.append(f"n_samples={a['n_samples']} != {TRACE_SAMPLES}")
    return problems


# Criterion 7: the modal word, or the mass on the truth-table words, per clamp mode.
GATE_MODES = {
    "or_c0": ("modal", "000"),
    "or_c1": ("mass", {"011", "101", "111"}),
    "and_c0": ("mass", {"000", "010", "100"}),
    "and_c1": ("modal", "111"),
}
L1_LIMIT = 0.02
MASS_LIMIT = 0.95


def check_gate_mode(out: Path, prefix: str) -> list:
    summary = _read_json(out / f"{prefix}_summary.json")
    problems = []
    if not summary["l1_distance"] < L1_LIMIT:
        problems.append(f"{prefix}: L1={summary['l1_distance']:.4f} >= {L1_LIMIT}")
    kind, target = GATE_MODES[prefix]
    if kind == "modal":
        if summary["modal_word"] != target:
            problems.append(f"{prefix}: modal word {summary['modal_word']} != {target}")
    else:
        rows = _read_csv(out / f"{prefix}_histogram.csv")
        mass = sum(float(r["frequency"]) for r in rows if r["word"] in target)
        if not mass >= MASS_LIMIT:
            problems.append(f"{prefix}: truth-table mass {mass:.4f} < {MASS_LIMIT}")
    return problems


def check_gate_all_modes(out: Path) -> list:
    return [p for prefix in GATE_MODES for p in check_gate_mode(out, prefix)]


def check_gate_empirical(out: Path) -> list:
    word = _read_json(out / "and_c1_summary.json")["modal_word"]
    return [] if word == "111" else [f"empirical and_c1: modal word {word} != 111"]


def check_field_sweep(out: Path) -> list:
    problems = []
    _within("b_5050_T", _read_json(out / "window.json")["b_5050_T"], -7.22e-3, 0.02e-3, problems)
    return problems


def check_transfer(out: Path) -> list:
    problems = []
    _within("center_V", _read_json(out / "sigmoid.json")["center_V"], 0.6, 5e-3, problems)
    return problems


def check_metrics(out: Path) -> list:
    p4 = [r for r in _read_csv(out / "perf_points.csv") if r["label"] == "P4"]
    if len(p4) != 1:
        return [f"expected one P4 row, found {len(p4)}"]
    power = float(p4[0]["power_W"])
    return [] if 4.8e-6 <= power <= 4.9e-6 else [f"P4 power {power:.4g} W outside [4.8, 4.9] uW"]


# --------------------------------------------------------------- workloads


def _trace_commands(work: Path, seed: int) -> list:
    s = str(seed)
    return [
        Command("simulate", ["smtj-trace", "--seed", s], check_trace),
        Command("read", ["smtj-trace", "--seed", s, "--input-trace", str(work / "scope.csv")], check_trace),
    ]


def _gate_commands(work: Path, seed: int) -> list:
    s = str(seed)
    return [
        Command("all_modes", ["gate", "--all-modes", "--seed", s], check_gate_all_modes),
        Command(
            "empirical",
            ["gate", "--activation", "empirical", "--clamp-c", "1", "--seed", s],
            check_gate_empirical,
        ),
        # Short commands, mostly interpreter start and imports; field-sweep is
        # the only command that runs the --jobs process pool.
        Command("field_sweep", ["field-sweep", "--jobs", "2", "--seed", s], check_field_sweep),
        Command("transfer", ["transfer", "--seed", s], check_transfer),
        Command("metrics", ["metrics", "--seed", s], check_metrics),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace",
            "trace CSV write and read, both ACF paths; the gate workload runs none of this",
            _trace_commands,
            lambda work, seed: write_scope_export(work / "scope.csv", seed),
        ),
        Workload(
            "gate",
            "Gibbs sampling of the AND/OR gates, then the short device, sweep and metrics commands; no trace I/O",
            _gate_commands,
        ),
    )
}


def commands_for(workload: Workload, work: Path, seed: int) -> list:
    """The workload's commands, each writing to its own out dir under work."""
    commands = workload.commands(work, seed)
    for c in commands:
        c.out_dir = work / c.name
        c.argv = [*c.argv, "--out-dir", str(c.out_dir)]
    return commands
