"""Behavioral model of the 3T-1MTJ P-Bit circuit.

The sMTJ sits between the supply and the drain node of an NMOS pull-down, so
the drain voltage is a resistive divider that moves with the junction state;
a CMOS inverter squares that up into a rail-to-rail stochastic output.  The
transistor is a one-parameter triode resistance and the inverter defaults to
an ideal comparator at v_dd / 2, with an optional logistic mode for studying
soft-switching non-idealities.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fit import least_squares
from .params import MtjState, PbitParams, _expit, nmos_resistance, r_antiparallel
from .smtj import _map_points, _point_seed, states_at, switching_times


@dataclass(frozen=True)
class TransferPoint:
    v_in: float
    samples: np.ndarray
    mean_v_out: float


@dataclass(frozen=True)
class TransferCurve:
    """Sampled P-Bit outputs over an input-voltage grid."""

    points: tuple

    @property
    def v_in(self) -> np.ndarray:
        return np.array([p.v_in for p in self.points])

    @property
    def means(self) -> np.ndarray:
        return np.array([p.mean_v_out for p in self.points])

    def to_samples_csv(self, file) -> None:
        file.write("v_in_V,sample_idx,v_out_V\n")
        for p in self.points:
            for k, v in enumerate(p.samples):
                file.write(f"{p.v_in:.12g},{k},{v:.12g}\n")

    def to_summary_csv(self, file) -> None:
        file.write("v_in_V,mean_v_out_V\n")
        for p in self.points:
            file.write(f"{p.v_in:.12g},{p.mean_v_out:.12g}\n")


def drain_voltage(p: PbitParams, v_in: float, state: MtjState) -> float:
    """Divider voltage at the sMTJ / NMOS node.

    The junction sits between v_dd and the drain, so a higher junction
    resistance (anti-parallel) pulls the drain lower.
    """
    _check_input(p, v_in)
    r_mtj = r_antiparallel(p.smtj) if state is MtjState.ANTIPARALLEL else p.smtj.r_parallel
    r_n = nmos_resistance(p.nmos, v_in)
    return p.v_dd * r_n / (r_n + r_mtj)


def output_voltage(p: PbitParams, v_in: float, state: MtjState) -> float:
    """Inverter output for a fixed junction state.

    Ideal mode returns v_dd when the drain sits below the switch point and 0
    otherwise; logistic mode softens that step with the configured gain.
    """
    v_d = drain_voltage(p, v_in, state)
    inv = p.inverter
    if math.isinf(inv.gain):
        return p.v_dd if v_d < inv.v_switch else 0.0
    return p.v_dd * _expit(inv.gain * (inv.v_switch - v_d) / p.v_dd)


def sample_output(
    p: PbitParams, v_in: float, n: int, sample_interval: float, b: float, seed
) -> np.ndarray:
    """Sampled output voltages from one sMTJ trajectory at field b.

    Records output_voltage at instants k * sample_interval for k < n.
    Warns when the interval is shorter than the mean dwell time, since
    consecutive samples are then correlated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sample_interval <= 0:
        raise ValueError("sample_interval must be > 0")
    _check_input(p, v_in)
    if sample_interval < p.smtj.tau_mean:
        warnings.warn(
            f"sample_interval={sample_interval:g} s under tau_mean="
            f"{p.smtj.tau_mean:g} s: consecutive samples are correlated",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    state0, transitions = switching_times(p.smtj, b, n * sample_interval, rng)
    labels = states_at(state0, transitions, n, sample_interval)
    out_p = output_voltage(p, v_in, MtjState.PARALLEL)
    out_ap = output_voltage(p, v_in, MtjState.ANTIPARALLEL)
    return np.where(labels == MtjState.ANTIPARALLEL, out_ap, out_p)


def transfer_curve(
    p: PbitParams, v_in_grid, n_per_point: int, sample_interval: float, b: float, seed,
    jobs: int = 1,
) -> TransferCurve:
    """Sample the output at every grid input and average per point.

    Point i runs on its own stream, SeedSequence((seed, i)) for an int seed
    and the seed's i-th child for a SeedSequence (smtj._point_seed), so
    extending the grid never perturbs existing points and jobs > 1 worker
    processes give the same curve.
    """
    grid = [float(v) for v in v_in_grid]
    if not grid:
        raise ValueError("v_in_grid must not be empty")
    point = functools.partial(_transfer_point, p, n_per_point, sample_interval, b, seed)
    return TransferCurve(points=tuple(_map_points(point, grid, jobs)))


def _transfer_point(
    p: PbitParams, n: int, sample_interval: float, b: float, seed, i: int, v: float
) -> TransferPoint:
    samples = sample_output(p, v, n, sample_interval, b, _point_seed(seed, i))
    return TransferPoint(v_in=v, samples=samples, mean_v_out=float(samples.mean()))


def fit_sigmoid(v_in, means, v_dd: float) -> tuple[float, float]:
    """Least-squares logistic fit mean = v_dd / (1 + exp(-(v - center) / width)).

    Returns (center, width) in volts; center is bounded to the grid widened by
    its span on each side, width to [1e-6, 10] spans.  Raises
    fit.FitDiverged when the least-squares solver does not converge.
    """
    v = np.asarray(v_in, dtype=float)
    y = np.asarray(means, dtype=float)
    span = max(v.max() - v.min(), 1e-9)
    c0 = v[int(np.argmin(np.abs(y - v_dd / 2)))]

    def model(p):
        center, width = p
        z = (v - center) / width
        s = 1.0 / (1.0 + np.exp(-z))
        slope = v_dd * s * (1.0 - s) / width
        return v_dd * s, np.column_stack([-slope, -slope * z])

    (center, width), _ = least_squares(
        model,
        y,
        [c0, span / 20],
        [v.min() - span, 1e-6 * span],
        [v.max() + span, 10 * span],
    )
    return float(center), float(width)


# Mean outputs, as fractions of v_dd, at or beyond which the output counts as
# saturated low or high.
_MIXED_LO = 0.2
_MIXED_HI = 0.8


def mixed_region_span(curve: TransferCurve, v_dd: float) -> float:
    """Input span over which the mean output is neither low- nor high-saturated."""
    v = curve.v_in
    m = curve.means
    mixed = v[(m > _MIXED_LO * v_dd) & (m < _MIXED_HI * v_dd)]
    if mixed.size < 2:
        return 0.0
    return float(mixed.max() - mixed.min())


def _check_input(p: PbitParams, v_in: float) -> None:
    if not 0 <= v_in <= p.v_dd:
        raise ValueError(f"v_in={v_in} outside [0, {p.v_dd}]")
