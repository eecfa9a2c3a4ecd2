"""Parameters and scalar physics of the sMTJ and its 3T-1MTJ P-Bit circuit.

The four parameter dataclasses, the junction states, the closed-form
occupancy, dwell, resistance and calibration rules, and the error bases the
command line catches.  Everything here is standard-library Python, so the
command line loads it, and checks a configuration, without loading NumPy.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field


class AnalysisError(Exception):
    """Base class for analysis failures on structurally valid input."""


class PCircuitError(Exception):
    """Base class for circuit-level failures."""


# The logistic field scale is window_width / OCC_WINDOW_DIVISOR, which makes
# the occupancy span roughly [0.02, 0.98] across the stated window.
OCC_WINDOW_DIVISOR = 8.0


class MtjState(enum.IntEnum):
    """Magnetization configuration. PARALLEL is the low-resistance state."""

    PARALLEL = 0
    ANTIPARALLEL = 1


@dataclass(frozen=True)
class SmtjParams:
    """Physical parameters of one stochastic MTJ.

    Defaults describe the slow reference device: 27.6 kOhm base resistance,
    14.5% TMR, 4.2 ms mean dwell, equal occupancy at -7.22 mT with a 0.6 mT
    stochastic window.

    Attributes:
        r_parallel: low-state resistance, ohm.
        tmr: (r_high - r_low) / r_low, dimensionless fraction.
        tau_mean: mean dwell time at the 50-50 point, seconds.
        b_5050: field of equal state occupancy, tesla.
        window_width: field span of the stochastic window, tesla.
    """

    r_parallel: float = 27.6e3
    tmr: float = 0.145
    tau_mean: float = 4.2e-3
    b_5050: float = -7.22e-3
    window_width: float = 0.6e-3

    def __post_init__(self) -> None:
        if self.r_parallel <= 0:
            raise ValueError(f"r_parallel must be > 0, got {self.r_parallel}")
        # tmr == 0 is allowed as the degenerate single-level device
        if self.tmr < 0:
            raise ValueError(f"tmr must be >= 0, got {self.tmr}")
        if self.tau_mean <= 0:
            raise ValueError(f"tau_mean must be > 0, got {self.tau_mean}")
        if self.window_width <= 0:
            raise ValueError(f"window_width must be > 0, got {self.window_width}")

    def to_json(self) -> dict:
        return {key: getattr(self, name) for name, key in _SMTJ_KEYS.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "SmtjParams":
        return cls(**{name: obj[key] for name, key in _SMTJ_KEYS.items()})


# SmtjParams field -> its config and JSON key
_SMTJ_KEYS = {"r_parallel": "r_parallel_ohm", "tmr": "tmr", "tau_mean": "tau_mean_s",
              "b_5050": "b_5050_T", "window_width": "window_width_T"}


def r_antiparallel(p: SmtjParams) -> float:
    """High-state resistance: r_parallel * (1 + tmr)."""
    return p.r_parallel * (1.0 + p.tmr)


def occupancy_ap(p: SmtjParams, b: float) -> float:
    """Probability of the anti-parallel state at bias field b (tesla).

    Logistic in the field, equal to 0.5 at b_5050 and strictly decreasing
    with increasing b.
    """
    scale = p.window_width / OCC_WINDOW_DIVISOR
    return _expit(-(b - p.b_5050) / scale)


def _expit(x: float) -> float:
    """Scalar logistic 1 / (1 + exp(-x)), bit for bit scipy.special.expit.

    SciPy's double kernel is this same expression over the C library's exp,
    which math.exp calls too; only the overflow of exp(-x) for x below about
    -709.78 needs a branch.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def dwell_times(p: SmtjParams, b: float) -> tuple[float, float]:
    """Mean dwell times (tau_ap, tau_p) at field b.

    The split keeps tau_ap + tau_p = 2 * tau_mean at every field, so the
    occupancy ratio tau_ap / (tau_ap + tau_p) equals occupancy_ap(p, b).
    """
    occ = occupancy_ap(p, b)
    return 2.0 * p.tau_mean * occ, 2.0 * p.tau_mean * (1.0 - occ)


NMOS_OFF_RESISTANCE = 1e10  # ohm, below-threshold channel

IDEAL_GAIN = math.inf  # sentinel: inverter acts as an ideal comparator


@dataclass(frozen=True)
class NmosParams:
    """Triode-region NMOS stand-in: threshold voltage and transconductance scale."""

    v_threshold: float = 0.4
    k_factor: float = 5e-4

    def __post_init__(self) -> None:
        if self.v_threshold < 0:
            raise ValueError("v_threshold must be >= 0")
        if self.k_factor <= 0:
            raise ValueError("k_factor must be > 0")


@dataclass(frozen=True)
class InverterParams:
    """Inverter switch point and steepness; gain=inf selects the ideal comparator."""

    v_switch: float
    gain: float = IDEAL_GAIN

    def __post_init__(self) -> None:
        if self.gain < 1:
            raise ValueError("gain must be >= 1")


@dataclass(frozen=True)
class PbitParams:
    """Full 3T-1MTJ circuit parameterization."""

    smtj: SmtjParams = field(default_factory=SmtjParams)
    nmos: NmosParams = field(default_factory=NmosParams)
    inverter: InverterParams | None = None
    v_dd: float = 1.2

    def __post_init__(self) -> None:
        if self.v_dd <= 0:
            raise ValueError("v_dd must be > 0")
        if self.inverter is None:
            object.__setattr__(self, "inverter", InverterParams(v_switch=self.v_dd / 2))
        if not 0 < self.inverter.v_switch < self.v_dd:
            raise ValueError("v_switch must lie strictly inside (0, v_dd)")


def nmos_resistance(n: NmosParams, v_gs: float) -> float:
    """Channel resistance at gate drive v_gs: OFF value at or below threshold,
    1 / (k * (v_gs - v_threshold)) in triode above it."""
    if v_gs <= n.v_threshold:
        return NMOS_OFF_RESISTANCE
    return 1.0 / (n.k_factor * (v_gs - n.v_threshold))


def calibrate_match(p: PbitParams) -> NmosParams:
    """NMOS sizing that centers the transfer curve at v_dd / 2.

    Sets k_factor so the channel resistance at v_gs = v_dd / 2 equals the
    geometric mean of the two junction resistances, which places the inverter
    threshold strictly between the two drain levels at midscale input.
    """
    r_p, r_ap = p.smtj.r_parallel, r_antiparallel(p.smtj)
    v_on = p.v_dd / 2 - p.nmos.v_threshold
    if v_on <= 0:
        raise ValueError("v_threshold leaves no gate drive at v_dd / 2")
    # A product is taken only where it is a normal double; where it would
    # overflow or underflow, the split form costs one rounding more.
    if _is_normal(r_p * r_ap):
        target = math.sqrt(r_p * r_ap)
    else:
        target = math.sqrt(r_p) * math.sqrt(r_ap)
    k_factor = 1.0 / (target * v_on) if _is_normal(target * v_on) else 1.0 / target / v_on
    if not 0 < k_factor < math.inf:
        raise ValueError(f"resistance-matched k_factor must be finite and > 0, got {k_factor:g}")
    return NmosParams(v_threshold=p.nmos.v_threshold, k_factor=k_factor)


def _is_normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) < math.inf
