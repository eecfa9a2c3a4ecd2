"""Power and throughput bookkeeping for P-Bit operating points."""

from __future__ import annotations

from dataclasses import dataclass

from .params import PbitParams, nmos_resistance, occupancy_ap, r_antiparallel

NS_PER_S = 1e9

# Projected advanced-node operating point: matched divider around a 100 kOhm
# junction at a 0.9 V core voltage, 1 fF inverter load, 1 ns dwell time.
PROJECTED_R_AVG = 100e3
PROJECTED_V_DD = 0.9
PROJECTED_C_LOAD = 1e-15
PROJECTED_DWELL = 1e-9

# Reference measurements: the two on-chip devices draw 52-55 uW, with the
# slow 4.2 ms device at the top of the band; earlier PCB-level builds sit at
# 8-10 mW.  Dwell times for the PCB points are not published, so they carry
# the millisecond-scale throughput typical of that generation.
MEASURED_POINTS = (
    ("P1", 8e-3, 4.2e-3),
    ("P2", 10e-3, 4.2e-3),
    ("P3a", 55e-6, 4.2e-3),
    ("P3b", 52e-6, 68.9e-6),
)


@dataclass(frozen=True)
class PerfPoint:
    """One labeled operating point: average power and sampling throughput."""

    label: str
    power: float
    throughput: float

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError("power must be > 0")
        if self.throughput <= 0:
            raise ValueError("throughput must be > 0")


def throughput_from_dwell(tau: float) -> float:
    """Random flips per nanosecond for a mean dwell time tau in seconds."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return 1.0 / (tau * NS_PER_S)


def pbit_static_power(p: PbitParams, v_in: float, b: float) -> float:
    """Occupancy-weighted divider dissipation at the given input and field.

    Only the sMTJ / NMOS branch draws static current; the inverter output
    drives no DC load.
    """
    r_n = nmos_resistance(p.nmos, v_in)
    occ = occupancy_ap(p.smtj, b)
    r_ap = r_antiparallel(p.smtj)
    r_p = p.smtj.r_parallel
    v2 = p.v_dd * p.v_dd
    return occ * v2 / (r_n + r_ap) + (1.0 - occ) * v2 / (r_n + r_p)


def inverter_dynamic_power(c_load: float, v_dd: float, flip_rate: float) -> float:
    """CV^2f switching power of the output inverter."""
    if c_load < 0 or v_dd < 0 or flip_rate < 0:
        raise ValueError("inputs must be non-negative")
    return c_load * v_dd * v_dd * flip_rate


def projection_p4() -> PerfPoint:
    """Projected operating point for a nanosecond-dwell device on an
    advanced node: matched 100 kOhm divider at 0.9 V plus a 1 fF inverter
    switching at 1 GHz."""
    static = PROJECTED_V_DD**2 / (2 * PROJECTED_R_AVG)
    dynamic = inverter_dynamic_power(
        PROJECTED_C_LOAD, PROJECTED_V_DD, 1.0 / PROJECTED_DWELL
    )
    return PerfPoint(
        label="P4",
        power=static + dynamic,
        throughput=throughput_from_dwell(PROJECTED_DWELL),
    )


def comparison_table() -> list:
    """The four labeled operating points (P3 split per measured device)."""
    points = [
        PerfPoint(label, power, throughput_from_dwell(dwell))
        for label, power, dwell in MEASURED_POINTS
    ]
    points.append(projection_p4())
    return points


def write_perf_csv(points, file) -> None:
    file.write("label,power_W,throughput_flips_per_ns\n")
    for p in points:
        file.write(f"{p.label},{p.power:.12g},{p.throughput:.12g}\n")
