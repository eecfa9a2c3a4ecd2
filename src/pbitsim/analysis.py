"""Trace and sweep analysis: level splitting, TMR, dwell times, stochastic window.

The dwell-time pipeline mirrors how telegraph-noise measurements are reduced:
label samples against a two-level split, estimate the autocorrelation
function, and fit a single exponential.  For a two-state Markov process the
ACF decay rate is the sum of the two escape rates, so at equal occupancy the
mean dwell time is twice the fitted correlation time; a run-length estimator
provides the independent cross check.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fit import FitDiverged, least_squares
from .params import AnalysisError
from .smtj import TelegraphTrace


class UnimodalTrace(AnalysisError):
    """Raised when a trace does not separate into two resistance levels."""


class LevelOverflow(AnalysisError):
    """Raised when the resistance levels of a trace overflow a double."""


class ZeroVariance(AnalysisError):
    """Raised when a constant trace is handed to the autocorrelation."""


class TooFewTransitions(AnalysisError):
    """Raised when a trace holds too few runs for a direct dwell estimate."""


class NoWindow(AnalysisError):
    """Raised when a field sweep shows no stochastic window."""


class TraceFormatError(ValueError):
    """Raised when a trace CSV does not hold a well-formed uniform series."""


@dataclass(frozen=True)
class LevelEstimate:
    """Two-level split of a trace: level means and the separating threshold."""

    r_low: float
    r_high: float
    threshold: float

    def __post_init__(self) -> None:
        if not (self.r_low <= self.threshold <= self.r_high):
            raise ValueError("threshold must lie between the levels")


@dataclass(frozen=True)
class DwellEstimate:
    """Dwell time from an exponential ACF fit.

    tau is the mean dwell averaged over both states; tau_corr is the fitted
    correlation time (tau = 2 * tau_corr at equal occupancy).
    """

    tau: float
    tau_corr: float
    fit_rmse: float

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


@dataclass(frozen=True)
class FieldSweep:
    """Ordered (field, time-averaged resistance) points of one sweep branch."""

    points: tuple

    def __post_init__(self) -> None:
        pts = tuple((float(b), float(r)) for b, r in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a sweep needs at least two points")
        b = np.array([p[0] for p in pts])
        db = np.diff(b)
        if not (np.all(db > 0) or np.all(db < 0)):
            raise ValueError("field values must be strictly monotone")

    @property
    def b(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def r(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


@dataclass(frozen=True)
class StochasticWindow:
    """Field interval of visible fluctuation and the equal-occupancy field."""

    b_low: float
    b_high: float
    b_5050: float

    def __post_init__(self) -> None:
        if not (self.b_low < self.b_5050 < self.b_high):
            raise ValueError("b_5050 must lie inside the window")

    @property
    def width(self) -> float:
        return self.b_high - self.b_low


def threshold_states(trace: TelegraphTrace) -> tuple[LevelEstimate, TelegraphTrace]:
    """Split a bimodal trace into two levels and label every sample.

    Levels are the means of the two sample clusters found by iterating the
    intermeans threshold (deterministic, no k-means randomness); the reported
    threshold is their midpoint.  Raises UnimodalTrace when the level gap is
    under 4x the pooled intra-level standard deviation, and LevelOverflow
    when the level means or their midpoint overflow a double.
    """
    x = trace.values
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples to split levels")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise UnimodalTrace("constant trace has no second level")

    thr = 0.5 * (lo + hi)
    if not math.isfinite(thr):
        raise LevelOverflow(f"samples from {lo:.4g} to {hi:.4g} ohm overflow their midpoint")
    for _ in range(64):
        mask = x >= thr
        high, low = x[mask], x[~mask]
        if high.size == 0 or low.size == 0:
            raise UnimodalTrace("threshold collapsed onto one cluster")
        with np.errstate(over="ignore"):  # an overflowing mean is reported below
            m_high = float(high.mean())
            m_low = float(low.mean())
        new = 0.5 * (m_low + m_high)
        if not math.isfinite(new):
            raise LevelOverflow(f"level means overflow: {m_low:.4g} and {m_high:.4g} ohm")
        if new == thr:
            break
        thr = new
    else:  # unsettled: split by the last threshold, keep the last means
        mask = x >= thr
        high, low = x[mask], x[~mask]

    gap = m_high - m_low
    # deviations in units of the gap, so a trace near the largest double does
    # not overflow their squares; the test reads gap < 4 * pooled sigma
    ss = 0.0
    for dev, level in ((low, m_low), (high, m_high)):
        dev -= level  # boolean indexing made these copies
        dev /= gap
        ss += float(dev @ dev)
    pooled = np.sqrt(ss / (n - 2))
    if 1.0 < 4.0 * pooled:
        raise UnimodalTrace(f"level gap {gap:.4g} under 4x pooled sigma {pooled * gap:.4g}")
    # thr is the midpoint of the means it split by, so mask is the labelling
    levels = LevelEstimate(r_low=m_low, r_high=m_high, threshold=thr)
    labeled = TelegraphTrace(
        sample_interval=trace.sample_interval, values=x, labels=mask.view(np.uint8)
    )
    return levels, labeled


def tmr_from_levels(levels: LevelEstimate) -> float:
    """(r_high - r_low) / r_low."""
    return (levels.r_high - levels.r_low) / levels.r_low


def autocorrelation(trace: TelegraphTrace, max_lag: int) -> np.ndarray:
    """Biased normalized autocorrelation up to max_lag.

    acf(k) = sum_t (x_t - xbar)(x_{t+k} - xbar) / sum_t (x_t - xbar)^2 with
    acf(0) = 1 exactly.  Returns an array of (lag_seconds, acf) rows.

    Exact two-level traces use a run-length path that is algebraically
    identical to the definition.  That path declines a trace whose expected
    count of run-boundary pairs within max_lag exceeds _SPIKE_PAIR_BUDGET;
    those and every other trace go through a blocked FFT.
    """
    x = np.asarray(trace.values, dtype=float)
    n = x.size
    if not 0 < max_lag < n / 4:
        raise ValueError(f"max_lag must be in (0, n/4), got {max_lag} for n={n}")
    lo, hi = x.min(), x.max()
    if float(hi) == float(lo):
        raise ZeroVariance("constant trace has no correlation structure")

    z = x == hi
    acf = _acf_two_level(z, max_lag) if np.all(z | (x == lo)) else None
    if acf is None:
        acf = _acf_fft(x, max_lag)
    acf[0] = 1.0
    lags = np.arange(max_lag + 1) * trace.sample_interval
    return np.column_stack([lags, acf])


# Samples per block of _acf_fft; its memory is set by this, not by the trace.
_ACF_BLOCK = 1 << 16


def _acf_fft(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized ACF by overlap-add: each block of _ACF_BLOCK centred samples
    is correlated against itself extended by max_lag samples, and the lag
    products of all blocks are summed.  Only x.mean() passes over all of x."""
    mean = x.mean()
    # any m >= block + max_lag keeps lags 0..max_lag free of wrapped terms
    m = _next_fast_len(_ACF_BLOCK + 2 * max_lag + 1)
    corr = np.zeros(max_lag + 1)
    for start in range(0, x.size, _ACF_BLOCK):
        extended = x[start : start + _ACF_BLOCK + max_lag] - mean
        block = np.fft.rfft(extended[:_ACF_BLOCK], m)
        corr += np.fft.irfft(block.conj() * np.fft.rfft(extended, m), m)[: max_lag + 1]
    return corr / corr[0]


def _next_fast_len(target: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= target, a length numpy.fft transforms fast."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _acf_two_level(z: np.ndarray, max_lag: int) -> np.ndarray | None:
    """Exact biased ACF of a boolean sequence in O(runs) instead of O(n log n);
    None when it expects more spike pairs than _SPIKE_PAIR_BUDGET allows.

    Writes the raw correlation C(k) = sum_t z_t z_{t+k} of the zero-extended
    sequence through its second difference, which is the correlation of the
    boundary-spike train d_t = z_t - z_{t-1}: C(k+1) = 2C(k) - C(k-1) - D(k)
    with D(k) = sum_t d_t d_{t+k}.  The spikes alternate +1, -1, so spikes j
    apart multiply to (-1)**j and D is summed one spike offset j at a time,
    down to the first offset with no spike pair closer than max_lag.  Memory
    is linear in the spikes; time is one pass over them per offset, up to
    max_lag passes where switching is densest.
    """
    n = z.size
    pos = _true_runs(z)
    inner = pos.size - int(z[0]) - int(z[-1])  # boundaries between two samples
    if (2 * inner) ** 2 * max_lag > _SPIKE_PAIR_BUDGET * n:
        return None
    ones_total = int(np.count_nonzero(z))
    zbar = ones_total / n
    denom = ones_total - n * zbar * zbar  # sum (z - zbar)^2 for a 0/1 signal

    # spike pair products D(k) for 1 <= k < max_lag, the lags the recurrence reads
    spikes = np.zeros(max_lag, dtype=np.int64)
    for j in range(1, pos.size):
        gap = pos[j:] - pos[:-j]
        gap = gap[gap < max_lag]
        if gap.size == 0:
            break
        spikes += (-1) ** j * np.bincount(gap, minlength=max_lag)

    # C(k) = C(0) - k * runs - sum_{i<k} sum_{l<=i} D(l), exact in int64
    ks = np.arange(max_lag + 1)
    drift = np.concatenate([[0], np.cumsum(np.cumsum(spikes))])
    corr = ones_total - ks * (pos.size // 2) - drift

    # ones among the first and among the last k samples, 0 <= k <= max_lag
    head = np.concatenate([[0], np.cumsum(z[:max_lag], dtype=np.int64)])
    tail = np.concatenate([[0], np.cumsum(z[: n - max_lag - 1 : -1], dtype=np.int64)])
    s1 = ones_total - tail              # sum of z_t over t < n-k
    s2 = ones_total - head              # sum of z_t over t >= k
    return (corr - zbar * (s1 + s2) + (n - ks) * zbar * zbar) / denom


# Above this expected spike-pair count the run-length path loses to the FFT.
_SPIKE_PAIR_BUDGET = 2e7


def _true_runs(mask: np.ndarray) -> np.ndarray:
    """Starts and exclusive ends of the runs of True in a bool array, interleaved."""
    return np.flatnonzero(np.diff(mask.view(np.int8), prepend=np.int8(0), append=np.int8(0)))


def fit_dwell_time(acf, dt: float, occupancy: float) -> DwellEstimate:
    """Fit exp(-t / tau_corr) to the ACF and convert to a mean dwell time.

    The fit runs over the contiguous leading lags where acf > 0.05 (beyond
    that the noise floor dominates).  For a two-state process the per-state
    dwells are tau_corr / (1 - occupancy) for the high state and
    tau_corr / occupancy for the low one; the reported tau is their average,
    tau_corr / (2 * occupancy * (1 - occupancy)), which reduces to
    2 * tau_corr at the 50-50 point.
    """
    if not 0.0 < occupancy < 1.0:
        raise ValueError("occupancy must be strictly between 0 and 1")
    arr = np.asarray(acf, dtype=float)
    t = arr[:, 0]
    a = arr[:, 1]
    below = np.flatnonzero(a <= 0.05)
    stop = int(below[0]) if below.size else a.size
    if stop < 3:
        raise FitDiverged("fewer than 3 lags above the fit floor")
    tf, af = t[:stop], a[:stop]

    crossing = np.flatnonzero(af < np.exp(-1.0))
    tau0 = tf[int(crossing[0])] if crossing.size else tf[-1]
    tau0 = max(tau0, dt)

    def model(p):
        decay = np.exp(-tf / p[0])
        return decay, (decay * tf / p[0] ** 2)[:, None]

    (tau_corr,), resid = least_squares(model, af, [tau0], [-np.inf], [np.inf])
    rmse = float(np.sqrt(np.mean(resid ** 2)))

    span = t[-1] + dt  # longest scale this ACF can witness
    if rmse > 0.1 or not dt < tau_corr < span:
        raise FitDiverged(
            f"rmse={rmse:.3g}, tau_corr={tau_corr:.3g} s outside ({dt:g}, {span:g})"
        )
    tau = tau_corr / (2.0 * occupancy * (1.0 - occupancy))
    return DwellEstimate(tau=float(tau), tau_corr=float(tau_corr), fit_rmse=rmse)


def mean_dwell_direct(trace: TelegraphTrace) -> float:
    """Mean dwell from run lengths, averaged over both states.

    The first and last runs are censored by the acquisition window and are
    dropped to avoid a downward bias.  Needs at least 100 interior runs.
    """
    if trace.labels is None:
        raise ValueError("trace must be labeled; run threshold_states first")
    lab = trace.labels
    starts = np.flatnonzero(np.diff(lab)) + 1  # of every run but the first
    lengths = np.diff(starts)
    states = lab[starts[:-1]]
    if lengths.size < 100:
        raise TooFewTransitions(f"only {lengths.size} interior runs, need 100")
    mean_low = lengths[states == 0].mean()
    mean_high = lengths[states == 1].mean()
    return float(0.5 * (mean_low + mean_high) * trace.sample_interval)


def extract_stochastic_window(
    sweep: FieldSweep, levels: LevelEstimate
) -> StochasticWindow:
    """Locate the stochastic window and the 50-50 field on a sweep.

    A point is inside the window when its time-averaged resistance sits
    strictly between r_low + 5% and r_high - 5% of the level gap.  The
    reported bounds are the sweep points bracketing that contiguous region
    from the outside (the window edge lies between grid points).  b_5050
    interpolates the crossing of the level midpoint.
    """
    order = np.argsort(sweep.b)
    b = sweep.b[order]
    r = sweep.r[order]
    gap = levels.r_high - levels.r_low
    lo_band = levels.r_low + 0.05 * gap
    hi_band = levels.r_high - 0.05 * gap
    inside = (r > lo_band) & (r < hi_band)
    if not inside.any():
        raise NoWindow("no sweep point lies strictly between the saturation bands")

    start, stop = _true_runs(inside).reshape(-1, 2).T
    k = int(np.argmax(stop - start))
    b_low = b[max(start[k] - 1, 0)]
    b_high = b[min(stop[k], b.size - 1)]

    mid = 0.5 * (levels.r_low + levels.r_high)
    d = r - mid
    cross = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) <= 0)
    cross = cross[(d[cross] != 0) | (d[cross + 1] != 0)]
    if cross.size == 0:
        raise NoWindow("averaged resistance never crosses the level midpoint")
    j = int(cross[0])
    if d[j] == 0:
        b_5050 = b[j]
    else:
        b_5050 = b[j] + (mid - r[j]) * (b[j + 1] - b[j]) / (r[j + 1] - r[j])
    if not b_low < b_5050 < b_high:
        raise NoWindow("midpoint crossing fell outside the fluctuating region")
    return StochasticWindow(b_low=float(b_low), b_high=float(b_high), b_5050=float(b_5050))


def bias_sidecar(path) -> Path:
    """The JSON sidecar `<file>.json` that holds a voltage export's bias_current_A."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def _sidecar_bias_current(sidecar: Path) -> float:
    """bias_current_A of a sidecar; TraceFormatError naming it when it holds none."""
    try:
        with open(sidecar) as sf:
            obj = json.load(sf)
    except (OSError, ValueError) as exc:
        raise TraceFormatError(f"cannot read bias sidecar {sidecar.name}: {exc}") from exc
    bias = obj.get("bias_current_A") if isinstance(obj, dict) else None
    if isinstance(bias, bool) or not isinstance(bias, (int, float)):
        raise TraceFormatError(
            f"bias sidecar {sidecar.name} must be a JSON object with a numeric "
            f"bias_current_A, got {json.dumps(obj)[:80]}"
        )
    return float(bias)


# Largest deviation of a time step from the first one, relative to it, that
# still counts as a uniform sampling grid.
_GRID_TOLERANCE = 1e-3


def _trace_header(file) -> tuple[int, list[str]]:
    """Line index and columns of the first line that is neither blank nor '#'."""
    for index, line in enumerate(file):
        line = line.strip()
        if line and not line.startswith("#"):
            return index, line.split(",")
    raise TraceFormatError("trace file holds no data")


# Rows per slice of _read_rows' checks; the only full-length array is loadtxt's.
_READ_SLICE = 1 << 16


def _read_rows(path: Path, skiprows: int) -> tuple[float, np.ndarray]:
    """Parse the data rows of a trace CSV: (sample_interval, values).

    skiprows lines precede the first data row.  The first two columns are
    time and sample; further columns, a native trace's state included, are
    not read.  '#' comments and empty lines are skipped.  The time column
    must be a uniform grid and every sample finite.

    The rows are checked a slice at a time and their samples packed into the
    front of loadtxt's own array, which is then shrunk in place: no second
    array of the trace's length is made.
    """
    fields = [("t", float), ("x", float)]
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported below, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(
                path, dtype=fields, delimiter=",", skiprows=skiprows,
                usecols=range(len(fields)), ndmin=1,
            )
    except ValueError as exc:
        raise TraceFormatError(f"malformed trace row: {exc}") from exc
    n = rows.size
    if n < 2:
        raise TraceFormatError("trace file must hold at least two samples")
    flat = rows.view(float)  # t0, x0, t1, x1, ...
    # an infinite time makes a NaN or infinite step, which fails the checks below
    with np.errstate(invalid="ignore", over="ignore"):
        dt = float(flat[2] - flat[0])
        if not dt > 0:
            raise TraceFormatError(f"time column must increase, first step is {dt:g} s")
        bad = None
        for start in range(0, n, _READ_SLICE):
            stop = min(start + _READ_SLICE, n)
            # one row past the slice, so every step is checked once
            steps = np.diff(flat[2 * start : 2 * stop + 1 : 2])
            if not np.all(np.abs(steps - dt) <= _GRID_TOLERANCE * dt):
                raise TraceFormatError(
                    f"time column is not a uniform grid: steps deviate from {dt:g} s by "
                    f"more than {_GRID_TOLERANCE:g} of it"
                )
            # sample k moves from 2k + 1 to k, behind every sample still to be read
            flat[start:stop] = flat[2 * start + 1 : 2 * stop : 2]
            if bad is None and not np.all(np.isfinite(flat[start:stop])):
                bad = start + int(np.flatnonzero(~np.isfinite(flat[start:stop]))[0])
    if bad is not None:
        raise TraceFormatError(f"sample {bad} is not finite: {flat[bad]}")
    del flat  # resize refuses to run while a view is alive
    try:
        rows.resize((n + 1) // 2)
    except ValueError:
        # a tracer or debugger holds a second reference to rows through its
        # snapshot of this frame's locals; a copy leaves its view valid
        return dt, rows.view(float)[:n].copy()
    return dt, rows.view(float)[:n]


def load_trace(
    path, bias_current: float | None = None, offset_ohm: float = 0.0
) -> TelegraphTrace:
    """Load a trace CSV, converting voltage exports to resistance if needed.

    Accepts the native `time_s,resistance_ohm[,state]` format or a
    `time_s,voltage_V` oscilloscope export (further columns are ignored).
    Voltage traces need the DC bias current, either passed here or read from a
    JSON sidecar `<file>.json` with key `bias_current_A`; resistance is V / I.
    offset_ohm is subtracted from every sample (manual DC-offset removal).

    Raises ValueError (TraceFormatError for the file's contents) on an
    unrecognized header, a malformed row, fewer than two samples, a time
    column that is not a uniform grid, a non-finite sample (before or after
    the conversion to ohm), a sidecar without a numeric bias_current_A or a
    bias current that is not positive.
    """
    path = Path(path)
    with open(path) as f:
        index, cols = _trace_header(f)
    volts = cols[:2] == ["time_s", "voltage_V"]
    if not volts and cols[:2] != ["time_s", "resistance_ohm"]:
        raise TraceFormatError(f"unrecognized trace header: {','.join(cols)!r}")
    if volts:
        if bias_current is None:
            sidecar = bias_sidecar(path)
            if not sidecar.exists():
                raise ValueError(
                    f"voltage trace needs a bias current: pass one or add {sidecar.name}"
                )
            bias_current = _sidecar_bias_current(sidecar)
        if not bias_current > 0:
            raise ValueError(f"bias current must be > 0 A, got {bias_current:g}")
    dt, values = _read_rows(path, index + 1)
    # in place: the reader's array is the only one of the trace's length
    with np.errstate(over="ignore"):  # a sample that overflows is reported below
        if volts:
            values /= bias_current
        if offset_ohm:
            values -= offset_ohm
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise TraceFormatError(f"sample {bad} is not finite in ohm: {values[bad]}")
    return TelegraphTrace(sample_interval=dt, values=values)
