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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .smtj import TelegraphTrace


class AnalysisError(Exception):
    """Base class for analysis failures on structurally valid input."""


class UnimodalTrace(AnalysisError):
    """Raised when a trace does not separate into two resistance levels."""


class ZeroVariance(AnalysisError):
    """Raised when a constant trace is handed to the autocorrelation."""


class FitDiverged(AnalysisError):
    """Raised when a least-squares fit does not converge, or when the
    exponential ACF fit is out of range or too poor."""


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
    under 4x the pooled intra-level standard deviation.
    """
    x = trace.values
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples to split levels")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise UnimodalTrace("constant trace has no second level")

    thr = 0.5 * (lo + hi)
    m_low = m_high = None
    for _ in range(64):
        mask = x >= thr
        n_high = int(mask.sum())
        if n_high == 0 or n_high == n:
            raise UnimodalTrace("threshold collapsed onto one cluster")
        m_high = float(x[mask].mean())
        m_low = float(x[~mask].mean())
        new = 0.5 * (m_low + m_high)
        if new == thr:
            break
        thr = new

    mask = x >= thr
    gap = m_high - m_low
    # deviations in units of the gap, so a trace near the largest double does
    # not overflow their squares; the test reads gap < 4 * pooled sigma
    ss = 0.0
    for dev, level in ((x[~mask], m_low), (x[mask], m_high)):
        dev -= level  # a copy: boolean indexing
        dev /= gap
        ss += float(dev @ dev)
    pooled = np.sqrt(ss / (n - 2))
    if 1.0 < 4.0 * pooled:
        raise UnimodalTrace(f"level gap {gap:.4g} under 4x pooled sigma {pooled * gap:.4g}")
    levels = LevelEstimate(r_low=m_low, r_high=m_high, threshold=0.5 * (m_low + m_high))
    labels = (x >= levels.threshold).astype(np.uint8)
    labeled = TelegraphTrace(
        sample_interval=trace.sample_interval, values=x, labels=labels
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
    identical to the definition but costs O(runs) per lag; everything else
    goes through a blocked FFT.
    """
    x = np.asarray(trace.values, dtype=float)
    n = x.size
    if not 0 < max_lag < n / 4:
        raise ValueError(f"max_lag must be in (0, n/4), got {max_lag} for n={n}")
    lo, hi = x.min(), x.max()
    if float(hi) == float(lo):
        raise ZeroVariance("constant trace has no correlation structure")

    z = x == hi
    n_spikes = 2 * np.count_nonzero(np.diff(z)) if np.all(z | (x == lo)) else np.inf
    if n_spikes * n_spikes * max_lag <= _SPIKE_PAIR_BUDGET * n:
        acf = _acf_two_level(z, max_lag)
    else:
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


def _acf_two_level(z: np.ndarray, max_lag: int) -> np.ndarray:
    """Exact biased ACF of a boolean sequence in O(runs) instead of O(n log n).

    Writes the raw correlation C(k) = sum_t z_t z_{t+k} of the zero-extended
    sequence through its second difference, which is the correlation of the
    boundary-spike train d_t = z_t - z_{t-1}: C(k+1) = 2C(k) - C(k-1) - D(k)
    with D(k) = sum_t d_t d_{t+k}.  D has one spike pair per nearby run
    boundary pair, so it costs O(runs * max_lag / mean_run).
    """
    n = z.size
    zi = z.astype(np.int8)
    change = np.flatnonzero(np.diff(zi)) + 1
    pos = change.astype(np.int64)
    sgn = (zi[change].astype(np.int64) * 2) - 1
    if z[0]:
        pos = np.concatenate([[0], pos])
        sgn = np.concatenate([[1], sgn])
    if z[-1]:
        pos = np.concatenate([pos, [n]])
        sgn = np.concatenate([sgn, [-1]])

    ones_total = int(zi.sum())
    n_ones_runs = int((sgn > 0).sum())
    zbar = ones_total / n
    denom = ones_total - n * zbar * zbar  # sum (z - zbar)^2 for a 0/1 signal

    # spike pair products D(k) for 1 <= k <= max_lag
    hi = np.searchsorted(pos, pos + max_lag, side="right")
    cnt = hi - np.arange(pos.size) - 1
    total = int(cnt.sum())
    if total > 0:
        p_idx = np.repeat(np.arange(pos.size), cnt)
        offsets = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        q_idx = np.arange(total) - np.repeat(offsets, cnt) + p_idx + 1
        diffs = pos[q_idx] - pos[p_idx]
        weights = (sgn[p_idx] * sgn[q_idx]).astype(float)
        spikes = np.bincount(diffs, weights=weights, minlength=max_lag + 1)
    else:
        spikes = np.zeros(max_lag + 1)

    corr = np.empty(max_lag + 1)
    corr[0] = ones_total
    if max_lag >= 1:
        corr[1] = ones_total - n_ones_runs
    for k in range(1, max_lag):
        corr[k + 1] = 2.0 * corr[k] - corr[k - 1] - spikes[k]

    # ones among the first and among the last k samples, 0 <= k <= max_lag
    head = np.concatenate([[0], np.cumsum(zi[:max_lag], dtype=np.int64)])
    tail = np.concatenate([[0], np.cumsum(zi[: n - max_lag - 1 : -1], dtype=np.int64)])
    ks = np.arange(max_lag + 1)
    s1 = ones_total - tail              # sum of z_t over t < n-k
    s2 = ones_total - head              # sum of z_t over t >= k
    return (corr - zbar * (s1 + s2) + (n - ks) * zbar * zbar) / denom


# Above this expected spike-pair count the run-length path loses to the FFT.
_SPIKE_PAIR_BUDGET = 2e7


# Step budget of _least_squares; the fits here take 6-12 steps at the median
# and about 60 at most.
_FIT_MAX_STEPS = 200


def _least_squares(model, y, p0, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Minimise |model(p) - y|^2 over the box lower <= p <= upper.

    model(p) returns the prediction and its Jacobian J; returns p and the
    residuals r = model(p) - y.  Levenberg-Marquardt (Moré, LNM 630, 1978)
    with Marquardt's scaling: each step solves [J; sqrt(damping * diag(J^T J))]
    step = [-r; 0] by least squares, and the damping falls tenfold after a
    trial that lowers the cost and rises tenfold after one that does not (a
    non-finite cost or Jacobian included).  A parameter on a bound its
    gradient pushes against stays there; a step that would cross a bound goes
    half way to the first bound it crosses and the other parameters step
    again given that, so that one long step cannot land on a bound where a
    logistic's gradient vanishes.  Converges when an accepted step moves no
    parameter by more than 1e-12 relative or lowers the cost by at most 1e-14
    relative, when the gradient or the step vanishes, or when the residuals
    are at the rounding level of y.  Raises FitDiverged when the starting
    point gives non-finite residuals or _FIT_MAX_STEPS trial steps do not
    converge.
    """
    y = np.asarray(y, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    floor = (np.finfo(float).eps * np.linalg.norm(y)) ** 2
    p = np.clip(np.asarray(p0, dtype=float), lower, upper)
    with np.errstate(all="ignore"):  # overflow is a large residual, not an error
        f, jac = model(p)
    r = f - y
    cost = r @ r
    if not (np.isfinite(cost) and np.isfinite(jac).all()):
        raise FitDiverged("least squares: non-finite residuals at the starting point")
    damping = 1e-3
    for _ in range(_FIT_MAX_STEPS):
        if cost <= floor:
            return p, r
        grad = jac.T @ r
        scale = np.einsum("ij,ij->j", jac, jac)
        # a bound counts as reached within 1e-10 relative: a parameter that
        # halves its distance each step gets there before its steps converge
        at_lower = p - lower <= 1e-10 * np.abs(p)
        at_upper = upper - p <= 1e-10 * np.abs(p)
        held = (at_lower & (grad > 0)) | (at_upper & (grad < 0))
        free = (scale > 0) & ~held
        if not np.any(grad[free]):
            return p, r
        step = np.zeros(p.size)
        while np.any(free):
            rest = r + jac[:, ~free] @ step[~free]
            step[free] = np.linalg.lstsq(
                np.vstack([jac[:, free], np.diag(np.sqrt(damping * scale[free]))]),
                np.concatenate([-rest, np.zeros(np.count_nonzero(free))]),
                rcond=None,
            )[0]
            room = np.abs(np.where(step < 0, lower, upper) - p)
            crossing = np.flatnonzero(free & (np.abs(step) > room))
            if not crossing.size:
                break
            # half way to the first bound crossed; the rest step again given that
            first = crossing[np.argmin(room[crossing] / np.abs(step[crossing]))]
            step[first] = 0.5 * np.copysign(room[first], step[first])
            free[first] = False
        trial = p + step
        if np.array_equal(trial, p):
            return p, r
        with np.errstate(all="ignore"):
            f_trial, jac_trial = model(trial)
        r_trial = f_trial - y
        cost_trial = r_trial @ r_trial
        if cost_trial < cost and np.isfinite(jac_trial).all():
            done = cost - cost_trial <= 1e-14 * cost or np.all(
                np.abs(trial - p) <= 1e-12 * np.abs(trial)
            )
            p, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            damping = max(0.1 * damping, 1e-16)
            if done:
                return p, r
        else:
            damping *= 10.0
    raise FitDiverged(f"least squares did not converge in {_FIT_MAX_STEPS} steps")


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

    (tau_corr,), resid = _least_squares(model, af, [tau0], [-np.inf], [np.inf])
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
    edges = np.concatenate([[0], np.flatnonzero(np.diff(lab)) + 1, [lab.size]])
    lengths = np.diff(edges)[1:-1]
    states = lab[edges[1:-2]] if lengths.size else np.empty(0, dtype=np.uint8)
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

    i0, i1 = _longest_true_block(inside)
    b_low = b[i0 - 1] if i0 > 0 else b[i0]
    b_high = b[i1 + 1] if i1 < b.size - 1 else b[i1]

    mid = 0.5 * (levels.r_low + levels.r_high)
    d = r - mid
    cross = np.flatnonzero(d[:-1] * d[1:] <= 0)
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


def _longest_true_block(mask: np.ndarray) -> tuple[int, int]:
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [idx.size - 1]])
    best = int(np.argmax(ends - starts))
    return int(idx[starts[best]]), int(idx[ends[best]])


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
    rows.resize((n + 1) // 2)
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
