"""Two-state stochastic MTJ model.

The junction resistance is an ideal random-telegraph process: it sits on one of
two levels (parallel / anti-parallel) and switches with exponentially
distributed holding times.  An in-plane bias field tunes the anti-parallel
occupancy through a logistic response centered on the 50-50 field, while the
total switching rate stays fixed so the correlation scale of the noise does
not drift across the stochastic window.

All generators are pure functions of their arguments including the seed, so
they are safe to call concurrently.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

# The parameters and the scalar occupancy and dwell rules live in params,
# which loads no NumPy; smtj re-exports them.
from .params import (
    OCC_WINDOW_DIVISOR,
    MtjState,
    SmtjParams,
    _expit,
    dwell_times,
    occupancy_ap,
    r_antiparallel,
)

# Occupancies closer than this to 0 or 1 are treated as pinned: the minority
# dwell time underflows and the trace degenerates to a constant level.
_OCC_PINNED = 1e-12

# No numpy array holds this many elements.  A sample or dwell count at or
# above it (an infinite one included) is refused before it is made an int.
_MAX_COUNT = 2.0**63

# Rows TelegraphTrace.to_csv renders per round of its thread pool.
_CSV_ROWS = 1 << 16


@dataclass
class TelegraphTrace:
    """Uniformly sampled resistance time series.

    values holds one resistance sample per sampling instant k * sample_interval.
    labels, when present, holds the MtjState of each sample (uint8 of the enum
    value).
    """

    sample_interval: float
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            raise ValueError("trace must hold at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.uint8)
            if self.labels.shape != self.values.shape:
                raise ValueError("labels must match values in length")

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.sample_interval

    def to_csv(self, file) -> None:
        """Write `time_s,resistance_ohm,state` rows (state column only when labeled).

        Row k holds `k * sample_interval` and the sample, both `%.12g`.  Two
        cases skip formatting each cell, and both print the same bytes: when
        sample_interval is the double of a decimal of at most 12 digits, the
        time cells are built from integer digit tables (_render_times); and
        when a slice's samples equal their label's level bit for bit, its two
        row ends are rendered once and gathered by label.  Rows are rendered
        in slices of ceil(_CSV_ROWS / cpus) on a pool of one thread per CPU
        this process may use (the numpy kernels release the GIL); at most one
        slice per thread is in flight and slices are written in order, so the
        bytes do not depend on the CPU count and memory stays bounded.
        """
        file.write("time_s,resistance_ohm,state\n" if self.labels is not None
                   else "time_s,resistance_ohm\n")
        n = self.values.size
        cpus = _usable_cpus()
        step = -(-_CSV_ROWS // cpus)
        starts = range(0, n, step)
        workers = min(cpus, len(starts))
        import concurrent.futures  # only the two pools use it

        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            pending = collections.deque()
            for start in starts:
                pending.append(pool.submit(self._csv_rows, start, min(start + step, n)))
                if len(pending) == workers:
                    file.write(pending.popleft().result())
            while pending:
                file.write(pending.popleft().result())

    def _csv_rows(self, start: int, stop: int) -> str:
        """The CSV text of rows start .. stop - 1, rendered into a byte matrix."""
        rows = np.zeros((stop - start, _ROW_WIDTH), dtype=np.uint8)
        _render_times(rows, self.sample_interval, start, stop)
        values = self.values[start:stop]
        anti = None if self.labels is None else self.labels[start:stop] != 0
        levels = None if anti is None else _two_levels(values, anti)
        if levels is None:
            _render_tails(rows, values, anti)
        else:
            rows[:, _TIME_WIDTH:] = _level_tails(*levels).take(anti.view(np.uint8), axis=0)
        return rows[rows != 0].tobytes().decode("ascii")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Widest %.12g cell: sign, 12 digits and a point, 'e', exponent sign, 3 digits.
_G12_WIDTH = 19

# Row layout of TelegraphTrace._csv_rows: time cell (_render_times writes up
# to 5 uint32 words there), ',', sample cell, [',', state cell,] NUL padding,
# '\n'; 44 bytes, so the rows are whole uint32 words.
_TIME_WIDTH = 20
_SAMPLE_AT = _TIME_WIDTH + 1
_ROW_WIDTH = _SAMPLE_AT + _G12_WIDTH + 4

# 10**k for k = 0..15; each is exact as a float64 too.
_POW10 = 10 ** np.arange(16, dtype=np.int64)


def _render_g12(x: np.ndarray, cells: np.ndarray) -> None:
    """Write `%.12g` of x into the rows of cells, a NUL-filled uint8 matrix.

    Values whose 12-digit rounding prints in fixed notation (decimal exponent
    e in [-4, 11]) and is decided beyond doubt are built from _quad_tables.
    The power of ten is exact, so r = |x| * 10**(11 - e) is off by at most
    half an ulp.  When 10**11 <= r and frac(r) is more than two ulps from one
    half, m = floor(r) + (frac(r) > 0.5) is the correctly rounded mantissa,
    and m < 10**12 confirms the exponent.  Bytes a cell does not use stay
    NUL.  Every other value (zero, non-finite, exponent form, near a tie)
    goes through _render_g12_slow.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= -4) & (e <= 11)
    e = np.where(ok, e, 0).astype(np.intp)
    r = np.where(ok, a, 1.0) * _POW10[11 - e]
    whole = np.floor(r)
    frac = r - whole
    m = whole.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > 2 * np.spacing(r)) & (whole >= 10**11) & (m < 10**12)
    m = np.where(ok, m, 10**11)
    _, quad, _ = _quad_tables()
    words = np.empty((x.size, 3), dtype="<u4")
    _digit_words(words, m, (quad, quad, quad))
    digits = words.view(np.uint8)
    point = np.where(m % _POW10[11 - e] != 0, ord("."), 0).astype(np.uint8)
    cells[x < 0, 0] = ord("-")
    # lay out the most common exponent on every row, then redo the rows of
    # the others: e >= 0 puts the point after digit e (the integer digits
    # ASCII, their zeros included), e < 0 writes "0.000"
    counts = np.bincount(e[ok] + 4, minlength=16)
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    for rank, exp in enumerate(order - 4):
        sel = slice(None) if rank == 0 else np.flatnonzero(ok & (e == exp))
        if rank:
            cells[sel, 1:] = 0
        if exp >= 0:
            cells[sel, 1 : exp + 2] = digits[sel, : exp + 1] | ord("0")
            cells[sel, exp + 2] = point[sel]
            cells[sel, exp + 3 : 14] = digits[sel, exp + 1 :]
        else:
            cells[sel, 1 : 2 - exp] = ord("0")
            cells[sel, 2] = ord(".")
            cells[sel, 2 - exp : 14 - exp] = digits[sel]
    left = np.flatnonzero(~ok)
    if left.size:
        cells[left] = _render_g12_slow(x[left])


def _render_g12_slow(x: np.ndarray) -> np.ndarray:
    """`%.12g` of each x, one batched format, as the rows of a NUL-padded uint8 matrix."""
    text = np.frombuffer((("%.12g\n" * x.size) % tuple(x.tolist())).encode("ascii"), np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # byte i of the text, in cell c, is column i - starts[c] of row c
    cell = np.repeat(np.arange(x.size), ends - starts + 1)
    chars = text != ord("\n")
    out = np.zeros((x.size, _G12_WIDTH), dtype=np.uint8)
    out[cell[chars], (np.arange(text.size) - starts[cell])[chars]] = text[chars]
    return out


def _decimal_grid(dt: float) -> tuple[int, int] | None:
    """(digits, places) when dt is the double nearest digits * 10**-places, or None.

    That holds for the decimal `%.12g` prints when it reads back as dt.
    """
    text = "%.12g" % dt
    if not math.isfinite(dt) or float(text) != dt:
        return None
    mantissa, _, exponent = text.partition("e")
    whole, _, frac = mantissa.partition(".")
    digits, places = int(whole + frac), len(frac) - int(exponent or 0)
    if places < 0:
        digits, places = digits * 10**-places, 0
    return digits, places


def _render_times(rows: np.ndarray, dt: float, start: int, stop: int) -> None:
    """Write `%.12g` of k * dt for k = start .. stop - 1 into the time cells of rows.

    rows is a uint8 matrix of stop - start rows of whole uint32 words, at
    least _TIME_WIDTH bytes; the cell is its first _TIME_WIDTH bytes.  On a
    decimal grid, dt = D * 10**-F (_decimal_grid), the double k * dt lies
    within 2.3e-16 relative of the decimal N * 10**-F, N = k * D.
    While N < 10**12 that decimal has at most 12 digits and the nearest
    12-digit rounding boundary is at least 5e-13 relative away, so `%.12g`
    prints exactly it; _render_grid writes it from N.  The other rows (k = 0,
    exponent form below 1e-4, N >= 10**12, or dt off the grid) go through
    _render_g12.
    """
    grid = _decimal_grid(dt)
    first = last = start
    if grid is not None:
        digits, places = grid
        # rows first .. last - 1 have 10**(places - 4) <= N < 10**12
        first = min(max(start, 1, -(-(10 ** max(places - 4, 0)) // digits)), stop)
        last = max(min(stop, (10**12 - 1) // digits + 1), first)
        if first < last:
            words = rows[first - start : last - start].view("<u4")
            _render_grid(words, digits, places, first, last)
    for lo, hi in ((start, first), (last, stop)):
        if lo < hi:
            # int64 * float64 rounds exactly as the scalar k * dt
            _render_g12(np.arange(lo, hi) * dt, rows[lo - start : hi - start, :_G12_WIDTH])


def _render_grid(words: np.ndarray, digits: int, places: int, start: int, stop: int) -> None:
    """Write the decimal k * digits * 10**-places for k = start .. stop - 1.

    words holds one row of uint32 words per k.  Each value must lie in
    [1e-4, 1e12) and have at most 12 digits, so it prints in fixed notation:
    the integer part in 4-digit groups without its leading zeros, then a
    point and the fraction up to its last nonzero digit.  That takes at most
    5 words: 4 for 12 digits and the point, or 1 for the 0 of a value below 1
    and 4 for its point and up to 15 places.  The zero bytes are NUL, and
    the others one run from the first word on.
    """
    n = np.arange(start, stop, dtype=np.int64) * digits
    whole = n // 10**places
    # integer group j (digits 4j .. 4j + 3 left of the point) leads on the
    # rows with whole in [10**4j, 10**(4j + 4)); whole ascends, so those rows
    # run from bounds[j] to bounds[j + 1], and group j is NUL before them
    bounds = [0, *np.searchsorted(whole, [10**4, 10**8]).tolist(), n.size]
    groups = 1 + sum(b < n.size for b in bounds[1:3])
    lead, quad, dot = _quad_tables()
    for j in range(groups):
        quads = whole[bounds[j] :] // 10 ** (4 * j)
        leading, rest = np.split(quads, [bounds[j + 1] - bounds[j]])
        words[bounds[j] : bounds[j + 1], groups - 1 - j] = lead.take(leading)
        words[bounds[j + 1] :, groups - 1 - j] = quad.take(rest - rest // 10**4 * 10**4 + 10**4)
    if not places:
        return
    # the fraction: a point and 3 digits, then groups of 4; on the rows where
    # the digits after a word are all zero, it drops its trailing zeros (and
    # the first word its point, when the whole fraction is zero)
    count = places // 4 + 1
    low = (n - whole * 10**places) * 10 ** (4 * count - 1 - places)
    _digit_words(words[:, groups : groups + count], low, (dot,) + (quad,) * (count - 1))


def _digit_words(words: np.ndarray, low: np.ndarray, tables: tuple) -> None:
    """Write the digits of low, 4 to a word from the top, into the columns of words.

    Column g comes from tables[g], a pair of back-to-back tables from
    _quad_tables: in full where nonzero digits follow it, else with its
    trailing zeros as NUL.
    """
    *heads, last = tables
    for g, table in enumerate(heads):
        scale = 10 ** (4 * (len(heads) - g))
        quads = low // scale
        low = low - quads * scale
        words[:, g] = table.take(quads + table.size // 2 * (low != 0))
    words[:, -1] = last.take(low)  # no digits follow the last word


@functools.cache
def _quad_tables() -> tuple:
    """ASCII of the 4-digit groups 0000 .. 9999, as little-endian uint32.

    Returns (lead, quad, dot), first digit in the first byte.  lead[v] is
    group v with its leading zeros as NUL (but the last digit, so 0 is three
    NULs and a "0").  quad is two tables back to back: quad[v] is group v
    with its trailing zeros as NUL (so 0 is all NUL), and quad[10**4 + v]
    group v in full.  dot is the same pair for a point and 3 digits, ".000"
    .. ".999", 1000 entries each (dot[0] drops the point too).  Built on
    first use, so that importing the module stays cheap.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    text = digits + np.uint8(ord("0"))
    dotted = np.concatenate([np.full((1000, 1), ord("."), np.uint8), text[:1000, 1:]], axis=1)
    lead = np.logical_or.accumulate(digits != 0, axis=1)
    lead[:, 3] = True
    trail = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    tables = []
    for chars in [
        np.where(lead, text, 0),
        np.concatenate([np.where(trail, text, 0), text]),
        np.concatenate([np.where(trail[:1000], dotted, 0), dotted]),
    ]:
        tables.append(chars.reshape(-1).view("<u4"))
        tables[-1].flags.writeable = False  # shared by every caller
    return tuple(tables)


def _render_tails(rows: np.ndarray, values: np.ndarray, anti: np.ndarray | None) -> None:
    """Write each row's ',', sample cell, [',', state cell,] and newline after its time cell.

    anti is the row's label (True for AP), or None for no state column.
    """
    rows[:, _SAMPLE_AT - 1] = ord(",")
    rows[:, -1] = ord("\n")
    if anti is not None:
        # ",AP" or "\0,P", so the state and '\n' are one run
        rows[:, -4] = np.where(anti, ord(","), 0)
        rows[:, -3] = np.where(anti, ord("A"), ord(","))
        rows[:, -2] = ord("P")
    _render_g12(values, rows[:, _SAMPLE_AT : _SAMPLE_AT + _G12_WIDTH])


def _two_levels(x: np.ndarray, anti: np.ndarray) -> tuple[int, int] | None:
    """The bit patterns of the two values x takes by label (anti False, True), or None.

    The levels are the first sample of each label, and every sample must
    have its level's bit pattern, so -0.0 on a 0.0 level or one NaN payload
    on another gives None.  A label that does not occur gets the other's
    level.
    """
    bits = x.view(np.uint64)
    levels = bits[[np.argmin(anti), np.argmax(anti)]]
    if not np.array_equal(bits, np.where(anti, levels[1], levels[0])):
        return None
    return tuple(levels.tolist())


@functools.lru_cache(maxsize=16)
def _level_tails(low: int, high: int) -> np.ndarray:
    """The row bytes after the time cell for the levels with bit patterns low and high.

    Row 0 is for label P and row 1 for AP; each is packed to the front (a
    stable sort of its NUL mask), so that it is one run for the compaction.
    """
    pair = np.zeros((2, _ROW_WIDTH), dtype=np.uint8)
    levels = np.array([low, high], dtype=np.uint64).view(float)
    _render_tails(pair, levels, np.array([False, True]))
    tails = pair[:, _TIME_WIDTH:]
    tails = np.take_along_axis(tails, np.argsort(tails == 0, axis=1, kind="stable"), 1)
    tails.flags.writeable = False  # shared by every caller
    return tails


def switching_times(
    p: SmtjParams, b: float, duration: float, rng: np.random.Generator
) -> tuple[MtjState, np.ndarray]:
    """Draw the exact switching instants of one trajectory over [0, duration).

    The initial state is drawn from the stationary occupancy, then holding
    times alternate between the two exponential dwell distributions.  Returns
    (initial_state, ascending array of transition times).  When the occupancy
    is pinned at 0 or 1 the trajectory never switches.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    occ = occupancy_ap(p, b)
    state0 = MtjState.ANTIPARALLEL if rng.random() < occ else MtjState.PARALLEL
    if occ < _OCC_PINNED or occ > 1.0 - _OCC_PINNED:
        return state0, np.empty(0)

    tau_ap, tau_p = dwell_times(p, b)
    first, second = (tau_ap, tau_p) if state0 is MtjState.ANTIPARALLEL else (tau_p, tau_ap)

    # Chunk size is a fixed function of the arguments so the draw sequence,
    # and hence the trajectory, is reproducible.  Chunks stay even so the
    # dwell-scale alternation pattern is the same in every chunk.
    chunk = 1.25 * duration / p.tau_mean
    if not chunk < _MAX_COUNT:
        raise ValueError(f"duration {duration:g} s holds too many dwells of {p.tau_mean:g} s")
    chunk = int(chunk) + 16
    chunk += chunk & 1

    # Each chunk is scaled, summed and shifted in place; standard_exponential
    # draws the stream of exponential(1.0), and the pinned tests hold the bytes.
    pieces = []
    t_end = 0.0
    while t_end < duration:
        times = rng.standard_exponential(chunk)
        times[0::2] *= first
        times[1::2] *= second
        np.cumsum(times, out=times)
        times += t_end
        pieces.append(times)
        t_end = times[-1]
    # only the last chunk reaches duration; its times ascend
    pieces[-1] = pieces[-1][: np.searchsorted(pieces[-1], duration)]
    return state0, pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def states_at(state0: MtjState, transitions: np.ndarray, n: int, dt: float) -> np.ndarray:
    """State labels (uint8 MtjState values) at the sampling instants k * dt, k < n.

    transitions holds ascending, non-negative switching instants.  A
    transition at exactly t is visible at every instant k * dt >= t, with
    k * dt rounded as np.arange(n) * dt (and the time column to_csv writes)
    rounds it.  Dwells shorter than dt can be skipped entirely, as in a real
    sampled acquisition.  With m = len(transitions), runs in O(n log m) when
    m > n, by that rule's own searchsorted, and in O(m + n) otherwise.
    """
    if transitions.size > n:
        flips = np.searchsorted(transitions, np.arange(n) * dt, side="right")
    else:
        # ceil(t / dt) is at most one step off the first instant at or after t
        k = np.ceil(transitions / dt).astype(np.int64)
        k += k * dt < transitions
        k -= (k - 1) * dt >= transitions
        flips = np.bincount(k[k < n], minlength=n).cumsum()
    return ((flips + int(state0)) & 1).astype(np.uint8)


def sample_trajectory(
    p: SmtjParams, b: float, duration: float, dt: float, seed
) -> TelegraphTrace:
    """Simulate a resistance trace sampled every dt over [0, duration).

    The two-state Markov process is generated in continuous time and then
    quantized onto the sampling grid.  Deterministic for a given seed.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if duration < dt:
        raise ValueError("duration must cover at least one sample interval")
    if not duration / dt < _MAX_COUNT:
        raise ValueError(f"duration {duration:g} s holds too many samples of {dt:g} s")
    if dt > p.tau_mean / 10.0:
        warnings.warn(
            f"dt={dt:g} s exceeds tau_mean/10={p.tau_mean / 10:g} s; "
            "sub-interval dwells will be lost",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    state0, transitions = switching_times(p, b, duration, rng)
    n = max(1, int(round(duration / dt)))
    labels = states_at(state0, transitions, n, dt)
    values = np.where(labels == MtjState.ANTIPARALLEL, r_antiparallel(p), p.r_parallel)
    return TelegraphTrace(sample_interval=dt, values=values, labels=labels)


def simulate_field_sweep(
    p: SmtjParams, b_values, duration: float, dt: float, seed, jobs: int = 1
) -> list[tuple[float, float]]:
    """Time-averaged resistance at each field point of a sweep.

    Each point runs an independent trajectory of the given duration; its seed
    derives from (seed, point index) so adding points does not perturb the
    others, and jobs > 1 worker processes give the same points.  Returns a
    list of (b, mean resistance) pairs.
    """
    point = functools.partial(_sweep_point, p, duration, dt, seed)
    return _map_points(point, [float(b) for b in b_values], jobs)


def _sweep_point(
    p: SmtjParams, duration: float, dt: float, seed, i: int, b: float
) -> tuple[float, float]:
    trace = sample_trajectory(p, b, duration, dt, _point_seed(seed, i))
    return b, float(trace.values.mean())


def _map_points(point, items: list, jobs: int) -> list:
    """[point(i, x) for i, x in enumerate(items)], over up to jobs worker processes.

    The pool holds min(jobs, len(items), _usable_cpus()) workers, since a
    fork pool starts all of them at once; with one, the points run in this
    process.  Callers seed point i from (seed, i) alone, so the list does not
    depend on jobs or the worker count.  point must pickle (a module-level
    function or a functools.partial of one) when the pool runs.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, len(items), _usable_cpus())
    if workers <= 1:
        return [point(i, x) for i, x in enumerate(items)]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, range(len(items)), items))


def _point_seed(seed, i: int) -> np.random.SeedSequence:
    """Seed of point i of a sweep started from an int or a SeedSequence.

    An int seed gives SeedSequence((seed, i)).  A SeedSequence gives its own
    i-th child: its whole entropy, with i appended to its spawn_key, so
    spawned siblings and sequences that differ in any entropy word seed
    different points.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=(*seed.spawn_key, i), pool_size=seed.pool_size
        )
    return np.random.SeedSequence((int(seed), i))
