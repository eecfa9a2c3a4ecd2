import concurrent.futures
import hashlib
import io
import json
import math
import os
import struct
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from pbitsim import smtj
from pbitsim.analysis import load_trace
from pbitsim.params import _expit
from pbitsim.smtj import (
    _CSV_ROWS,
    MtjState,
    SmtjParams,
    TelegraphTrace,
    dwell_times,
    occupancy_ap,
    r_antiparallel,
    sample_trajectory,
    simulate_field_sweep,
    states_at,
    switching_times,
)

SLOW = SmtjParams()  # 27.6 kOhm / 14.5% / 4.2 ms reference device
WINDOW = (SLOW.b_5050 - SLOW.window_width, SLOW.b_5050 + SLOW.window_width)  # tesla
FAST = SmtjParams(tmr=0.30, tau_mean=68.9e-6, window_width=0.2e-3)


class TestRAntiparallel:
    def test_reference_device(self):
        assert r_antiparallel(SLOW) == pytest.approx(31602.0, rel=1e-12)

    def test_zero_tmr_identity(self):
        assert r_antiparallel(SmtjParams(r_parallel=5e4, tmr=0.0)) == 5e4

    def test_thirty_percent(self):
        p = SmtjParams(r_parallel=100e3, tmr=0.30)
        assert r_antiparallel(p) == pytest.approx(130e3, rel=1e-12)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_parallel": 0.0},
            {"r_parallel": -1.0},
            {"tmr": -0.1},
            {"tau_mean": 0.0},
            {"window_width": -1e-3},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SmtjParams(**kwargs)

    def test_json_roundtrip_exact_keys(self):
        obj = SLOW.to_json()
        assert set(obj) == {
            "r_parallel_ohm",
            "tmr",
            "tau_mean_s",
            "b_5050_T",
            "window_width_T",
        }
        assert SmtjParams.from_json(json.loads(json.dumps(obj))) == SLOW


class TestOccupancy:
    def test_half_at_5050_point(self):
        assert occupancy_ap(SLOW, SLOW.b_5050) == 0.5

    def test_saturates_far_above_window(self):
        assert occupancy_ap(SLOW, SLOW.b_5050 + 10 * SLOW.window_width) < 1e-4
        assert occupancy_ap(SLOW, SLOW.b_5050 - 10 * SLOW.window_width) > 1 - 1e-4

    def test_window_edges(self):
        # fluctuation visible between -7.5 and -6.9 mT for the 0.6 mT window
        assert occupancy_ap(SLOW, -7.5e-3) >= 0.9
        assert occupancy_ap(SLOW, -6.9e-3) <= 0.1

    # fields over the whole range, and often both within the window, where
    # the strict check applies
    @given(
        b1=st.one_of(st.floats(-10e-3, -4e-3), st.floats(*WINDOW)),
        b2=st.one_of(st.floats(-10e-3, -4e-3), st.floats(*WINDOW)),
    )
    # both round to exactly 1.0: the logistic's argument is about 37 there
    @example(b1=-0.009994912777945196, b2=-0.01)
    @example(b1=WINDOW[0], b2=WINDOW[0] + 1.01e-6)
    @example(b1=WINDOW[1], b2=WINDOW[1] - 1.01e-6)
    def test_monotone_decreasing(self, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        o_lo, o_hi = occupancy_ap(SLOW, lo), occupancy_ap(SLOW, hi)
        assert 0.0 <= o_hi <= o_lo <= 1.0
        # Far outside the window the occupancy rounds to 0 or 1 and distinct
        # fields share a value; within b_5050 +- window_width a 1e-6 T step
        # moves it by about 1e-6, far above an ulp.
        if WINDOW[0] <= lo and hi <= WINDOW[1] and hi - lo > 1e-6:
            assert o_hi < o_lo


class TestExpit:
    # occupancy_ap sets the trajectory's draws, so the scalar logistic must
    # round exactly as scipy.special.expit does
    @staticmethod
    def assert_matches_scipy(x):
        got, want = _expit(x), float(special.expit(x))
        if math.isnan(x):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want), (x, got, want)

    @given(st.floats())
    def test_bitwise_equal_to_scipy(self, x):
        self.assert_matches_scipy(x)

    @pytest.mark.parametrize(
        "x",
        [-709.78, -710.0, -1e308, 1e308, -math.inf, math.inf, math.nan, 0.0, -0.0, 36.7, -745.2],
    )
    def test_edges_equal_to_scipy(self, x):
        self.assert_matches_scipy(x)

    def test_dense_grid_equal_to_scipy(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([np.linspace(-750.0, 750.0, 150_001), 30.0 * rng.standard_normal(50_000)])
        got = np.array([_expit(x) for x in xs.tolist()])
        assert np.array_equal(got.view(np.uint64), special.expit(xs).view(np.uint64))


class TestDwellTimes:
    def test_equal_at_5050(self):
        assert dwell_times(SLOW, SLOW.b_5050) == (SLOW.tau_mean, SLOW.tau_mean)

    def test_split_at_075_occupancy(self):
        # logistic inverse: occupancy 0.75 at b_5050 + scale * ln(1/3)
        b = SLOW.b_5050 + (SLOW.window_width / 8) * np.log(1.0 / 3.0)
        assert occupancy_ap(SLOW, b) == pytest.approx(0.75, rel=1e-12)
        tau_ap, tau_p = dwell_times(SLOW, b)
        assert tau_ap == pytest.approx(1.5 * SLOW.tau_mean, rel=1e-9)
        assert tau_p == pytest.approx(0.5 * SLOW.tau_mean, rel=1e-9)

    def test_reference_dwell(self):
        tau_ap, tau_p = dwell_times(SLOW, SLOW.b_5050)
        assert tau_ap == pytest.approx(4.2e-3)
        assert tau_p == pytest.approx(4.2e-3)

    @given(b=st.floats(-9e-3, -5e-3))
    def test_split_identities(self, b):
        tau_ap, tau_p = dwell_times(SLOW, b)
        assert tau_ap + tau_p == pytest.approx(2 * SLOW.tau_mean, rel=1e-12)
        assert tau_ap / (tau_ap + tau_p) == pytest.approx(
            occupancy_ap(SLOW, b), rel=1e-12
        )


class TestSampleTrajectory:
    def test_deterministic(self):
        a = sample_trajectory(FAST, FAST.b_5050, 0.05, 1e-6, seed=3)
        b = sample_trajectory(FAST, FAST.b_5050, 0.05, 1e-6, seed=3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_two_level_exact(self):
        tr = sample_trajectory(SLOW, SLOW.b_5050, 0.5, 1e-4, seed=9)
        assert np.isin(tr.values, [SLOW.r_parallel, r_antiparallel(SLOW)]).all()
        assert np.array_equal(
            tr.values == r_antiparallel(SLOW), tr.labels == MtjState.ANTIPARALLEL
        )

    def test_occupancy_converges(self):
        tr = sample_trajectory(FAST, FAST.b_5050, 1e4 * FAST.tau_mean, FAST.tau_mean / 10, seed=17)
        assert abs(tr.labels.mean() - 0.5) < 0.02

    def test_far_field_constant_antiparallel(self):
        tr = sample_trajectory(SLOW, SLOW.b_5050 - 20 * SLOW.window_width, 0.1, 4e-5, seed=1)
        assert np.all(tr.values == r_antiparallel(SLOW))

    def test_reference_run_length(self):
        # 4.2 ms dwell sampled at 100 kHz: mean run of identical labels near 420
        tr = sample_trajectory(SLOW, SLOW.b_5050, 50.0, 1e-5, seed=21)
        edges = np.flatnonzero(np.diff(tr.labels)) + 1
        runs = np.diff(np.concatenate([[0], edges, [len(tr)]]))[1:-1]
        assert runs.mean() == pytest.approx(420, rel=0.15)

    @pytest.mark.parametrize("duration,dt", [(0.0, 1e-5), (1.0, 0.0), (1e-6, 1e-5)])
    def test_rejects_bad_args(self, duration, dt):
        with pytest.raises(ValueError):
            sample_trajectory(SLOW, SLOW.b_5050, duration, dt, seed=0)

    def test_warns_on_coarse_dt(self):
        with pytest.warns(UserWarning, match="dwells"):
            sample_trajectory(SLOW, SLOW.b_5050, 0.2, 1e-3, seed=0)


@st.composite
def grid_transitions(draw):
    """(n, dt, transitions): ascending non-negative switching instants placed
    on grid instants k * dt, one ulp either side of them (k up to n + 1, so
    at 0 and past the last instant too), and anywhere in between."""
    dt = draw(st.sampled_from([1e-5, 3.3e-6, 2e-6, 0.1, 1e-9]))
    n = draw(st.integers(1, 3000))
    marks = draw(
        st.lists(st.tuples(st.integers(0, n + 1), st.sampled_from([-1, 0, 1])), max_size=60)
    )
    on_grid = [
        float(k * dt if side == 0 else np.nextafter(k * dt, side * math.inf))
        for k, side in marks
    ]
    between = draw(st.lists(st.floats(0.0, (n + 1) * dt), max_size=20))
    t = np.sort(np.array(on_grid + between))
    return n, dt, t[t >= 0]


class TestStatesAt:
    @settings(max_examples=300, deadline=None)
    @given(case=grid_transitions(), state0=st.sampled_from(MtjState))
    @example(case=(4, 0.1, np.array([0.0, 0.1, 0.30000000000000004])), state0=MtjState.PARALLEL)
    @example(case=(5, 1e-5, np.empty(0)), state0=MtjState.ANTIPARALLEL)
    # more transitions than instants, on and between the grid instants
    @example(case=(2, 0.1, np.array([0.0, 0.05, 0.1, 0.1, 0.15])), state0=MtjState.PARALLEL)
    @example(case=(1, 1e-9, np.array([0.0, 0.0])), state0=MtjState.ANTIPARALLEL)
    def test_matches_searchsorted_rule(self, case, state0):
        n, dt, t = case
        # a transition at t is counted by every instant np.arange(n) * dt >= t
        expected = (np.searchsorted(t, np.arange(n) * dt, side="right") + int(state0)) & 1
        labels = states_at(state0, t, n, dt)
        assert labels.dtype == np.uint8
        assert np.array_equal(labels, expected)


class TestSwitchingTimesPinned:
    # SHA-256 of the initial state byte and the transition times' bytes; any
    # change to the draws or to the arithmetic on them shows here.  Fields:
    # the 50-50 point, off-centre on either side, a pinned occupancy;
    # durations from 0.01 s to a 200 s activation point; the two at seed
    # 1322 draw a second chunk.
    PINNED = [
        (SLOW, SLOW.b_5050, 1.0, 5, 248,
         "aa8fc4f66213ff2a099459953cfb797d64ab3b64cc4dad2e10ef6ac469a3cf2c"),
        (SLOW, SLOW.b_5050, 200.0, 7, 47409,
         "3363f35ae5807a60a13c6138f5fd70a531f2b6eea7316efc7a9a8eb40894be21"),
        (SLOW, SLOW.b_5050 + 0.2e-3, 0.5, 3, 112,
         "bb98167ae847c190e174c94f89ed6a8064b29f6f436082d9397caa982da0a16b"),
        (FAST, FAST.b_5050 - 0.05e-3, 0.01, 11, 144,
         "3f6c7a73b49941d09e266e7b1b22b4b9df302e8b81e03151b466011a237b1fff"),
        (SLOW, SLOW.b_5050 - 0.45e-3, 0.05, 1322, 30,
         "992e7e6d523007f50816dfd1fc8dd6cf53323074c069039aa5ee1b9561cd0a8a"),
        (SLOW, SLOW.b_5050 + 0.5e-3, 0.03, 1322, 24,
         "85347cd2518e6f71e604549dc68e16013d8a660d7f5af89cfecbbf76bbc692fa"),
        (SLOW, -0.02, 1.0, 0, 0,
         "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
    ]

    @pytest.mark.parametrize("p,b,duration,seed,count,digest", PINNED)
    def test_bytes_pinned(self, p, b, duration, seed, count, digest):
        state0, times = switching_times(p, b, duration, np.random.default_rng(seed))
        assert times.dtype == np.float64 and times.size == count
        assert hashlib.sha256(bytes([state0]) + times.tobytes()).hexdigest() == digest


    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_duration_must_be_positive(self, duration):
        with pytest.raises(ValueError, match="duration must be > 0"):
            switching_times(SLOW, SLOW.b_5050, duration, np.random.default_rng(0))


class TestFieldSweepJobs:
    def test_workers_match_serial(self):
        grid = FAST.b_5050 + 0.05e-3 * np.arange(-2, 3)
        seed = np.random.SeedSequence(21)
        serial = simulate_field_sweep(FAST, grid, 0.01, 2e-6, seed)
        assert simulate_field_sweep(FAST, grid, 0.01, 2e-6, seed, jobs=2) == serial

    def test_spawned_siblings_sweep_independently(self):
        grid = FAST.b_5050 + 0.05e-3 * np.arange(-1, 2)
        a, b = (
            simulate_field_sweep(FAST, grid, 0.01, 2e-6, child)
            for child in np.random.SeedSequence(21).spawn(2)
        )
        assert all(ra != rb for (_, ra), (_, rb) in zip(a, b))

    @pytest.mark.parametrize(
        "jobs,points,cpus,workers",
        [
            (5000, 22, 64, 22),  # capped at the points
            (5000, 22, 4, 4),  # capped at the CPUs
            (3, 22, 64, 3),
            (2, 22, 1, None),  # one worker: no pool
            (5000, 1, 64, None),
            (5000, 0, 64, None),
        ],
    )
    def test_pool_capped_at_points_and_cpus(self, monkeypatch, jobs, points, cpus, workers):
        # A fork pool starts all max_workers processes up front.  The fake
        # records its size and maps serially, so no process starts here.
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(smtj, "_usable_cpus", lambda: cpus)
        items = [0.5 * k for k in range(points)]
        assert smtj._map_points(lambda i, x: (i, x), items, jobs) == list(enumerate(items))
        assert pools == ([] if workers is None else [workers])

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            simulate_field_sweep(FAST, [FAST.b_5050], 0.01, 2e-6, seed=1, jobs=0)


class TestStatisticalInvariants:
    def test_occupancy_within_002_for_95_of_100_seeds(self):
        duration = 1e4 * FAST.tau_mean
        good = 0
        for seed in range(100):
            tr = sample_trajectory(FAST, FAST.b_5050, duration, FAST.tau_mean / 10, seed)
            good += abs(tr.labels.mean() - 0.5) < 0.02
        assert good >= 95

    def test_holding_times_exponential_ks_95_of_100_seeds(self):
        duration = 1400 * FAST.tau_mean
        good = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, times = switching_times(FAST, FAST.b_5050, duration, rng)
            holds = np.diff(np.concatenate([[0.0], times]))
            assert holds.size >= 1000
            p_value = stats.kstest(holds, "expon", args=(0, FAST.tau_mean)).pvalue
            good += p_value >= 0.01
        assert good >= 95

    def test_switching_times_sorted_within_duration(self):
        rng = np.random.default_rng(5)
        _, times = switching_times(SLOW, SLOW.b_5050, 1.0, rng)
        assert np.all(np.diff(times) > 0)
        assert times[-1] < 1.0


def reference_csv(trace):
    """The row-at-a-time writer that to_csv must reproduce byte for byte."""
    dt = trace.sample_interval
    values = trace.values.tolist()
    if trace.labels is None:
        rows = ["%.12g,%.12g\n" % (k * dt, x) for k, x in enumerate(values)]
        return "time_s,resistance_ohm\n" + "".join(rows)
    states = ["AP" if s else "P" for s in trace.labels.tolist()]
    rows = ["%.12g,%.12g,%s\n" % (k * dt, x, s) for k, (x, s) in enumerate(zip(values, states))]
    return "time_s,resistance_ohm,state\n" + "".join(rows)


def _near(x: float, direction) -> float:
    return x if direction is None else math.nextafter(x, direction)


_NEIGHBOUR = st.sampled_from([None, -math.inf, math.inf])

# Values next to the decisions %.12g makes: 10**k +- 1 ulp (a change of
# exponent), exact 12-digit ties n + odd / 2**j with 13 - j integer digits,
# and the doubles nearest the decimal ties m5 * 10**(e - 12) with their
# neighbours, for every fixed-notation exponent e.
_POWERS_OF_TEN = st.builds(
    lambda k, d: _near(float(f"1e{k}"), d), st.integers(-8, 16), _NEIGHBOUR
)
_EXACT_TIES = st.integers(1, 12).flatmap(
    lambda j: st.builds(
        lambda n, odd: n + (2 * odd + 1) / 2**j,
        st.integers(10 ** (12 - j), 10 ** (13 - j) - 1),
        st.integers(0, 2 ** (j - 1) - 1),
    )
)
_DECIMAL_TIES = st.builds(
    lambda m, e, d: _near(float(f"{m}5e{e - 12}"), d),
    st.integers(10**11, 10**12 - 1), st.integers(-4, 11), _NEIGHBOUR,
)
_SAMPLES = st.builds(
    lambda x, negate: -x if negate else x,
    st.one_of(
        st.floats(),  # includes nan, inf, -0.0 and subnormals
        st.floats(1e-5, 1e12),
        st.integers(0, 10**7).map(lambda i: i / 1000),
        _POWERS_OF_TEN,
        _EXACT_TIES,
        _DECIMAL_TIES,
    ),
    st.booleans(),
)
# Every fixed-notation exponent e times every position p of the last nonzero
# mantissa digit, in both signs: the point falls after digit e unless p <= e,
# and the integer digits print their zeros (a mantissa 1, zeros, 6 has them
# inside as well as after).
_TRIMS = [
    sign * float(f"{head}e{e - p}")
    for e in range(-4, 12)
    for p in range(12)
    for head in ("123456789123"[: p + 1], str(10**p + 6))
    for sign in (1, -1)
]
_INTERVALS = st.sampled_from([1e-5, 3.3e-6, 2e-6, 1e-9])

# Sample intervals on a decimal grid, D * 10**-F, their one-ulp neighbours,
# and intervals whose %.12g does not read back.
_GRID_INTERVALS = st.one_of(
    st.builds(
        lambda d, f, side: _near(float(f"{d}e-{f}"), side),
        st.integers(1, 10**6), st.integers(0, 12), _NEIGHBOUR,
    ),
    st.sampled_from([1 / 3, math.nextafter(1e-5, 1), 3.333333333333333e-05, 0.1 + 0.2]),
)


class TestTraceCsvMatchesPerRowWriter:
    @staticmethod
    def assert_matches(trace):
        buf = io.StringIO()
        trace.to_csv(buf)
        assert buf.getvalue() == reference_csv(trace)

    @settings(max_examples=300, deadline=None)
    @example(samples=_TRIMS, dt=1e-5, labeled=True)
    @given(st.lists(_SAMPLES, min_size=1, max_size=300), _INTERVALS, st.booleans())
    def test_arbitrary_samples(self, samples, dt, labeled):
        labels = np.arange(len(samples)) % 3 == 0 if labeled else None
        self.assert_matches(TelegraphTrace(dt, np.array(samples), labels))

    # the 1e-9 grid prints its first 100k times in exponent form; no shrink
    # phase, since each shrink step re-renders up to 131073 rows in the
    # per-row reference and a failure took minutes to report
    @settings(
        max_examples=20,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
    )
    @example(dt=1e-9, n=2 * _CSV_ROWS + 1, seed=0, planted=[], noisy=True, labeled=True)
    @example(dt=1e-5, n=_CSV_ROWS + 1, seed=1, planted=[(_CSV_ROWS, -0.0)], noisy=False,
             labeled=False)
    @given(
        dt=_INTERVALS,
        n=st.sampled_from([_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 1]),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(st.tuples(st.integers(_CSV_ROWS - 40, _CSV_ROWS + 40), _SAMPLES)),
        noisy=st.booleans(),
        labeled=st.booleans(),
    )
    def test_chunk_boundaries(self, dt, n, seed, planted, noisy, labeled):
        # a two-level trace, with read noise or without, and samples planted
        # around the first chunk boundary
        rng = np.random.default_rng(seed)
        anti = rng.random(n) < 0.5
        values = np.where(anti, 35880.0, 27600.0) + noisy * rng.normal(0.0, 150.0, n)
        for index, x in planted:
            values[min(index, n - 1)] = x
        self.assert_matches(TelegraphTrace(dt, values, anti if labeled else None))

    @settings(max_examples=300, deadline=None)
    @example(dt=1e-5, n=300, labeled=True)
    @example(dt=1.0, n=300, labeled=False)
    @given(_GRID_INTERVALS, st.integers(1, 300), st.booleans())
    def test_grid_intervals(self, dt, n, labeled):
        anti = np.arange(n) % 3 == 0
        values = np.where(anti, 35880.0, 27600.0)
        self.assert_matches(TelegraphTrace(dt, values, anti if labeled else None))

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.tuples(_SAMPLES, _SAMPLES),
        anti=st.lists(st.booleans(), min_size=1, max_size=40),
        planted=st.lists(st.tuples(st.integers(0, 39), _SAMPLES), max_size=2),
    )
    def test_two_level_samples(self, levels, anti, planted):
        # two levels drawn from the same values as above (NaN, -0.0, ties),
        # sometimes with a third value planted
        anti = np.array(anti)
        values = np.where(anti, levels[1], levels[0])
        for index, x in planted:
            values[index % anti.size] = x
        self.assert_matches(TelegraphTrace(1e-5, values, anti))


def render_times(dt, start, stop):
    """The time cells _render_times writes for rows start .. stop - 1, as text."""
    rows = np.zeros((stop - start, smtj._TIME_WIDTH), dtype=np.uint8)
    smtj._render_times(rows, dt, start, stop)
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


class TestTimeCells:
    """The decimal-grid path of the time column, at the rows around its limits."""

    @settings(max_examples=200, deadline=None)
    @example(digits=1, places=5, side=None)
    @example(digits=1, places=0, side=None)
    @example(digits=999999, places=12, side=None)
    @example(digits=33, places=14, side=None)
    @example(digits=1, places=15, side=None)
    @given(st.integers(1, 10**6), st.integers(0, 16), _NEIGHBOUR)
    def test_rows_around_each_limit(self, digits, places, side):
        dt = _near(float(f"{digits}e-{places}"), side)
        grid = smtj._decimal_grid(dt)
        on_grid = grid is not None
        assert on_grid == (side is None)
        if on_grid:
            # the same decimal, without the trailing zeros of digits
            assert Fraction(grid[0], 10 ** grid[1]) == Fraction(digits, 10**places)
            digits, places = grid
        # N = k * digits crossing 10**(places - 4) (exponent form below),
        # 10**(places - 3 .. places - 1) (the fraction's leading zeros),
        # 10**(places + j) (a new integer digit) and 10**12 (the 12-digit cap)
        for exponent in range(max(places - 4, 0), 13):
            k = -(-(10**exponent) // digits)
            start = max(k - 3, 0)
            general = []
            render = smtj._render_g12

            def counted(x, cells):
                general.extend(x.tolist())
                return render(x, cells)

            with mock.patch.object(smtj, "_render_g12", counted):
                cells = render_times(dt, start, k + 3)
            assert cells == ["%.12g" % (i * dt) for i in range(start, k + 3)]
            # only k = 0, exponent form and N >= 10**12 leave the table path
            table = [
                on_grid and i >= 1 and 10**places <= 10**4 * i * digits and i * digits < 10**12
                for i in range(start, k + 3)
            ]
            assert general == [i * dt for i, t in zip(range(start, k + 3), table) if not t]

    @pytest.mark.parametrize("dt, grid", [
        (1e-5, (1, 5)), (3.3e-6, (33, 7)), (0.1, (1, 1)), (1.0, (1, 0)), (100.0, (100, 0)),
        (1e20, (10**20, 0)), (123.456, (123456, 3)), (1e-12, (1, 12)),
        (1 / 3, None), (3.333333333333333e-05, None), (math.nextafter(1e-5, 1), None),
        (math.inf, None), (math.nan, None),
    ])
    def test_decimal_grid(self, dt, grid):
        assert smtj._decimal_grid(dt) == grid

    def test_cells_fill_at_most_the_time_cell(self):
        # the widest table cells, 0 with a point and 12 or 15 places and 12
        # integer digits, fit in the 20-byte time cell
        for dt, k in [(1e-12, 999999999999), (1e-15, 999999999999), (1.0, 999999999999)]:
            rows = np.zeros((1, smtj._TIME_WIDTH), dtype=np.uint8)
            with mock.patch.object(smtj, "_render_g12") as general:
                smtj._render_times(rows, dt, k, k + 1)
            general.assert_not_called()  # all on the table path
            assert rows[rows != 0].tobytes().decode("ascii") == "%.12g" % (k * dt)


class TestTwoLevelCsv:
    """The value column is gathered by label only where it is bitwise two-level."""

    OTHER_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]

    @pytest.mark.parametrize("values, labels, two_level", [
        # a -0.0 sample on a 0.0 level prints "-0"
        ([0.0, -0.0, 0.0, 35880.0], [0, 0, 0, 1], False),
        ([-0.0, -0.0, 35880.0], [0, 0, 1], True),
        # a NaN level, and a second NaN payload on it
        ([27600.0, math.nan, math.nan, 27600.0], [0, 1, 1, 0], True),
        ([27600.0, math.nan, OTHER_NAN, 27600.0], [0, 1, 1, 0], False),
        # a sample one ulp off its level
        ([27600.0, 35880.0, math.nextafter(27600.0, math.inf), 35880.0], [0, 1, 0, 1], False),
        # one label only
        ([35880.0] * 4, [1] * 4, True),
        ([27600.0] * 4, [0] * 4, True),
        # three values, on two labels and on three
        ([27600.0, 35880.0, 31000.0], [0, 1, 1], False),
        ([27600.0, 35880.0, 31000.0], [0, 1, 2], False),
        # labels that swap the levels
        ([27600.0, 35880.0, 35880.0], [1, 0, 0], True),
    ])
    def test_matches_per_row_writer(self, values, labels, two_level):
        trace = TelegraphTrace(1e-5, np.array(values), np.array(labels))
        assert (smtj._two_levels(trace.values, trace.labels != 0) is not None) == two_level
        buf = io.StringIO()
        trace.to_csv(buf)
        assert buf.getvalue() == reference_csv(trace)

    def test_slices_of_one_label(self, monkeypatch):
        # 4-row slices: P only, both, AP only, and a last one with a third value
        monkeypatch.setattr(smtj, "_CSV_ROWS", 4)
        monkeypatch.setattr(smtj, "_usable_cpus", lambda: 1)
        labels = np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1])
        values = np.where(labels, 35880.0, 27600.0)
        values[-1] = 31000.0
        trace = TelegraphTrace(1e-5, values, labels)
        assert smtj._two_levels(values[:4], labels[:4] != 0) is not None
        assert smtj._two_levels(values[8:12], labels[8:12] != 0) is not None
        buf = io.StringIO()
        trace.to_csv(buf)
        assert buf.getvalue() == reference_csv(trace)


class TestTraceCsvThreads:
    """to_csv on 3 and 4 threads, whatever the CPU count, with tiny blocks."""

    BLOCK = 10  # _CSV_ROWS here, so slices of 4 rows at 3 CPUs and 3 at 4

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(smtj, "_CSV_ROWS", self.BLOCK)

    @staticmethod
    def trace(n, labeled):
        # read noise, with cells for the batched %.12g fallback in every slice
        rng = np.random.default_rng(n)
        anti = rng.random(n) < 0.5
        values = np.where(anti, 35880.0, 27600.0) + rng.normal(0.0, 150.0, n)
        values[::5] = np.resize([0.0, -np.inf, 1e20, np.nan, -2.5e-7], values[::5].size)
        return TelegraphTrace(1e-5, values, anti if labeled else None)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("cpus", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 19, 20, 21, 41, 97])
    def test_matches_per_row_writer(self, monkeypatch, cpus, n, labeled):
        # 1 row, fewer rows than threads, and lengths around slice and block
        # boundaries
        monkeypatch.setattr(smtj, "_usable_cpus", lambda: cpus)
        trace = self.trace(n, labeled)
        buf = io.StringIO()
        trace.to_csv(buf)
        assert buf.getvalue() == reference_csv(trace)

    def test_render_error_reraised_and_threads_joined(self, monkeypatch):
        monkeypatch.setattr(smtj, "_usable_cpus", lambda: 4)
        render = smtj._render_g12_slow
        error = RuntimeError("third slice")
        calls = []
        lock = threading.Lock()

        def failing(x):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise error
            return render(x)

        monkeypatch.setattr(smtj, "_render_g12_slow", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            self.trace(97, labeled=True).to_csv(io.StringIO())
        assert caught.value is error
        assert threading.active_count() == before


class TestTraceCsv:
    def test_roundtrip_with_labels(self, tmp_path):
        tr = sample_trajectory(FAST, FAST.b_5050, 0.01, 5e-6, seed=4)
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as f:
            tr.to_csv(f)
        back = load_trace(path)
        assert back.sample_interval == pytest.approx(tr.sample_interval, rel=1e-9)
        assert np.array_equal(back.values, tr.values)

    # SHA-256 of to_csv output recorded with the row-at-a-time writer it
    # replaced; the chunked writer must reproduce every byte.
    PINNED = {
        "labeled": "687534def2cd98391001559e5529fff9cae07f9a45b793869817c3a2caa8b432",
        "head": "c4cdfed2d8ad297a74bf4dc7d548bd624300409d4d92b2c4a09b3f84c5cdf7d2",
        "noisy": "fd23cf8495c1e7e09dd2ac419665875e63a0c3f7d539f0a1cb53a442195ac858",
    }

    @staticmethod
    def csv_text(trace):
        buf = io.StringIO()
        trace.to_csv(buf)
        return buf.getvalue()

    @pytest.fixture(scope="class")
    def labeled(self):
        return sample_trajectory(FAST, FAST.b_5050, 0.75, 5e-6, seed=31)

    def test_labeled_bytes_pinned(self, labeled):
        # more than two chunks, the last one partial
        assert len(labeled) > 2 * _CSV_ROWS and len(labeled) % _CSV_ROWS
        text = self.csv_text(labeled)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED["labeled"]

    def test_exponent_rows_pinned(self, labeled):
        # %.12g switches to exponent form below t = 1e-4
        head = TelegraphTrace(labeled.sample_interval, labeled.values[:24], labeled.labels[:24])
        text = self.csv_text(head)
        assert text.splitlines()[1:4] == ["0,27600,P", "5e-06,27600,P", "1e-05,35880,AP"]
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED["head"]

    def test_unlabeled_noisy_bytes_pinned(self, labeled):
        rng = np.random.default_rng(32)
        n = _CSV_ROWS + 4465
        noisy = TelegraphTrace(3.3e-6, labeled.values[:n] + rng.normal(0.0, 150.0, n))
        text = self.csv_text(noisy)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED["noisy"]

    def test_writer_memory_is_bounded(self, monkeypatch):
        # rows are formatted a slice at a time, one slice per thread in
        # flight, at the usable CPU count and at 4; a writer that converts
        # the whole trace to Python objects at once peaks near 40 MB here
        n = 4 * _CSV_ROWS
        labels = (np.arange(n) // 7 % 2).astype(np.uint8)
        trace = TelegraphTrace(1e-5, np.where(labels, 35880.0, 27600.0), labels)
        peaks = {}
        for cpus in (smtj._usable_cpus(), 4):
            monkeypatch.setattr(smtj, "_usable_cpus", lambda: cpus)
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    trace.to_csv(sink)
                    peaks[cpus] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert all(peak < 16 * 2**20 for peak in peaks.values()), peaks

    def test_unlabeled_omits_state_column(self):
        tr = TelegraphTrace(sample_interval=1e-3, values=np.array([1.0, 2.0, 3.0]))
        buf = io.StringIO()
        tr.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "time_s,resistance_ohm"

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TelegraphTrace(sample_interval=0.0, values=np.array([1.0]))
        with pytest.raises(ValueError):
            TelegraphTrace(sample_interval=1.0, values=np.array([]))
        with pytest.raises(ValueError):
            TelegraphTrace(
                sample_interval=1.0,
                values=np.array([1.0, 2.0]),
                labels=np.array([0], dtype=np.uint8),
            )
