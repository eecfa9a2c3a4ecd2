import json
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from pbitsim import analysis
from pbitsim.analysis import (
    DwellEstimate,
    FieldSweep,
    FitDiverged,
    LevelEstimate,
    LevelOverflow,
    NoWindow,
    StochasticWindow,
    TooFewTransitions,
    TraceFormatError,
    UnimodalTrace,
    ZeroVariance,
    _acf_fft,
    _acf_two_level,
    _next_fast_len,
    _read_rows,
    autocorrelation,
    extract_stochastic_window,
    fit_dwell_time,
    load_trace,
    mean_dwell_direct,
    threshold_states,
    tmr_from_levels,
)
from pbitsim.fit import least_squares
from pbitsim.smtj import (
    SmtjParams,
    TelegraphTrace,
    r_antiparallel,
    sample_trajectory,
    simulate_field_sweep,
)

SLOW = SmtjParams()
FAST = SmtjParams(tmr=0.30, tau_mean=68.9e-6, window_width=0.2e-3)


def noisy(trace, sigma, seed):
    rng = np.random.default_rng(seed)
    return TelegraphTrace(
        sample_interval=trace.sample_interval,
        values=trace.values + rng.normal(0, sigma, trace.values.size),
    ), trace.labels


class TestThresholdStates:
    def test_noise_free_exact(self):
        tr = sample_trajectory(SLOW, SLOW.b_5050, 1.0, 1e-4, seed=2)
        levels, labeled = threshold_states(
            TelegraphTrace(tr.sample_interval, tr.values)
        )
        assert levels.r_low == pytest.approx(27600.0, rel=1e-12)
        assert levels.r_high == pytest.approx(31602.0, rel=1e-12)
        assert np.array_equal(labeled.labels, tr.labels)

    def test_constant_trace_rejected(self):
        flat = TelegraphTrace(1e-4, np.full(1000, 27600.0))
        with pytest.raises(UnimodalTrace):
            threshold_states(flat)

    def test_gaussian_unimodal_rejected(self):
        rng = np.random.default_rng(0)
        blur = TelegraphTrace(1e-4, 27600.0 + rng.normal(0, 300, 5000))
        with pytest.raises(UnimodalTrace):
            threshold_states(blur)

    @pytest.mark.parametrize(
        "low,high,message",
        [
            (1e306, 1.145e306, "level means overflow"),  # 500 of each sum past a double
            (1e308, 1.5e308, "overflow their midpoint"),
            (1e308, np.inf, "overflow their midpoint"),
        ],
    )
    def test_overflowing_levels_rejected(self, low, high, message):
        values = np.where(np.arange(1000) % 20 < 10, low, high)
        with pytest.raises(LevelOverflow, match=message):
            threshold_states(TelegraphTrace(1e-4, values))

    def test_read_noise_levels_within_1pct(self):
        tr = sample_trajectory(SLOW, SLOW.b_5050, 2.0, 1e-4, seed=3)
        blurred, truth = noisy(tr, 200.0, seed=4)
        levels, labeled = threshold_states(blurred)
        assert levels.r_low == pytest.approx(27600.0, rel=0.01)
        assert levels.r_high == pytest.approx(31602.0, rel=0.01)
        mislabel = np.mean(labeled.labels != truth)
        assert mislabel < 1e-3

    def test_gap_check_holds_near_largest_double(self):
        # deviations of 1e298 ohm would overflow if squared unscaled
        tr = sample_trajectory(SLOW, SLOW.b_5050, 1.0, 1e-4, seed=2)
        blurred, truth = noisy(tr, 20.0, seed=5)
        scaled = TelegraphTrace(tr.sample_interval, blurred.values * 1e300)
        levels, labeled = threshold_states(scaled)
        assert levels.r_low == pytest.approx(27600e300, rel=1e-3)
        assert levels.r_high == pytest.approx(31602e300, rel=1e-3)
        assert np.array_equal(labeled.labels, truth)

    def test_gaussian_unimodal_rejected_near_largest_double(self):
        rng = np.random.default_rng(0)
        blur = TelegraphTrace(1e-4, (27600.0 + rng.normal(0, 300, 5000)) * 1e300)
        with pytest.raises(UnimodalTrace, match="pooled sigma [0-9]"):
            threshold_states(blur)

    def test_requires_100_samples(self):
        short = TelegraphTrace(1e-4, np.tile([1.0, 2.0], 10))
        with pytest.raises(ValueError):
            threshold_states(short)

    @given(
        n=st.integers(100, 3000),
        p_switch=st.floats(0.001, 0.5),
        sigma=st.floats(0.0, 0.1),
        scale=st.sampled_from([1.0, 3e4, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_labels_match_reported_threshold(self, n, p_switch, sigma, scale, seed):
        rng = np.random.default_rng(seed)
        high = np.cumsum(rng.random(n) < p_switch) % 2 == 1
        values = (np.where(high, 1.3, 1.0) + rng.normal(0.0, sigma, n)) * scale
        try:
            levels, labeled = threshold_states(TelegraphTrace(1e-4, values))
        except UnimodalTrace:
            return
        assert labeled.labels.dtype == np.uint8
        assert np.array_equal(labeled.labels, values >= levels.threshold)


class TestTmrFromLevels:
    def test_reference(self):
        levels = LevelEstimate(27600.0, 31602.0, 29601.0)
        assert tmr_from_levels(levels) == pytest.approx(0.145, abs=1e-12)

    def test_equal_levels_zero(self):
        assert tmr_from_levels(LevelEstimate(1e4, 1e4, 1e4)) == 0.0

    def test_thirty_percent(self):
        assert tmr_from_levels(LevelEstimate(100e3, 130e3, 115e3)) == pytest.approx(0.30)

    def test_roundtrip_through_generator(self):
        tr = sample_trajectory(FAST, FAST.b_5050, 0.2, 2e-6, seed=8)
        levels, _ = threshold_states(tr)
        assert tmr_from_levels(levels) == pytest.approx(FAST.tmr, abs=1e-12)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        tr = sample_trajectory(FAST, FAST.b_5050, 0.05, 1e-6, seed=1)
        acf = autocorrelation(tr, 50)
        assert acf[0, 0] == 0.0
        assert acf[0, 1] == 1.0

    def test_alternating_sequence(self):
        vals = np.tile([27600.0, 31602.0], 500)
        acf = autocorrelation(TelegraphTrace(1e-5, vals), 4)
        assert acf[1, 1] == pytest.approx(-1.0, abs=2e-3)

    def test_matches_symmetric_telegraph_theory(self):
        # symmetric telegraph noise: acf(t) = exp(-2 t / tau)
        tr = sample_trajectory(FAST, FAST.b_5050, 2.0, 1e-6, seed=11)
        acf = autocorrelation(tr, 120)
        theory = np.exp(-2 * acf[:, 0] / FAST.tau_mean)
        assert np.abs(acf[:, 1] - theory).max() < 0.02

    def test_constant_raises(self):
        with pytest.raises(ZeroVariance):
            autocorrelation(TelegraphTrace(1e-5, np.full(100, 5.0)), 10)

    def test_max_lag_validated(self):
        tr = TelegraphTrace(1e-5, np.tile([1.0, 2.0], 50))
        with pytest.raises(ValueError):
            autocorrelation(tr, 25)
        with pytest.raises(ValueError):
            autocorrelation(tr, 0)

    def test_two_level_path_equals_fft_path(self):
        tr = sample_trajectory(FAST, FAST.b_5050, 0.05, 1e-6, seed=13)
        z = tr.values == tr.values.max()
        fast = _acf_two_level(z, 80)
        fft = _acf_fft(tr.values, 80)
        assert np.allclose(fast, fft, atol=1e-9)

    @pytest.mark.parametrize("n,max_lag", [(8, 1), (40, 9), (1000, 249), (5000, 37)])
    def test_two_level_edge_sums_match_full_cumsum(self, n, max_lag):
        # the normalisation from a full-length cumulative sum, over the exact
        # integer correlation, which the two-level recurrence reproduces
        rng = np.random.default_rng(n + max_lag)
        for _ in range(20):
            z = rng.random(n) < rng.uniform(0.05, 0.95)
            zi = z.astype(np.int64)
            ones = int(zi.sum())
            if ones in (0, n):
                continue
            zbar = ones / n
            ks = np.arange(max_lag + 1)
            corr = np.array([zi[: n - k] @ zi[k:] for k in ks], dtype=float)
            cum = np.concatenate([[0], np.cumsum(zi)])
            s1, s2 = cum[n - ks], ones - cum[ks]
            old = (corr - zbar * (s1 + s2) + (n - ks) * zbar * zbar) / (ones - n * zbar * zbar)
            assert np.array_equal(_acf_two_level(z, max_lag), old)

    def test_two_level_memory_is_linear_in_the_spikes(self):
        # about 0.3 spikes per sample, each with a dozen more within 40 lags
        n = 1_000_000
        rng = np.random.default_rng(5)
        z = np.cumsum(rng.random(n) < 0.3) % 2 == 1
        tracemalloc.start()
        try:
            _acf_two_level(z, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n, peak

    @pytest.mark.parametrize(
        "values,path",
        [
            ([2.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0], "two_level"),  # starts high
            ([1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 2.0, 1.0], "two_level"),  # starts low
            ([1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 2.0, 1.0], "fft"),
            ([1.0, 2.0, np.nan, 1.0, 2.0, 1.0, 2.0, 1.0], "fft"),
        ],
    )
    def test_dispatch(self, monkeypatch, values, path):
        ran = []
        for name, kind in (("_acf_two_level", "two_level"), ("_acf_fft", "fft")):
            def record(*args, _fn=getattr(analysis, name), _kind=kind):
                ran.append(_kind)
                return _fn(*args)

            monkeypatch.setattr(analysis, name, record)
        autocorrelation(TelegraphTrace(1e-5, np.tile(values, 10)), 4)
        assert ran == [path]

    def test_two_level_path_declines_one_boundary_past_the_budget(self, monkeypatch):
        # ten interior runs make 20 boundaries between samples; a run up to the
        # last sample adds one more
        n, max_lag = 1000, 10
        at_budget = np.zeros(n, dtype=bool)
        for start in range(50, 1000, 100):
            at_budget[start : start + 20] = True
        past = at_budget.copy()
        past[-10:] = True
        run_length = _acf_two_level(past, max_lag)
        expected = [_acf_two_level(at_budget, max_lag), _acf_fft(past.astype(float), max_lag)]
        # the two paths tell apart on the trace past the budget
        assert run_length[1:].tobytes() != expected[1][1:].tobytes()
        monkeypatch.setattr(analysis, "_SPIKE_PAIR_BUDGET", (2 * 20) ** 2 * max_lag / n)
        for z, acf in zip((at_budget, past), expected):
            acf[0] = 1.0
            got = autocorrelation(TelegraphTrace(1e-5, z.astype(float)), max_lag)
            assert got[:, 1].tobytes() == acf.tobytes()

    @given(data=st.lists(st.sampled_from([10.0, 20.0]), min_size=30, max_size=200))
    def test_bounded_by_one(self, data):
        vals = np.asarray(data)
        if vals.min() == vals.max():
            return
        acf = autocorrelation(TelegraphTrace(1.0, vals), max(1, len(data) // 4 - 1))
        assert acf[0, 1] == 1.0
        assert np.all(np.abs(acf[:, 1]) <= 1.0 + 1e-12)


def noisy_telegraph(n, seed):
    """A telegraph of mean run 400 samples under Gaussian read noise."""
    rng = np.random.default_rng(seed)
    high = np.cumsum(rng.random(n) < 1 / 400) % 2 == 1
    return np.where(high, 35880.0, 27600.0) + rng.normal(0.0, 200.0, n)


def whole_signal_acf(x, max_lag):
    """The single zero-padded FFT over all of x that the blocked path replaced."""
    xc = x - x.mean()
    m = _next_fast_len(x.size + max_lag + 1)
    f = np.fft.rfft(xc, m)
    corr = np.fft.irfft(f * f.conj(), m)[: max_lag + 1]
    return corr / corr[0]


def long_double_acf(x, lags):
    xc = x.astype(np.longdouble)
    xc -= xc.mean()
    return np.array([xc[: x.size - k] @ xc[k:] for k in lags]) / (xc @ xc)


class TestBlockedAcf:
    # the error of the whole-signal FFT against a long-double direct sum,
    # measured on 5M-sample noisy telegraphs
    WHOLE_SIGNAL_ERROR = 6e-16

    @pytest.mark.parametrize(
        "n", [30_000, analysis._ACF_BLOCK, 2 * analysis._ACF_BLOCK + 12_345],
        ids=["under-one-block", "one-block", "not-a-multiple"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_long_double_direct_sum(self, n, seed):
        x = noisy_telegraph(n, seed)
        lags = [1, 100, 837]
        exact = long_double_acf(x, lags)
        blocked = np.abs(_acf_fft(x, 837)[lags] - exact).max()
        whole = np.abs(whole_signal_acf(x, 837)[lags] - exact).max()
        assert whole <= self.WHOLE_SIGNAL_ERROR
        assert blocked <= self.WHOLE_SIGNAL_ERROR

    def test_last_lag_and_zero_lag(self):
        # lags up to max_lag reach into the next block; lag 0 normalises
        x = noisy_telegraph(3 * analysis._ACF_BLOCK - 1, 3)
        acf = _acf_fft(x, 837)
        assert acf[0] == 1.0
        assert np.allclose(acf, whole_signal_acf(x, 837), rtol=0, atol=1e-14)

    def test_memory_does_not_grow_with_n(self):
        peaks = {}
        for n in (1_000_000, 2_000_000):
            x = noisy_telegraph(n, 4)
            tracemalloc.start()
            try:
                _acf_fft(x, 837)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a whole-signal FFT takes about 30 MiB per million samples
        assert peaks[2_000_000] <= 1.1 * peaks[1_000_000], peaks
        assert peaks[2_000_000] < 4 * 2**20, peaks


class TestFitDwellTime:
    def test_fast_device_within_10pct(self):
        tr = sample_trajectory(FAST, FAST.b_5050, 1.0, 1e-6, seed=5)
        _, labeled = threshold_states(tr)
        occ = float(labeled.labels.mean())
        acf = autocorrelation(labeled, 160)
        est = fit_dwell_time(acf, 1e-6, occ)
        assert est.tau == pytest.approx(68.9e-6, rel=0.10)
        assert est.tau == pytest.approx(2 * est.tau_corr, rel=0.02)

    def test_fast_device_at_reference_sampling_rate(self):
        # 68.9 us dwell read out at 100 kHz: the run-length estimator is
        # quantization-biased here, but the ACF decay is sampled exactly and
        # the fit stays unbiased.
        with pytest.warns(UserWarning, match="dwells"):
            tr = sample_trajectory(FAST, FAST.b_5050, 50.0, 1e-5, seed=18)
        _, labeled = threshold_states(tr)
        occ = float(labeled.labels.mean())
        est = fit_dwell_time(autocorrelation(labeled, 40), 1e-5, occ)
        assert est.tau == pytest.approx(68.9e-6, rel=0.10)

    def test_noise_only_diverges(self):
        rng = np.random.default_rng(2)
        tr = TelegraphTrace(1e-5, 27600.0 + rng.normal(0, 100, 20000))
        acf = autocorrelation(tr, 200)
        with pytest.raises(FitDiverged):
            fit_dwell_time(acf, 1e-5, 0.5)

    def test_occupancy_validated(self):
        acf = np.column_stack([np.arange(10) * 1e-5, np.exp(-np.arange(10) / 3)])
        for occ in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                fit_dwell_time(acf, 1e-5, occ)

    def test_exhausted_optimizer_diverges(self, monkeypatch):
        monkeypatch.setattr("pbitsim.fit._FIT_MAX_STEPS", 0)
        acf = np.column_stack([np.arange(10) * 1e-5, np.exp(-np.arange(10) / 3)])
        with pytest.raises(FitDiverged, match="did not converge"):
            fit_dwell_time(acf, 1e-5, 0.5)

    def test_tau_out_of_range_diverges(self):
        # correlation time far beyond the supplied lag span
        lags = np.arange(5) * 1e-6
        acf = np.column_stack([lags, np.full(5, 0.9999)])
        with pytest.raises(FitDiverged):
            fit_dwell_time(acf, 1e-6, 0.5)


def scipy_dwell_fit(acf, dt, **tolerances):
    """The fit fit_dwell_time made with scipy.optimize.curve_fit, and its SSE."""
    t, a = acf[:, 0], acf[:, 1]
    below = np.flatnonzero(a <= 0.05)
    tf, af = (t, a) if not below.size else (t[: below[0]], a[: below[0]])
    crossing = np.flatnonzero(af < np.exp(-1.0))
    tau0 = max(tf[crossing[0]] if crossing.size else tf[-1], dt)
    (tau,), _ = curve_fit(
        lambda tt, tau: np.exp(-tt / tau), tf, af, p0=[tau0], maxfev=2000, **tolerances
    )
    return tau, lambda tau: float(np.sum((np.exp(-tf / tau) - af) ** 2))


# SciPy run to tight tolerances: its default ones stop up to about 1e-8
# relative short of the minimum
TIGHT = {"ftol": 1e-14, "xtol": 1e-14, "gtol": 1e-14}


class TestDwellFitMatchesCurveFit:
    @settings(max_examples=60, deadline=None)
    @given(
        tau_lags=st.floats(1.5, 200.0),
        sigma=st.floats(1e-3, 0.03),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_decay(self, tau_lags, sigma, seed):
        dt = 1e-5
        k = np.arange(int(5 * tau_lags) + 3)
        a = np.exp(-k / tau_lags) + np.random.default_rng(seed).normal(0.0, sigma, k.size)
        a[0] = 1.0
        acf = np.column_stack([k * dt, a])
        est = fit_dwell_time(acf, dt, 0.5)
        tau_default, sse = scipy_dwell_fit(acf, dt)
        tau_tight, _ = scipy_dwell_fit(acf, dt, **TIGHT)
        assert sse(est.tau_corr) <= sse(tau_default) * (1 + 1e-9)
        assert est.tau_corr == pytest.approx(tau_tight, rel=1e-6)


class TestLeastSquares:
    @pytest.mark.parametrize(
        "model",
        [
            # an exact model: the residuals start at the rounding floor
            lambda p: (p[0] * np.arange(4.0), np.arange(4.0)[:, None]),
            # a zero Jacobian: the gradient vanishes at the start
            lambda p: (np.ones(4), np.zeros((4, 1))),
        ],
        ids=["residual-floor", "zero-gradient"],
    )
    def test_stops_at_the_start(self, model):
        y = 2.0 * np.arange(4.0)
        p, r = least_squares(model, y, [2.0], [-np.inf], [np.inf])
        assert p.tolist() == [2.0]
        assert np.array_equal(r, model(p)[0] - y)


class TestNextFastLen:
    def test_smallest_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        lengths = [m for m in range(1, 5000) if smooth(m)]
        for target in range(1, 4000):
            assert _next_fast_len(target) == next(m for m in lengths if m >= target)

    @pytest.mark.parametrize("target", [65537, 800_401, 5_002_001, 2**31 + 1])
    def test_matches_scipy_real_length(self, target):
        assert _next_fast_len(target) == scipy.fft.next_fast_len(target, real=True)


class TestMeanDwellDirect:
    def test_periodic_runs_exact(self):
        labels = np.tile(np.repeat([0, 1], 5), 60).astype(np.uint8)
        tr = TelegraphTrace(1e-4, np.where(labels, 2.0, 1.0), labels)
        assert mean_dwell_direct(tr) == pytest.approx(5e-4, rel=1e-12)

    def test_all_one_state_rejected(self):
        tr = TelegraphTrace(1e-4, np.full(1000, 1.0), np.zeros(1000, dtype=np.uint8))
        with pytest.raises(TooFewTransitions):
            mean_dwell_direct(tr)

    def test_needs_labels(self):
        with pytest.raises(ValueError):
            mean_dwell_direct(TelegraphTrace(1e-4, np.array([1.0, 2.0])))

    @settings(deadline=None)
    @given(n_runs=st.integers(1, 250), seed=st.integers(0, 2**32 - 1),
           first=st.integers(0, 1), dt=st.floats(1e-9, 1.0))
    def test_matches_a_loop_over_interior_runs(self, n_runs, seed, first, dt):
        lengths = np.random.default_rng(seed).integers(1, 7, n_runs)
        labels = np.repeat((np.arange(n_runs) + first) % 2, lengths).astype(np.uint8)
        tr = TelegraphTrace(dt, labels.astype(float), labels)
        runs = []  # [state, length] of every run, first and last included
        for state in labels.tolist():
            if runs and runs[-1][0] == state:
                runs[-1][1] += 1
            else:
                runs.append([state, 1])
        interior = runs[1:-1]
        if len(interior) < 100:
            with pytest.raises(TooFewTransitions) as err:
                mean_dwell_direct(tr)
            assert str(err.value) == f"only {len(interior)} interior runs, need 100"
            return
        means = [sum(n for s, n in interior if s == state) / sum(s == state for s, _ in interior)
                 for state in (0, 1)]
        assert mean_dwell_direct(tr) == 0.5 * (means[0] + means[1]) * dt

    def test_cross_method_consistency(self):
        tr = sample_trajectory(SLOW, SLOW.b_5050, 45.0, 1e-5, seed=6)
        _, labeled = threshold_states(tr)
        occ = float(labeled.labels.mean())
        direct = mean_dwell_direct(labeled)
        est = fit_dwell_time(autocorrelation(labeled, 900), 1e-5, occ)
        assert abs(est.tau - direct) / direct < 0.05

    def test_consistency_over_seeds_fast_device(self):
        good = 0
        for seed in range(20):
            tr = sample_trajectory(FAST, FAST.b_5050, 0.75, 1e-6, seed)
            _, labeled = threshold_states(tr)
            occ = float(labeled.labels.mean())
            direct = mean_dwell_direct(labeled)
            est = fit_dwell_time(autocorrelation(labeled, 180), 1e-6, occ)
            good += abs(est.tau - direct) / direct < 0.1
        assert good >= 18


class TestStochasticWindow:
    LEVELS = LevelEstimate(27600.0, 31602.0, 29601.0)

    def sweep(self, smtj, step, n_half, duration, dt, seed):
        grid = smtj.b_5050 + step * np.arange(-n_half, n_half + 1)
        return FieldSweep(simulate_field_sweep(smtj, grid, duration, dt, seed))

    def test_reference_window(self):
        sweep = self.sweep(SLOW, 0.075e-3, 12, 2.0, 1e-5, seed=5)
        w = extract_stochastic_window(sweep, self.LEVELS)
        assert abs(w.b_5050 - SLOW.b_5050) < 0.02e-3
        assert -7.55e-3 < w.b_low < -7.40e-3
        assert -7.05e-3 < w.b_high < -6.85e-3

    def test_narrow_window_width_within_20pct(self):
        levels = LevelEstimate(27600.0, r_antiparallel(FAST), 29601.0)
        sweep = self.sweep(FAST, 0.03e-3, 10, 0.5, 2e-6, seed=6)
        w = extract_stochastic_window(sweep, levels)
        assert w.width == pytest.approx(0.2e-3, rel=0.20)

    def test_saturated_sweep_rejected(self):
        grid = SLOW.b_5050 + 5 * SLOW.window_width + 0.1e-3 * np.arange(8)
        sweep = FieldSweep(simulate_field_sweep(SLOW, grid, 0.1, 1e-4, seed=7))
        with pytest.raises(NoWindow):
            extract_stochastic_window(sweep, self.LEVELS)

    def test_reversal_invariant(self):
        pts = simulate_field_sweep(
            SLOW, SLOW.b_5050 + 0.075e-3 * np.arange(-12, 13), 0.5, 1e-5, seed=5
        )
        fwd = extract_stochastic_window(FieldSweep(pts), self.LEVELS)
        rev = extract_stochastic_window(FieldSweep(list(reversed(pts))), self.LEVELS)
        assert fwd == rev

    def test_window_invariants(self):
        with pytest.raises(ValueError):
            StochasticWindow(b_low=-7.0e-3, b_high=-7.5e-3, b_5050=-7.2e-3)
        with pytest.raises(ValueError):
            FieldSweep([(-7.0e-3, 1.0), (-7.0e-3, 2.0)])

    def test_point_on_the_midpoint_is_the_5050_field(self):
        # the first points lie on the midpoint; the crossing is the last of
        # them, where the resistance leaves it
        levels = LevelEstimate(1.0, 2.0, 1.5)
        sweep = FieldSweep([(0.0, 1.5), (1.0, 1.5), (2.0, 1.75), (3.0, 2.0), (4.0, 2.0)])
        w = extract_stochastic_window(sweep, levels)
        assert (w.b_low, w.b_5050, w.b_high) == (0.0, 1.0, 3.0)


# Inputs each structure or analysis step refuses, with the error it names.
_REJECTED = {
    "levels-out-of-order": (
        lambda tmp: LevelEstimate(r_low=1.0, r_high=2.0, threshold=3.0),
        ValueError, "threshold must lie between the levels",
    ),
    "dwell-not-positive": (
        lambda tmp: DwellEstimate(tau=0.0, tau_corr=1.0, fit_rmse=0.0),
        ValueError, "tau must be > 0",
    ),
    "one-point-sweep": (
        lambda tmp: FieldSweep([(0.0, 1.0)]), ValueError, "at least two points",
    ),
    "no-midpoint-crossing": (
        lambda tmp: extract_stochastic_window(
            FieldSweep([(0.0, 1.2), (1.0, 1.3), (2.0, 1.4)]), LevelEstimate(1.0, 2.0, 1.5)
        ),
        NoWindow, "never crosses the level midpoint",
    ),
    # the crossing lies between the first two points, the window after them
    "crossing-outside-window": (
        lambda tmp: extract_stochastic_window(
            FieldSweep([(0.0, 1.9), (1.0, 1.0), (2.0, 1.0), (3.0, 1.2), (4.0, 1.3), (5.0, 1.4)]),
            LevelEstimate(1.0, 2.0, 1.5),
        ),
        NoWindow, "fell outside the fluctuating region",
    ),
    "trace-without-data": (
        lambda tmp: load_trace(write_lines(tmp / "scope.csv", ["# scope: ch1", "", "#", "  "])),
        TraceFormatError, "trace file holds no data",
    ),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_rejected_input_names_its_fault(tmp_path, case):
    call, error, message = _REJECTED[case]
    with pytest.raises(error, match=message):
        call(tmp_path)


class TestLoadTrace:
    def test_voltage_export_with_sidecar(self, tmp_path):
        tr = sample_trajectory(FAST, FAST.b_5050, 0.02, 5e-6, seed=12)
        path = tmp_path / "scope.csv"
        bias = 1e-5  # 10 uA read current
        with open(path, "w") as f:
            f.write("time_s,voltage_V\n")
            for k, r in enumerate(tr.values):
                f.write(f"{k * 5e-6:.9g},{r * bias:.9g}\n")
        with open(tmp_path / "scope.csv.json", "w") as f:
            json.dump({"bias_current_A": bias}, f)
        back = load_trace(path)
        assert np.allclose(back.values, tr.values, rtol=1e-6)

    def test_voltage_export_needs_bias(self, tmp_path):
        path = tmp_path / "scope.csv"
        path.write_text("time_s,voltage_V\n0.0,0.27\n1e-5,0.28\n")
        with pytest.raises(ValueError):
            load_trace(path)
        back = load_trace(path, bias_current=1e-5)
        assert back.values[0] == pytest.approx(27000.0)

    def test_offset_subtracted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,resistance_ohm\n0.0,27700\n1e-5,31702\n")
        back = load_trace(path, offset_ohm=100.0)
        assert back.values[0] == pytest.approx(27600.0)
        assert back.values[1] == pytest.approx(31602.0)

    def test_native_roundtrip(self, tmp_path):
        tr = sample_trajectory(FAST, FAST.b_5050, 0.02, 5e-6, seed=14)
        path = tmp_path / "trace.csv"
        with open(path, "w") as f:
            f.write("# metadata line\n")
            tr.to_csv(f)
        back = load_trace(path)
        assert np.array_equal(back.values, tr.values)
        assert back.labels is None

    def test_reads_alike_under_a_python_tracer(self, tmp_path):
        # up to Python 3.12 a Python trace function sees each frame's locals
        # through a snapshot that holds a second reference to every array
        tr = sample_trajectory(FAST, FAST.b_5050, 0.02, 5e-6, seed=14)
        path = tmp_path / "trace.csv"
        with open(path, "w") as f:
            tr.to_csv(f)
        plain = load_trace(path)

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = load_trace(path)
        finally:
            sys.settrace(previous)
        assert traced.sample_interval == plain.sample_interval
        assert np.array_equal(traced.values, plain.values)

    def test_native_state_column_not_read(self, tmp_path):
        # empty, wrong, extra and (last row) missing state cells
        header, rows = TRACE_FORMATS["native"]
        garbage = [",", ",nan", ",AP,x", ",P;P", ",\u00e9t\u00e9", ""]
        path = tmp_path / "trace.csv"
        write_lines(path, [header] + [row.rsplit(",", 1)[0] + junk
                                      for row, junk in zip(rows, garbage)])
        dt, values = expected_trace("native")
        back = load_trace(path)
        assert back.sample_interval == dt
        assert np.array_equal(back.values, values)


# Small files in both formats; the reader must return the same samples and
# dt for each of them whatever the layout changes below.
BIAS = 1e-5
TRACE_FORMATS = {
    "native": (
        "time_s,resistance_ohm,state",
        ["0,27600,P", "1e-05,35880,AP", "2e-05,35880,AP",
         "3e-05,27600,P", "4e-05,27612.5,P", "5e-05,35880.125,AP"],
    ),
    "voltage": (
        "time_s,voltage_V",
        ["0.00000,0.276012", "0.00001,0.358790", "0.00002,0.358801",
         "0.00003,0.276003", "0.00004,0.275990", "0.00005,0.358812"],
    ),
}
LAYOUTS = {
    "comments": lambda lines: ["# pbitsim 0.1.0 seed=1", "#scope: ch1"] + lines,
    "blank": lambda lines: ["", lines[0], ""] + [x for row in lines[1:] for x in (row, "")],
    "crlf": lambda lines: lines,
    "extra_columns": lambda lines: [lines[0] + ",ch2"] + [row + ",0.5" for row in lines[1:]],
}


def expected_trace(fmt):
    """dt and samples by the per-line rules: float() of each cell, V / I for
    voltage exports."""
    _, rows = TRACE_FORMATS[fmt]
    cells = [row.split(",") for row in rows]
    scale = BIAS if fmt == "voltage" else 1.0
    values = np.array([float(c[1]) for c in cells]) / scale
    return float(cells[1][0]) - float(cells[0][0]), values


def write_lines(path, lines, eol="\n"):
    with open(path, "w", newline="") as f:
        f.write(eol.join(lines) + eol)
    return path


class TestLoadTraceParity:
    @pytest.mark.parametrize("fmt", sorted(TRACE_FORMATS))
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layouts_read_alike(self, tmp_path, fmt, layout):
        header, rows = TRACE_FORMATS[fmt]
        path = tmp_path / "trace.csv"
        write_lines(path, LAYOUTS[layout]([header] + rows), "\r\n" if layout == "crlf" else "\n")
        dt, values = expected_trace(fmt)
        back = load_trace(path, bias_current=BIAS)
        assert back.sample_interval == dt
        assert np.array_equal(back.values, values)

    @pytest.mark.parametrize("fmt", sorted(TRACE_FORMATS))
    def test_repeated_header_rejected(self, tmp_path, fmt):
        header, rows = TRACE_FORMATS[fmt]
        path = tmp_path / "trace.csv"
        write_lines(path, [header] + rows[:3] + [header] + rows[3:])
        with pytest.raises(TraceFormatError, match="malformed trace row"):
            load_trace(path, bias_current=BIAS)


class TestLoadTraceValidation:
    def test_jittered_grid_rejected(self, tmp_path):
        # a mean step of 10 us, first step 5.6 us: the dt a first-gap rule would take
        steps = [5.6e-6] + list(np.random.default_rng(3).uniform(8e-6, 12e-6, 200))
        times = np.concatenate([[0.0], np.cumsum(steps)])
        path = tmp_path / "trace.csv"
        write_lines(path, ["time_s,resistance_ohm"] + [f"{t:.9g},27600" for t in times])
        with pytest.raises(TraceFormatError, match="not a uniform grid"):
            load_trace(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        rows = [f"{k * 1e-5:.12g},{27600 if k % 9 else 35880}" for k in range(200)]
        rows[150] = f"{150 * 1e-5:.12g},{bad}"
        path = tmp_path / "trace.csv"
        write_lines(path, ["time_s,resistance_ohm"] + rows)
        with pytest.raises(TraceFormatError, match="sample 150 is not finite"):
            load_trace(path)

    @pytest.mark.parametrize(
        "header,sample,offset",
        [("time_s,voltage_V", "1e306", 0.0), ("time_s,resistance_ohm", "-1.5e308", 1e308)],
        ids=["bias-division", "offset"],
    )
    def test_overflow_on_conversion_rejected(self, tmp_path, header, sample, offset):
        rows = [f"{k * 1e-5:.12g},{0.276 if k % 9 else 0.359}" for k in range(200)]
        rows[150] = f"{150 * 1e-5:.12g},{sample}"
        path = tmp_path / "trace.csv"
        write_lines(path, [header] + rows)
        with pytest.raises(TraceFormatError, match="sample 150 is not finite in ohm"):
            load_trace(path, bias_current=BIAS, offset_ohm=offset)

    @pytest.mark.parametrize("bias", [0.0, -1e-5])
    def test_bias_current_must_be_positive(self, tmp_path, bias):
        header, rows = TRACE_FORMATS["voltage"]
        path = tmp_path / "scope.csv"
        write_lines(path, [header] + rows)
        with pytest.raises(ValueError, match="bias current must be > 0"):
            load_trace(path, bias_current=bias)
        (tmp_path / "scope.csv.json").write_text(json.dumps({"bias_current_A": bias}))
        with pytest.raises(ValueError, match="bias current must be > 0"):
            load_trace(path)


def loadtxt_samples(path):
    """The samples as one whole-file loadtxt and a contiguous copy of its column give them."""
    rows = np.loadtxt(path, dtype=[("t", float), ("x", float)], delimiter=",", skiprows=1)
    return np.ascontiguousarray(rows["x"])


def grid_rows(n, dt=1e-5, shift_from=None):
    """n rows k*dt; from row shift_from on, every time moves by half a step."""
    times = np.arange(n) * dt
    if shift_from is not None:
        times[shift_from:] += 0.5 * dt
    values = np.where(np.arange(n) % 3, 27600.0, 35880.0) + np.arange(n) * 0.125
    return ["time_s,resistance_ohm"] + [f"{t:.12g},{v:.12g}" for t, v in zip(times, values)]


class TestReadRowsSlices:
    SLICE = 4  # rows per slice here, so files of a few rows cross several

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(analysis, "_READ_SLICE", self.SLICE)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 13])
    def test_samples_equal_whole_file_parse(self, tmp_path, n):
        path = tmp_path / "trace.csv"
        write_lines(path, grid_rows(n))
        dt, values = _read_rows(path, 1)
        assert dt == 1e-5
        assert np.array_equal(values, loadtxt_samples(path))
        assert values.flags.c_contiguous and values.flags.writeable

    @pytest.mark.parametrize("row", [0, 3, 4, 5, 8, 12])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_at_slice_edges(self, tmp_path, row, bad):
        lines = grid_rows(13)
        lines[1 + row] = lines[1 + row].split(",")[0] + "," + bad
        path = tmp_path / "trace.csv"
        write_lines(path, lines)
        with pytest.raises(TraceFormatError) as err:
            _read_rows(path, 1)
        assert str(err.value) == f"sample {row} is not finite: {float(bad)}"

    @pytest.mark.parametrize("row", [3, 4, 5, 8, 12])
    def test_bad_step_at_slice_edges(self, tmp_path, row):
        # only the step into `row` is off the grid; row 4 is the first of the
        # second slice, so that step lies between two slices
        path = tmp_path / "trace.csv"
        write_lines(path, grid_rows(13, shift_from=row))
        with pytest.raises(TraceFormatError, match="not a uniform grid"):
            _read_rows(path, 1)

    def test_grid_error_outranks_an_earlier_non_finite_sample(self, tmp_path):
        lines = grid_rows(13, shift_from=9)
        lines[1 + 2] = lines[1 + 2].split(",")[0] + ",nan"
        path = tmp_path / "trace.csv"
        write_lines(path, lines)
        with pytest.raises(TraceFormatError, match="not a uniform grid"):
            _read_rows(path, 1)


@pytest.fixture(scope="module")
def million_row_export(tmp_path_factory):
    """A 1M-row `time_s,voltage_V` export at 100 kHz and its bias sidecar."""
    n = 1_000_000
    path = tmp_path_factory.mktemp("export") / "scope.csv"
    volts = noisy_telegraph(n, 6) * BIAS
    with open(path, "w") as f:
        f.write("time_s,voltage_V\n")
        for start in range(0, n, 100_000):
            rows = np.column_stack([np.arange(start, start + 100_000) * 1e-5,
                                    volts[start : start + 100_000]])
            f.write(("%.5f,%.6f\n" * len(rows)) % tuple(rows.ravel().tolist()))
    (path.parent / "scope.csv.json").write_text(json.dumps({"bias_current_A": BIAS}))
    return path, n


@pytest.mark.parametrize("offset", [0.0, 12.5])
def test_load_trace_memory_is_loadtxts_own(million_row_export, offset):
    # loadtxt's peak is its output plus a few MiB of its own buffers; the
    # checks, the packed samples and the unit conversion add at most 10% of
    # the rows' bytes to it (whole-column checks and copies added about 100%)
    path, n = million_row_export
    tracemalloc.start()
    try:
        rows = np.loadtxt(path, dtype=[("t", float), ("x", float)], delimiter=",", skiprows=1)
        loadtxt_peak = tracemalloc.get_traced_memory()[1]
        del rows
        tracemalloc.reset_peak()
        trace = load_trace(path, offset_ohm=offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert peak <= loadtxt_peak + 0.1 * 16 * n, (peak, loadtxt_peak)
