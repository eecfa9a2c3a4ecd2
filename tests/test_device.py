import dataclasses
import io
import math
from decimal import Decimal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit
from scipy.special import expit

from pbitsim.device import (
    _transfer_point,
    drain_voltage,
    fit_sigmoid,
    mixed_region_span,
    output_voltage,
    sample_output,
    transfer_curve,
)
from pbitsim.fit import FitDiverged
from pbitsim.params import (
    InverterParams,
    NmosParams,
    PbitParams,
    calibrate_match,
    nmos_resistance,
    r_antiparallel,
)
from pbitsim.smtj import MtjState, SmtjParams


def calibrated_pbit(smtj=None, **kwargs):
    base = PbitParams(smtj=smtj or SmtjParams(), **kwargs)
    return PbitParams(smtj=base.smtj, nmos=calibrate_match(base), **kwargs)


class TestNmosResistance:
    def test_off_at_threshold(self):
        n = NmosParams(v_threshold=0.4, k_factor=1e-3)
        assert nmos_resistance(n, 0.4) == 1e10
        assert nmos_resistance(n, 0.0) == 1e10

    def test_triode_value(self):
        n = NmosParams(v_threshold=0.4, k_factor=1e-3)
        assert nmos_resistance(n, 0.5) == pytest.approx(10e3, rel=1e-12)

    @given(delta=st.floats(0.01, 1.0))
    def test_doubling_drive_halves_resistance(self, delta):
        n = NmosParams(v_threshold=0.3, k_factor=2e-4)
        r1 = nmos_resistance(n, 0.3 + delta)
        r2 = nmos_resistance(n, 0.3 + 2 * delta)
        assert r2 == pytest.approx(r1 / 2, rel=1e-9)


    def test_underflowing_conductance_is_an_open_channel(self):
        assert nmos_resistance(NmosParams(v_threshold=0.0, k_factor=5e-324), 0.5) == math.inf


class TestDrainVoltage:
    def test_matched_divider_half_rail(self):
        smtj = SmtjParams(tmr=0.0)
        # NMOS sized to equal the junction resistance at v_in = 0.6
        nmos = NmosParams(v_threshold=0.4, k_factor=1.0 / (27600.0 * 0.2))
        p = PbitParams(smtj=smtj, nmos=nmos)
        assert drain_voltage(p, 0.6, MtjState.PARALLEL) == pytest.approx(0.6)

    def test_nmos_off_pulls_drain_high(self):
        p = PbitParams()
        assert drain_voltage(p, 0.0, MtjState.PARALLEL) > 0.999 * p.v_dd

    def test_antiparallel_pulls_drain_lower(self):
        nmos = NmosParams(v_threshold=0.4, k_factor=1.0 / (29500.0 * 0.2))
        p = PbitParams(nmos=nmos)
        v_p = drain_voltage(p, 0.6, MtjState.PARALLEL)
        v_ap = drain_voltage(p, 0.6, MtjState.ANTIPARALLEL)
        assert v_p == pytest.approx(1.2 * 29500 / (29500 + 27600), rel=1e-12)
        assert v_ap == pytest.approx(1.2 * 29500 / (29500 + 31602), rel=1e-12)
        assert round(v_p, 3) == 0.620
        assert round(v_ap, 3) == 0.579
        assert v_ap < v_p

    @pytest.mark.parametrize(
        "smtj,nmos,v_dd,expected",
        [
            # an open channel leaves the drain at the rail
            (SmtjParams(), NmosParams(0.0, 5e-324), 1.2, 1.2),
            # an open junction leaves it at ground
            (SmtjParams(r_parallel=1e308, tmr=1.0), NmosParams(), 1.2, 0.0),
            # v_dd * r_n overflows with the channel off, the ratio does not
            (SmtjParams(r_parallel=1e10, tmr=0.0), NmosParams(1.0), 1e300, 0.5e300),
        ],
        ids=["open-channel", "open-junction", "rail-times-channel"],
    )
    def test_divider_past_a_double(self, smtj, nmos, v_dd, expected):
        p = PbitParams(smtj=smtj, nmos=nmos, v_dd=v_dd)
        assert drain_voltage(p, 0.5, MtjState.PARALLEL) == pytest.approx(expected)

    def test_open_junction_and_channel_raise(self):
        p = PbitParams(smtj=SmtjParams(r_parallel=1e308, tmr=1.0), nmos=NmosParams(0.0, 5e-324))
        with pytest.raises(ValueError, match="both open"):
            drain_voltage(p, 0.5, MtjState.ANTIPARALLEL)

    def test_input_range_checked(self):
        p = PbitParams()
        with pytest.raises(ValueError):
            drain_voltage(p, -0.1, MtjState.PARALLEL)
        with pytest.raises(ValueError):
            drain_voltage(p, 1.3, MtjState.PARALLEL)


class TestOutputVoltage:
    def test_matched_comparator_separates_states(self):
        p = calibrated_pbit()
        assert output_voltage(p, 0.6, MtjState.ANTIPARALLEL) == p.v_dd
        assert output_voltage(p, 0.6, MtjState.PARALLEL) == 0.0

    def test_rail_limits(self):
        p = calibrated_pbit()
        assert output_voltage(p, 0.0, MtjState.PARALLEL) == 0.0
        assert output_voltage(p, 0.0, MtjState.ANTIPARALLEL) == 0.0
        assert output_voltage(p, p.v_dd, MtjState.PARALLEL) == p.v_dd
        assert output_voltage(p, p.v_dd, MtjState.ANTIPARALLEL) == p.v_dd

    def test_logistic_mode_soft_outputs(self):
        base = calibrated_pbit()
        p = PbitParams(
            smtj=base.smtj,
            nmos=base.nmos,
            inverter=InverterParams(v_switch=0.6, gain=50.0),
        )
        hi = output_voltage(p, 0.6, MtjState.ANTIPARALLEL)
        lo = output_voltage(p, 0.6, MtjState.PARALLEL)
        assert 0.0 < lo < 0.6 < hi < p.v_dd

    @given(v1=st.floats(0.0, 1.2), v2=st.floats(0.0, 1.2))
    def test_monotone_step_in_input(self, v1, v2):
        p = calibrated_pbit()
        lo, hi = sorted([v1, v2])
        assert output_voltage(p, lo, MtjState.PARALLEL) <= output_voltage(
            p, hi, MtjState.PARALLEL
        )


class TestCalibrateMatch:
    def test_targets_geometric_mean(self):
        p = PbitParams()
        cal = calibrate_match(p)
        target = math.sqrt(27600.0 * 31602.0)
        assert nmos_resistance(cal, 0.6) == pytest.approx(target, rel=1e-12)
        assert target == pytest.approx(29.53e3, rel=1e-3)

    @pytest.mark.parametrize(
        "r_parallel,v_dd,rel",
        [(1e160, 1.2, 1e-15), (1e-200, 1.2, 1e-15), (1e300, 1e10, 1e-13)],
        ids=["product-overflows", "product-underflows", "subnormal-k-factor"],
    )
    def test_large_junction_keeps_a_finite_k_factor(self, r_parallel, v_dd, rel):
        # r_parallel * r_antiparallel overflows a double above about 1.25e154
        # and is 0 below about 2e-162; at 1e300 and v_dd 1e10 the target
        # resistance times the gate drive overflows too, and the k_factor is
        # subnormal, so it keeps fewer bits
        p = PbitParams(smtj=SmtjParams(r_parallel=r_parallel), v_dd=v_dd)
        cal = calibrate_match(p)
        assert math.isfinite(cal.k_factor) and cal.k_factor > 0
        target = (Decimal(p.smtj.r_parallel) * Decimal(r_antiparallel(p.smtj))).sqrt()
        assert nmos_resistance(cal, v_dd / 2) == pytest.approx(float(target), rel=rel)

    def test_zero_tmr_matches_parallel(self):
        p = PbitParams(smtj=SmtjParams(tmr=0.0))
        cal = calibrate_match(p)
        assert nmos_resistance(cal, 0.6) == pytest.approx(27600.0, rel=1e-12)

    def test_threshold_must_leave_drive(self):
        p = PbitParams(nmos=NmosParams(v_threshold=0.7, k_factor=1e-4))
        with pytest.raises(ValueError):
            calibrate_match(p)


class TestSampleOutput:
    def test_balanced_at_midpoint(self):
        p = calibrated_pbit()
        out = sample_output(p, 0.6, 500, 0.1, p.smtj.b_5050, seed=40)
        frac_high = np.mean(out == p.v_dd)
        assert abs(frac_high - 0.5) <= 0.06

    def test_zero_input_all_low(self):
        p = calibrated_pbit()
        out = sample_output(p, 0.0, 500, 0.1, p.smtj.b_5050, seed=1)
        assert np.all(out == 0.0)

    def test_deterministic(self):
        p = calibrated_pbit()
        a = sample_output(p, 0.6, 200, 0.1, p.smtj.b_5050, seed=9)
        b = sample_output(p, 0.6, 200, 0.1, p.smtj.b_5050, seed=9)
        assert np.array_equal(a, b)

    def test_warns_on_correlated_sampling(self):
        p = calibrated_pbit()
        with pytest.warns(UserWarning, match="correlated"):
            sample_output(p, 0.6, 10, 1e-3, p.smtj.b_5050, seed=0)

    def test_rejects_bad_args(self):
        p = calibrated_pbit()
        with pytest.raises(ValueError):
            sample_output(p, 0.6, 0, 0.1, p.smtj.b_5050, seed=0)
        with pytest.raises(ValueError):
            sample_output(p, 0.6, 10, 0.0, p.smtj.b_5050, seed=0)


class TestTransferCurve:
    def test_reference_grid(self):
        p = calibrated_pbit()
        grid = [round(0.58 + 0.002 * k, 5) for k in range(21)]
        curve = transfer_curve(p, grid, 500, 0.1, p.smtj.b_5050, seed=99)
        means = dict(zip(np.round(curve.v_in, 3), curve.means))
        assert 0.54 <= means[0.60] <= 0.66
        assert means[0.58] < 0.1 * p.v_dd
        assert means[0.62] > 0.9 * p.v_dd

    def test_rail_to_rail_exact(self):
        p = calibrated_pbit()
        curve = transfer_curve(p, [0.58, 0.60, 0.62], 300, 0.1, p.smtj.b_5050, seed=3)
        allv = np.concatenate([pt.samples for pt in curve.points])
        assert set(np.unique(allv)) <= {0.0, p.v_dd}

    def test_sandwich_between_fixed_state_outputs(self):
        p = calibrated_pbit()
        curve = transfer_curve(
            p, [0.59, 0.60, 0.61], 400, 0.1, p.smtj.b_5050, seed=23
        )
        for pt in curve.points:
            lo = min(
                output_voltage(p, pt.v_in, MtjState.PARALLEL),
                output_voltage(p, pt.v_in, MtjState.ANTIPARALLEL),
            )
            hi = max(
                output_voltage(p, pt.v_in, MtjState.PARALLEL),
                output_voltage(p, pt.v_in, MtjState.ANTIPARALLEL),
            )
            assert lo <= pt.mean_v_out <= hi

    def test_centering_after_calibration(self):
        p = calibrated_pbit()
        grid = [round(0.58 + 0.002 * k, 5) for k in range(21)]
        curve = transfer_curve(p, grid, 500, 0.1, p.smtj.b_5050, seed=12)
        center, _ = fit_sigmoid(curve.v_in, curve.means, p.v_dd)
        assert abs(center - 0.6) < 0.002

    def test_mismatched_nmos_shifts_center(self):
        base = calibrated_pbit()
        # channel 3x too resistive at midscale moves the crossing upward
        bad = NmosParams(base.nmos.v_threshold, base.nmos.k_factor / 3.0)
        p = PbitParams(smtj=base.smtj, nmos=bad)
        grid = [round(0.55 + 0.01 * k, 5) for k in range(61)]
        curve = transfer_curve(p, grid, 200, 0.1, p.smtj.b_5050, seed=77)
        center, _ = fit_sigmoid(curve.v_in, curve.means, p.v_dd)
        assert abs(center - 0.6) > 0.005

    def test_single_point_grid(self):
        p = calibrated_pbit()
        curve = transfer_curve(p, [0.6], 50, 0.1, p.smtj.b_5050, seed=2)
        assert len(curve.points) == 1

    def test_empty_grid_rejected(self):
        p = calibrated_pbit()
        with pytest.raises(ValueError):
            transfer_curve(p, [], 10, 0.1, p.smtj.b_5050, seed=2)

    def test_point_seeds_stable_under_grid_growth(self):
        p = calibrated_pbit()
        short = transfer_curve(p, [0.59, 0.60], 100, 0.1, p.smtj.b_5050, seed=5)
        longer = transfer_curve(p, [0.59, 0.60, 0.61], 100, 0.1, p.smtj.b_5050, seed=5)
        for a, b in zip(short.points, longer.points):
            assert np.array_equal(a.samples, b.samples)

    def test_int_seed_keeps_its_point_streams(self):
        p = calibrated_pbit()
        grid = [0.59, 0.60, 0.61]
        curve = transfer_curve(p, grid, 100, 0.1, p.smtj.b_5050, seed=8)
        for i, (v, point) in enumerate(zip(grid, curve.points)):
            own = sample_output(p, v, 100, 0.1, p.smtj.b_5050, np.random.SeedSequence((8, i)))
            assert np.array_equal(point.samples, own)

    @pytest.mark.parametrize(
        "seeds",
        [
            np.random.SeedSequence(5).spawn(2),
            [np.random.SeedSequence((3, 999331)), 3],
            [np.random.SeedSequence((3, 999331)), np.random.SeedSequence((3, 999332))],
        ],
        ids=["spawned-siblings", "tagged-vs-int", "tags"],
    )
    def test_distinct_seeds_give_distinct_curves(self, seeds):
        p = calibrated_pbit()
        a, b = (
            transfer_curve(p, [0.59, 0.60, 0.61], 100, 0.1, p.smtj.b_5050, seed=s)
            for s in seeds
        )
        for x, y in zip(a.points, b.points):
            assert not np.array_equal(x.samples, y.samples)

    def test_plateau_widens_with_higher_tmr(self):
        base = calibrated_pbit()
        grid = [round(0.55 + 0.001 * k, 5) for k in range(81)]
        lo = transfer_curve(base, grid, 500, 0.1, base.smtj.b_5050, seed=7)
        smtj30 = SmtjParams(tmr=0.30)
        raised = PbitParams(smtj=smtj30, nmos=base.nmos)  # calibration kept fixed
        hi = transfer_curve(raised, grid, 500, 0.1, smtj30.b_5050, seed=7)
        assert mixed_region_span(hi, 1.2) > mixed_region_span(lo, 1.2)

    def test_point_memory_is_bounded(self):
        # one point of the gate's empirical activation build: 2000 samples
        # every 0.1 s of a trajectory with about 48k transitions, whose times
        # take about 0.48 MB.  Each temporary of the trajectory's length (a
        # scaled copy, a mask, a per-transition index) adds about as much.
        p = calibrated_pbit(inverter=InverterParams(v_switch=0.6, gain=60.0))
        _transfer_point(p, 2000, 0.1, p.smtj.b_5050, 1, 0, 0.6)  # warm caches
        tracemalloc.start()
        try:
            point = _transfer_point(p, 2000, 0.1, p.smtj.b_5050, 1, 60, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point.samples.size == 2000
        assert peak < 2**20, peak


def scipy_sigmoid_fit(v, y, v_dd, **tolerances):
    """The fit fit_sigmoid made with scipy.optimize.curve_fit, and its SSE."""
    span = max(v.max() - v.min(), 1e-9)
    c0 = v[int(np.argmin(np.abs(y - v_dd / 2)))]
    (c, w), _ = curve_fit(
        lambda vv, c, w: v_dd * expit((vv - c) / w),
        v,
        y,
        p0=[c0, span / 20],
        bounds=([v.min() - span, 1e-6 * span], [v.max() + span, 10 * span]),
        maxfev=5000,
        **tolerances,
    )
    return (c, w), lambda c, w: float(np.sum((v_dd * expit((v - c) / w) - y) ** 2))


# SciPy run to tight tolerances: its default ones stop up to about 1e-5
# relative short of the minimum on a staircase
TIGHT = {"ftol": 1e-14, "xtol": 1e-14, "gtol": 1e-14}


class TestSigmoidFitMatchesCurveFit:
    @staticmethod
    def assert_matches(v, y, v_dd=1.2):
        center, width = fit_sigmoid(v, y, v_dd)
        (c_default, w_default), sse = scipy_sigmoid_fit(v, y, v_dd)
        (c_tight, w_tight), _ = scipy_sigmoid_fit(v, y, v_dd, **TIGHT)
        assert sse(center, width) <= sse(c_default, w_default) * (1 + 1e-9)
        assert center == pytest.approx(c_tight, rel=1e-6)
        assert width == pytest.approx(w_tight, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 121),
        center=st.floats(0.56, 0.64),
        width_steps=st.floats(2.0, 40.0),
        sigma=st.floats(1e-3, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_logistic(self, n, center, width_steps, sigma, seed):
        v = np.linspace(0.5, 0.7, n)
        width = width_steps * (v[1] - v[0])
        noise = np.random.default_rng(seed).normal(0.0, sigma, n)
        self.assert_matches(v, 1.2 * expit((v - center) / width) + noise)

    # an ideal comparator: both states low, a mixed plateau near v_dd / 2, both high
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(16, 121),
        center=st.floats(0.57, 0.63),
        half_steps=st.floats(1.5, 4.0),
        sigma=st.floats(0.0, 0.03),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_comparator_staircase(self, n, center, half_steps, sigma, seed):
        v = np.linspace(0.5, 0.7, n)
        half = half_steps * (v[1] - v[0])
        plateau = 0.6 + np.random.default_rng(seed).normal(0.0, sigma, n)
        low, high = v < center - half, v > center + half
        self.assert_matches(v, np.where(low, 0.0, np.where(high, 1.2, plateau)))

    def test_exhausted_fit_raises_fit_diverged(self, monkeypatch):
        # the sigmoid fit fails with the dwell fit's error
        monkeypatch.setattr("pbitsim.fit._FIT_MAX_STEPS", 0)
        v = np.linspace(0.5, 0.7, 21)
        with pytest.raises(FitDiverged, match="did not converge"):
            fit_sigmoid(v, 1.2 * expit((v - 0.6) / 0.01), 1.2)

    # a sum of squares past the largest double is a divergence, not an overflow
    @pytest.mark.parametrize(
        "v_dd,shape,error",
        [
            (1e150, "logistic", None),
            (1e300, "logistic", "non-finite residuals"),
            (1.7e308, "logistic", "non-finite residuals"),
            # the start is 1e-9 V off: its cost is finite, but |y|^2, which
            # judges convergence, is not
            (1e160, "offset", "non-finite residuals"),
            # the fit steepens toward the step until J^T J overflows
            (1e153, "step", "normal equations overflow"),
        ],
    )
    def test_huge_rail_fits_or_diverges(self, v_dd, shape, error):
        v = np.linspace(0.5, 0.7, 21)
        center = 0.6 + 1e-9 if shape == "offset" else 0.6
        y = v_dd * expit((v - center) / 0.01)
        if shape == "step":
            y = np.where(v < 0.605, 0.0, v_dd)
        if error is not None:
            with pytest.raises(FitDiverged, match=error):
                fit_sigmoid(v, y, v_dd)
        else:
            assert fit_sigmoid(v, y, v_dd) == pytest.approx((0.6, 0.01), rel=1e-6)

class TestSerialization:
    def test_curve_csv_headers(self):
        p = calibrated_pbit()
        curve = transfer_curve(p, [0.6], 5, 0.1, p.smtj.b_5050, seed=1)
        raw, summary = io.StringIO(), io.StringIO()
        curve.to_samples_csv(raw)
        curve.to_summary_csv(summary)
        assert raw.getvalue().splitlines()[0] == "v_in_V,sample_idx,v_out_V"
        assert summary.getvalue().splitlines()[0] == "v_in_V,mean_v_out_V"
        assert len(raw.getvalue().splitlines()) == 6

    def test_inverter_validation(self):
        with pytest.raises(ValueError):
            InverterParams(v_switch=0.6, gain=0.5)
        with pytest.raises(ValueError):
            PbitParams(inverter=InverterParams(v_switch=1.3), v_dd=1.2)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: NmosParams(v_threshold=-0.1), "v_threshold must be >= 0"),
            (lambda: NmosParams(k_factor=0.0), "k_factor must be > 0"),
            (lambda: PbitParams(v_dd=0.0), "v_dd must be > 0"),
        ],
        ids=["nmos-threshold", "nmos-k-factor", "v-dd"],
    )
    def test_circuit_params_validated(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


# Every bounded field of the four parameter dataclasses, as its record gives it.
BOUNDED_FIELDS = [
    (cls, f) for cls in (SmtjParams, NmosParams, InverterParams, PbitParams)
    for f in dataclasses.fields(cls) if f.metadata.get("bound")
]


@pytest.mark.parametrize(
    "cls,f", BOUNDED_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in BOUNDED_FIELDS]
)
def test_bounded_field_rejects_nan_and_its_bound(cls, f):
    required = {"v_switch": 0.6} if cls is InverterParams else {}
    op, low = f.metadata["bound"]
    outside = [math.nan, low if op == ">" else low - 1]
    for value in outside:
        with pytest.raises(ValueError, match=f"^{f.name} must be {op} {low}, got "):
            cls(**required, **{f.name: value})
    # the bound of a >= field is inside it
    if op == ">=":
        assert getattr(cls(**required, **{f.name: low}), f.name) == low


class TestTransferPointMean:
    def test_overflowing_mean_raises(self):
        # a channel on hard pulls the drain low, so both samples sit at the
        # 1.7e308 V rail, and their sum passes the largest double
        p = PbitParams(nmos=NmosParams(v_threshold=0.0, k_factor=1.0), v_dd=1.7e308)
        with pytest.raises(ValueError, match="overflows a double"):
            _transfer_point(p, 2, 0.1, p.smtj.b_5050, 1, 0, 0.5)
