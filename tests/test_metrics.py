import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbitsim.metrics import (
    PerfPoint,
    comparison_table,
    inverter_dynamic_power,
    pbit_static_power,
    projection_p4,
    throughput_from_dwell,
    write_perf_csv,
)
from pbitsim.params import NmosParams, PbitParams, calibrate_match, nmos_resistance
from pbitsim.smtj import SmtjParams


class TestThroughput:
    def test_fast_device(self):
        assert throughput_from_dwell(68.9e-6) == pytest.approx(1.45e-5, rel=0.01)

    def test_nanosecond_dwell(self):
        assert throughput_from_dwell(1e-9) == pytest.approx(1.0, rel=1e-12)

    def test_slow_device(self):
        assert throughput_from_dwell(4.2e-3) == pytest.approx(2.38e-7, rel=0.01)

    @given(tau=st.floats(1e-9, 1.0))
    def test_roundtrip_identity(self, tau):
        thr = throughput_from_dwell(tau)
        assert 1.0 / (thr * 1e9) == pytest.approx(tau, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            throughput_from_dwell(0.0)


class TestStaticPower:
    def matched(self):
        base = PbitParams()
        return PbitParams(smtj=base.smtj, nmos=calibrate_match(base))

    def test_matched_reference(self):
        p = self.matched()
        power = pbit_static_power(p, 0.6, p.smtj.b_5050)
        r_n = math.sqrt(27600.0 * 31602.0)
        expected = 0.5 * 1.44 / (r_n + 27600.0) + 0.5 * 1.44 / (r_n + 31602.0)
        assert power == pytest.approx(expected, rel=1e-12)
        assert power == pytest.approx(24.4e-6, rel=0.01)

    def test_zero_tmr_single_branch(self):
        smtj = SmtjParams(tmr=0.0)
        p = PbitParams(smtj=smtj, nmos=NmosParams(0.4, 1e-4))
        r_n = nmos_resistance(p.nmos, 0.6)
        assert pbit_static_power(p, 0.6, smtj.b_5050) == pytest.approx(
            1.44 / (r_n + 27600.0), rel=1e-12
        )

    def test_quadratic_in_supply(self):
        # same divider resistances, half the rail
        p = self.matched()
        full = pbit_static_power(p, 0.6, p.smtj.b_5050)
        half = PbitParams(smtj=p.smtj, nmos=p.nmos, v_dd=0.6)
        assert pbit_static_power(half, 0.6, p.smtj.b_5050) == pytest.approx(
            full / 4, rel=1e-9
        )

    @given(scale=st.floats(1.01, 3.0))
    def test_monotone_decreasing_in_resistance(self, scale):
        p = self.matched()
        base = pbit_static_power(p, 0.6, p.smtj.b_5050)
        both_up = PbitParams(smtj=SmtjParams(r_parallel=27.6e3 * scale), nmos=p.nmos)
        high_up = PbitParams(smtj=SmtjParams(tmr=0.145 * scale), nmos=p.nmos)
        assert pbit_static_power(both_up, 0.6, p.smtj.b_5050) < base
        assert pbit_static_power(high_up, 0.6, p.smtj.b_5050) < base


class TestInverterPower:
    def test_projection_share(self):
        assert inverter_dynamic_power(1e-15, 0.9, 1e9) == pytest.approx(810e-9, rel=1e-12)

    def test_zero_rate(self):
        assert inverter_dynamic_power(1e-15, 1.2, 0.0) == 0.0

    def test_slow_flip_negligible(self):
        p = inverter_dynamic_power(1e-15, 1.2, 1.0 / 4.2e-3)
        assert p == pytest.approx(3.43e-13, rel=0.01)
        assert p < 1e-10  # static divider power dominates measured devices


    @pytest.mark.parametrize("args", [(-1e-15, 1.2, 1e9), (1e-15, -1.2, 1e9), (1e-15, 1.2, -1.0)])
    def test_negative_input_rejected(self, args):
        with pytest.raises(ValueError, match="inputs must be non-negative"):
            inverter_dynamic_power(*args)


class TestProjection:
    def test_total_in_band(self):
        point = projection_p4()
        assert 4.8e-6 <= point.power <= 4.9e-6
        assert point.power == pytest.approx(4.9e-6, rel=0.02)
        assert point.throughput == pytest.approx(1.0, rel=1e-12)

    def test_shares(self):
        static = 0.9**2 / 200e3
        assert static == pytest.approx(4.05e-6, rel=1e-12)
        assert projection_p4().power - static == pytest.approx(810e-9, rel=1e-12)


class TestComparisonTable:
    def test_labels_and_bands(self):
        points = {p.label: p for p in comparison_table()}
        assert set(points) == {"P1", "P2", "P3a", "P3b", "P4"}
        assert 8e-3 <= points["P1"].power <= 10e-3
        assert 8e-3 <= points["P2"].power <= 10e-3
        assert 52e-6 <= points["P3a"].power <= 55e-6
        assert 52e-6 <= points["P3b"].power <= 55e-6
        assert points["P3b"].throughput == pytest.approx(1.45e-5, rel=0.01)
        assert points["P3a"].throughput == pytest.approx(2.38e-7, rel=0.01)
        assert points["P4"] == projection_p4()

    def test_csv_output(self):
        buf = io.StringIO()
        write_perf_csv(comparison_table(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "label,power_W,throughput_flips_per_ns"
        assert len(lines) == 6

    def test_perf_point_validation(self):
        with pytest.raises(ValueError):
            PerfPoint("X", 0.0, 1.0)
        with pytest.raises(ValueError):
            PerfPoint("X", 1.0, -1.0)
