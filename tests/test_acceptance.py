"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools

import numpy as np

from pbitsim.analysis import (
    FieldSweep,
    LevelEstimate,
    autocorrelation,
    extract_stochastic_window,
    fit_dwell_time,
    mean_dwell_direct,
    threshold_states,
    tmr_from_levels,
)
from pbitsim.cli import main as cli_main
from pbitsim.device import fit_sigmoid, mixed_region_span, transfer_curve
from pbitsim.metrics import (
    inverter_dynamic_power,
    projection_p4,
    throughput_from_dwell,
)
from pbitsim.params import PbitParams, calibrate_match
from pbitsim.pcircuit import (
    IdealTanh,
    and_gate,
    boltzmann_exact,
    clamp,
    compare_to_oracle,
    gibbs_run,
    or_gate,
)
from pbitsim.smtj import SmtjParams, r_antiparallel, sample_trajectory, simulate_field_sweep

SLOW = SmtjParams()  # 27.6 kOhm, 14.5%, 4.2 ms
FAST = SmtjParams(tmr=0.30, tau_mean=68.9e-6, window_width=0.2e-3)


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_1_tmr_round_trip():
    levels = LevelEstimate(r_low=27.6e3, r_high=31.602e3, threshold=29.601e3)
    tmr = tmr_from_levels(levels)
    ok = abs(tmr - 0.145) <= 0.0005
    report(1, "TMR round trip", ok, f"tmr={tmr:.6f}")


def _dwell_trial(params, dt, duration, max_lag, seed):
    trace = sample_trajectory(params, params.b_5050, duration, dt, seed)
    _, labeled = threshold_states(trace)
    occ = float(labeled.labels.mean())
    direct = mean_dwell_direct(labeled)
    est = fit_dwell_time(autocorrelation(labeled, max_lag), dt, occ)
    return est.tau, direct


def test_criterion_2_dwell_estimation():
    configs = [
        (SLOW, 1e-5, 45.0, 900),   # 4.2 ms dwell sampled at 100 kHz
        (FAST, 1e-6, 0.75, 160),   # 68.9 us dwell, 1 MHz sampling
    ]
    details = []
    ok = True
    for params, dt, duration, max_lag in configs:
        good = 0
        for seed in range(100):
            tau_fit, tau_direct = _dwell_trial(params, dt, duration, max_lag, seed)
            within_truth = abs(tau_fit - params.tau_mean) / params.tau_mean < 0.10
            within_direct = abs(tau_fit - tau_direct) / tau_direct < 0.10
            good += within_truth and within_direct
        details.append(f"tau={params.tau_mean:g}s: {good}/100")
        ok &= good >= 90
    report(2, "dwell estimation", ok, "; ".join(details))


def test_criterion_3_stochastic_window():
    grid = SLOW.b_5050 + 0.075e-3 * np.arange(-12, 13)
    pts = simulate_field_sweep(SLOW, grid, 2.0, 1e-5, seed=5)
    levels = LevelEstimate(SLOW.r_parallel, r_antiparallel(SLOW), 29601.0)
    window = extract_stochastic_window(FieldSweep(pts), levels)
    err_b = abs(window.b_5050 - SLOW.b_5050)

    grid_n = FAST.b_5050 + 0.03e-3 * np.arange(-10, 11)
    pts_n = simulate_field_sweep(FAST, grid_n, 0.5, 2e-6, seed=6)
    levels_n = LevelEstimate(FAST.r_parallel, r_antiparallel(FAST), 31740.0)
    window_n = extract_stochastic_window(FieldSweep(pts_n), levels_n)
    width_err = abs(window_n.width - 0.2e-3) / 0.2e-3

    ok = err_b < 0.02e-3 and width_err <= 0.20
    report(
        3,
        "stochastic window",
        ok,
        f"b_5050 err={err_b * 1e3:.4f} mT, width={window_n.width * 1e3:.3f} mT",
    )


def _calibrated():
    base = PbitParams()
    return PbitParams(smtj=base.smtj, nmos=calibrate_match(base))


def _smooth3(y):
    out = []
    for i in range(len(y)):
        lo, hi = max(0, i - 1), min(len(y), i + 2)
        out.append(sum(y[lo:hi]) / (hi - lo))
    return out


def test_criterion_4_transfer_curve():
    p = _calibrated()
    grid = [0.58, 0.59, 0.60, 0.61, 0.62]
    curve = transfer_curve(p, grid, 500, 0.1, p.smtj.b_5050, seed=2024)
    center, _ = fit_sigmoid(curve.v_in, curve.means, p.v_dd)
    rails = {float(v) for v in np.unique(np.concatenate([pt.samples for pt in curve.points]))}
    smoothed = _smooth3(list(curve.means))
    monotone = all(b >= a for a, b in zip(smoothed, smoothed[1:]))
    ok = abs(center - 0.6) < 0.005 and rails <= {0.0, 1.2} and monotone
    report(
        4,
        "transfer curve",
        ok,
        f"center={center:.4f} V, rails={sorted(rails)}, monotone={monotone}",
    )


def test_criterion_5_plateau_widens_with_tmr():
    base = _calibrated()
    grid = [round(0.55 + 0.001 * k, 5) for k in range(81)]
    low = transfer_curve(base, grid, 500, 0.1, base.smtj.b_5050, seed=7)
    smtj30 = SmtjParams(tmr=0.30)
    raised = PbitParams(smtj=smtj30, nmos=base.nmos)  # calibration held fixed
    high = transfer_curve(raised, grid, 500, 0.1, smtj30.b_5050, seed=7)
    span_low = mixed_region_span(low, base.v_dd)
    span_high = mixed_region_span(high, base.v_dd)
    ok = span_high > span_low
    report(5, "plateau", ok, f"mixed span {span_low * 1e3:.1f} -> {span_high * 1e3:.1f} mV")


def test_criterion_6_gate_ground_states():
    # independent enumeration oracle gating the preset constants
    j = {(0, 1): -1.0, (0, 2): 2.0, (1, 2): 2.0}

    def minima(h, i0=2.0):
        energies = {}
        for m in itertools.product([-1, 1], repeat=3):
            pair = sum(w * m[a] * m[b] for (a, b), w in j.items())
            bias = sum(hv * mv for hv, mv in zip(h, m))
            word = "".join("1" if v > 0 else "0" for v in m)
            energies[word] = -i0 * (bias + pair)
        lowest = min(energies.values())
        return {w for w, e in energies.items() if abs(e - lowest) < 1e-12}

    and_min = minima((1.0, 1.0, -2.0))
    or_min = minima((-1.0, -1.0, 2.0))
    ok = and_min == {"000", "010", "100", "111"} and or_min == {"000", "011", "101", "111"}
    report(6, "gate ground states", ok, f"AND={sorted(and_min)}, OR={sorted(or_min)}")


def test_criterion_7_inverted_gate_histograms():
    # Truth-table word sets for each clamp mode, A as the most significant bit.
    cases = {
        ("or", 0): ("modal", "000"),
        ("or", 1): ("mass", {"011", "101", "111"}),
        ("and", 0): ("mass", {"000", "010", "100"}),
        ("and", 1): ("modal", "111"),
    }
    ok = True
    details = []
    for idx, ((gate, c_value), (kind, target)) in enumerate(cases.items()):
        circuit = and_gate(2.0) if gate == "and" else or_gate(2.0)
        circuit = clamp(circuit, 2, c_value)
        hist = gibbs_run(circuit, IdealTanh(), 1_000_000, burn_in=1000, seed=100 + idx)
        l1 = compare_to_oracle(hist, boltzmann_exact(circuit))
        freqs = hist.frequencies()
        if kind == "modal":
            mode_ok = hist.modal_word() == target
            details.append(f"{gate}/C={c_value}: L1={l1:.4f} modal={hist.modal_word()}")
        else:
            mass = sum(freqs.get(w, 0.0) for w in target)
            mode_ok = mass >= 0.95
            details.append(f"{gate}/C={c_value}: L1={l1:.4f} mass={mass:.4f}")
        ok &= l1 < 0.02 and mode_ok
    report(7, "inverted gate vs oracle", ok, "; ".join(details))


def test_criterion_8_metrics():
    p4 = projection_p4()
    inverter = inverter_dynamic_power(1e-15, 0.9, 1e9)
    thr = throughput_from_dwell(68.9e-6)
    ok = (
        4.8e-6 <= p4.power <= 4.9e-6
        and abs(inverter - 810e-9) / 810e-9 <= 0.02
        and p4.throughput == 1.0
        and abs(thr - 1.45e-5) / 1.45e-5 < 0.01
    )
    report(
        8,
        "metrics",
        ok,
        f"P4={p4.power * 1e6:.3f} uW, inverter={inverter * 1e9:.0f} nW, thr={thr:.3e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = {
        "smtj-trace": ["--seed", "3", "--duration-s", "0.5", "--dt-s", "1e-4"],
        "field-sweep": [
            "--seed", "2", "--tau-mean-s", "68.9e-6",
            "--point-duration-s", "0.1", "--dt-s", "5e-6",
        ],
        "transfer": [
            "--seed", "4", "--v-start-V", "0.59", "--v-stop-V", "0.61",
            "--v-step-V", "0.01", "--n-per-point", "100",
            "--sample-interval-s", "0.05",
        ],
        "gate": [
            "--seed", "5", "--gate", "or", "--clamp-c", "1",
            "--sweeps", "30000", "--burn-in", "100",
        ],
        "metrics": ["--seed", "0"],
    }
    ok = True
    details = []
    for command, args in commands.items():
        outputs = []
        for run_idx in range(2):
            out = tmp_path / f"{command}-{run_idx}"
            code = cli_main([command, *args, "--out-dir", str(out)])
            assert code == 0, f"{command} exited {code}"
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        same = outputs[0] == outputs[1]
        ok &= same
        details.append(f"{command}:{'=' if same else '!='}")
    report(9, "CLI determinism", ok, " ".join(details))
