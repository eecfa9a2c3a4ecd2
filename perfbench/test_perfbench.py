"""Tests of the benchmark itself: failure accounting and span nesting.

Run from the repository root: python -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import layer_metrics, self_times
from workloads import Command, check_gate_empirical, check_trace

REPO = Path(__file__).resolve().parent.parent


def write_meta_json(path: Path, obj: dict) -> None:
    path.write_text("# pbitsim 0.1.0 seed=1 config_sha256=0\n" + json.dumps(obj) + "\n")


GOOD_ANALYSIS = {
    "n_samples": 5_000_000,
    "tmr": 0.145,
    "dwell_acf_s": 4.2e-3,
    "dwell_direct_s": 4.2e-3,
}


def one_pass(cmd: Command, code=0, stderr="") -> dict:
    result = {"code": code, "stderr": stderr, "wall_s": 1.0}
    result["problems"] = run.check_command(cmd, result)
    return {"results": [(cmd.name, result)]}


@pytest.mark.parametrize(
    "corrupt, code, stderr",
    [
        ({}, 0, ""),
        ({"dwell_acf_s": 1.2 * 4.2e-3}, 0, ""),
        ({"dwell_direct_s": 0.8 * 4.2e-3}, 0, ""),
        ({"tmr": 0.146}, 0, ""),
        ({"n_samples": 4_999_999}, 0, ""),
        ({}, 3, "pbitsim: FitDiverged: rmse too large"),
        ({}, 0, "Traceback (most recent call last):\n  ..."),
    ],
)
def test_corrupted_output_counts_as_failed_operation(tmp_path, corrupt, code, stderr):
    write_meta_json(tmp_path / "analysis.json", {**GOOD_ANALYSIS, **corrupt})
    cmd = Command("simulate", [], check_trace, out_dir=tmp_path)
    attempted, failed = run.report([one_pass(cmd, code, stderr)])
    assert attempted == 1
    assert failed == (0 if (not corrupt and code == 0 and not stderr) else 1)


def test_wrong_modal_word_and_missing_output_count_as_failed(tmp_path):
    write_meta_json(tmp_path / "and_c1_summary.json", {"modal_word": "011"})
    cmd = Command("empirical", [], check_gate_empirical, out_dir=tmp_path)
    missing = Command("simulate", [], check_trace, out_dir=tmp_path / "absent")
    assert run.report([one_pass(cmd), one_pass(missing)]) == (2, 2)


def traced(out: Path, *argv) -> dict:
    spans_path = out.with_suffix(".spans.json")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced_cli.py"), str(spans_path), *argv,
         "--out-dir", str(out)],
        cwd=REPO, env=env, check=True, timeout=120,
    )
    return json.loads(spans_path.read_text())


def test_traced_spans_nest_and_self_times_are_non_negative(tmp_path):
    gate_args = ["gate", "--clamp-c", "1", "--sweeps", "2000", "--burn-in", "10"]
    records = [
        traced(tmp_path / "trace", "smtj-trace", "--seed", "3", "--duration-s", "2", "--dt-s", "1e-4"),
        traced(tmp_path / "empirical", *gate_args, "--activation", "empirical"),
        traced(tmp_path / "ideal", *gate_args),
    ]
    depths = set()
    for record in records:
        assert record["missing"] == []
        spans = record["spans"]
        assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
        for s in spans:
            assert s["start"] <= s["end"]
            depth, parent = 0, s["parent"]
            while parent is not None:
                p = spans[parent]
                assert p["start"] <= s["start"] and s["end"] <= p["end"], (s, p)
                depth, parent = depth + 1, p["parent"]
            depths.add(depth)
        assert all(own >= 0 for own in self_times(spans))
    assert depths >= {0, 1, 2}  # the activation build nests the transfer curve

    names = {s["name"] for r in records for s in r["spans"]}
    assert {
        "smtj.sample_trajectory", "smtj.to_csv", "analysis.autocorrelation.two_level",
        "pcircuit.activation_build", "device.transfer_curve", "pcircuit.gibbs_run.empirical",
    } <= names

    metrics = layer_metrics(records)
    assert all(v >= 0 for name, (v, _) in metrics.items() if name.endswith(".s"))
    assert metrics["smtj.samples"][0] == 20_000
    assert metrics["pcircuit.node_updates"][0] == 2 * 2010 * 2
    # only the ideal run is compared against the Boltzmann oracle's law
    ideal_l1 = json.loads((tmp_path / "ideal" / "and_c1_summary.json").read_text().split("\n", 1)[1])
    assert metrics["pcircuit.l1_max"][0] == ideal_l1["l1_distance"]
    assert sum(metrics[f"{layer}.errors"][0] for layer in ("smtj", "analysis", "pcircuit")) == 0
