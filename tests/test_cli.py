import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import pbitsim
from pbitsim import analysis
from pbitsim.analysis import load_trace, threshold_states
from pbitsim import cli
from pbitsim.cli import main
from pbitsim.smtj import SmtjParams, sample_trajectory
from pbitsim.svg import bar_svg, line_svg

SRC = str(Path(pbitsim.__file__).resolve().parent.parent)


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# pbitsim ")
    return json.loads("\n".join(lines[1:]))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# pbitsim ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


# SHA-256 of outputs whose values pass through the scalar logistic (field
# occupancy or the soft inverter), recorded while SciPy's expit computed it.
# The fitted fields (center_V, width_V; dwell_acf_s, tau_corr_s,
# acf_fit_rmse) were re-recorded when the numpy least-squares solver replaced
# scipy.optimize.curve_fit, and gate-empirical when a SeedSequence seed's
# points became its spawned children (smtj._point_seed).
PINNED_OUTPUTS = {
    "field-sweep": (
        ["field-sweep", "--seed", 1],
        {
            "window.json": "17d64b774bcb478e60b9b3cc37a43556864449237652ccba917c4d10c1feebaa",
            "sweep.csv": "d5efb74594f473a591aa19eee3bf1114b6d3ea28d1a4dcc8fcc4efc4756ed4a6",
        },
    ),
    "transfer-soft": (
        ["transfer", "--seed", 1, "--inverter-gain", 40],
        {
            "curve.csv": "0556f959c7cae8ffc06f9390e7613cbc733e4bba23461a7ef66f888965a4752d",
            "sigmoid.json": "53a47d7ea156cb74ba3486063db3ea07c9b3774a5ebbed60d4636f9ad5c16237",
        },
    ),
    "gate-all-modes": (
        ["gate", "--all-modes", "--seed", 1, "--sweeps", 20_000],
        {
            "and_c0_histogram.csv": "1b291c406215d2f895b49a1957ed9810d18044f98991c40704c4b80599cc37e9",
            "and_c0_oracle.csv": "c993f32e1cbaa56fc99ffdf0fb9f07b7ffc9eee469a721ffa6ff4921133b7128",
            "and_c0_summary.json": "879621744194bc62f84fdb25fc890288de103a42d5ed356f7c6242425e6ea732",
            "and_c1_histogram.csv": "2d739133c1e389a29e462e38c06b013d3b32a612aac309d2f2f07bc681febb4f",
            "and_c1_oracle.csv": "84d482152f91e1c42e87b588c5ee685ff1f7bda1954b112afb412a4c99c40242",
            "and_c1_summary.json": "a2d34cb19e5f0ecaae602b2b46bf4cc9526411c3fb3542ee2caa2f7d3f79f2d2",
            "or_c0_histogram.csv": "cf12c760417c65248efb79704fc5d07e693f68d5c4c17fa7c43192aacd4ff4b0",
            "or_c0_oracle.csv": "688b9c760c43912e58806c0abb90a22a0a145afcd240836a00bdd45064a457e2",
            "or_c0_summary.json": "7b99e656d54667b2a74338ddd4eacfddfa065e26555c5d2196182cbd7e273eab",
            "or_c1_histogram.csv": "72ebb935e2ddfacc07e3df81551c3fd7d4159eabdb92af0f48262c92a723a6d1",
            "or_c1_oracle.csv": "471f9e63a7dea9b33162af360f79382544d84b99ebf62f3b9157a7cc3b114e28",
            "or_c1_summary.json": "572c0c936e0da183db63d08af4a1b63673b8383b704d72e8bfa6c5d3ca2df7d7",
        },
    ),
    "gate-empirical": (
        ["gate", "--activation", "empirical", "--clamp-c", 1, "--seed", 1, "--sweeps", 20_000],
        {
            "and_c1_histogram.csv": "09bc4f83c3b69121bdfa6f8fbe427ee11c824b169f153717781257477d38baf8",
            "and_c1_summary.json": "ade70a00ab9b16ba6960beabc62f849eda42092b21672e8136d6b62b6cbab6e0",
        },
    ),
    "trace-off-centre": (
        ["smtj-trace", "--seed", 1, "--duration-s", 5, "--b-field-T=-7.3e-3"],
        {
            "analysis.json": "1e4d790a288d6b4b7890921881865d234804670698021f725807eb33469ff425",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_logistic_outputs_pinned(tmp_path, name):
    argv, digests = PINNED_OUTPUTS[name]
    assert run(*argv, "--out-dir", tmp_path) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests


# Runs in a fresh interpreter: the test suite itself has SciPy loaded.
_SCIPY_PROBE = """
import json, sys
import pbitsim.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
report = {"after_import": scipy_modules()}
report["codes"] = [
    pbitsim.cli.main(["metrics", "--out-dir", out + "/metrics"]),
    pbitsim.cli.main(["gate", "--sweeps", "2000", "--out-dir", out + "/gate"]),
    pbitsim.cli.main(["field-sweep", "--point-duration-s", "0.05", "--out-dir", out + "/sweep"]),
    pbitsim.cli.main(["transfer", "--n-per-point", "20", "--out-dir", out + "/transfer"]),
    pbitsim.cli.main([
        "smtj-trace", "--seed", "3", "--duration-s", "0.5", "--dt-s", "1e-4",
        "--out-dir", out + "/trace",
    ]),
    pbitsim.cli.main([
        "gate", "--activation", "empirical", "--clamp-c", "1", "--sweeps", "2000",
        "--out-dir", out + "/empirical",
    ]),
]
report["after_commands"] = scipy_modules()
print(json.dumps(report))
"""


def test_scipy_loads_only_for_fits(tmp_path):
    # the fits run on numpy too, so no command loads SciPy at all
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        check=True, timeout=120,
    )
    report = json.loads(result.stdout)
    assert report["after_import"] == []
    assert report["codes"] == [0] * 6
    assert report["after_commands"] == []


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code, *args, **env):
    """What code prints as JSON, run in a fresh interpreter whose environment
    holds no BLAS thread variable but those in env."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env={**base, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(result.stdout)


# NumPy loads after pbitsim.cli, as it does when a runner imports its modules:
# pbitsim.cli alone loads no NumPy, and so no BLAS pool to count.
_CLI_THREADS = """
import json, os
import pbitsim.cli
import numpy
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="OpenBLAS starts one thread per core, so one core cannot tell",
)
def test_cli_starts_numpy_with_one_blas_thread():
    assert _fresh(_CLI_THREADS) == ["1", 1]


@pytest.mark.parametrize(
    "env,expected",
    [({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"GOTO_NUM_THREADS": "2"}, None),
     ({"OMP_NUM_THREADS": "2"}, None)],
)
def test_user_blas_thread_count_wins(env, expected):
    assert _fresh(_CLI_THREADS, **env)[0] == expected


def test_package_import_loads_no_numpy():
    code = ("import json, os, sys; before = dict(os.environ); import pbitsim; "
            "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))")
    assert _fresh(code) == [False, True]


# Runs main(argv) in a fresh interpreter (argv null: only imports pbitsim.cli)
# and reports the exit code, whether NumPy loaded and pbitsim's modules.
_MODULES_PROBE = """
import contextlib, io, json, sys
import pbitsim.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = pbitsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "modules": sorted(m for m in sys.modules if m.startswith("pbitsim.")),
}))
"""

COMMANDS = tuple(cli._COMMANDS)


def _probe_modules(argv):
    return _fresh(_MODULES_PROBE, json.dumps(argv))


@pytest.mark.parametrize(
    "argv,code",
    [
        (None, None),
        *[([command, "--help"], 0) for command in COMMANDS],
        (["gate", "--sweeps", "0"], 2),
        (["transfer", "--config", "{cfg}"], 2),
        (["metrics"], 0),
    ],
    ids=["import", *[f"{command} --help" for command in COMMANDS], "flag exits 2",
         "config exits 2", "metrics"],
)
def test_front_door_loads_no_numpy(tmp_path, argv, code):
    # parsing flags, resolving a config and the scalar metrics need no NumPy
    (tmp_path / "cfg.json").write_text('{"v_step_V": 0}')
    if argv is not None:
        argv = [a.format(cfg=tmp_path / "cfg.json") for a in argv]
        argv += ["--out-dir", str(tmp_path / "out")]
    report = _probe_modules(argv)
    assert report["code"] == code
    assert report["numpy"] is False
    assert set(report["modules"]) <= {"pbitsim.cli", "pbitsim.params", "pbitsim.metrics"}


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["gate", "--sweeps", "2000"], {"pbitsim.analysis"}),
        (
            ["gate", "--activation", "empirical", "--clamp-c", "1", "--sweeps", "2000"],
            {"pbitsim.analysis"},
        ),
        (["field-sweep", "--point-duration-s", "0.05"], {"pbitsim.pcircuit", "pbitsim.device"}),
        (["transfer", "--n-per-point", "20"], {"pbitsim.analysis", "pbitsim.pcircuit"}),
    ],
    ids=["gate", "gate empirical", "field-sweep", "transfer"],
)
def test_each_command_imports_only_what_it_runs(tmp_path, argv, absent):
    report = _probe_modules([*argv, "--out-dir", str(tmp_path / "out")])
    assert report["code"] == 0
    assert report["numpy"] is True
    assert not absent & set(report["modules"])


# The names the package exported when its __init__ imported every submodule.
PACKAGE_EXPORTS = {
    "analysis": ["DwellEstimate", "FieldSweep", "LevelEstimate", "StochasticWindow",
                 "autocorrelation", "extract_stochastic_window", "fit_dwell_time",
                 "mean_dwell_direct", "threshold_states", "tmr_from_levels"],
    "device": ["PbitParams", "TransferCurve", "drain_voltage", "nmos_resistance",
               "output_voltage", "sample_output", "transfer_curve"],
    "metrics": ["PerfPoint", "comparison_table", "inverter_dynamic_power",
                "pbit_static_power", "projection_p4", "throughput_from_dwell"],
    "params": ["InverterParams", "NmosParams", "calibrate_match"],
    "pcircuit": ["EmpiricalActivation", "IdealTanh", "PCircuit", "StateHistogram",
                 "and_gate", "boltzmann_exact", "clamp", "compare_to_oracle", "gibbs_run",
                 "or_gate"],
    "smtj": ["MtjState", "SmtjParams", "TelegraphTrace", "dwell_times", "occupancy_ap",
             "r_antiparallel", "sample_trajectory", "simulate_field_sweep",
             "switching_times"],
}

_EXPORTS_PROBE = """
import importlib, json, sys
import pbitsim
exports = json.loads(sys.argv[1])
report = {"dir": sorted(dir(pbitsim)), "all": sorted(pbitsim.__all__)}
report["same"] = sorted(
    name for module, names in exports.items() for name in names
    if getattr(pbitsim, name) is getattr(importlib.import_module("pbitsim." + module), name)
)
star = {}
exec("from pbitsim import *", star)
report["star"] = sorted(n for n in star if n != "__builtins__" and star[n] is getattr(pbitsim, n))
try:
    pbitsim.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_package_exports_resolve_lazily():
    names = sorted(n for names in PACKAGE_EXPORTS.values() for n in names)
    report = _fresh(_EXPORTS_PROBE, json.dumps(PACKAGE_EXPORTS))
    assert set(names) <= set(report["dir"])
    assert report["all"] == names
    assert report["same"] == names
    assert report["star"] == names
    assert report["unknown"] == "module 'pbitsim' has no attribute 'no_such_name'"


def test_package_lookup_import_shows_in_importtime():
    # a name looked up on the package imports its module the way an import
    # statement does, so -X importtime lists it
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import pbitsim; pbitsim.PCircuit"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
        timeout=120,
    )
    modules = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "pbitsim.pcircuit" in modules


def test_no_module_imports_a_sibling_name_it_does_not_use():
    # each name has one home: a module imports from its siblings only the
    # names its code or annotations use, and re-exports none
    unused = {}
    for path in sorted(Path(SRC, "pbitsim").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused[path.name] = sorted(imported - used)
    assert {"cli.py", "device.py", "smtj.py"} <= unused.keys()
    assert unused == dict.fromkeys(unused, [])


def test_every_private_helper_is_used_in_the_package():
    # a module-level private function or class that no code in the package
    # names (as a name, attribute, import or string) lives only for tests
    paths = sorted(Path(SRC, "pbitsim").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    named = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    helpers = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert ("pcircuit.py", "_states") in helpers
    assert [helper for helper in helpers if helper[1] not in named] == []


def test_each_runner_name_has_one_definition():
    # _load binds every function and class a module defines with setdefault,
    # so a name two modules define would resolve by the order of the loads
    owners = {}
    for module in ("cli", *cli._MODULES):
        loaded = importlib.import_module(f"pbitsim.{module}")
        for name, value in vars(loaded).items():
            if callable(value) and getattr(value, "__module__", None) == loaded.__name__:
                owners.setdefault(name, []).append(module)
    assert owners["transfer_curve"] == ["device"] and owners["main"] == ["cli"]
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


_LOOKUP_PROBE = """
import json, sys
import pbitsim.cli as cli
report = {}
for name in ("__wrapped__", "no_such_name"):
    try:
        getattr(cli, name)
    except AttributeError as exc:
        report[name] = [str(exc), "numpy" in sys.modules]
report["bound"] = cli.LevelOverflow is sys.modules["pbitsim.analysis"].LevelOverflow
print(json.dumps(report))
"""


def test_dunder_lookup_imports_nothing():
    # any other name imports the seven modules before it is refused
    report = _fresh(_LOOKUP_PROBE)
    assert report == {
        "__wrapped__": ["module 'pbitsim.cli' has no attribute '__wrapped__'", False],
        "no_such_name": ["module 'pbitsim.cli' has no attribute 'no_such_name'", True],
        "bound": True,
    }


_BLAS_RESULTS = """
import hashlib, json
import numpy as np
from pbitsim.analysis import fit_dwell_time
from pbitsim.device import fit_sigmoid
from pbitsim.pcircuit import PCircuit, boltzmann_exact

rng = np.random.default_rng(16)
n = 16
upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
circuit = PCircuit(j=upper + upper.T, h=rng.uniform(-0.5, 0.5, n), i0=1.0, clamps={3: 1})
exact = boltzmann_exact(circuit)
lags = np.arange(600)
acf = np.column_stack([lags * 1e-5, np.exp(-lags / 137.0) + 0.003 * np.sin(lags / 7.0)])
dwell = fit_dwell_time(acf, 1e-5, 0.43)
v = np.linspace(0.58, 0.62, 21)
means = 1.2 / (1.0 + np.exp(-(v - 0.6013) / 0.0041)) + 0.01 * rng.standard_normal(21)
print(json.dumps({
    "boltzmann_exact": hashlib.sha256(json.dumps(exact).encode()).hexdigest(),
    "fit_dwell_time": [x.hex() for x in (dwell.tau, dwell.tau_corr, dwell.fit_rmse)],
    "fit_sigmoid": [x.hex() for x in fit_sigmoid(v, means, 1.2)],
}))
"""


def test_results_do_not_depend_on_blas_threads():
    # json.dumps writes each probability by repr, which round-trips its bits
    one, two = (_fresh(_BLAS_RESULTS, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two


# Config values a command cannot take: (command, config file text or None, flags).
BAD_CONFIGS = [
    *[(command, "5", []) for command in ("smtj-trace", "field-sweep", "transfer", "gate", "metrics")],
    ("gate", '{"sweeps": "10"}', []),
    ("gate", '{"i0": null}', []),
    ("gate", '{"sweeps": 1e300}', []),
    ("gate", '{"seed": "abc"}', []),
    ("smtj-trace", '{"seed": "abc"}', []),
    ("transfer", '{"tmr": null}', []),
    ("field-sweep", '{"tmr": null}', []),
    ("field-sweep", '{"dt_s": "1e-5"}', []),
    ("transfer", '{"v_inputs_V": 0.6}', []),
    ("smtj-trace", None, ["--duration-s", "inf"]),
    ("field-sweep", None, ["--b-max-T", "inf"]),
    ("transfer", None, ["--sample-interval-s", "inf"]),
    ("gate", None, ["--i0", "inf"]),
    ("smtj-trace", None, ["--input-trace", os.curdir]),  # a directory, not a trace
    ("gate", None, ["--seed", "-1"]),
    ("gate", '{"seed": -1}', []),
    ("smtj-trace", None, ["--seed", "-1"]),
    ("smtj-trace", '{"seed": -1}', []),
    # steps that would ask for astronomically long grids
    ("transfer", None, ["--v-step-V", "1e-300"]),
    ("transfer", '{"v_step_V": 5e-324}', []),
    ("field-sweep", None, ["--b-step-T", "1e-300"]),
    ("field-sweep", '{"b_step_T": 1e-300}', []),
    # values outside a key's choices
    ("gate", '{"gate": "xor"}', []),
    ("gate", '{"activation": "exact"}', []),
    ("gate", '{"clamp_c": 2}', []),
    # rules that join two keys, in the mode that does not use them; None
    # stands for the native trace
    ("smtj-trace", None, ["--input-trace", None, "--duration-s", "1e-6", "--dt-s", "1"]),
    ("transfer", None, ["--v-inputs", "0.6,0.61", "--v-start-V", "0.7", "--v-stop-V", "0.1"]),
    # a config file that is not JSON cannot be read
    ("gate", '{"sweeps": 10', []),
]


@pytest.mark.parametrize("command,config,flags", BAD_CONFIGS)
def test_bad_config_value_exits_2(tmp_path, capsys, request, command, config, flags):
    if None in flags:
        trace = request.getfixturevalue("native_trace")
        flags = [trace if f is None else f for f in flags]
    args = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args = ["--config", tmp_path / "cfg.json"]
    out = tmp_path / "out"
    assert run(command, *args, *flags, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not out.exists()


# Each bounded key and a value just outside its bound: the bound itself for a
# key that must be > 0, one below it for a key that must be >= it.
OUT_OF_RANGE = {
    "duration_s": 0, "dt_s": 0, "point_duration_s": 0, "b_step_T": 0, "v_step_V": 0,
    "sample_interval_s": 0, "i0": 0, "bias_current_A": 0,
    "seed": -1, "burn_in": -1, "jobs": 0, "n_per_point": 0, "sweeps": 0,
}


def test_every_bound_has_its_case():
    assert set(OUT_OF_RANGE) == cli._POSITIVE | set(cli._AT_LEAST)


def _exits_2_naming(tmp_path, capsys, key, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pbitsim: config error: {key} must be ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command,key",
    [(command, key) for command, (defaults, *_) in cli._COMMANDS.items()
     for key in defaults if key in OUT_OF_RANGE],
)
def test_out_of_range_value_exits_2(tmp_path, capsys, command, key, source):
    value = OUT_OF_RANGE[key]
    if source == "flag":
        args = ["--" + key.replace("_", "-"), value]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        args = ["--config", tmp_path / "cfg.json"]
    _exits_2_naming(tmp_path, capsys, key, [command, *args])


@pytest.fixture
def native_trace(tmp_path):
    """A short native trace.csv that smtj-trace --input-trace analyzes."""
    fast = SmtjParams(tau_mean=68.9e-6)
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as f:
        sample_trajectory(fast, fast.b_5050, 0.2, 2e-6, seed=35).to_csv(f)
    return path


# A value outside the bound of a key that only the command's other mode uses
# is rejected all the same; None stands for the native trace.
@pytest.mark.parametrize(
    "key,argv",
    [
        ("duration_s", ["smtj-trace", "--input-trace", None, "--dt-s", 0, "--duration-s", -1]),
        ("bias_current_A", ["smtj-trace", "--bias-current-A", 0, "--duration-s", 2]),
        ("v_step_V", ["transfer", "--v-inputs", "0.6,0.61", "--v-step-V", 0]),
    ],
    ids=["trace-analysis-grid", "trace-simulation-bias", "transfer-input-list-step"],
)
def test_bound_holds_in_either_mode(tmp_path, capsys, native_trace, key, argv):
    argv = [native_trace if a is None else a for a in argv]
    _exits_2_naming(tmp_path, capsys, key, argv)


def _wrong_kind(kind):
    """JSON values that are not of kind; NaN and infinities for numbers too."""
    numbers = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
    texts = st.text(max_size=8)
    lists = st.lists(st.one_of(texts, st.booleans(), st.none()), min_size=1, max_size=3)
    objects = st.dictionaries(texts, st.integers(), max_size=2)
    non_finite = st.sampled_from([float("nan"), float("inf"), -float("inf")])
    return {
        float: st.one_of(texts, st.booleans(), lists, objects, non_finite),
        int: st.one_of(st.floats(), texts, st.booleans(), lists, objects),
        str: st.one_of(numbers, st.booleans(), lists, objects),
        bool: st.one_of(numbers, texts, lists, objects),
        cli._float_list: st.one_of(numbers, texts, st.booleans(), objects, lists),
    }[kind]


@st.composite
def _bad_config(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    defaults = cli._COMMANDS[command][0]
    key = draw(st.sampled_from(sorted(defaults)))
    kinds = _wrong_kind(cli._kind(key, defaults[key]))
    value = draw(kinds if defaults[key] is None else st.one_of(kinds, st.none()))
    return command, key, value


@settings(max_examples=150, deadline=None, phases=[Phase.generate])
@given(_bad_config())
def test_wrong_kind_config_value_exits_2(case):
    command, key, value = case

    def unreachable(cfg, given):
        raise AssertionError("a runner was reached")

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(cli._COMMANDS, {c: (d, unreachable, s)
                                            for c, (d, _, s) in cli._COMMANDS.items()}), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        # out_dir in the file, where a flag would not override the drawn key
        out = Path(tmp) / "out"
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps({"out_dir": str(out), key: value}))
        assert main([command, "--config", str(config)]) == 2
        assert err.getvalue().startswith(f"pbitsim: config error: {key} must be ")
        assert not out.exists()


# Bounded keys whose value does not set how long a run takes range over every
# positive double.  The others come from short ranges that keep a run under
# 100 s of junction time and 5000 samples, since values between those and an
# overflowing count would allocate gigabytes; test_overflowing_count_exits_3
# takes the far ends.  Keys a runner joins to them are drawn so that the
# joint rules hold as well.
_ANY_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_INTERVAL = st.floats(min_value=0.0, max_value=0.02, exclude_min=True)


def _grid(draw, start, step_max, min_points, max_points):
    """Start, step and stop of a grid of min_points to max_points points; the
    stop lies half a step past the last point, so rounding cannot change the
    count."""
    step = draw(st.floats(min_value=1e-9, max_value=step_max))
    points = draw(st.integers(min_points, max_points))
    return start, step, start + (points - 0.5) * step


@st.composite
def _in_range_config(draw, command):
    cfg = {"seed": draw(st.integers(min_value=0, max_value=2**128))}
    if command != "metrics":
        cfg["svg"] = draw(st.booleans())
    if command in ("field-sweep", "transfer"):
        cfg["jobs"] = draw(st.integers(1, 4))
    if command == "smtj-trace":
        dt = draw(_INTERVAL)
        cfg.update(r_parallel_ohm=draw(_ANY_POSITIVE),
                   tmr=draw(st.floats(min_value=0.0, allow_infinity=False)),
                   dt_s=dt, duration_s=dt * draw(st.integers(1, 5000)),
                   bias_current_A=draw(_ANY_POSITIVE),
                   input_trace=draw(st.sampled_from([None, "voltage export"])))
    elif command == "field-sweep":
        dt = draw(_INTERVAL)
        cfg["dt_s"], cfg["point_duration_s"] = dt, dt * draw(st.integers(1, 1000))
        cfg["b_min_T"], cfg["b_step_T"], cfg["b_max_T"] = _grid(
            draw, draw(st.floats(-0.0095, -0.0075)), 3e-4, 2, 12)
    elif command == "transfer":
        # the grid stays inside [0, v_dd]
        cfg["v_start_V"], cfg["v_step_V"], cfg["v_stop_V"] = _grid(
            draw, draw(st.floats(0.0, 0.3)), 0.2, 1, 5)
        cfg.update(n_per_point=draw(st.integers(1, 20)), sample_interval_s=draw(_INTERVAL))
    elif command == "gate":
        cfg.update(i0=draw(_ANY_POSITIVE), sweeps=draw(st.integers(1, 2000)),
                   burn_in=draw(st.integers(0, 200)), gate=draw(st.sampled_from(["and", "or"])),
                   clamp_c=draw(st.sampled_from([None, 0, 1])), all_modes=draw(st.booleans()),
                   activation=draw(st.sampled_from(["ideal", "empirical"])))
    return cfg


@pytest.fixture(scope="module")
def voltage_export(tmp_path_factory):
    """20 ms of a fast junction as a voltage export read at 10 uA, no sidecar."""
    fast = SmtjParams(tau_mean=68.9e-6)
    trace = sample_trajectory(fast, fast.b_5050, 0.02, 2e-6, seed=35)
    path = tmp_path_factory.mktemp("export") / "scope.csv"
    times = np.arange(len(trace)) * trace.sample_interval
    np.savetxt(path, np.column_stack([times, trace.values * 1e-5]), fmt="%.12g",
               delimiter=",", header="time_s,voltage_V", comments="")
    return str(path)


_SAMPLING_WARNING = re.compile(
    r"exceeds tau_mean/10=|under tau_mean=\S+ s: consecutive samples are correlated"
)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=20, deadline=None, phases=[Phase.generate])
@given(data=st.data())
def test_in_range_config_runs_or_exits_3(voltage_export, command, data):
    cfg = data.draw(_in_range_config(command))
    defaults = cli._COMMANDS[command][0]
    assert set(cfg) >= {k for k in defaults if k in cli._POSITIVE or k in cli._AT_LEAST}
    if cfg.get("input_trace"):
        cfg["input_trace"] = voltage_export
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        out = Path(tmp) / "out"
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps({**cfg, "out_dir": str(out)}))
        code = main([command, "--config", str(config)])
        assert code in (0, 3), err.getvalue()
        # only the two documented sampling-interval warnings
        for w in caught:
            assert w.category is UserWarning, w
            assert _SAMPLING_WARNING.search(str(w.message)), w
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (code == 0)
        if code == 0:
            for f in out.iterdir():
                if f.suffix != ".svg":
                    assert not re.search(r"\bnan\b|NaN|\binf|Infinity", f.read_text()), f.name


# Values inside their own bounds that overflow a sample or dwell count, the
# sMTJ's resistance levels, or for i0 the state energies: each exits 3 with one
# line, not a traceback, NaN probabilities or an infinite level.
@pytest.mark.parametrize(
    "argv",
    [
        ["smtj-trace", "--duration-s", 1, "--dt-s", 5e-324],
        ["smtj-trace", "--r-parallel-ohm", 1e308, "--tmr", 1, "--duration-s", 0.5],
        ["smtj-trace", "--r-parallel-ohm", 1e304, "--duration-s", 1],
        ["field-sweep", "--point-duration-s", 1, "--dt-s", 5e-324],
        ["transfer", "--sample-interval-s", 1.7e308],
        ["transfer", "--n-per-point", 1, "--sample-interval-s", 1e306],
        ["gate", "--i0", 1e308, "--sweeps", 10],
        ["field-sweep", "--r-parallel-ohm", 1e307],
        ["field-sweep", "--r-parallel-ohm", 1e308, "--tmr", 1],
    ],
)
def test_overflowing_count_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("pbitsim: ") and err.count("\n") == 1
    assert not out.exists()


# Junctions that no finite, positive k_factor matches: the geometric mean of
# the two resistances is subnormal at the first, so k_factor is inf, and near
# 1e308 at the second, where a 5e299 V gate drive makes it 0.
@pytest.mark.parametrize(
    "flags", [["--r-parallel-ohm", 1e-320], ["--r-parallel-ohm", 1e308, "--v-dd-V", 1e300]]
)
def test_unmatchable_junction_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert run("transfer", *flags, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("pbitsim: config error: resistance-matched k_factor ")
    assert err.count("\n") == 1
    assert not out.exists()


_HEADERS = ["time_s,resistance_ohm", "time_s,resistance_ohm,state", "time_s,voltage_V",
            "time_s,voltage_V,ch2", "time_s", "voltage_V,time_s"]
# 1e306 V overflows on conversion at the 10 uA default bias current
_CELLS = st.sampled_from(["nan", "inf", "-inf", "", "x", "1e999", "1e306", "0x10", " 3 ", "1,2"])
_SIDECARS = st.one_of(
    st.none(),
    st.sampled_from(['{"bias_current_A": 1e-5}', '{"bias_current_A": 2e-5}',
                     '{"bias_current_A": "1e-5"}', "{}", '{"bias_current_A": null}', '{"bias_current_A": true}',
                     '{"bias_current_A": -1e-5}', '{"bias_current_A": NaN}', "[1e-5]",
                     "not json", ""]),
)


@st.composite
def _trace_file(draw):
    """Lines of a small trace file around a two-level telegraph, and a sidecar."""
    header = draw(st.sampled_from(_HEADERS + [None]))
    if header is None:
        header = draw(st.text("tim_es,volV#", max_size=12))
    # a clean file of 1000 rows holds about 250 runs, enough for the analysis
    n = draw(st.sampled_from([1000, 1000, 1000, 50, 3, 2, 1, 0]))
    dt = draw(st.sampled_from([1e-5, 1e-5, 2.5e-7, 1.0, 5e-324]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = np.cumsum(rng.random(n) < 0.25) % 2 == 1
    scale = 1e-5 if "voltage" in header else 1.0
    values = (np.where(high, 35880.0, 27600.0) + rng.normal(0.0, 50.0, n)) * scale
    rows = [[f"{k * dt:.12g}", f"{v:.12g}"] for k, v in enumerate(values)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 4]))):
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["jitter", "repeat", "cell", "extra", "short"]))
        if edit == "jitter":
            rows[k][0] = f"{(k + draw(st.sampled_from([1e-4, -1e-4, 0.01, 0.5]))) * dt:.12g}"
        elif edit == "repeat":
            rows[k][0] = rows[k - 1][0]
        elif edit == "cell":
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(_CELLS)
        elif edit == "extra":
            rows[k].append("0.5")
        else:
            del rows[k][1:]
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# scope: ch1", "  ", "#"])))
    return lines, draw(_SIDECARS)


@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(_trace_file())
@example((["time_s,resistance_ohm", "0,1", "inf,2", "inf,3"], None))  # inf - inf step
@example((["time_s,voltage_V", "-1e308,1", "1e308,2"], None))  # overflowing step
@example((["time_s,voltage_V", "0,1e306", "1,1"], None))  # overflowing resistance
def test_fuzzed_trace_file_reads_or_exits_cleanly(case):
    # load_trace returns or raises ValueError; the CLI exits 0, 2 or 3 and
    # makes no out dir on 2.  Slices of 3 rows put boundaries in every file.
    lines, sidecar = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(analysis, "_READ_SLICE", 3), \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        path = Path(tmp) / "scope.csv"
        path.write_text("\n".join(lines) + "\n")
        if sidecar is not None:
            (Path(tmp) / "scope.csv.json").write_text(sidecar)
        try:
            trace = load_trace(path)
        except ValueError:
            pass
        else:
            assert np.all(np.isfinite(trace.values))
        out = Path(tmp) / "out"
        code = main(["smtj-trace", "--input-trace", str(path), "--out-dir", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        assert out.exists() == (code == 0)


# Flags spelled other than "--" + the key with "_" as "-".
FLAG_SPELLINGS = {"nmos_k_factor_A_per_V2": "--nmos-k-factor", "v_inputs_V": "--v-inputs"}

# (flag text, value) for keys whose default does not say their kind, or that
# take choices.
FLAG_VALUES = {
    "b_field_T": ("-0.0071", -0.0071),
    "input_trace": ("scope.csv", "scope.csv"),
    "nmos_k_factor_A_per_V2": ("2.5e-4", 2.5e-4),
    "inverter_v_switch_V": ("0.55", 0.55),
    "inverter_gain": ("40", 40.0),
    "v_inputs_V": ("0.59,0.6", [0.59, 0.6]),
    "gate": ("or", "or"),
    "clamp_c": ("1", 1),
    "activation": ("empirical", "empirical"),
}


def _flag_argv(key, default):
    """The flag for key and a value it gives, other than the default."""
    flag = FLAG_SPELLINGS.get(key, "--" + key.replace("_", "-"))
    if key in FLAG_VALUES:
        text, value = FLAG_VALUES[key]
        return [flag, text], value
    if isinstance(default, bool):
        return [flag], True
    return {int: ([flag, "7"], 7), float: ([flag, "0.375"], 0.375),
            str: ([flag, "elsewhere"], "elsewhere")}[type(default)]


@pytest.mark.parametrize(
    "command,key",
    [(command, key) for command, (defaults, *_) in cli._COMMANDS.items() for key in defaults],
)
def test_every_key_has_its_flag(tmp_path, command, key):
    defaults = cli._COMMANDS[command][0]
    argv, value = _flag_argv(key, defaults[key])
    args = vars(cli.build_parser().parse_args([command, *argv]))
    assert args.pop("command") == command and args.pop("config") is None
    assert {k for k, v in args.items() if v is not None} == {key}
    from_flag, given = cli._resolve(defaults, None, args)
    assert given == {key}
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    from_file, _ = cli._resolve(defaults, tmp_path / "cfg.json", {})
    assert from_flag == from_file == {**defaults, key: value}
    if key in FLAG_SPELLINGS:  # the key's own spelling is no flag
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--" + key.replace("_", "-"), argv[1]])


@pytest.mark.parametrize(
    "command,key",
    [
        (command, key)
        for command, (defaults, *_) in cli._COMMANDS.items()
        for key, default in defaults.items()
        if cli._kind(key, default) is float
    ],
)
def test_negative_exponent_value_parses(command, key):
    flag = FLAG_SPELLINGS.get(key, "--" + key.replace("_", "-"))
    args = vars(cli.build_parser().parse_args([command, flag, "-7e-3"]))
    assert args[key] == -0.007


def test_negative_input_list_reaches_grid_check(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("transfer", "--v-inputs", "-0.1,0.6", "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err == "pbitsim: config error: grid inputs must lie in [0, v_dd]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,runner",
    [
        ("smtj-trace", "sample_trajectory"),
        ("field-sweep", "simulate_field_sweep"),
        ("transfer", "transfer_curve"),
    ],
)
def test_oversized_request_exits_3(tmp_path, monkeypatch, capsys, command, runner):
    # numpy raises MemoryError when an array cannot be allocated; raising it
    # here keeps the test from asking the OS for that memory
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.17 TiB for an array")

    monkeypatch.setattr(cli, runner, oversized)
    out = tmp_path / "out"
    assert run(command, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert err == "pbitsim: MemoryError: Unable to allocate 2.17 TiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,error",
    [
        (["smtj-trace", "--duration-s", 0.1], "TooFewTransitions"),
        (["smtj-trace", "--b-field-T", -5e-3, "--duration-s", 1], "UnimodalTrace"),
        (["field-sweep", "--b-min-T", -6e-3, "--b-max-T", -5e-3], "NoWindow"),
    ],
)
def test_runtime_failure_leaves_no_out_dir(tmp_path, capsys, argv, error):
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"pbitsim: {error}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    assert run("metrics", "--out-dir", taken) == 2
    err = capsys.readouterr().err
    assert err == f"pbitsim: config error: out_dir {taken} is not a directory\n"
    assert taken.read_bytes() == b"not a directory\n"


def test_out_dir_under_a_file_exits_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    assert run("metrics", "--out-dir", taken / "sub") == 3
    err = capsys.readouterr().err
    assert err.startswith("pbitsim: NotADirectoryError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_bytes() == b"not a directory\n"


class TestSmtjTrace:
    def test_default_device_analysis(self, tmp_path):
        code = run(
            "smtj-trace", "--out-dir", tmp_path, "--seed", 7,
            "--duration-s", 8.0,
        )
        assert code == 0
        result = read_json(tmp_path / "analysis.json")
        assert result["tmr"] == pytest.approx(0.145, abs=1e-9)
        assert result["dwell_acf_s"] == pytest.approx(4.2e-3, rel=0.10)
        assert result["dwell_direct_s"] == pytest.approx(4.2e-3, rel=0.10)
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["time_s", "resistance_ohm", "state"]
        assert len(rows) == 800_000

    def test_zero_duration_exits_2(self, tmp_path):
        assert run("smtj-trace", "--out-dir", tmp_path, "--duration-s", 0) == 2
        assert not any(tmp_path.iterdir())

    def test_seed_reproducible_bytes(self, tmp_path):
        args = ["smtj-trace", "--seed", 3, "--duration-s", 0.5, "--dt-s", 1e-4]
        assert run(*args, "--out-dir", tmp_path / "a") == 0
        assert run(*args, "--out-dir", tmp_path / "b") == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_exhausted_fit_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("pbitsim.fit._FIT_MAX_STEPS", 0)
        code = run(
            "smtj-trace", "--out-dir", tmp_path, "--seed", 3,
            "--duration-s", 0.5, "--dt-s", 1e-4,
        )
        assert code == 3
        assert "FitDiverged" in capsys.readouterr().err

    def test_analyze_existing_voltage_trace(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(
            "smtj-trace", "--out-dir", gen, "--seed", 5,
            "--tau-mean-s", 68.9e-6, "--duration-s", 0.5, "--dt-s", 2e-6,
        ) == 0
        # convert the generated trace to a two-column voltage export
        lines = (gen / "trace.csv").read_text().splitlines()[2:]
        scope = tmp_path / "scope.csv"
        with open(scope, "w") as f:
            f.write("time_s,voltage_V\n")
            for line in lines:
                t, r, _ = line.split(",")
                f.write(f"{t},{float(r) * 1e-5:.12g}\n")
        out = tmp_path / "analyzed"
        assert run(
            "smtj-trace", "--out-dir", out, "--input-trace", scope,
            "--bias-current-A", 1e-5, "--tau-mean-s", 68.9e-6,
        ) == 0
        result = read_json(out / "analysis.json")
        assert result["tmr"] == pytest.approx(0.145, rel=1e-6)
        assert result["dwell_acf_s"] == pytest.approx(68.9e-6, rel=0.15)

    def test_reanalyzed_native_trace_matches(self, tmp_path):
        # the labeled trace.csv smtj-trace writes, '#' meta line included,
        # reads back through --input-trace to the same analysis
        gen, again = tmp_path / "gen", tmp_path / "again"
        assert run(
            "smtj-trace", "--out-dir", gen,
            "--tau-mean-s", 68.9e-6, "--duration-s", 0.5, "--dt-s", 2e-6,
        ) == 0
        assert run("smtj-trace", "--out-dir", again, "--input-trace", gen / "trace.csv") == 0
        first, second = read_json(gen / "analysis.json"), read_json(again / "analysis.json")
        for key in ("n_samples", "occupancy_ap", "dwell_direct_s", "dwell_acf_s"):
            assert second[key] == first[key]
        # %.12g rounds r_ap in the written trace
        for key in ("r_low_ohm", "r_high_ohm", "threshold_ohm", "tmr"):
            assert second[key] == pytest.approx(first[key], rel=1e-9)

    def test_analyzed_trace_bytes_pinned(self, tmp_path):
        # SHA-256 of trace.csv below its metadata line (which hashes the
        # input path), recorded with the row-at-a-time reader and writer
        fast = SmtjParams(tmr=0.30, tau_mean=68.9e-6, window_width=0.2e-3)
        src = sample_trajectory(fast, fast.b_5050, 0.2, 2e-6, seed=33)
        volts = src.values * 1e-5 + np.random.default_rng(34).normal(0.0, 2e-3, len(src))
        scope = tmp_path / "scope.csv"
        np.savetxt(
            scope, np.column_stack([src.times, volts]), fmt="%.7f,%.6f",
            header="time_s,voltage_V", comments="",
        )
        out = tmp_path / "out"
        assert run("smtj-trace", "--out-dir", out, "--input-trace", scope) == 0
        body = (out / "trace.csv").read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == (
            "c1fe101281b3ef78ffb8d42a8f6841b00db167a2963fa7da254bede56f5e9723"
        )

    @pytest.fixture
    def scope_20ua(self, tmp_path):
        """A voltage export read at 20 uA, with a sidecar that says so."""
        fast = SmtjParams(tmr=0.30, tau_mean=68.9e-6, window_width=0.2e-3)
        src = sample_trajectory(fast, fast.b_5050, 0.2, 2e-6, seed=35)
        scope = tmp_path / "scope.csv"
        np.savetxt(
            scope, np.column_stack([src.times, src.values * 2e-5]), fmt="%.7f,%.9g",
            header="time_s,voltage_V", comments="",
        )
        (tmp_path / "scope.csv.json").write_text(json.dumps({"bias_current_A": 2e-5}))
        return scope

    def test_voltage_trace_reads_sidecar(self, tmp_path, scope_20ua):
        out = tmp_path / "out"
        assert run("smtj-trace", "--out-dir", out, "--input-trace", scope_20ua) == 0
        levels, _ = threshold_states(load_trace(scope_20ua))
        result = read_json(out / "analysis.json")
        assert result["r_low_ohm"] == levels.r_low
        assert result["r_low_ohm"] == pytest.approx(27600.0, rel=1e-6)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_given_bias_current_overrides_sidecar(self, tmp_path, scope_20ua, source):
        out = tmp_path / "out"
        if source == "flag":
            args = ["--bias-current-A", 1e-5]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"bias_current_A": 1e-5}))
            args = ["--config", cfg]
        assert run("smtj-trace", "--out-dir", out, "--input-trace", scope_20ua, *args) == 0
        assert read_json(out / "analysis.json")["r_low_ohm"] == pytest.approx(55200.0, rel=1e-6)

    @pytest.mark.parametrize(
        "sidecar", ["{}", '{"bias_current_A": null}', "[1]"], ids=["no_key", "null", "list"]
    )
    def test_malformed_sidecar_exits_3(self, tmp_path, capsys, scope_20ua, sidecar):
        (tmp_path / "scope.csv.json").write_text(sidecar)
        code = run("smtj-trace", "--out-dir", tmp_path / "out", "--input-trace", scope_20ua)
        assert code == 3
        err = capsys.readouterr().err
        assert "TraceFormatError" in err
        assert "scope.csv.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rows",
        [
            # a header line repeated mid-file
            ["0,27600", "1e-05,35880", "time_s,resistance_ohm", "2e-05,27600"],
            # jittered time grid
            ["0,27600", "1e-05,35880", "2.5e-05,27600", "3e-05,35880"],
            # non-finite sample
            ["0,27600", "1e-05,nan", "2e-05,27600", "3e-05,35880"],
        ],
        ids=["repeated_header", "jittered_grid", "nan_sample"],
    )
    def test_malformed_trace_exits_3(self, tmp_path, capsys, rows):
        trace = tmp_path / "bad.csv"
        trace.write_text("\n".join(["time_s,resistance_ohm", *rows]) + "\n")
        code = run("smtj-trace", "--out-dir", tmp_path / "out", "--input-trace", trace)
        assert code == 3
        err = capsys.readouterr().err
        assert "TraceFormatError" in err
        assert "Traceback" not in err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 1.0, "dt_s": 1e-4, "seed": 9}))
        out = tmp_path / "out"
        assert run("smtj-trace", "--config", cfg, "--out-dir", out, "--seed", 11) == 0
        meta = (out / "analysis.json").read_text().splitlines()[0]
        assert "seed=11" in meta

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"durationn_s": 1.0}))
        assert run("smtj-trace", "--config", cfg, "--out-dir", tmp_path / "o") == 2


class TestFieldSweep:
    def test_default_window(self, tmp_path):
        assert run(
            "field-sweep", "--out-dir", tmp_path, "--seed", 2,
            "--point-duration-s", 1.0,
        ) == 0
        window = read_json(tmp_path / "window.json")
        assert abs(window["b_5050_T"] - (-7.22e-3)) < 0.02e-3
        assert -7.6e-3 < window["b_low_T"] < -7.35e-3
        assert -7.1e-3 < window["b_high_T"] < -6.85e-3
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["b_T", "mean_resistance_ohm"]

    def test_narrow_window_config(self, tmp_path):
        assert run(
            "field-sweep", "--out-dir", tmp_path, "--seed", 3,
            "--tmr", 0.30, "--tau-mean-s", 68.9e-6, "--window-width-T", 0.2e-3,
            "--b-min-T", -7.52e-3, "--b-max-T", -6.92e-3, "--b-step-T", 0.03e-3,
            "--point-duration-s", 0.3, "--dt-s", 2e-6,
        ) == 0
        window = read_json(tmp_path / "window.json")
        assert window["width_T"] == pytest.approx(0.2e-3, rel=0.25)

    @pytest.mark.parametrize("r_parallel", [1e-200, 1e302])
    def test_window_does_not_depend_on_the_resistance_scale(self, tmp_path, r_parallel):
        # the midpoint sign test neither underflows nor overflows at the far scales
        fields = ("b_low_T", "b_high_T", "b_5050_T")
        windows = []
        for r in (27.6e3, r_parallel):
            out = tmp_path / f"{r:g}"
            assert run("field-sweep", "--out-dir", out, "--r-parallel-ohm", r,
                       "--point-duration-s", 0.2) == 0
            windows.append({k: read_json(out / "window.json")[k] for k in fields})
        assert windows[0] == windows[1]

    def test_sweep_outside_window_exits_3(self, tmp_path):
        assert run(
            "field-sweep", "--out-dir", tmp_path, "--seed", 1,
            "--b-min-T", -4e-3, "--b-max-T", -3e-3, "--b-step-T", 0.2e-3,
            "--point-duration-s", 0.05, "--dt-s", 1e-4,
        ) == 3

    def test_bad_range_exits_2(self, tmp_path):
        assert run(
            "field-sweep", "--out-dir", tmp_path,
            "--b-min-T", -6e-3, "--b-max-T", -8e-3,
        ) == 2

    def test_jobs_match_serial(self, tmp_path):
        args = [
            "field-sweep", "--seed", 9, "--tau-mean-s", 68.9e-6,
            "--point-duration-s", 0.05, "--dt-s", 5e-6,
        ]
        assert run(*args, "--out-dir", tmp_path / "serial") == 0
        assert run(*args, "--jobs", 2, "--out-dir", tmp_path / "par") == 0
        assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
            tmp_path / "par" / "sweep.csv"
        ).read_bytes()


class TestTransfer:
    def test_calibrated_center(self, tmp_path):
        assert run(
            "transfer", "--out-dir", tmp_path, "--seed", 4,
            "--n-per-point", 500,
        ) == 0
        sig = read_json(tmp_path / "sigmoid.json")
        assert 0.595 <= sig["center_V"] <= 0.605
        header, rows = read_csv(tmp_path / "curve.csv")
        assert header == ["v_in_V", "mean_v_out_V"]
        assert len(rows) == 21
        header, rows = read_csv(tmp_path / "samples.csv")
        assert header == ["v_in_V", "sample_idx", "v_out_V"]
        assert len(rows) == 21 * 500
        assert set(r[2] for r in rows) <= {"0", "1.2"}

    def test_three_input_detail_mode_with_soft_inverter(self, tmp_path):
        assert run(
            "transfer", "--out-dir", tmp_path, "--seed", 6,
            "--v-inputs", "0.597,0.600,0.605", "--n-per-point", 400,
            "--inverter-gain", 50,
        ) == 0
        _, rows = read_csv(tmp_path / "curve.csv")
        means = {float(v): float(m) for v, m in rows}
        assert means[0.597] < 0.6 < means[0.605]
        assert means[0.597] < means[0.600] < means[0.605]

    def test_empty_grid_exits_2(self, tmp_path):
        assert run(
            "transfer", "--out-dir", tmp_path,
            "--v-start-V", 0.62, "--v-stop-V", 0.58,
        ) == 2

    def test_jobs_match_serial(self, tmp_path):
        args = [
            "transfer", "--seed", 8, "--v-start-V", 0.59, "--v-stop-V", 0.61,
            "--v-step-V", 0.01, "--n-per-point", 50,
        ]
        assert run(*args, "--out-dir", tmp_path / "serial") == 0
        assert run(*args, "--jobs", 2, "--out-dir", tmp_path / "par") == 0
        serial = dir_bytes(tmp_path / "serial")
        par = dir_bytes(tmp_path / "par")
        assert serial.keys() == par.keys()
        assert serial["samples.csv"] == par["samples.csv"]
        assert serial["curve.csv"] == par["curve.csv"]


class TestGate:
    def test_or_clamp_low_modal_000(self, tmp_path):
        assert run(
            "gate", "--out-dir", tmp_path, "--seed", 5,
            "--gate", "or", "--clamp-c", 0, "--sweeps", 100_000,
        ) == 0
        summary = read_json(tmp_path / "or_c0_summary.json")
        assert summary["modal_word"] == "000"
        assert summary["l1_distance"] < 0.02

    def test_and_clamp_high_matches_oracle(self, tmp_path):
        assert run(
            "gate", "--out-dir", tmp_path, "--seed", 6,
            "--gate", "and", "--clamp-c", 1, "--sweeps", 100_000,
        ) == 0
        summary = read_json(tmp_path / "and_c1_summary.json")
        assert summary["modal_word"] == "111"
        _, hist_rows = read_csv(tmp_path / "and_c1_histogram.csv")
        _, oracle_rows = read_csv(tmp_path / "and_c1_oracle.csv")
        freq = {w: float(f) for w, _, f in hist_rows}
        exact = {w: float(p) for w, p in oracle_rows}
        assert abs(freq["111"] - exact["111"]) < 0.02

    def test_all_modes_writes_four_runs(self, tmp_path):
        out = tmp_path / "all"
        assert run(
            "gate", "--out-dir", out, "--seed", 7,
            "--all-modes", "--sweeps", 20_000,
        ) == 0
        names = {f.name for f in out.iterdir()}
        for gate, clamp_c in (("and", 0), ("and", 1), ("or", 0), ("or", 1)):
            prefix = f"{gate}_c{clamp_c}"
            assert f"{prefix}_histogram.csv" in names
            assert f"{prefix}_oracle.csv" in names
            assert f"{prefix}_summary.json" in names
            # each mode's oracle is its own, as a single-mode run writes it;
            # the meta lines differ in their config hash
            single = tmp_path / prefix
            assert run(
                "gate", "--out-dir", single, "--seed", 7,
                "--gate", gate, "--clamp-c", clamp_c, "--sweeps", 20_000,
            ) == 0
            oracle = f"{prefix}_oracle.csv"
            assert read_csv(out / oracle) == read_csv(single / oracle)

    def test_empirical_activation_mode(self, tmp_path):
        assert run(
            "gate", "--out-dir", tmp_path, "--seed", 9,
            "--gate", "and", "--clamp-c", 1, "--activation", "empirical",
            "--sweeps", 30_000,
        ) == 0
        summary = read_json(tmp_path / "and_c1_summary.json")
        assert summary["activation"] == "empirical"
        assert summary["modal_word"] == "111"

    def test_exhausted_sigmoid_fit_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("pbitsim.fit._FIT_MAX_STEPS", 0)
        code = run(
            "gate", "--out-dir", tmp_path / "gate", "--seed", 9,
            "--gate", "and", "--clamp-c", 1, "--activation", "empirical",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "pbitsim: FitDiverged:" in err
        assert "Traceback" not in err
        # transfer still writes its curve and reports no fit
        out = tmp_path / "transfer"
        assert run("transfer", "--out-dir", out, "--seed", 4, "--n-per-point", 50) == 0
        sig = read_json(out / "sigmoid.json")
        assert sig["center_V"] is None and sig["width_V"] is None

    def test_unclamped_run(self, tmp_path):
        assert run(
            "gate", "--out-dir", tmp_path, "--seed", 8,
            "--gate", "and", "--sweeps", 50_000, "--i0", 1.0,
        ) == 0
        assert (tmp_path / "and_free_summary.json").exists()

    def test_summary_independent_of_hash_seed(self, tmp_path):
        # l1_distance sums over a set of words; the output must not depend on
        # the per-process string hash order.
        outputs = []
        for hash_seed in ("1", "3"):
            out = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            subprocess.run(
                [sys.executable, "-m", "pbitsim.cli", "gate", "--all-modes",
                 "--sweeps", "20000", "--seed", "1", "--out-dir", str(out)],
                env=env, check=True, timeout=120,
            )
            outputs.append(dir_bytes(out))
        assert outputs[0] == outputs[1]

    def test_bad_i0_exits_2(self, tmp_path):
        assert run("gate", "--out-dir", tmp_path, "--i0", -1.0) == 2


class TestSvgRendering:
    def test_trace_and_gate_svg(self, tmp_path):
        assert run(
            "smtj-trace", "--out-dir", tmp_path / "t", "--seed", 1,
            "--duration-s", 0.5, "--dt-s", 1e-4, "--svg",
        ) == 0
        svg = (tmp_path / "t" / "trace.svg").read_text()
        assert svg.startswith("<svg ") and "polyline" in svg
        assert run(
            "gate", "--out-dir", tmp_path / "g", "--seed", 2,
            "--gate", "and", "--clamp-c", 1, "--sweeps", 5000, "--svg",
        ) == 0
        svg = (tmp_path / "g" / "and_c1_histogram.svg").read_text()
        assert svg.startswith("<svg ") and svg.count("<rect") >= 9

    @pytest.mark.parametrize("render", [line_svg, bar_svg], ids=["line", "bar"])
    @pytest.mark.parametrize("x,y", [([1.0, 2.0], [1.0]), ([], [])], ids=["unequal", "empty"])
    def test_mismatched_lengths_rejected(self, render, x, y):
        with pytest.raises(ValueError, match="must be equal-length and non-empty"):
            render(x, y, "title", "x", "y")

    def test_transfer_curve_svg(self, tmp_path):
        assert run(
            "transfer", "--out-dir", tmp_path, "--seed", 3,
            "--v-start-V", 0.59, "--v-stop-V", 0.61, "--v-step-V", 0.01,
            "--n-per-point", 40, "--svg",
        ) == 0
        assert (tmp_path / "curve.svg").read_text().startswith("<svg ")


class TestMetrics:
    def test_perf_points(self, tmp_path):
        assert run("metrics", "--out-dir", tmp_path) == 0
        header, rows = read_csv(tmp_path / "perf_points.csv")
        assert header == ["label", "power_W", "throughput_flips_per_ns"]
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        assert 4.8e-6 <= table["P4"][0] <= 4.9e-6
        assert table["P4"][1] == pytest.approx(1.0)
        throughputs = {round(v[1], 9) for v in table.values()}
        assert round(2.380952381e-7, 9) in throughputs
        assert any(abs(v[1] - 1.45e-5) / 1.45e-5 < 0.01 for v in table.values())

    def test_deterministic(self, tmp_path):
        assert run("metrics", "--out-dir", tmp_path / "a") == 0
        assert run("metrics", "--out-dir", tmp_path / "b") == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
