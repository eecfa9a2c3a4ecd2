"""pbitsim benchmark: run one workload, check its outputs, print every metric.

    python3 perfbench/run.py --workload {trace,gate} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop with one
client: its CLI commands run one after another, each as a fresh
`python -m pbitsim.cli` process with PYTHONPATH=src, and the whole sequence
(a pass) repeats while the next pass still fits in --seconds (at least one
pass).  Metrics are medians over passes.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of
the command sequence (CPU and peak RSS per child, from os.wait4) and setup_s,
the median wall time of a fresh `python -c "import pbitsim.cli"`.
--trace 1 alternates untraced passes with traced ones, in which every command
runs through traced_cli.py, and reports the per-layer metrics of spans.py,
the `-X importtime` breakdown and bench.tracing_overhead_s.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Without a runnable pbitsim in src/ the script exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import layer_metrics, median_metrics, parse_importtime
from workloads import WORKLOADS, commands_for

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 3  # timed fresh imports before the passes and again after them
IMPORTTIME_RUNS = 3
COMMAND_TIMEOUT_S = 170.0
TRACEBACK = "Traceback (most recent call last)"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, log_stem: Path) -> dict:
    """Run one child process to completion; wall time and its own rusage.

    os.wait4 gives the resources of this child and the descendants it
    reaped (its pool workers), not of earlier children of this process.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stderr": Path(f"{log_stem}.err").read_text(errors="replace"),
    }


def check_command(cmd, result: dict) -> list:
    """Reasons the operation failed; empty when it succeeded."""
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[-300:]}"]
    if TRACEBACK in result["stderr"]:
        return ["traceback on stderr"]
    try:
        return cmd.check(cmd.out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_pass(commands: list, traced: bool, tag: str) -> dict:
    results = []
    for cmd in commands:
        if cmd.out_dir.exists():
            shutil.rmtree(cmd.out_dir)
        stem = WORK / f"{tag}-{cmd.name}"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), f"{stem}.spans.json", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "pbitsim.cli", *cmd.argv]
        result = run_child(argv, stem)
        result["problems"] = check_command(cmd, result)
        if traced:
            spans_path = Path(f"{stem}.spans.json")
            result["record"] = (
                json.loads(spans_path.read_text())
                if spans_path.exists()
                else {"spans": [], "counts": {}, "missing": []}
            )
        results.append((cmd.name, result))
    return {
        "wall_s": sum(r["wall_s"] for _, r in results),
        "cpu_s": sum(r["cpu_s"] for _, r in results),
        "peak_rss_mb": max(r["rss_mb"] for _, r in results),
        "results": results,
    }


def timed_import() -> float:
    result = run_child([sys.executable, "-c", "import pbitsim.cli"], WORK / "setup")
    if result["code"] != 0:
        raise SystemExit(f"perfbench: cannot import pbitsim.cli from src/: {result['stderr'].strip()}")
    return result["wall_s"]


def importtime_breakdown() -> dict:
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        r = run_child([sys.executable, "-X", "importtime", "-c", "import pbitsim.cli"], WORK / "importtime")
        runs.append(parse_importtime(r["stderr"]))
    return {
        "cli.import.s": (statistics.median(r["pbitsim"] for r in runs), "s"),
        "cli.import.scipy.s": (statistics.median(r["scipy"] for r in runs), "s"),
        "cli.import.numpy.s": (statistics.median(r["numpy"] for r in runs), "s"),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "missing"
    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
        f"scipy={scipy_version} commit={git_commit()}"
    )


def measure(workload, seed: int, seconds: float, traced: bool) -> tuple:
    """Run passes until the next would overrun `seconds`; returns (passes, traced passes, extra)."""
    extra, setup = {}, []
    if traced:
        extra.update(importtime_breakdown())
    else:
        timed_import()  # warm-up: compiles bytecode once
        setup += [timed_import() for _ in range(SETUP_RUNS)]
    for key, value in workload.prepare(WORK, seed).items():
        print(f"# input {key}={value}")

    commands = commands_for(workload, WORK, seed)
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(commands, False, f"p{len(plain)}"))
        if traced:
            traced_passes.append(run_pass(commands, True, f"t{len(traced_passes)}"))
        round_s = time.perf_counter() - t0
        if time.perf_counter() - start + round_s > seconds:
            break
    if not traced:
        # imports timed on both sides of the passes sample more of the host's load
        setup += [timed_import() for _ in range(SETUP_RUNS)]
        extra["setup_s"] = (statistics.median(setup), "s")
    return plain, traced_passes, extra


def report(passes: list, label: str = "pass") -> tuple:
    """Print one line per pass; returns (attempted, failed) operations."""
    attempted = failed = 0
    for i, p in enumerate(passes):
        parts = []
        for name, r in p["results"]:
            attempted += 1
            failed += bool(r["problems"])
            status = "ok" if not r["problems"] else "FAILED " + "; ".join(r["problems"])
            parts.append(f"{name} {r['wall_s']:.3f} s {status}")
        print(f"# {label} {i}: " + ", ".join(parts))
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "pbitsim" / "cli.py").is_file():
        print("perfbench: src/pbitsim/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workload.why}")
    print(f"# env {environment()}")

    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    try:
        plain, traced_passes, extra = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed = report(plain)
    if args.trace:
        traced_ops, traced_failed = report(traced_passes, "traced pass")
        attempted, failed = attempted + traced_ops, failed + traced_failed
        records = [[r["record"] for _, r in p["results"]] for p in traced_passes]
        missing = sorted({m for pass_records in records for rec in pass_records for m in rec["missing"]})
        if missing:
            print(f"# tracer: not found: {', '.join(missing)}")
        metrics = median_metrics([layer_metrics(r) for r in records])
        metrics.update(extra)
        overhead = statistics.median(p["wall_s"] for p in traced_passes) - statistics.median(
            p["wall_s"] for p in plain
        )
        metrics["bench.tracing_overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            **extra,
        }
    print(f"# passes={len(plain)} error_rate={failed / attempted:g} ({failed}/{attempted} operations failed)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
