"""Span recording around the pbitsim layers, and the per-layer metrics they give.

A Recorder keeps spans in memory: name, start, end, parent index and whether
the call raised.  `install` wraps the public layer functions at the names
`pbitsim.cli` looks them up under, plus the CSV writer methods on their
classes, so a traced `pbitsim.cli.main(argv)` follows exactly the CLI's own
call sequence.  Spans inside pool workers are not collected; that time stays
in the parent's `cli.main` self time.

Span names are `<layer>.<operation>`; the layer is the pbitsim module the
operation belongs to.
"""

from __future__ import annotations

import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("smtj", "analysis", "device", "pcircuit", "metrics", "cli")

# Leading samples inspected to tell a two-level trace from a noisy one.
_LEVEL_PROBE = 4096


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "error": False,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            rec["error"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)

    def wrap(self, fn, name, before=None, after=None):
        """fn under a span; `name` may be a callable of the bound arguments.

        `before(args)` runs outside the span and its result is handed to
        `after(args, result, state)`, also outside the span.
        """
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            label = name(bound) if callable(name) else name
            state = before(bound) if before else None
            with self.span(label):
                result = fn(*args, **kwargs)
            if after:
                after(bound, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self):
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def install(rec: Recorder):
    """Wrap the layer entry points of an imported pbitsim.cli."""
    import pbitsim.cli as cli
    import pbitsim.device as device
    import pbitsim.pcircuit as pcircuit
    import pbitsim.smtj as smtj

    def acf_name(a):
        probe = np.asarray(a["trace"].values[:_LEVEL_PROBE])
        kind = "two_level" if np.unique(probe).size <= 2 else "fft"
        return f"analysis.autocorrelation.{kind}"

    def gibbs_kind(a):
        return "ideal" if type(a["act"]).__name__ == "IdealTanh" else "empirical"

    def gibbs_updates(a, _result, _state):
        sweeps = a["n_sweeps"] + a.get("burn_in", 0)
        rec.add(f"pcircuit.node_updates.{gibbs_kind(a)}", sweeps * len(a["c"].free_nodes))

    def ideal_l1(_a, l1, _state):
        # cli compares each gibbs_run histogram right after sampling it; only
        # the ideal activation is what the exact Boltzmann oracle describes.
        kinds = (s["name"] for s in reversed(rec.spans) if s["name"].startswith("pcircuit.gibbs_run."))
        if next(kinds, None) == "pcircuit.gibbs_run.ideal":
            rec.maximum("pcircuit.l1_max", l1)

    def csv_bytes_before(a):
        return a["file"].tell()

    def csv_bytes_after(a, _result, start):
        rec.add("smtj.csv_bytes", a["file"].tell() - start)
        rec.add("smtj.to_csv.rows", len(a["self"]))

    functions = {
        "sample_trajectory": (
            "smtj.sample_trajectory",
            None,
            lambda a, r, s: rec.add("smtj.samples", len(r)),
        ),
        "simulate_field_sweep": ("smtj.simulate_field_sweep", None, None),
        "load_trace": (
            "analysis.load_trace",
            None,
            lambda a, r, s: rec.add("analysis.load_trace.rows", len(r)),
        ),
        "threshold_states": ("analysis.threshold_states", None, None),
        "autocorrelation": (acf_name, None, None),
        "mean_dwell_direct": ("analysis.mean_dwell_direct", None, None),
        "fit_dwell_time": ("analysis.fit_dwell_time", None, None),
        "extract_stochastic_window": ("analysis.extract_stochastic_window", None, None),
        "transfer_curve": (
            "device.transfer_curve",
            None,
            lambda a, r, s: rec.add("device.samples", sum(p.samples.size for p in r.points)),
        ),
        "fit_sigmoid": ("device.fit_sigmoid", None, None),
        "gibbs_run": (lambda a: f"pcircuit.gibbs_run.{gibbs_kind(a)}", None, gibbs_updates),
        "_default_empirical_activation": ("pcircuit.activation_build", None, None),
        "boltzmann_exact": ("pcircuit.boltzmann_exact", None, None),
        "compare_to_oracle": ("pcircuit.compare_to_oracle", None, ideal_l1),
        "comparison_table": ("metrics.comparison_table", None, None),
    }
    for attr, (name, before, after) in functions.items():
        fn = getattr(cli, attr, None)
        if fn is None:
            rec.missing.append(f"pbitsim.cli.{attr}")
            continue
        setattr(cli, attr, rec.wrap(fn, name, before, after))

    methods = {
        (smtj, "TelegraphTrace", "to_csv"): ("smtj.to_csv", csv_bytes_before, csv_bytes_after),
        (device, "TransferCurve", "to_samples_csv"): ("device.to_samples_csv", None, None),
        (pcircuit, "StateHistogram", "to_csv"): ("pcircuit.histogram_to_csv", None, None),
    }
    for (module, cls_name, attr), (name, before, after) in methods.items():
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, attr, None)
        if fn is None:
            rec.missing.append(f"{module.__name__}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, rec.wrap(fn, name, before, after))


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Inclusive span totals reported as `<name>.s`.
TIMED_SPANS = (
    "smtj.to_csv",
    "smtj.sample_trajectory",
    "analysis.load_trace",
    "analysis.autocorrelation.two_level",
    "analysis.autocorrelation.fft",
    "analysis.threshold_states",
    "analysis.mean_dwell_direct",
    "analysis.fit_dwell_time",
    "analysis.extract_stochastic_window",
    "pcircuit.gibbs_run.ideal",
    "pcircuit.gibbs_run.empirical",
    "pcircuit.activation_build",
    "pcircuit.boltzmann_exact",
    "pcircuit.histogram_to_csv",
    "device.transfer_curve",
    "device.fit_sigmoid",
    "device.to_samples_csv",
    "metrics.comparison_table",
)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(records):
    """Per-layer metrics of one traced pass from the records of its commands."""
    totals = {name: 0.0 for name in TIMED_SPANS}
    self_s = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    counts = {}
    for record in records:
        spans = record["spans"]
        for s, own in zip(spans, self_times(spans)):
            layer = s["name"].split(".")[0]
            if s["name"] in totals:
                totals[s["name"]] += s["end"] - s["start"]
            self_s[layer] += own
            errors[layer] += s["error"]
        for key, value in record["counts"].items():
            if key == "pcircuit.l1_max":
                counts[key] = max(counts.get(key, value), value)
            else:
                counts[key] = counts.get(key, 0) + value

    ideal = counts.get("pcircuit.node_updates.ideal", 0)
    empirical = counts.get("pcircuit.node_updates.empirical", 0)
    out = {f"{name}.s": (value, "s") for name, value in totals.items()}
    out.update({f"{layer}.self.s": (self_s[layer], "s") for layer in LAYERS})
    out.update({f"{layer}.errors": (errors[layer], "count") for layer in LAYERS})
    out.update(
        {
            "smtj.samples": (counts.get("smtj.samples", 0), "count"),
            "smtj.csv_bytes": (counts.get("smtj.csv_bytes", 0), "B"),
            "smtj.to_csv.rows_per_s": (
                _rate(counts.get("smtj.to_csv.rows", 0), totals["smtj.to_csv"]),
                "1/s",
            ),
            "analysis.load_trace.rows_per_s": (
                _rate(counts.get("analysis.load_trace.rows", 0), totals["analysis.load_trace"]),
                "1/s",
            ),
            "device.samples": (counts.get("device.samples", 0), "count"),
            "pcircuit.node_updates": (ideal + empirical, "count"),
            "pcircuit.updates_per_s.ideal": (
                _rate(ideal, totals["pcircuit.gibbs_run.ideal"]),
                "1/s",
            ),
            "pcircuit.updates_per_s.empirical": (
                _rate(empirical, totals["pcircuit.gibbs_run.empirical"]),
                "1/s",
            ),
            "pcircuit.l1_max": (counts.get("pcircuit.l1_max", 0.0), "L1"),
        }
    )
    return out


def median_metrics(per_pass):
    """Metric-wise median over passes of {name: (value, unit)} dicts."""
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def parse_importtime(stderr: str, packages=("pbitsim", "numpy", "scipy")):
    """Cumulative import seconds per top-level package from `-X importtime`.

    Sums the cumulative time of every entry of a package (the package or one
    of its submodules) that is not nested inside another entry of the same
    package.  The lines are in completion order, children before parents, so
    they are walked in reverse, which visits each parent before its children.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name_field = parts[2][1:]  # one separator space precedes the indent
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        entries.append((depth, name_field.strip(), int(parts[1])))

    totals = {}
    for package in packages:
        total_us = 0
        stack = []  # (depth, inside a package entry)
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            nested = bool(stack) and stack[-1][1]
            mine = name == package or name.startswith(package + ".")
            if mine and not nested:
                total_us += cumulative
            stack.append((depth, nested or mine))
        totals[package] = total_us * 1e-6
    return totals
