"""Span tracing from outside the package.

The traced run wraps the public entry points of each module at the attribute
its caller looks up (``postcal.cli.read_sample``, ``postcal.report.evaluate_cell``
...), so it executes exactly the CLI path.  Each call records a span with
name, start, end, parent span and op id, kept in memory until the run ends.
``layer_metrics`` reduces the spans of one op cycle to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict


def _chain_iters(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"chain_iters": config.chains * (config.burnin + config.iterations)}


def _acceptance(args, kwargs, result):
    counts = _chain_iters(args, kwargs, result)
    counts.update({f"accept_{k}": v for k, v in result.acceptance.items()})
    return counts


def _records(args, kwargs, result):
    return {"records": result.sample.n}


def _tier(args, kwargs, result):
    return {"tier": result.tier.value}


def _converged(args, kwargs, result):
    return {"converged": int(result.converged)}


# (module, attribute the caller looks up, span name, counter)
HOOKS = (
    ("postcal.cli", "load_config", "config.load_config", None),
    ("postcal.cli", "read_sample", "io.read_sample", _records),
    ("postcal.cli", "read_draws", "io.read_draws", None),
    ("postcal.cli", "write_draws", "io.write_draws", None),
    ("postcal.cli", "write_weights", "io.write_weights", None),
    ("postcal.cli", "write_report_json", "io.write_report", None),
    ("postcal.cli", "write_report_tables", "io.write_report", None),
    ("postcal.cli", "fit_all_variables", "fitting.fit_all_variables", None),
    ("postcal.simulate", "fit_all_variables", "fitting.fit_all_variables", None),
    ("postcal.fitting", "fit_binary_hb", "hb.fit_binary_hb", _acceptance),
    ("postcal.fitting", "fit_gaussian_fh", "hb.fit_gaussian_fh", _chain_iters),
    ("postcal.fitting", "compute_psi", "hb.compute_psi", None),
    ("postcal.fitting", "draws_to_domain_totals", "hb.draws_to_domain_totals", None),
    ("postcal.cli", "gelman_rubin", "hb.gelman_rubin", None),
    ("postcal.simulate", "gelman_rubin", "hb.gelman_rubin", None),
    ("postcal.calibration", "compute_gram", "calibration.compute_gram", None),
    ("postcal.calibration", "ht_totals", "calibration.ht_totals", None),
    ("postcal.calibration", "calibrate", "calibration.calibrate", None),
    ("postcal.replicate", "cell_weighted_moment", "calibration.cell_weighted_moment", None),
    ("postcal.report", "evaluate_cell", "frame.evaluate_cell", None),
    ("postcal.replicate", "replicate_totals", "replicate.replicate_totals", None),
    ("postcal.replicate", "classify_cell", "replicate.classify_cell", None),
    ("postcal.replicate", "empirical_quantile_ci", "replicate.quantile_ci", None),
    ("postcal.variance", "variance_components", "variance.variance_components", None),
    ("postcal.variance", "select_linking_variable", "variance.select_linking_variable", None),
    ("postcal.variance", "cell_diagnostics", "variance.cell_diagnostics", None),
    ("postcal.cli", "build_artifacts", "report.build_artifacts", None),
    ("postcal.simulate", "build_artifacts", "report.build_artifacts", None),
    ("postcal.report", "analyze_cell", "report.analyze_cell", _tier),
    ("postcal.cli", "build_run_report", "report.build_run_report", None),
    ("postcal.simulate", "build_run_report", "report.build_run_report", None),
    ("postcal.cli", "build_simulation", "simulate.build_simulation", None),
    ("postcal.simulate", "draw_stratified_sample", "simulate.draw_stratified_sample", None),
    ("postcal.simulate", "run_replication", "simulate.run_replication", _converged),
    ("postcal.simulate", "accumulate_report", "simulate.accumulate_report", None),
)


class Tracer:
    """In-memory span recorder; ``install`` swaps the hooks in, ``uninstall`` out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._originals: dict[tuple[str, str], object] = {}

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": span_id, "parent": parent, "name": name, "op": self.op,
                    "start": start, "end": end}
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a changed signature or result type loses the count, not the op
                    pass
            self.spans.append(span)
            return result

        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._originals.setdefault((module_name, attr), getattr(module, attr))
        setattr(module, attr, make(getattr(module, attr)))

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, counter in HOOKS:
            self._patch(module_name, attr, lambda fn: self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for (module_name, attr), fn in self._originals.items():
            setattr(importlib.import_module(module_name), attr, fn)
        self._originals.clear()


LAYER_TIMES = (
    "config.load_config",
    "io.read_sample",
    "io.read_draws",
    "io.write_draws",
    "io.write_weights",
    "io.write_report",
    "fitting.fit_all_variables",
    "hb.fit_binary_hb",
    "hb.fit_gaussian_fh",
    "hb.compute_psi",
    "hb.draws_to_domain_totals",
    "hb.gelman_rubin",
    "calibration.compute_gram",
    "calibration.ht_totals",
    "calibration.calibrate",
    "calibration.cell_weighted_moment",
    "frame.evaluate_cell",
    "replicate.replicate_totals",
    "replicate.classify_cell",
    "replicate.quantile_ci",
    "variance.variance_components",
    "variance.select_linking_variable",
    "variance.cell_diagnostics",
    "report.build_artifacts",
    "simulate.build_simulation",
    "simulate.draw_stratified_sample",
    "simulate.run_replication",
    "simulate.accumulate_report",
)

TIERS = ("1-E", "2-CA", "2-NCA", "3-NCV")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one op cycle: summed times, self times, counts."""
    total = defaultdict(float)
    child_time = defaultdict(float)
    counts = defaultdict(float)
    accepts = defaultdict(list)
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        if s["parent"] is not None:
            child_time[s["parent"]] += duration
        c = s.get("counts", {})
        counts["records"] += c.get("records", 0)
        counts["chain_iters"] += c.get("chain_iters", 0)
        counts["replications"] += "converged" in c
        counts["converged"] += c.get("converged", 0)
        if "tier" in c:
            counts[c["tier"]] += 1
        for key in ("accept_beta", "accept_effects"):
            if key in c:
                accepts[key].append(c[key])

    def self_time(name):
        return sum(
            s["end"] - s["start"] - child_time[s["id"]]
            for s in spans
            if s["name"] == name
        )

    metrics = {f"{name}_s": total[name] for name in LAYER_TIMES}
    hb_time = total["hb.fit_binary_hb"] + total["hb.fit_gaussian_fh"]
    cells = sum(counts[t] for t in TIERS)
    metrics.update(
        {
            "io.records_per_s": _ratio(counts["records"], total["io.read_sample"]),
            "fitting.self_s": self_time("fitting.fit_all_variables"),
            "hb.chain_iters": counts["chain_iters"],
            "hb.chain_iters_per_s": _ratio(counts["chain_iters"], hb_time),
            "hb.accept_beta": _ratio(sum(accepts["accept_beta"]), len(accepts["accept_beta"])),
            "hb.accept_effects": _ratio(
                sum(accepts["accept_effects"]), len(accepts["accept_effects"])
            ),
            "report.analyze_cell_self_s": self_time("report.analyze_cell"),
            "report.cells_per_s": _ratio(cells, total["report.build_run_report"]),
            "simulate.converged_frac": _ratio(counts["converged"], counts["replications"]),
        }
    )
    for tier in TIERS:
        metrics[f"report.cells_{tier.replace('-', '')}"] = counts[tier]
    return metrics
