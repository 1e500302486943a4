"""Spans around linkopt's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each traced function at every place a linkopt
module binds it (``optimizer.waterfall_threshold`` as well as
``per.waterfall_threshold``, and the ``validation.ALL_CHECKS`` tuple), plus
the attribute on the scipy module for the two scipy routines linkopt calls.
Each call records a span: name, parent span, operation id, start and end.
Spans stay in memory; ``write_spans`` saves them once the run ends.

A span's self time is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from array import array

# Traced functions by home module; each becomes <module>.<function>.calls and
# <module>.<function>.self_s in the per-layer metrics.
LINKOPT_FUNCTIONS = {
    "config": ("parse_config",),
    "per": (
        "waterfall_threshold", "per_rayleigh", "snr_min", "payload_max",
        "waterfall_threshold_numeric", "per_rayleigh_exact",
    ),
    "energy": ("energy_coefficients", "e0", "pa_power"),
    "optimizer": (
        "optimal_snr_quadratic", "optimal_snr_tpa", "solve_candidate",
        "joint_optimize",
    ),
    "lifetime": ("lifetime", "lifetime_gain"),
    "validation": (
        "check_waterfall_closed_vs_numeric", "check_per_error_vs_bound",
        "check_per_monotonicity", "check_exact_below_bound",
        "check_snr_min_roundtrip", "check_payload_max_roundtrip",
        "check_snr_optima_vs_golden", "check_payload_optima_vs_golden",
        "check_tpa_root_crosscheck", "check_pa_saturation",
        "check_e0_ordering", "check_avg_transmissions",
        "check_scale_invariance", "check_multistart_agreement",
        "check_conditioning_snr_min", "check_conditioning_snr_max",
        "check_feasibility_prefix", "write_per_error_table",
    ),
    "cli": ("cmd_optimize", "cmd_sweep", "cmd_lifetime", "cmd_validate"),
}

# Library routines linkopt calls, by span name: (module, attribute).
FOREIGN_FUNCTIONS = {
    "per.quad": ("scipy.integrate", "quad"),
    "optimizer.brentq": ("scipy.optimize", "brentq"),
}

LINKOPT_MODULES = (
    "linkopt", "linkopt.config", "linkopt.per", "linkopt.energy",
    "linkopt.optimizer", "linkopt.lifetime", "linkopt.validation",
    "linkopt.cli",
)

PAS = ("cpa", "tpa", "etpa")


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, funcs in LINKOPT_FUNCTIONS.items() for f in funcs]
    return names + list(FOREIGN_FUNCTIONS)


def _joint_optimize_label(args, kwargs, result) -> str:
    pa = kwargs["pa"] if "pa" in kwargs else args[2]
    return f"{pa.variant.value}:{'feasible' if result.feasible else 'infeasible'}"


def _solve_candidate_label(args, kwargs, result) -> str:
    return "feasible" if result[0] is not None else "rejected"


LABELLERS = {
    "optimizer.joint_optimize": _joint_optimize_label,
    "optimizer.solve_candidate": _solve_candidate_label,
}


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.labels: dict[int, str] = {}
        self.stack: list[int] = []
        self.current_op = 0
        self.missing: list[str] = []

    def _wrap(self, name: str, func):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        labeller = LABELLERS.get(name)
        stack, perf = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = perf()
                stack.pop()
            if labeller is not None:
                self.labels[index] = labeller(args, kwargs, result)
            return result

        return traced

    def _targets(self) -> dict[int, tuple[str, object, list]]:
        """id(function) -> (span name, function, [(owner, attribute)])."""
        targets = {}
        for module_name, funcs in LINKOPT_FUNCTIONS.items():
            module = importlib.import_module(f"linkopt.{module_name}")
            for fname in funcs:
                func = getattr(module, fname, None)
                if func is None:
                    self.missing.append(f"{module_name}.{fname}")
                    continue
                targets[id(func)] = (f"{module_name}.{fname}", func, [])
        for name, (module_name, attr) in FOREIGN_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            targets[id(func)] = (name, func, [(module, attr)])
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        targets = self._targets()
        wrapped = {key: self._wrap(name, func) for key, (name, func, _) in targets.items()}
        patches = [(owner, attr, getattr(owner, attr))
                   for _, _, owners in targets.values() for owner, attr in owners]
        for module_name in LINKOPT_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and value is targets[id(value)][1]:
                    patches.append((module, attr, value))
                elif isinstance(value, tuple) and any(
                        id(v) in wrapped for v in value):
                    patches.append((module, attr, value))
        try:
            for owner, attr, value in patches:
                if isinstance(value, tuple):
                    setattr(owner, attr, tuple(wrapped.get(id(v), v) for v in value))
                else:
                    setattr(owner, attr, wrapped[id(value)])
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self.start)):
            lo, hi = self.start[index], self.end[index]
            covered = 0.0
            reach = lo
            for child in sorted(children.get(index, ()), key=self.start.__getitem__):
                c_lo = max(self.start[child], reach)
                c_hi = min(self.end[child], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            result.append(hi - lo - covered)
        return result

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass calls and self time of every traced function, plus the
        optimizer's per-point times, feasible ratios and iteration count."""
        self_s = self.self_times()
        calls = {name: 0 for name in span_names()}
        total = {name: 0.0 for name in span_names()}
        for index, nid in enumerate(self.name_id):
            name = self.names[nid]
            calls[name] += 1
            total[name] += self_s[index]
        metrics: dict[str, tuple[float, str]] = {}
        for name in span_names():
            metrics[f"{name}.calls"] = (calls[name] / passes, "count")
            metrics[f"{name}.self_s"] = (total[name] / passes, "s")

        durations: dict[str, list[float]] = {}
        for index, label in self.labels.items():
            name = self.names[self.name_id[index]]
            key = f"{name}:{label}"
            durations.setdefault(key, []).append(self.end[index] - self.start[index])
        for pa in PAS:
            for outcome in ("feasible", "infeasible"):
                values = durations.get(f"optimizer.joint_optimize:{pa}:{outcome}")
                ms = 1e3 * statistics.median(values) if values else 0.0
                metrics[f"optimizer.joint_optimize.{pa}.{outcome}_ms"] = (ms, "ms")

        jo_total = calls["optimizer.joint_optimize"]
        jo_ok = sum(len(durations.get(f"optimizer.joint_optimize:{pa}:feasible", ()))
                    for pa in PAS)
        sc_total = calls["optimizer.solve_candidate"]
        sc_ok = len(durations.get("optimizer.solve_candidate:feasible", ()))
        metrics["optimizer.joint_optimize.feasible_ratio"] = (
            jo_ok / jo_total if jo_total else 0.0, "ratio")
        metrics["optimizer.solve_candidate.feasible_ratio"] = (
            sc_ok / sc_total if sc_total else 0.0, "ratio")

        solve_id = self._name_ids.get("optimizer.solve_candidate")
        snr_ids = {self._name_ids.get("optimizer.optimal_snr_quadratic"),
                   self._name_ids.get("optimizer.optimal_snr_tpa")} - {None}
        inner = sum(
            1 for index, nid in enumerate(self.name_id)
            if nid in snr_ids and self.parent[index] >= 0
            and self.name_id[self.parent[index]] == solve_id
        )
        metrics["optimizer.snr_optimum_calls_per_candidate"] = (
            inner / sc_total if sc_total else 0.0, "count")
        return metrics

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent, op, name, start, end, label."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\top\tname\tstart_s\tend_s\tlabel\n")
            for index in range(len(self.start)):
                handle.write(
                    f"{index}\t{self.parent[index]}\t{self.op[index]}\t"
                    f"{self.names[self.name_id[index]]}\t{self.start[index]!r}\t"
                    f"{self.end[index]!r}\t{self.labels.get(index, '')}\n"
                )
