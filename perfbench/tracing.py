"""Per-layer spans recorded from outside the program.

The tracer wraps, by name, the public functions that one pointgap module
calls in another, and patches every loaded binding of each name (a
``from .spectral import factor_shifted`` in topology holds its own
reference). Names are looked up when the tracer is installed: a name the
program no longer has leaves its layer metrics absent instead of failing.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans plus the remainder (program time
outside any wrapped function) add up to the traced wall time.

Per-element helpers such as ``fock.apply_ops`` are deliberately not wrapped:
they run once per matrix element, and wrapping them would measure the
tracer. Their cost stays in the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

COMPLEX_LU_FLOPS = 8.0 / 3.0  # real flops per d^3 of a complex LU


def _dim(matrix):
    return int(np.shape(getattr(matrix, "entries", matrix))[0])


class Tracer:
    """In-memory span accumulator with per-metric self time and counters."""

    def __init__(self):
        self.stack = []          # [metric, child_seconds] per open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.spans = 0
        self.present = set()     # metrics with at least one wrapped name
        self._patches = []       # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def wrap(self, metric, fn, after=None):
        """``fn`` timed as ``metric``; ``after(tracer, args, kwargs, result)``
        records counters. ``metric`` may be a callable of the parent metric."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = metric(tracer.parent()) if callable(metric) else metric
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.self_s[name] += dt - frame[1]
                tracer.calls[name] += 1
                tracer.spans += 1
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError,
                        ValueError):
                    pass  # a changed result shape leaves a counter short, not a task failed
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets):
        """Patch each (module, attribute path, metric, after) that exists."""
        for module_name, path, metric, after in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner, attr = module, path
            if "." in path:  # Class.method
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
                if owner is None:
                    continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None or not callable(original):
                continue
            wrapped = self.wrap(metric, original, after)
            self.present.update(metric_names(metric))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if (mod is module or _is_pointgap(mod)) and vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _is_pointgap(mod):
    name = getattr(mod, "__name__", "") or ""
    return name == "pointgap" or name.startswith("pointgap.")


def metric_names(metric):
    if callable(metric):
        return {metric(None), metric("topology.winding")}
    return {metric}


# ---------------------------------------------------------------------------
# counters computed at the layer boundaries
# ---------------------------------------------------------------------------

def _basis(tracer, args, kwargs, result):
    tracer.maxima["fock.basis_dim"] = max(tracer.maxima["fock.basis_dim"],
                                          float(getattr(result, "dim", 0)))


def _coo(tracer, args, kwargs, result):
    tracer.maxima["models.nnz"] = max(tracer.maxima["models.nnz"],
                                      float(len(result[0])))


def _assembled(tracer, args, kwargs, result):
    tracer.counts["models.assemble_bytes"] += float(
        np.asarray(getattr(result, "entries", result)).nbytes)


def _lu(tracer, args, kwargs, result):
    tracer.counts["spectral.lu_flops"] += COMPLEX_LU_FLOPS * _dim(args[0]) ** 3


def _margin_point(tracer, args, kwargs, result):
    """A gap-margin evaluation is an eigvals or sigma call made by a winding."""
    if (tracer.parent() or "").startswith("topology."):
        tracer.counts["topology.margin_points"] += 1


def _eigvals(parent):
    if (parent or "").startswith("topology."):
        return "topology.margin_eigvals"
    return "spectral.flow_eigvals"


def _winding(original):
    try:
        signature = inspect.signature(original)
    except (TypeError, ValueError):
        signature = None

    def after(tracer, args, kwargs, result):
        parts = [getattr(result, k) for k in ("up", "down") if hasattr(result, k)]
        parts = parts or [result]
        n_grid = None
        if signature is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n_grid = bound.arguments.get("n_grid")
            except TypeError:
                n_grid = None
        for part in parts:
            tracer.counts["topology.windings"] += 1
            evals = getattr(part, "grid_size_used", 0)
            tracer.counts["topology.phase_evals"] += evals
            if n_grid is not None:
                tracer.counts["topology.base_points"] += n_grid + 1
                tracer.counts["topology.refinements"] += evals - (n_grid + 1)
            tracer.maxima["topology.max_phase_step"] = max(
                tracer.maxima["topology.max_phase_step"],
                float(getattr(part, "max_phase_step", 0.0)))
    return after


def _written(tracer, args, kwargs, result):
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _winding_target(name):
    module = sys.modules.get("pointgap.topology")
    original = getattr(module, name, None)
    return ("pointgap.topology", name, "topology.winding",
            _winding(original) if original is not None else None)


def targets():
    """(module, attribute path, metric, counter) for every wrapped name."""
    importlib.import_module("pointgap.cli")  # loads every layer
    return [
        ("pointgap.fock", "enumerate_sector", "fock.enumerate", _basis),
        ("pointgap.models", "dot_terms", "models.terms", None),
        ("pointgap.models", "chain_terms", "models.terms", None),
        ("pointgap.models", "terms_to_coo", "models.terms", _coo),
        ("pointgap.models", "SectorModel.matrix", "models.assemble", _assembled),
        ("pointgap.spectral", "factor_shifted", "spectral.lu", _lu),
        ("pointgap.spectral", "phase_from_factors", "spectral.phase", None),
        ("pointgap.spectral", "sigma_min_from_factors", "spectral.sigma", _margin_point),
        ("pointgap.spectral", "eigendecompose", "spectral.eig", None),
        ("pointgap.spectral", "sweep_theta", "spectral.sweep", None),
        ("pointgap.spectral", "sweep_deformation", "spectral.sweep", None),
        ("numpy.linalg", "eigvals", _eigvals, _margin_point),
        _winding_target("many_body_winding"),
        _winding_target("one_body_winding"),
        _winding_target("spin_winding"),
        ("pointgap.observables", "occupation_profiles", "observables.occupations", None),
        ("pointgap.observables", "product_state_profiles", "observables.product", None),
        ("pointgap.observables", "directed_hausdorff_distance", "observables.hausdorff", None),
        ("pointgap.observables", "boundary_sensitivity", "observables.boundary", None),
        ("pointgap.cli", "write_flow_csv", "cli.write", _written),
        ("pointgap.cli", "write_deform_csv", "cli.write", _written),
        ("pointgap.cli", "write_spectrum_csv", "cli.write", _written),
        ("pointgap.cli", "write_occupations_csv", "cli.write", _written),
        ("pointgap.cli", "_write_json", "cli.write", _written),
        ("pointgap.cli", "_sha256", "cli.hash", None),
    ]


# metric name -> (unit, source) for the traced run's report; "self" reads a
# span's self time, "calls" its call count, anything else a counter
LAYER_METRICS = {
    "fock.enumerate_s": ("s", "fock.enumerate", "self"),
    "fock.enumerate_calls": ("count", "fock.enumerate", "calls"),
    "fock.basis_dim": ("count", "fock.enumerate", "max"),
    "models.terms_s": ("s", "models.terms", "self"),
    "models.terms_calls": ("count", "models.terms", "calls"),
    "models.nnz": ("count", "models.terms", "max"),
    "models.assemble_s": ("s", "models.assemble", "self"),
    "models.assemble_calls": ("count", "models.assemble", "calls"),
    "models.assemble_bytes": ("B", "models.assemble", "count"),
    "spectral.lu_s": ("s", "spectral.lu", "self"),
    "spectral.lu_calls": ("count", "spectral.lu", "calls"),
    "spectral.lu_flops": ("flop", "spectral.lu", "count"),
    "spectral.phase_s": ("s", "spectral.phase", "self"),
    "spectral.sigma_s": ("s", "spectral.sigma", "self"),
    "spectral.sigma_calls": ("count", "spectral.sigma", "calls"),
    "spectral.flow_eigvals_s": ("s", "spectral.flow_eigvals", "self"),
    "spectral.flow_eigvals_calls": ("count", "spectral.flow_eigvals", "calls"),
    "spectral.eig_s": ("s", "spectral.eig", "self"),
    "spectral.sweep_s": ("s", "spectral.sweep", "self"),
    "topology.winding_s": ("s", "topology.winding", "self"),
    "topology.windings": ("count", "topology.winding", "count"),
    "topology.phase_evals": ("count", "topology.winding", "count"),
    "topology.refinements": ("count", "topology.winding", "count"),
    "topology.margin_eigvals_s": ("s", "topology.margin_eigvals", "self"),
    "topology.margin_eigvals_calls": ("count", "topology.margin_eigvals", "calls"),
    "topology.margin_coverage": ("ratio", "topology.winding", "coverage"),
    "topology.max_phase_step": ("rad", "topology.winding", "max"),
    "observables.occupations_s": ("s", "observables.occupations", "self"),
    "observables.product_s": ("s", "observables.product", "self"),
    "observables.hausdorff_s": ("s", "observables.hausdorff", "self"),
    "observables.boundary_s": ("s", "observables.boundary", "self"),
    "cli.write_s": ("s", "cli.write", "self"),
    "cli.hash_s": ("s", "cli.hash", "self"),
    "cli.bytes_written": ("B", "cli.write", "count"),
}


def layer_report(tracer, passes):
    """Per-pass layer metrics (totals over ``passes`` traced passes).

    Metrics whose every wrapped name is missing from the program are left
    out; the caller lists them as absent.
    """
    out = {}
    for name, (unit, source, kind) in LAYER_METRICS.items():
        if source not in tracer.present:
            continue
        if kind == "self":
            value = tracer.self_s[source] / passes
        elif kind == "calls":
            value = tracer.calls[source] / passes
        elif kind == "max":
            value = tracer.maxima[name]
        elif kind == "coverage":
            base = tracer.counts["topology.base_points"]
            value = tracer.counts["topology.margin_points"] / base if base else 0.0
        else:
            value = tracer.counts[name] / passes
        out[name] = {"value": value, "unit": unit}
    return out


def self_total(tracer):
    """Sum of all spans' self times (equals the summed top-level spans)."""
    return sum(tracer.self_s.values())
