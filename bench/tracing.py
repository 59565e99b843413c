"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each layer module
(``fekete.poly``, ``real_line``, ``circle``, ``energy``, ``equilibrium``,
``verify``) and rebinds every name that refers to them in every ``fekete``
module namespace: ``cli`` and ``verify`` bind ``roots``, ``pseudo_jacobi``,
``optimize``, ``cdf`` and others by ``from``-import, so patching only the
defining module would miss those calls.  It also wraps ``quad`` as bound in
``fekete.equilibrium`` and ``fekete.cli.main``.

Each wrapped call records a span (name, start, end, parent span, operation
id) in memory.  ``equilibrium.density`` runs once per quadrature node, so it
is counted without a span.  Ascent and polish iterations are read from the
DEBUG records of the ``fekete.energy`` logger.
"""

from __future__ import annotations

import functools
import inspect
import logging
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("poly", "real_line", "circle", "energy", "equilibrium", "verify")
SUITES = ("poly", "real", "circle", "energy", "equilibrium")

# metric prefix -> span names; a span nested inside another of the same
# group is not counted again
GROUPS = {
    "poly.roots": ("poly.roots",),
    "poly.discriminant": ("poly.discriminant_resultant",),
    "real_line.pseudo_jacobi": ("real_line.pseudo_jacobi",),
    "real_line.s1": ("real_line.s1_points", "real_line.s1_polynomial"),
    "real_line.diameter": ("real_line.sgt1_diameter", "real_line.sgt1_diameter_routes",
                           "real_line.s1_diameter"),
    "real_line.jacobi": ("real_line.jacobi",),
    "circle.points": ("circle.circle_points",),
    "circle.mobius": ("circle.mobius",),
    "energy.optimize": ("energy.optimize",),
    "energy.objective": ("energy.log_weighted_vandermonde",),
    "energy.gradient": ("energy.energy_gradient",),
    "equilibrium.cdf": ("equilibrium.cdf",),
    "equilibrium.quad": ("equilibrium.quad",),
    "equilibrium.ks": ("equilibrium.ks_distance",),
    "equilibrium.log_potential": ("equilibrium.log_potential",),
    **{f"verify.{s}": (f"verify.{s}",) for s in SUITES},
}

# (name, unit, better) of every per-layer metric, in output order
METRICS = [
    ("cli.self_s", "s", "lower"), ("cli.out_bytes", "bytes", "lower"),
    ("poly.roots_calls", "count", "lower"), ("poly.roots_s", "s", "lower"),
    ("poly.discriminant_calls", "count", "lower"), ("poly.discriminant_s", "s", "lower"),
    ("real_line.pseudo_jacobi_s", "s", "lower"), ("real_line.s1_s", "s", "lower"),
    ("real_line.diameter_calls", "count", "lower"), ("real_line.diameter_s", "s", "lower"),
    ("real_line.jacobi_calls", "count", "lower"), ("real_line.jacobi_s", "s", "lower"),
    ("circle.points_s", "s", "lower"), ("circle.mobius_calls", "count", "lower"),
    ("energy.optimize_calls", "count", "lower"), ("energy.optimize_s", "s", "lower"),
    ("energy.optimize_self_s", "s", "lower"),
    ("energy.objective_calls", "count", "lower"), ("energy.objective_s", "s", "lower"),
    ("energy.gradient_calls", "count", "lower"), ("energy.gradient_s", "s", "lower"),
    ("energy.ascent_iters", "count", "lower"), ("energy.polish_iters", "count", "lower"),
    ("energy.evals_per_step", "ratio", "lower"),
    ("equilibrium.cdf_calls", "count", "lower"), ("equilibrium.cdf_s", "s", "lower"),
    ("equilibrium.density_calls", "count", "lower"),
    ("equilibrium.quad_calls", "count", "lower"), ("equilibrium.quad_s", "s", "lower"),
    ("equilibrium.ks_s", "s", "lower"),
    ("equilibrium.log_potential_calls", "count", "lower"),
    ("equilibrium.log_potential_s", "s", "lower"),
    *((f"verify.{s}_s", "s", "lower") for s in SUITES),
    ("verify.checks", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class _IterationCounter(logging.Handler):
    """Adds up the per-start iteration counts the optimizer logs at DEBUG."""

    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith("start %d: objective"):
            _, _, ascent, polish = record.args
            self.counts["energy.ascent_iters"] += ascent
            self.counts["energy.polish_iters"] += polish


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn, name_of=None, count_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_of(args) if name_of else name, start, end, parent, self.op)
            if count_of:
                self.counts[count_of[0]] += count_of[1](out)
            return out
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fekete" and not mod_name.startswith("fekete."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    # -- life cycle ---------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            mod = sys.modules[f"fekete.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if (layer, name) == ("equilibrium", "density"):
                    wrapped = self._counted("equilibrium.density_calls", fn)
                elif (layer, name) == ("verify", "run_suite"):
                    wrapped = self._spanned(None, fn, name_of=lambda args: f"verify.{args[0]}",
                                            count_of=("verify.checks", len))
                else:
                    wrapped = self._spanned(f"{layer}.{name}", fn)
                self._rebind(fn, wrapped)
        eq = sys.modules["fekete.equilibrium"]
        self._undo.append((eq, "quad", eq.quad))
        eq.quad = self._spanned("equilibrium.quad", eq.quad)
        cli = sys.modules["fekete.cli"]
        self._undo.append((cli, "main", cli.main))
        cli.main = self._spanned("cli.main", cli.main)

        # The CLI adds a NullHandler to the "fekete" logger on every main()
        # call; not propagating keeps the DEBUG records away from that growing
        # list, so tracing costs the same on the first call and the last.
        logger = logging.getLogger("fekete.energy")
        handler = _IterationCounter(self.counts)
        saved = (logger.level, logger.propagate)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        logger.addHandler(handler)
        self._logger_state = (logger, handler, saved)

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        logger, handler, (level, propagate) = self._logger_state
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)


def layer_metrics(spans: list[tuple], offset: int, counts: Counter) -> dict[str, float]:
    """Per-layer values over ``spans``, a slice that starts at index
    ``offset`` of the tracer's list, and the counts recorded with it.  A
    parent outside the slice reads as no parent."""
    names = [sp[0] for sp in spans]
    dur = [sp[2] - sp[1] for sp in spans]
    parent = [sp[3] - offset if sp[3] >= offset else -1 for sp in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]

    def has_ancestor(i, members):
        p = parent[i]
        while p >= 0:
            if names[p] in members:
                return True
            p = parent[p]
        return False

    out: dict[str, float] = {}
    for prefix, members in GROUPS.items():
        top = [i for i, nm in enumerate(names) if nm in members and not has_ancestor(i, members)]
        out[f"{prefix}_calls"] = len(top)
        out[f"{prefix}_s"] = sum(dur[i] for i in top)
    def self_time(name):
        return sum(dur[i] - child_time[i] for i, nm in enumerate(names) if nm == name)

    out["cli.self_s"] = self_time("cli.main")
    out["energy.optimize_self_s"] = self_time("energy.optimize")
    in_optimize = sum(1 for i, nm in enumerate(names)
                      if nm == "energy.log_weighted_vandermonde"
                      and has_ancestor(i, ("energy.optimize",)))
    steps = counts["energy.ascent_iters"] + counts["energy.polish_iters"]
    out["energy.evals_per_step"] = in_optimize / steps if steps else 0.0
    for key in ("cli.out_bytes", "equilibrium.density_calls", "energy.ascent_iters",
                "energy.polish_iters", "verify.checks"):
        out[key] = counts[key]
    return out

