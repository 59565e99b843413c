"""The four workloads: operation lists drawn from a workload seed.

An operation is a CLI command run through ``fekete.cli.main`` with stdout
captured, or a call of one public library function.  Parameters come from
``random.Random(f"{workload}/{seed}")`` within ranges where every operation
passes its check; the two ``known_fault`` operations use fixed inputs and fail
on every seed (the companion-root route for s > 1 at n = 100).

Modules are looked up when an operation runs, not when it is built, so the
traced run sees the functions it has wrapped.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import oracles as orc
from checks import Result

WORKLOADS = ("optimize", "closed", "limit", "verify")


@dataclass
class Op:
    label: str
    call: Callable[[], Result]
    check: Callable[[Result], "str | None"]
    known_fault: bool = False
    is_cli: bool = True


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli(argv: list[str], check, known_fault: bool = False) -> Op:
    def call() -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sys.modules["fekete.cli"].main(argv)
        return Result(rc, out.getvalue())
    return Op(" ".join(argv), call, check, known_fault)


def _lib(module: str, func: str, args: tuple, check) -> Op:
    def call() -> Result:
        value = getattr(sys.modules[module], func)(*args)
        return Result(0, repr(value), value)
    shown = tuple(a if np.isscalar(a) else "<grid>" for a in args)
    label = f"{module.split('.')[-1]}.{func}{shown}"
    return Op(label, call, check, is_cli=False)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def optimize_ops(rng: random.Random) -> list[Op]:
    """Multistart optimizer on the line (s > 1, a != 1; s = 1 at small n) and
    the circle (|b| < 1 and |b| > 1), n over a factor of 4.  The iteration
    count climbs as s -> 1+ and |b| -> 1, so s and |b| are drawn from narrow
    ranges: the run-to-run spread of pass_s must stay well inside its bound."""
    a = rng.uniform(1.2, 1.6)
    s = rng.uniform(1.95, 2.05)
    b_in = _signed(rng, 0.34, 0.36)
    b_out = _signed(rng, 2.7, 2.8)
    seed = rng.randrange(1_000_000)
    ops = []
    for n in (12, 24, 48):
        argv = ["real", "--a", _fmt(a), "--s", _fmt(s), "--n", str(n),
                "--method", "optimize", "--seed", str(seed)]
        ops.append(_cli(argv, checks.real_sgt1(a, s, n, optimized=True)))
    for n in (4, 6):
        argv = ["real", "--a", _fmt(a), "--s", "1", "--n", str(n),
                "--method", "optimize", "--seed", str(seed)]
        ops.append(_cli(argv, checks.real_s1(a, n, optimized=True)))
    for b in (b_in, b_out):
        for n in (12, 24, 48):
            argv = ["circle", "--b", _fmt(b), "--n", str(n),
                    "--method", "optimize", "--seed", str(seed)]
            ops.append(_cli(argv, checks.circle(b, n, optimized=True)))
    return ops


def closed_ops(rng: random.Random) -> list[Op]:
    """Closed forms: s > 1 line at the n where companion roots still hold,
    s = 1 line and circle up to n = 1000, bare s > 1 diameters up to 1e5,
    plus the two known-fault operations at n = 100."""
    ops = []
    a = rng.uniform(0.6, 1.6)
    s = rng.uniform(1.5, 2.5)
    for n, fmt in ((8, "json"), (16, "csv"), (32, "json")):
        argv = ["real", "--a", _fmt(a), "--s", _fmt(s), "--n", str(n), "--format", fmt]
        ops.append(_cli(argv, checks.real_sgt1(a, s, n, fmt)))
    ops.append(_cli(["real", "--a", "1", "--s", "2", "--n", "100"],
                    checks.real_sgt1(1.0, 2.0, 100), known_fault=True))
    a1 = rng.uniform(0.6, 1.6)
    for n, fmt in ((250, "json"), (500, "csv"), (1000, "json")):
        gamma = -math.pi / 2 + rng.uniform(0.2, 0.8) * math.pi / n
        argv = ["real", "--a", _fmt(a1), "--s", "1", "--n", str(n),
                "--gamma", _fmt(gamma), "--format", fmt]
        ops.append(_cli(argv, checks.real_s1(a1, n, gamma, fmt)))
    for b in (_signed(rng, 0.2, 0.8), _signed(rng, 1.5, 4.0)):
        for n, fmt in ((250, "json"), (500, "csv"), (1000, "json")):
            alpha = rng.uniform(0.0, 2 * math.pi / n)
            argv = ["circle", "--b", _fmt(b), "--n", str(n), "--alpha", _fmt(alpha),
                    "--format", fmt]
            ops.append(_cli(argv, checks.circle(b, n, alpha, fmt)))
    ns = [5, 10, 20, 50, 100]
    ops.append(_cli(["converge", "--s", "2", "--n-list", ",".join(map(str, ns))],
                    checks.converge(ns, s=2.0), known_fault=True))
    a2 = rng.uniform(0.6, 1.6)
    s2 = rng.uniform(1.5, 3.0)
    for n in (10_000, 30_000, 100_000):
        ops.append(_lib("fekete.real_line", "sgt1_diameter", (a2, s2, n),
                        checks.sgt1_diameter(a2, s2, n)))
    return ops


def limit_ops(rng: random.Random) -> list[Op]:
    """Limit measures: all five families on grids of 3000 points that reach
    5-10 % past the support (see ``edge_grid``), long converge tables for
    the circle and s = 1, and a Frostman check on a grid.  Quadrature
    effort grows as s -> 1+, |b| -> 1 and with the share of the grid inside
    the support, so the parameters and the grid overhang are drawn from
    narrow ranges."""
    ops = []
    count = 3000

    def overhang(reach):
        return reach * rng.uniform(1.05, 1.1)

    def edge_grid(r):
        """lo, hi of a grid 1.05-1.1 times as wide as [-r, r] whose points
        keep half a spacing (at least 4.9e-4) from both edges: within 2.5e-4
        of -r the program's harmonic CDFs are off by up to 4e-9."""
        inside = round((count - 1) / rng.uniform(1.05, 1.1))
        h = 2.0 * r / inside
        left = round((count - 1 - inside) * rng.uniform(0.4, 0.6))
        lo = -r - (left - 0.5) * h
        return lo, lo + (count - 1) * h

    s = rng.uniform(1.8, 2.2)
    b_in = _signed(rng, 0.45, 0.55)
    b_out = _signed(rng, 1.8, 2.2)
    families = [
        (orc.Measure("real-s", s=s), ["--s", _fmt(s)], *edge_grid(orc.support_radius(s)), "json"),
        (orc.Measure("arctan"), [], -rng.uniform(5.0, 6.0), rng.uniform(5.0, 6.0), "csv"),
        (orc.Measure("circle-poisson", b=b_in), ["--b", _fmt(b_in)],
         -rng.uniform(0.1, 0.2), overhang(orc.TWO_PI), "json"),
        (orc.Measure("circle-poisson", b=b_out), ["--b", _fmt(b_out)],
         -rng.uniform(0.1, 0.2), overhang(orc.TWO_PI), "csv"),
    ]
    for fam in ("harmonic-inf", "harmonic-i"):
        r = rng.uniform(1.4, 1.8)
        families.append((orc.Measure(fam, r=r), ["--r", _fmt(r)], *edge_grid(r),
                         "csv" if fam == "harmonic-inf" else "json"))
    for m, params, lo, hi, fmt in families:
        argv = ["measure", "--family", m.family, *params,
                "--grid", f"{_fmt(lo)}:{_fmt(hi)}:{count}", "--format", fmt]
        ops.append(_cli(argv, checks.measure(m, lo, hi, count, fmt)))
    b = _signed(rng, 0.45, 0.55)
    ns = list(range(10, 301, 10))
    ops.append(_cli(["converge", "--b", _fmt(b), "--n-list", ",".join(map(str, ns))],
                    checks.converge(ns, b=b)))
    ns = list(range(10, 1001, 10))
    ops.append(_cli(["converge", "--s", "1", "--n-list", ",".join(map(str, ns)),
                     "--format", "csv"], checks.converge(ns, s=1.0, fmt="csv")))
    sf = rng.uniform(1.8, 2.2)
    reach = orc.support_radius(sf) + 1.0
    grid = np.linspace(-reach, reach, 101) + rng.uniform(-0.01, 0.01)
    ops.append(_lib("fekete.equilibrium", "frostman_check", (sf, grid), checks.frostman(sf)))
    return ops


def verify_ops(rng: random.Random) -> list[Op]:
    """The five self-check suites; they have no parameters to draw."""
    return [_cli(["verify", "--suite", suite], checks.verify_suite(suite))
            for suite in ("poly", "real", "circle", "energy", "equilibrium")]


_OP_LISTS = {"optimize": optimize_ops, "closed": closed_ops, "limit": limit_ops,
             "verify": verify_ops}


def build(workload: str, seed: int) -> list[Op]:
    return _OP_LISTS[workload](random.Random(f"{workload}/{seed}"))
