"""Command-line interface.

Commands
--------
real      weighted Fekete sets on the line (closed form or optimizer)
circle    weighted Fekete sets on the unit circle
measure   density/CDF samples of the limit measure families
converge  diameter-vs-capacity tables with a weak* convergence diagnostic
verify    run the self-check batteries

Data goes to stdout (or --out), messages to stderr, never a traceback.  Exit
codes: 0 success, 1 verification failure or points the command built that
coincide in double precision, 2 invalid input, an --out that cannot be
written (no partial file is left) or memory that cannot be allocated, 3
optimizer did not converge (the partial result is still emitted), 141 (128 +
SIGPIPE) when the reader closes stdout.  Floats are printed with 17
significant digits so that parsing the output recovers the exact binary
values.  The environment variable FEKETE_LOG in {off, info, debug} controls
diagnostic verbosity on stderr; nothing else is read from the environment.

main(argv) may be called any number of times in one process, and each call
prints what a fresh process prints for the same argv: the parser is built
once per process, on the first call, and FEKETE_LOG is read on every call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .circle import CircleWeight, circle_diameter, circle_log_diameter, circle_points
from .energy import RESIDUAL_TOL, energy_gradient, optimize
from .equilibrium import (
    MeasureSpec,
    capacity_circle,
    capacity_real,
    cdf,
    density,
    ks_distance,
)
from .errors import DegenerateInputError, FeketeError, InvalidInputError, NumericalError
from .real_line import (
    RealWeight,
    canonical_gamma,
    s1_diameter,
    s1_points,
    sgt1_log_diameter,
    sgt1_points,
)

log = logging.getLogger("fekete")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NOT_CONVERGED = 3

# fekete.verify.SUITES, spelled out so that building the parser does not
# load the oracles
VERIFY_SUITES = ("poly", "real", "circle", "energy", "equilibrium")


# the cells written as "%.17g"; any other cell is written as its own text
_FLOAT_TYPES = (float, np.floating)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID_INPUT):
        super().__init__(message)
        self.code = code


class _Rows:
    """A table under a header, held as its cells row by row in one flat
    list, len(header) to a row.  It is written once, as a JSON list of
    objects keyed by the header (_to_json) or as a CSV table (_to_csv);
    writing overwrites its cells that are not floats with their text."""

    def __init__(self, header, cells: list):
        self.header, self.cells = header, cells


def _render_rows(cells: list, cell, prefixes, end: str) -> str:
    """The rows of cells, a row-major list of len(prefixes) cells to a row:
    each row as prefixes[k] + cell k for every k, then end, all formatted by
    one % operation on one row template.  A column whose first cell is a
    float or np.floating takes "%.17g"; any other takes "%s" of cell(v),
    written over its cells in the list.  Every cell of a column has its
    first cell's type, and no prefix holds a "%".  The types are read from
    the first row alone: one wide row (a flat list, a CSV result) costs one
    isinstance per cell beyond its formatting, a tall table one per
    column."""
    width = len(prefixes)
    formats = ["%.17g"] * width
    for k, v in enumerate(cells[:width]):
        if not isinstance(v, _FLOAT_TYPES):
            formats[k] = "%s"
            cells[k::width] = map(cell, cells[k::width])
    pieces = [None] * (2 * width)
    pieces[::2], pieces[1::2] = prefixes, formats
    return ("".join(pieces) + end) * (len(cells) // width) % tuple(cells)


def _to_json(value) -> str:
    """Minimal JSON serializer with fixed key order and 17-digit floats.  A
    list is formatted by one % operation: as one wide row of its items, on a
    copy, or, when every item is a list of one nonzero length (the cartesian
    pairs), as rows of their items chained end to end."""
    if type(value) is float:
        return format(value, ".17g")
    if isinstance(value, dict):
        return "{" + ", ".join([f'"{k}": {_to_json(v)}' for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        width = len(value[0]) if value and isinstance(value[0], (list, tuple)) else 0
        if width and all(isinstance(v, (list, tuple)) and len(v) == width for v in value):
            prefixes = ["["] + [", "] * (width - 1)
            cells = list(itertools.chain.from_iterable(value))
            return "[" + _render_rows(cells, _to_json, prefixes, "], ")[:-2] + "]"
        prefixes = [""] + [", "] * (len(value) - 1)
        return "[" + _render_rows(list(value), _to_json, prefixes, "") + "]"
    if isinstance(value, _Rows):
        keys = [f'"{k}": ' for k in value.header]
        prefixes = ["{" + keys[0]] + [", " + k for k in keys[1:]]
        return "[" + _render_rows(value.cells, _to_json, prefixes, "}, ")[:-2] + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, _FLOAT_TYPES):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _to_csv(header, cells: list) -> str:
    """The header and the rows of the row-major list cells (overwritten),
    comma-separated and ending in CRLF, as csv.writer writes them: no cell
    is None or holds a comma, a quote or a line break, so none is quoted or
    blanked."""
    prefixes = [""] + [","] * (len(header) - 1)
    return ",".join(header) + "\r\n" + _render_rows(cells, str, prefixes, "\r\n")


def _emit(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout, flushed so that a reader that
    has gone shows here.  An OSError of the file is a CliError; a regular
    file opened and left partly written is removed."""
    if not out_path:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    fh = None
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if fh is not None and os.path.isfile(out_path):
            os.remove(out_path)
        raise CliError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    log.info("wrote %s", out_path)


def _write(args, payload: dict, table) -> None:
    """The one output of real, circle, measure and converge: payload as a
    JSON line, or with --format csv the _Rows that table() builds."""
    if args.format == "csv":
        rows = table()
        _emit(_to_csv(rows.header, rows.cells), args.out)
    else:
        _emit(_to_json(payload) + "\n", args.out)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _closed_line(weight: RealWeight, n: int, gamma: float | None = None):
    """Closed-form points, log diameter and phase on the line: the arctangent
    progression at s = 1 (phase gamma, canonical by default), the
    Jacobi-matrix eigenvalues with no phase for s > 1."""
    if weight.s == 1.0:
        gamma = gamma if gamma is not None else canonical_gamma(n)
        return s1_points(weight.a, n, gamma), math.log(s1_diameter(weight.a, n)), gamma
    return (sgt1_points(weight.a, weight.s, n),
            sgt1_log_diameter(weight.a, weight.s, n), None)


def _cmd_points(args) -> int:
    """real and circle: one weighted Fekete set and its diameter, from the
    optimizer or the closed form (_closed_line, circle_points).  L =
    log_diameter must be finite and exp(L) at most the double range's top
    (an exp(L) below it prints as 0); only then is the gradient of
    closed-form points taken, since that of such points overflows.  Exit 3
    if and only if the optimizer did not converge; its best iterate is
    still written."""
    line = args.command == "real"
    if line:
        weight = RealWeight(a=args.a, s=args.s)
        params = {"command": "real", "a": weight.a, "s": weight.s}
    else:
        weight = CircleWeight(args.b)
        params = {"command": "circle", "b": weight.b}
    params.update(n=args.n, method=args.method, seed=args.seed)
    res, extra = None, {}
    if args.method == "optimize":
        log.info("optimizing %d points", args.n)
        res = optimize(weight, args.n)
        points, log_diameter = res.points, res.log_diameter
        grad_norm = res.grad_norm
        extra = {"iterations": res.iterations, "converged": res.converged}
        if not line:
            extra["cartesian"] = [[math.cos(t), math.sin(t)] for t in points]
    elif line:
        points, log_diameter, gamma = _closed_line(weight, args.n, args.gamma)
        if gamma is not None:
            params["gamma"] = gamma
    else:
        params["alpha"] = args.alpha if args.alpha is not None else 0.0
        sol = circle_points(weight.b, args.n, params["alpha"])
        points, log_diameter = sol.angles, circle_log_diameter(weight.b, args.n)
        extra = {"cartesian": [[z.real, z.imag] for z in sol.points]}

    if not math.isfinite(log_diameter):
        raise CliError(f"the log diameter is {log_diameter}: an intermediate value "
                       "left the double range")
    try:
        diameter = math.exp(log_diameter)
    except OverflowError:
        raise CliError("the weighted diameter exp(L) exceeds the double range") from None
    points = np.asarray(points, dtype=float)
    if res is None:
        try:
            grad_norm = float(np.max(np.abs(energy_gradient(points, weight))))
        except DegenerateInputError:
            # the closed form's points, distinct in exact arithmetic, were
            # not passed in: rounding lost them in their construction
            raise NumericalError(f"the {len(points)} points built for {weight!r} coincide "
                                 "in double precision: gradient undefined") from None
    payload = {"params": params, "points": points.tolist(), "log_diameter": log_diameter,
               "diameter": diameter, "energy": -log_diameter, "grad_norm": grad_norm,
               **extra}
    # the optimizer's iterations and converged follow grad_norm, as in JSON
    keys = ("log_diameter", "diameter", "energy", "grad_norm",
            *(("iterations", "converged") if res is not None else ()))
    _write(args, payload, lambda: _Rows(
        [*params, *keys, *(f"point_{k}" for k in range(len(points)))],
        [*params.values(), *(payload[k] for k in keys), *payload["points"]]))
    if res is not None and not res.converged:
        print("optimizer did not reach the scaled stationarity residual "
              f"{RESIDUAL_TOL:g}; best iterate emitted", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(f"grid must look like lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid {spec!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"grid bounds must be finite, got {spec!r}")
    if count < 1 or hi < lo:
        raise CliError("grid needs hi >= lo and count >= 1")
    if not math.isfinite(hi - lo):
        raise CliError(f"grid span hi - lo exceeds the double range, got {spec!r}")
    # with hi - lo at the top of the range, linspace's last step may round
    # past it; linspace then sets that point to hi
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, count)


_FAMILY_PARAMETER = {
    "real-s": ("s", MeasureSpec.real_sgt1),
    "circle-poisson": ("b", MeasureSpec.circle_poisson),
    "harmonic-inf": ("r", MeasureSpec.harmonic_inf),
    "harmonic-i": ("r", MeasureSpec.harmonic_i),
}


def _measure_from_args(args) -> MeasureSpec:
    if args.family == "arctan":
        return MeasureSpec.arctan()
    name, make = _FAMILY_PARAMETER[args.family]
    value = getattr(args, name)
    if value is None:
        raise CliError(f"family {args.family} needs --{name}")
    return make(value)


def _cmd_measure(args) -> int:
    m = _measure_from_args(args)
    grid = _parse_grid(args.grid)
    lo, hi = m.support
    if math.isfinite(lo):
        # clip to the support and pin the endpoints as first/last rows
        grid = np.concatenate(([lo], grid[(grid > lo) & (grid < hi)], [hi]))
    cells = [None] * (3 * len(grid))
    cells[::3], cells[1::3], cells[2::3] = (grid.tolist(), density(m, grid).tolist(),
                                            cdf(m, grid).tolist())
    table = _Rows(("x", "density", "cdf"), cells)
    params = {k: v for k, v in (("s", m.s), ("b", m.b), ("r", m.r)) if v is not None}
    _write(args, {"family": m.family, "params": params, "rows": table}, lambda: table)
    return EXIT_OK


def _parse_n_list(spec: str) -> list[int]:
    try:
        ns = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad n-list {spec!r}: {exc}") from None
    if not ns or any(n < 2 for n in ns):
        raise CliError("n-list entries must be integers >= 2")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise CliError("n-list must be strictly increasing")
    return ns


def _cmd_converge(args) -> int:
    if (args.s is None) == (args.b is None):
        raise CliError("give exactly one of --s (line) or --b (circle)")
    ns = _parse_n_list(args.n_list)
    if args.s is not None:
        cap = capacity_real(args.s)
        weight = RealWeight(1.0, args.s)
        m = MeasureSpec.arctan() if weight.s == 1.0 else MeasureSpec.real_sgt1(weight.s)
    else:
        cap, m = capacity_circle(args.b), MeasureSpec.circle_poisson(args.b)
    cells = []
    for n in ns:
        if args.s is not None:
            pts, log_delta, _ = _closed_line(weight, n)
            delta = math.exp(log_delta)
        else:
            delta = circle_diameter(args.b, n)
            pts = circle_points(args.b, n, 0.0).angles
        cells += (n, delta, cap, delta - cap, ks_distance(pts, m))
    table = _Rows(("n", "delta_n", "capacity", "delta_minus_capacity", "ks_distance"), cells)
    _write(args, {"rows": table}, lambda: table)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the oracles are loaded by this command only
    from .verify import SUITES, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names)
    failed = [r.name for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed"
    _emit("".join(r.line() + "\n" for r in results) + summary + "\n", args.out)
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fekete",
        description="Weighted Fekete points on the real line and the unit circle",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = "echoed in params; the optimizer is deterministic and draws nothing from it"

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    def points(name, help, weight, phase, phase_help):
        p = sub.add_parser(name, help=help)
        for option in weight:
            p.add_argument(option, type=float, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--method", choices=("closed", "optimize"), default="closed")
        p.add_argument(phase, type=float, default=None, help=phase_help)
        p.add_argument("--seed", type=_seed, default=0, help=seed_help)
        common(p)
        p.set_defaults(handler=_cmd_points)

    points("real", "Fekete sets for w(x) = |x - ai|^-s on the line", ("--a", "--s"),
           "--gamma", "free phase for s = 1 (default: symmetric choice)")
    points("circle", "Fekete sets for w(z) = 1/|z - b| on the circle", ("--b",),
           "--alpha", "free rotation of the preimage grid (default 0)")

    p = sub.add_parser("measure", help="sample a limit measure density and CDF")
    p.add_argument("--family", required=True, choices=(
        "real-s", "arctan", "circle-poisson", "harmonic-inf", "harmonic-i"))
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    common(p)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("converge", help="diameter vs capacity over a list of n")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma-separated, strictly increasing")
    common(p)
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("verify", help="run the self-check batteries")
    p.add_argument("--suite", choices=VERIFY_SUITES + ("all",), default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: parsing leaves no
    state on it, and help and usage are formatted from the terminal width
    of the moment."""
    return build_parser()


_LOG_LEVELS = {"off": logging.NOTSET, "info": logging.INFO, "debug": logging.DEBUG}
_log_handler = logging.StreamHandler()
_log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging() -> None:
    """Set the "fekete" logger from FEKETE_LOG: at info or debug it writes to
    the current sys.stderr through one handler; off (or an unknown value)
    removes that handler and resets the level to NOTSET, as at import.
    Records still propagate, and no other logger is touched."""
    level_name = os.environ.get("FEKETE_LOG", "off").lower()
    if level_name not in _LOG_LEVELS:
        print(f"ignoring unknown FEKETE_LOG value {level_name!r}", file=sys.stderr)
        level_name = "off"
    log.setLevel(_LOG_LEVELS[level_name])
    if level_name == "off":
        log.removeHandler(_log_handler)
    else:
        _log_handler.stream = sys.stderr
        log.addHandler(_log_handler)


_VALUE_OPTIONS = {"--a", "--s", "--b", "--r", "--n", "--gamma", "--alpha",
                  "--grid", "--n-list", "--seed"}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Merge '--opt -value' pairs so argparse does not read negative values
    (e.g. a grid '-2:2:5') as option flags."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTIONS and tok.startswith("-") and tok[:2] != "--":
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    _configure_logging()
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_join_dash_values(list(argv)))
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered for it goes to
        # devnull, so that the interpreter's last flush does not fail again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # a stdout with no descriptor of its own
            pass
        return 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe killed
    except CliError as exc:
        message, code = str(exc), exc.code
    except InvalidInputError as exc:
        message, code = str(exc), EXIT_INVALID_INPUT
    except FeketeError as exc:
        message, code = str(exc), EXIT_VERIFY_FAILED
    except MemoryError as exc:
        message, code = f"not enough memory: {exc}", EXIT_INVALID_INPUT
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
