"""The golden output corpus: CLI invocations with their recorded results.

    PYTHONPATH=src python tests/golden/corpus.py            # rewrite the corpus
    PYTHONPATH=src python tests/golden/corpus.py --check    # compare, report

Each case in CASES is run through ``fekete.cli.main`` in this process, with
FEKETE_LOG unset and COLUMNS=80.  Regenerating writes ``cases.json`` (the
argv, exit code and stderr of each case) and ``<name>.out`` (its stdout)
next to this file, so an intended change of output is one reviewed diff.
``--check`` reruns every case and prints, per case, ``bytes`` when stdout,
stderr and exit code equal the recorded ones byte for byte, ``budget`` when
they differ only in floats within the budgets below, and ``FAIL`` otherwise;
it exits 1 on any FAIL.

Comparison.  Text is split into number tokens and the text between them.
The text between, and every token that prints as an integer on both sides,
must match exactly.  Every other token is compared as a float y (recorded)
against x (new), |x - y| <= budget, by the field it belongs to: its JSON key,
its CSV column (``point_k`` columns are one field, ``points``) or the
``name=`` before it.  M_F is the largest |y| of field F in the recorded
output.

- Closed forms, ``measure`` and ``converge``: 4 eps M_F, eps = 2^-52.  For a
  field of one value that is 4 to 8 ulps of it; for a point list it is an
  absolute error of 4 eps times the largest point, the error model of
  eigenvalues and of angles, which also covers a middle point at odd n
  that is 0 up to rounding.
- Rounding-level fields, ``grad_norm``: 2^4 |y|.  A gradient norm at a
  stationary set is a sum that cancels to its rounding, so any other
  rounding moves it by a factor of order 1; only its order of magnitude is
  kept, and a recorded 0 must stay 0.
- ``verify``'s ``residual=``: the tolerance printed on its line; the
  PASS/FAIL word, compared exactly, says on which side of it the residual
  fell.
- ``--method optimize``: 2 RESIDUAL_TOL M_F for every float field but
  grad_norm.  The optimizer stops at a scaled residual r <= RESIDUAL_TOL;
  the one-point step |g_k| / H_kk it leaves is at most r times the largest
  distance from point k to another, at most 2 M_F.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
EPS = 2.0 ** -52
ULPS = 4.0
NOISE = 2.0 ** 4
NOISE_FIELDS = ("grad_norm",)

# name, argv
CASES = [
    # real, closed: s = 1 with and without --gamma, s > 1 at odd and even n,
    # JSON and CSV; n = 300 puts the gradient gate over two upper strips
    ("real_s1", "real --a 1.3 --s 1 --n 7"),
    ("real_s1_gamma", "real --a 0.8 --s 1 --n 6 --gamma -1.2"),
    ("real_s1_n300_csv", "real --a 2 --s 1 --n 300 --format csv"),
    ("real_s2_odd", "real --a 1 --s 2 --n 5"),
    ("real_s2_odd_csv", "real --a 1 --s 2 --n 3 --format csv"),
    ("real_sgt1_even", "real --a 1.3 --s 2.5 --n 8"),
    ("real_sgt1_n300", "real --a 1 --s 3 --n 300"),
    ("real_sgt1_n301_csv", "real --a 0.7 --s 1.5 --n 301 --format csv"),
    ("real_large_s", "real --a 1 --s 1e8 --n 12"),
    # n = 1000: the s = 1 and s > 1 lines and a circle inside the unit disc,
    # each gated over many strips
    ("real_s1_n1000_csv", "real --a 1.3 --s 1 --n 1000 --format csv"),
    ("real_sgt1_n1000", "real --a 1 --s 2.5 --n 1000"),
    # circle, closed: b = 0, 0 < b < 1, b < 0, |b| > 1, --alpha, CSV
    ("circle_zero", "circle --b 0 --n 5"),
    ("circle_half", "circle --b 0.5 --n 6"),
    ("circle_negative_alpha", "circle --b -0.3 --n 7 --alpha 0.4"),
    ("circle_outside", "circle --b 2.5 --n 8"),
    ("circle_alpha_csv", "circle --b 0.7 --n 5 --alpha 0.4 --format csv"),
    ("circle_outside_negative_n300_csv", "circle --b -3.98 --n 300 --format csv"),
    ("circle_inside_n1000_csv", "circle --b 0.507 --n 1000 --format csv"),
    # the optimizer at n <= 48; the last one stops short of its gate, exit 3
    ("opt_real_sgt1", "real --a 1.3 --s 2 --n 12 --method optimize"),
    ("opt_real_sgt1_odd", "real --a 1.3 --s 2 --n 3 --method optimize --seed 5"),
    ("opt_real_s1", "real --a 1 --s 1 --n 6 --method optimize --format csv"),
    ("opt_circle_inside", "circle --b 0.35 --n 24 --method optimize"),
    ("opt_circle_outside_csv", "circle --b -2.79 --n 48 --method optimize --format csv"),
    ("opt_circle_not_converged", "circle --b 0.999999 --n 12 --method optimize"),
    # the optimizer at n = 300, where its final gate, the scaled residual
    # that decides converged and the exit code, runs over two upper strips
    ("opt_circle_n300", "circle --b 0.5 --n 300 --method optimize"),
    ("opt_real_sgt1_n300", "real --a 1.3 --s 2 --n 300 --method optimize"),
    # every measure family
    ("measure_real_s", "measure --family real-s --s 2 --grid -2:2:9"),
    ("measure_arctan_csv", "measure --family arctan --grid -3:3:7 --format csv"),
    ("measure_circle_poisson", "measure --family circle-poisson --b 0.5 --grid 0:6.25:9"),
    ("measure_harmonic_inf_csv", "measure --family harmonic-inf --r 1.5 --grid -2:2:9 --format csv"),
    ("measure_harmonic_i", "measure --family harmonic-i --r 1.5 --grid -2:2:9"),
    # converge on the line and the circle
    ("converge_s", "converge --s 2 --n-list 5,10,20"),
    ("converge_s1_csv", "converge --s 1 --n-list 4,8 --format csv"),
    ("converge_b", "converge --b 0.5 --n-list 5,10,20"),
    # verify: the circle suite alone, then every suite
    ("verify_circle", "verify --suite circle"),
    ("verify_all", "verify --suite all"),
    # exit 1: valid input whose points coincide in double precision
    ("exit1_coincident", "circle --b 0.999999999999999 --n 12"),
    # exit 2: invalid input, from the handlers and from argparse
    ("exit2_zero_a", "real --a 0 --s 2 --n 5"),
    ("exit2_two_targets", "converge --s 2 --b 0.5 --n-list 5"),
    ("exit2_missing_parameter", "measure --family real-s --grid 0:1:5"),
    ("exit2_usage", "real --a 1 --s 2"),
]

_NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
_INTEGER = re.compile(r"[-+]?\d+")
_KEY = re.compile(r'"(\w+)": |(\w+)=')


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv) in this process."""
    from fekete.cli import main

    saved = {k: os.environ.get(k) for k in ("FEKETE_LOG", "COLUMNS")}
    os.environ.pop("FEKETE_LOG", None)
    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


class Tokens(NamedTuple):
    """A text as its number tokens, the text between them, and the field of
    each token."""
    numbers: list[str]
    between: list[str]
    fields: list[str]


def tokenize(text: str, csv: bool) -> Tokens:
    numbers, between, fields = [], [], []
    header: list[str] = []
    field, pos = "", 0
    for m in _NUMBER.finditer(text):
        gap = text[pos:m.start()]
        between.append(gap)
        if csv:
            line_start = text.rfind("\n", 0, m.start()) + 1
            if not header:
                header = [re.sub(r"^point_\d+$", "points", h)
                          for h in text[:text.index("\r\n")].split(",")]
            column = text.count(",", line_start, m.start())
            field = header[column] if line_start and column < len(header) else ""
        else:
            keys = _KEY.findall(gap)
            if keys:
                field = "".join(keys[-1])
        numbers.append(m.group())
        fields.append(field)
        pos = m.end()
    between.append(text[pos:])
    return Tokens(numbers, between, fields)


def budgets(tokens: Tokens, optimized: bool) -> list[float]:
    """The budget of each number token of a recorded output (see the module
    docstring)."""
    from fekete.energy import RESIDUAL_TOL

    values = [abs(float(t)) for t in tokens.numbers]
    by_field: dict[str, float] = {}
    for f, v in zip(tokens.fields, values):
        by_field[f] = max(by_field.get(f, 0.0), v)
    out = []
    for i, (f, v) in enumerate(zip(tokens.fields, values)):
        if f in NOISE_FIELDS:
            out.append(NOISE * v)
        elif f == "residual":
            out.append(values[i + 1])
        elif optimized:
            out.append(2.0 * RESIDUAL_TOL * by_field[f])
        else:
            out.append(ULPS * EPS * by_field[f])
    return out


def mismatches(expected: str, got: str, csv: bool, optimized: bool) -> list[str]:
    """What differs between a recorded output and a new one beyond the
    budgets; empty when they agree."""
    want, have = tokenize(expected, csv), tokenize(got, csv)
    if want.between != have.between:
        return ["the text between the numbers differs"]
    found = []
    for i, (y, x, budget) in enumerate(zip(want.numbers, have.numbers,
                                           budgets(want, optimized))):
        if x == y:
            continue
        if _INTEGER.fullmatch(x) and _INTEGER.fullmatch(y):
            found.append(f"integer {i} ({want.fields[i]}): {x} != {y}")
        elif not abs(float(x) - float(y)) <= budget:
            found.append(f"number {i} ({want.fields[i]}): {x} != {y}, "
                         f"off by {abs(float(x) - float(y)):.3g} > {budget:.3g}")
    return found


def recorded() -> list[dict]:
    cases = json.loads((HERE / "cases.json").read_text())
    for case in cases:
        with open(HERE / f"{case['name']}.out", encoding="utf-8", newline="") as fh:
            case["stdout"] = fh.read()
    return cases


def compare(case: dict) -> tuple[str, list[str]]:
    """("bytes" | "budget" | "FAIL", what failed) for one recorded case."""
    code, out, err = run(case["argv"])
    if (code, out, err) == (case["exit"], case["stdout"], case["stderr"]):
        return "bytes", []
    argv = case["argv"]
    problems = []
    if code != case["exit"]:
        problems.append(f"exit {code} != {case['exit']}")
    if err != case["stderr"]:
        problems.append(f"stderr {err!r} != {case['stderr']!r}")
    problems += mismatches(case["stdout"], out, "csv" in argv, "optimize" in argv)
    return ("FAIL" if problems else "budget"), problems


def regenerate() -> None:
    for old in HERE.glob("*.out"):
        old.unlink()
    cases = []
    for name, command in CASES:
        argv = command.split()
        code, out, err = run(argv)
        with open(HERE / f"{name}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        cases.append({"name": name, "argv": argv, "exit": code, "stderr": err})
    (HERE / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {HERE}")


def check() -> int:
    failed = 0
    for case in recorded():
        verdict, problems = compare(case)
        failed += verdict == "FAIL"
        print(f"{verdict:6s} {case['name']}: {' '.join(case['argv'])}")
        for p in problems:
            print(f"       {p}")
    print(f"{failed} of {len(CASES)} cases failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(check() if sys.argv[1:] == ["--check"] else regenerate())
