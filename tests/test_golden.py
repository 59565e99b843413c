"""The golden output corpus (tests/golden/corpus.py): every recorded
invocation still prints its stdout, stderr and exit code, floats within
their stated budgets."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).parent / "golden" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

CASES = corpus.recorded()
BY_NAME = {case["name"]: case for case in CASES}


def test_corpus_lists_every_case():
    assert [c["name"] for c in CASES] == [name for name, _ in corpus.CASES]
    assert [" ".join(c["argv"]) for c in CASES] == [argv for _, argv in corpus.CASES]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_case_matches_its_record(case):
    verdict, problems = corpus.compare(case)
    assert verdict != "FAIL", problems


def perturbed(text, index, past):
    """text with number token index moved away from 0 by just past (or just
    inside) its budget."""
    tokens = corpus.tokenize(text, csv=False)
    budget = corpus.budgets(tokens, optimized=False)[index]
    y = float(tokens.numbers[index])
    edge = y + math.copysign(budget, y)
    if past:
        x = math.nextafter(edge, math.copysign(math.inf, y))
    else:
        x = math.nextafter(math.nextafter(edge, y), y)
    numbers = list(tokens.numbers)
    numbers[index] = format(x, ".17g")
    return "".join(b + n for b, n in zip(tokens.between, numbers)) + tokens.between[-1]


@pytest.mark.parametrize("name, field_index", [
    ("real_sgt1_n300", 0),     # the leftmost point
    ("real_sgt1_n300", 150),   # a point next to the middle
    ("real_s2_odd", 2),        # the middle point at odd n, 0 up to rounding
    ("circle_half", 1),        # an angle
])
def test_a_point_moved_past_its_budget_fails(name, field_index):
    text = BY_NAME[name]["stdout"]
    tokens = corpus.tokenize(text, csv=False)
    index = tokens.fields.index("points") + field_index
    assert tokens.fields[index] == "points"
    assert corpus.mismatches(text, text, False, False) == []
    assert corpus.mismatches(text, perturbed(text, index, past=False), False, False) == []
    problems = corpus.mismatches(text, perturbed(text, index, past=True), False, False)
    assert len(problems) == 1 and "(points)" in problems[0]


def test_text_and_integers_match_exactly():
    text = BY_NAME["real_s2_odd"]["stdout"]
    assert corpus.mismatches(text, text.replace('"n": 5', '"n": 6'), False, False)
    assert corpus.mismatches(text, text.replace('"closed"', '"closet"'), False, False)
