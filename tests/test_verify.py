"""The ``verify`` battery: every structural identity, each written once.

All five suites run once per session; each suite is one test, and a failing
test names every failed check with its residual and tolerance.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest

import fekete.verify as verify
from fekete.verify import SUITES, run_suite, run_suites

# Every (suite, check) name the battery carries; a check may be added, never
# dropped silently.
INVENTORY = {
    "poly": {
        "roots-eval-roundtrip",
        "discriminant-vs-root-product",
        "pochhammer-split-identity",
    },
    "real": {
        "jacobi-connection-coeffs",
        "jacobi-connection-imag",
        "discriminant-transfer",
        "diameter-route-agreement",
        "pseudo-jacobi-roots-real-symmetric-inside",
        "tridiagonal-vs-companion-roots",
        "s1-roots-vs-points",
        "jacobi-discriminant-vs-resultant",
        "ode-residual-zero",
        "recurrence-vs-ode-family",
    },
    "circle": {
        "mobius-preserves-modulus",
        "mobius-involution",
        "alpha-free-diameter",
        "diameter-b-scaling",
    },
    "energy": {
        "line-gradient-vs-fd",
        "circle-gradient-vs-fd",
        "scaling-covariance",
        "sine-product-bound",
        "sine-product-equality-at-progression",
        "optimizer-matches-unique-roots",
        "optimizer-matches-diameter",
        "optimizer-circle-diameter",
        "optimizer-s1-energy",
    },
    "equilibrium": {
        "unit-mass",
        "harmonic-combination-identity",
        "support-endpoint-density-zero",
        "robin-constant-expansion",
        "cdf-nondecreasing",
        "cdf-endpoints",
        "cdf-vs-quadrature",
        "modified-robin-consistency",
        "frostman-no-violation",
        "frostman-equality-on-support",
        "log-potential-vs-quadrature",
        "circle-frostman",
    },
}


@pytest.fixture(scope="session")
def results():
    return run_suites(SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes(results, suite):
    failed = [r.line() for r in results if r.suite == suite and not r.passed]
    assert not failed, "\n".join(failed)


def test_check_inventory(results):
    missing = {(suite, name) for suite, names in INVENTORY.items() for name in names}
    missing -= {(r.suite, r.name) for r in results}
    assert not missing, f"checks dropped from the battery: {sorted(missing)}"


def count_root_stacks(monkeypatch, suite):
    """The number of polynomials in every stacked_roots call the suite makes."""
    calls = []
    stacked_roots = verify.stacked_roots

    def counted(polys):
        calls.append(len(polys))
        return stacked_roots(polys)

    monkeypatch.setattr(verify, "stacked_roots", counted)
    run_suite(suite)
    return calls


def test_real_suite_stacks_roots_once(monkeypatch):
    # 2 pseudo-Jacobi rows and 10 s = 1 rows at each n = 2..30
    assert count_root_stacks(monkeypatch, "real") == [12 * 29]


def test_poly_suite_stacks_roots_once(monkeypatch):
    assert count_root_stacks(monkeypatch, "poly") == [30]


def test_real_suite_memory_peak():
    # the root stack's Newton refinement runs on its 5,568 live roots alone;
    # on the padded 348 x 30 rectangle the traced peak was 1,962,474 bytes
    run_suite("real")
    tracemalloc.start()
    try:
        run_suite("real")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * 2 ** 20


def test_equilibrium_suite_bytes_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(verify.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "FEKETE_LOG"}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run(
            [sys.executable, "-m", "fekete.cli", "verify", "--suite", "equilibrium"],
            env=env, capture_output=True, check=True).stdout)
    assert outs[0] == outs[1]
