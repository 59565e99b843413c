"""The ``verify`` battery: every structural identity, each written once.

All five suites run once per session; each suite is one test, and a failing
test names every failed check with its residual and tolerance.
"""

import pytest

from fekete.verify import SUITES, run_suites

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
