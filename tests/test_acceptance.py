"""The acceptance suite at full sample sizes.

One test per numbered criterion; each prints its PASS/FAIL line (visible
under pytest -s or on failure) and asserts zero failures.  All checks
are exact: there are no tolerances anywhere.
"""

from daha.selftest import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)

SEED = "acceptance"


def _run(criterion):
    result = criterion(seed=SEED, grid=None)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_relation_suite():
    # >= 100 random valid quadruples per parity, q = 2,
    # d in {1,3,5,7} (even family) and {0,2,4,6} (odd family)
    result = _run(criterion_1)
    assert result.checks >= 2 * 100


def test_criterion_2_characters_and_fingerprints():
    result = _run(criterion_2)
    assert result.checks >= 2 * 100


def test_criterion_3_oracle_equivalence():
    # 200-sample grids plus >= 20 single-violation adversarial samples
    result = _run(criterion_3)
    assert result.checks >= 2 * 220


def test_criterion_4_l_matrix_routes():
    result = _run(criterion_4)
    assert result.checks >= 2 * 20


def test_criterion_5_isomorphism_theorems():
    result = _run(criterion_5)
    assert result.checks >= 2 * 20 * 3


def test_criterion_6_classification_round_trip():
    result = _run(criterion_6)
    assert result.checks >= 50 * 4 + 50


def test_criterion_7_infinite_module_suite():
    result = _run(criterion_7)
    assert result.checks > 0


def test_criterion_8_symbolic_subset():
    result = _run(criterion_8)
    assert result.checks >= 2 * 100
