"""The acceptance suite at full sample sizes.

One test per numbered criterion; each prints its PASS/FAIL line (visible
under pytest -s or on failure), asserts zero failures and pins the exact
check count at the acceptance seed, so a change that drops or adds a
check shows.  All checks are exact: there are no tolerances anywhere.
"""

import pytest

import daha.selftest
from daha.analysis import INDETERMINATE
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
    assert result.checks == 2704


def test_criterion_2_characters_and_fingerprints():
    result = _run(criterion_2)
    assert result.checks >= 2 * 100
    assert result.checks == 416


def test_criterion_3_oracle_equivalence():
    # 200-sample grids plus >= 20 single-violation adversarial samples
    result = _run(criterion_3)
    assert result.checks >= 2 * 220
    assert result.checks == 446


def test_criterion_4_l_matrix_routes():
    result = _run(criterion_4)
    assert result.checks >= 2 * 20
    assert result.checks == 275


def test_criterion_5_isomorphism_theorems():
    result = _run(criterion_5)
    assert result.checks >= 2 * 20 * 3
    assert result.checks == 176


def test_criterion_6_classification_round_trip():
    result = _run(criterion_6)
    assert result.checks >= 50 * 4 + 50
    assert result.checks == 265


def test_criterion_7_infinite_module_suite():
    result = _run(criterion_7)
    assert result.checks > 0
    assert result.checks == 1604


def test_criterion_8_symbolic_subset():
    result = _run(criterion_8)
    assert result.checks >= 2 * 100
    assert result.checks == 3579


# -- failure reports: c3, c5 and c6 on the fixed samples of both families ---

EVEN = (
    {"q": "2", "k": ["1/2", "1", "3", "1"], "d": 1, "parity": "even"},
    {"q": "2", "k": ["1/4", "2/3", "3", "5/7"], "d": 3, "parity": "even"},
    {"q": "2", "k": ["1/8", "2", "3", "5"], "d": 5, "parity": "even"},
)
ODD = (
    {"q": "2", "k": ["1", "1", "1", "1/2"], "d": 0, "parity": "odd"},
    {"q": "2", "k": ["1", "1", "3", "1/24"], "d": 2, "parity": "odd"},
    {"q": "2", "k": ["3/2", "1/3", "5", "1/80"], "d": 4, "parity": "odd"},
)


class _Bogus:
    twist = params = None

    def to_json(self):
        return {"verdict": "bogus"}


@pytest.mark.parametrize(
    "found,fingerprint,negative",
    [
        (lambda a, b: None, lambda m: (), "twisted fingerprint collision"),
        (lambda a, b: INDETERMINATE, lambda m: m.twist, "intertwiner to a twisted module"),
    ],
    ids=["none-found", "indeterminate"],
)
def test_grid_0_failure_reports_name_the_family(monkeypatch, found, fingerprint, negative):
    """With the oracle, the intertwiner search, the fingerprint and
    classify all made to disagree, c3, c5 and c6 report every fixed
    sample of both families, even ones first, in these exact words."""
    monkeypatch.setattr(daha.selftest, "burnside_irreducible", lambda m: None)
    monkeypatch.setattr(daha.selftest, "find_intertwiner", found)
    monkeypatch.setattr(daha.selftest, "det_fingerprint", fingerprint)
    monkeypatch.setattr(daha.selftest, "classify", lambda m: _Bogus())

    c3 = [f"{p['parity']} {p} criterion=True oracle=None" for p in EVEN + ODD]
    c5 = [f"even {p}: {text}" for p in EVEN for text in 3 * ["missing intertwiner"] + [negative]]
    for p in ODD:
        c5 += [f"odd {p}: missing twist-{e} intertwiner" for e in (3, 2, 1)]
        if p["d"] >= 2:
            c5.append(f"odd {p}: {negative}")
    c6 = [f"even {p} twist {e}: got {{'verdict': 'bogus'}}" for p in EVEN for e in range(4)]
    c6 += [f"odd {p}: got {{'verdict': 'bogus'}}" for p in ODD]

    for criterion, expected in ((criterion_3, c3), (criterion_5, c5), (criterion_6, c6)):
        result = criterion(seed=SEED, grid=0)
        assert result.failures == expected
        assert result.checks == len(expected)
