from fractions import Fraction

import pytest

from daha.params import ParamQuadruple


@pytest.fixture
def p_even_d1():
    """The running 2-dimensional example: q=2, k=(1/2, 1, 3, 1)."""
    return ParamQuadruple(2, Fraction(1, 2), 1, 3, 1, d=1, parity="even")


@pytest.fixture
def p_even_d1_reducible():
    """Same but with k2 = 1, which makes the span of v1 invariant."""
    return ParamQuadruple(2, Fraction(1, 2), 1, 1, 1, d=1, parity="even")


@pytest.fixture
def p_odd_d0():
    """The 1-dimensional example: q=2, k=(1, 1, 1, 1/2)."""
    return ParamQuadruple(2, 1, 1, 1, Fraction(1, 2), d=0, parity="odd")


@pytest.fixture
def p_odd_d2():
    """A 3-dimensional example: q=2, k=(1, 1, 3, 1/24)."""
    return ParamQuadruple(2, 1, 1, 3, Fraction(1, 24), d=2, parity="odd")


@pytest.fixture
def fallback(monkeypatch):
    """Turn off the standard-basis route of ``classify`` and ``daha
    classify`` (Norton's test and a standard basis), so that the span
    closure and the intertwining equations decide."""
    import daha.analysis

    monkeypatch.setattr(daha.analysis, "_standard_intertwiner", lambda *args: None)


@pytest.fixture
def conjugate():
    """m -> m in a random rational basis drawn from rng."""
    from daha.linalg import Matrix, det, inverse
    from daha.modrep import ModuleRep

    def conjugated(m, rng):
        while True:
            s = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.dim)]
                        for _ in range(m.dim)])
            if det(s):
                break
        si = inverse(s)
        return ModuleRep(
            dim=m.dim, t=tuple(s * x * si for x in m.t), tinv=tuple(s * x * si for x in m.tinv),
            params=m.params, twist=m.twist, label=m.label,
        )

    return conjugated


@pytest.fixture
def old_format():
    """m -> m's JSON as formal modules were once written: every constant
    rational function ("3 | 1", "0 | 1") printed as a bare rational, so
    that one file mixes the two forms and a matrix of constants, such as
    a generator of odd d = 0, has no pipe entry at all."""

    def bare(x):
        if isinstance(x, dict):
            return {key: bare(value) for key, value in x.items()}
        if isinstance(x, list):
            return [bare(value) for value in x]
        if isinstance(x, str) and x.endswith(" | 1") and "," not in x:
            return x[: -len(" | 1")]
        return x

    return lambda m: bare(m.to_json())
