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
    """Turn off the eigenbasis route of ``classify`` and ``daha classify``,
    so that the span closure and the intertwining equations decide."""
    import daha.analysis

    monkeypatch.setattr(daha.analysis, "_spectral_intertwiner", lambda *args: None)


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
