"""Only ``daha.linalg`` reads how a Matrix is stored, and no routine
asks which ring it is on.

A matrix holds its ring (``ZZ`` or ``ZZ_Q``), ring rows ``_rows`` and a
denominator (see ``daha.linalg.Matrix``).  No other module of
``src/daha`` may read those rows or import the slot setters; they call
the routines of ``daha.linalg`` instead, whose one way back from ring
rows to a matrix, ``_ring_matrix``, serves both rings.  Tests may read
``m._rows``.

Inside ``daha.linalg`` and ``daha.modrep`` every routine asks its ring
for what it needs, so outside the ``Matrix`` constructors no function
compares a ring (``is``, ``is not``, ``==`` or ``!=`` against ``ZZ``,
``ZZ_Q`` or a ``.ring``) or tells ints from polynomials by
``type(...) is int``.
"""

import ast
from pathlib import Path

import daha.linalg

SRC = Path(__file__).resolve().parents[1] / "src" / "daha"

STORAGE_ATTRIBUTES = {"_rows"}
STORAGE_HELPERS = {"_set_rows", "_set_cols", "_set_ring", "_set_body", "_set_den"}
RINGS = {"ZZ", "ZZ_Q"}
CONSTRUCTORS = {"Matrix.__init__", "Matrix.identity", "Matrix.from_json"}
IDENTITY_TESTS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)


def _storage_reads(path: Path):
    """(line, name) of each storage attribute read or storage helper
    imported or named as an attribute in the module at path."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            if node.attr in STORAGE_ATTRIBUTES | STORAGE_HELPERS:
                out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names if a.name in STORAGE_HELPERS]
    return out


def test_only_linalg_reads_matrix_storage():
    reads = {path.name: _storage_reads(path) for path in SRC.glob("*.py")}
    assert reads.pop("linalg.py")  # the scan sees linalg's own reads
    assert {name: found for name, found in reads.items() if found} == {}


def _is_ring(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in RINGS) or (
        isinstance(node, ast.Attribute) and node.attr == "ring"
    )


def _is_type_call(node) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"
    )


def _ring_tests(source: str):
    """(function, line) of each ring comparison or ``type(...) is int``
    in a function of source outside the Matrix constructors."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = owner + child.name
                if name not in CONSTRUCTORS:
                    out.extend((name, line) for line in _compares(child))
                visit(child, name + ".")
            else:
                visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(set(out))


def _compares(func):
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(isinstance(op, IDENTITY_TESTS) for op in node.ops):
            continue
        ints = any(isinstance(x, ast.Name) and x.id == "int" for x in operands)
        if any(map(_is_ring, operands)) or (ints and any(map(_is_type_call, operands))):
            yield node.lineno


def test_the_checker_sees_ring_tests():
    source = (
        "class Matrix:\n"
        "    def __init__(self, x):\n"
        "        self.ring = ZZ if x is ZZ else ZZ_Q\n"
        "def f(m, n, x):\n"
        "    if m.ring is ZZ_Q or n.ring != m.ring:\n"
        "        return type(x) is int\n"
        "    return [y for y in x if ZZ is not m]\n"
    )
    assert _ring_tests(source) == [("f", 5), ("f", 6), ("f", 7)]
    assert _ring_tests("def g(m):\n    return m.ring.one is None or m.field is QQ\n") == []


def test_no_routine_asks_which_ring_it_is_on():
    assert {daha.linalg.ZZ.field, daha.linalg.ZZ_Q.field} == {daha.linalg.QQ, daha.linalg.QQ_Q}
    found = {
        name: _ring_tests((SRC / name).read_text(encoding="utf-8"))
        for name in ("linalg.py", "modrep.py")
    }
    assert {name: tests for name, tests in found.items() if tests} == {}


def test_the_rings_offer_one_contract_of_arithmetic():
    # Elimination is written once in daha.linalg over the rings' element
    # operations, so a ring provides arithmetic (and its primitive form),
    # never an elimination of its own.
    rings = (daha.linalg.ZZ, daha.linalg.ZZ_Q)
    public = [{name for name in dir(ring) if not name.startswith("_")} for ring in rings]
    assert public[0] == public[1]
    assert {"primitive", "cofactors", "mul", "add", "neg", "combine", "product"} <= public[0]
    assert not public[0] & {"insert", "clear", "cancel", "word"}
