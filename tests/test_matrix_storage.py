"""Only ``daha.linalg`` reads how a Matrix is stored.

A matrix is held as int rows ``_ints`` or int polynomial rows ``_polys``
over one denominator (see ``daha.linalg.Matrix``).  No other module of
``src/daha`` may read those attributes or import the constructors that
build a matrix from such rows one storage form at a time; they go
through ``_ring_rows`` and ``_ring_matrix``, which serve both forms.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daha"

STORAGE_ATTRIBUTES = {"_ints", "_polys"}
STORAGE_HELPERS = {"_int_matrix", "_poly_matrix", "_times_rows"}


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
