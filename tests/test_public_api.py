"""No public name of ``daha`` that only the tests call.

A public top-level function or class of ``src/daha``, or a public
method of such a class, must be named somewhere in the program itself:
in ``src/daha`` or in the benchmark harness under ``perfbench`` (its
tests left out).  ``src/daha/__init__.py`` is left out too: every name
it imports would count as used there, so a re-export alone would pass.
It re-exports only some public names (not, for example,
``linalg.kernel_line`` or the names of ``sampling``, ``selftest`` and
``cli``).  A name counts as used when it appears there as a ``Name``,
as an ``Attribute``, or in an identifier-like string constant, because
the benchmark's tracer names the functions it wraps in strings.

The check goes by bare name, not by owner: a test-only name that
collides with a used one passes.  ``SignTriple.identity``, for example,
would pass because ``Matrix.identity`` is called.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "daha"
PERFBENCH = ROOT / "perfbench"

# qualified name -> why a name without a caller in the program stays public
ALLOWED = {
    "LaurentPoly.exact_div": "the public face of the Laurent realisation's "
    "exact division, whose remainder check test_laurent_exact_div_guard pins",
}


def _program_files():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [
        p for p in PERFBENCH.rglob("*.py") if "tests" not in p.relative_to(PERFBENCH).parts
    ]
    return files


def _used_names():
    used = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    used.update(parts)
    return used


def _public_definitions():
    """(qualified name, bare name) of every public top-level function or
    class of src/daha and every public method of those classes."""
    out = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return out


def test_every_public_name_has_a_caller_in_the_program():
    used = _used_names()
    unused = sorted(
        qual for qual, name in _public_definitions() if name not in used and qual not in ALLOWED
    )
    assert unused == []


def test_allowlist_names_only_uncalled_definitions():
    used = _used_names()
    definitions = dict(_public_definitions())
    for qual in ALLOWED:
        assert qual in definitions and definitions[qual] not in used, qual
