"""The benchmark's tracer wraps daha functions by name, so each name it
lists must still exist: a deleted one would break traced runs only."""

import importlib
import importlib.util
from pathlib import Path

import daha

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "harness" / "trace.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace.TARGETS


def test_every_traced_name_resolves():
    targets = _trace_targets()
    assert targets
    missing = []
    for module_name, path, _ in targets:
        owner = importlib.import_module(f"daha.{module_name}")
        assert getattr(daha, module_name) is owner
        if "." in path:
            # a method is wrapped on the class that defines it
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(owner, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert missing == []
