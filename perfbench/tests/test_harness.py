"""Tests of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
from harness.bench import run_benchmark  # noqa: E402
from harness.workloads import EVEN, ODD, ItemClass, WORKLOADS  # noqa: E402

TINY = {
    "oracle": (ItemClass(ODD, 0, 1), ItemClass(EVEN, 1, 2, reducible=1), ItemClass(ODD, 2, 2, reducible=1)),
    "classify_cli": (ItemClass(ODD, 0, 1), ItemClass(EVEN, 1, 2), ItemClass(ODD, 2, 1)),
    "symbolic": (ItemClass(ODD, 0, 1), ItemClass(EVEN, 1, 1)),
}
NAMES = sorted(WORKLOADS)


def _tiny(name, trace, mutate=None, seed=3):
    return run_benchmark(name, seed, 0, trace, ROOT, classes=TINY[name], mutate=mutate)


def _counts(result):
    """Per-layer values that are counts, not times."""
    return {
        k: v["value"]
        for k, v in result["metrics"].items()
        if v["unit"] != "ms" and not k.startswith("trace.")
    }


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_workloads_match_the_harness(declared):
    assert [w["name"] for w in declared["workloads"]] == ["oracle", "classify_cli", "symbolic"]
    assert set(NAMES) == {w["name"] for w in declared["workloads"]}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit(declared, name, trace, kind):
    result, record = _tiny(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_ratio"] == 0
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_have_one_digest(name):
    _, plain = _tiny(name, 0)
    _, traced = _tiny(name, 1)
    assert plain["digest"] == traced["digest"] == traced["traced_digest"]


@pytest.mark.parametrize("name", NAMES)
def test_two_traced_runs_give_identical_counts(name):
    first, _ = _tiny(name, 1)
    second, _ = _tiny(name, 1)
    assert _counts(first) == _counts(second)


def test_layer_counts_separate_the_workloads():
    oracle, _ = _tiny("oracle", 1)
    cli, record = _tiny("classify_cli", 1)
    symbolic, _ = _tiny("symbolic", 1)
    items = record["items"]
    assert _counts(cli)["linalg.span_closure.calls"] == 2 * items
    assert _counts(cli)["cli.main.calls"] == items
    assert _counts(oracle)["scalar.RatFun.init.calls"] == 0
    assert _counts(cli)["scalar.RatFun.init.calls"] == 0
    assert _counts(symbolic)["linalg.span_closure.calls"] == 0
    assert _counts(symbolic)["scalar.RatFun.init.calls"] > 0


def _corrupt_first(name):
    """Corrupt the expected value of the first item, as a test would."""

    def mutate(cycle):
        item = cycle[0]
        if name == "oracle":
            item.expected["irreducible"] = not item.expected["irreducible"]
        elif name == "classify_cli":
            item.expected["twist"] = (item.expected["twist"] + 1) % 4
        else:
            character = list(item.expected["character"])
            character[0] = character[0] + 1
            item.expected["character"] = tuple(character)

    return mutate


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_expected_value_counts_as_a_failure(name):
    result, record = _tiny(name, 0, mutate=_corrupt_first(name))
    # the corrupted item fails once in every cycle
    assert result["attempted"] == record["repeats"] * record["items"]
    assert result["failed"] == record["repeats"]
    assert not result["correct"]
    assert record["fail_ratio"] == 1 / record["items"]


def test_item_that_raises_counts_as_a_failure():
    def mutate(cycle):
        cycle[0].params = None

    result, record = _tiny("oracle", 0, mutate=mutate)
    assert result["failed"] == record["repeats"]


def test_failure_makes_the_command_exit_nonzero(monkeypatch, capsys):
    def corrupted(name, seed, seconds, trace, root, spans_path=None):
        return run_benchmark(
            name, seed, seconds, trace, root, classes=TINY[name], mutate=_corrupt_first(name)
        )

    monkeypatch.setattr(run, "run_benchmark", corrupted)
    assert run.main(["--workload", "oracle", "--seed", "3", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["failed"] >= 1 and last["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
