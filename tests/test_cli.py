import json

import daha.analysis
import daha.cli
from daha.cli import (
    EXIT_CONSTRAINT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)


def run(*argv):
    return main(list(argv))


def test_construct_verify_classify(tmp_path):
    mod = tmp_path / "mod.json"
    assert run(
        "construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--out", str(mod)
    ) == EXIT_OK
    data = json.loads(mod.read_text())
    assert data["dim"] == 2
    assert data["t"][0]["entries"] == [["1/2", "0"], ["0", "1/2"]]

    report = tmp_path / "verify.json"
    assert run("verify", "--in", str(mod), "--out", str(report)) == EXIT_OK
    rep = json.loads(report.read_text())
    assert rep["ok"] and rep["central_character"] == ["5/2", "2", "10/3", "2"]

    out = tmp_path / "cls.json"
    assert run("classify", "--in", str(mod), "--out", str(out)) == EXIT_OK
    cls = json.loads(out.read_text())
    assert cls["verdict"] == "classified"
    assert cls["twist"] == 0
    assert cls["params"]["k"] == ["1/2", "1", "1/3", "1"]


def test_construct_constraint_violation(capsys):
    assert run(
        "construct", "--parity", "even", "--q", "2", "--k", "1/3,1,3,1", "--d", "1"
    ) == EXIT_CONSTRAINT
    assert "k0^2 != q^{-d-1}" in capsys.readouterr().err


def test_construct_d0(tmp_path):
    mod = tmp_path / "o0.json"
    assert run(
        "construct", "--parity", "odd", "--q", "2", "--k", "1,1,1,1/2",
        "--d", "0", "--out", str(mod)
    ) == EXIT_OK
    assert json.loads(mod.read_text())["dim"] == 1


def test_verify_corrupted_module(tmp_path):
    mod = tmp_path / "mod.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--out", str(mod))
    data = json.loads(mod.read_text())
    data["t"][2]["entries"][0][0] = "9"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("verify", "--in", str(bad)) == EXIT_VERIFY


def test_io_error_exit(tmp_path):
    assert run("verify", "--in", str(tmp_path / "missing.json")) == EXIT_IO
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run("verify", "--in", str(garbage)) == EXIT_IO


def test_classify_reducible(tmp_path):
    mod = tmp_path / "red.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,1,1",
        "--d", "1", "--out", str(mod))
    out = tmp_path / "cls.json"
    assert run("classify", "--in", str(mod), "--out", str(out)) == EXIT_OK
    cls = json.loads(out.read_text())
    assert cls["verdict"] == "reducible"
    assert cls["closure_dim"] < 4


def test_irreducible_command(tmp_path, capsys):
    mod = tmp_path / "mod.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--out", str(mod))
    assert run("irreducible", "--in", str(mod)) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["irreducible"] and data["closure_dim"] == 4
    assert data["criterion"] is True and data["agrees"] is True

    red = tmp_path / "red.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,1,1",
        "--d", "1", "--out", str(red))
    assert run("irreducible", "--in", str(red)) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert not data["irreducible"] and data["agrees"] is True


def test_twist_and_intertwiner(tmp_path, capsys):
    mod = tmp_path / "mod.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--out", str(mod))
    tw = tmp_path / "tw.json"
    assert run("twist", "--in", str(mod), "--e", "1", "--out", str(tw)) == EXIT_OK
    assert json.loads(tw.read_text())["twist"] == 1
    assert run("intertwiner", "--a", str(mod), "--b", str(tw)) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "none"
    assert run("intertwiner", "--a", str(mod), "--b", str(mod)) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "found"


def test_lmatrix_routes(tmp_path):
    out = tmp_path / "lm.json"
    assert run(
        "lmatrix", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--route", "all", "--out", str(out)
    ) == EXIT_OK
    data = json.loads(out.read_text())
    assert set(data["routes"]) == {"operator", "recurrence", "closed"}
    assert data["routes"]["operator"]["entries"] == [["-4/3", "0"], ["0", "-4/3"]]


def test_orbit(tmp_path, capsys):
    assert run("orbit", "--q", "2", "--k", "1/2,1,3,1", "--d", "1") == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["canonical"]["k"] == ["1/2", "1", "1/3", "1"]
    assert len(data["members"]) == 8


def test_sweep_reproducible(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (out1, out2):
        assert run(
            "sweep", "--parity", "odd", "--d", "2", "--grid", "6",
            "--seed", "11", "--out", str(out)
        ) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    other = tmp_path / "s3.json"
    run("sweep", "--parity", "odd", "--d", "2", "--grid", "6",
        "--seed", "12", "--out", str(other))
    assert other.read_bytes() != out1.read_bytes()


def test_ratfun_backend(tmp_path):
    mod = tmp_path / "sym.json"
    assert run(
        "construct", "--parity", "even", "--backend", "ratfun",
        "--k", "q^-1,2,3,5", "--d", "1", "--out", str(mod)
    ) == EXIT_OK
    assert run("verify", "--in", str(mod)) == EXIT_OK


def test_selftest_structural(capsys):
    assert run("selftest", "--grid", "0", "--backend", "rational") == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out and "FAIL" not in out


def test_classify_runs_each_check_once(tmp_path, monkeypatch):
    calls = {"verify_relations": 0, "span_closure": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (daha.cli, daha.analysis):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    mod = tmp_path / "odd.json"
    run("construct", "--parity", "odd", "--q", "2", "--k", "1,1,3,1/24",
        "--d", "2", "--out", str(mod))
    out = tmp_path / "cls.json"
    assert run("classify", "--in", str(mod), "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["verdict"] == "classified"
    assert calls == {"verify_relations": 1, "span_closure": 1}
