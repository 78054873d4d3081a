import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import daha
import daha.analysis
import daha.cli
from daha.analysis import criterion_E, criterion_O, twist
from daha.cli import (
    EXIT_CONSTRAINT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from daha.modrep import ModuleRep, make_E, make_O, verify_relations
from daha.sampling import adversarial_even, adversarial_odd, sample_even, sample_odd
from daha.scalar import QQ_Q, RatFun


DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("name,closure_dim", [("ratfun_even_d3", 16), ("ratfun_odd_d2", 9)])
def test_irreducible_on_formal_files(name, closure_dim, capsys):
    # The closure over Q(q) drops t3, since t0*t1*t2*t3 = q**-1.
    assert run("irreducible", "--in", str(DATA / f"{name}.json")) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["closure_dim"] == closure_dim
    assert data["irreducible"] and data["agrees"] is True


def test_formal_even_d7_is_proved_irreducible_in_f_p(tmp_path, capsys, monkeypatch):
    # E(q; q^-4, 3, -12/5, -4/11) at d=7 reaches n**2 = 64 in the F_P pass,
    # so the exact Z[q] closure, which takes seconds here, never inserts.
    mod = tmp_path / "d7.json"
    assert run("construct", "--parity", "even", "--backend", "ratfun", "--d", "7",
               "--k=q^-4,3,-12/5,-4/11", "--out", str(mod)) == EXIT_OK
    calls = []
    monkeypatch.setattr(daha.linalg, "_insert", lambda *args: calls.append(args))
    assert run("irreducible", "--in", str(mod)) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {"agrees": True, "closure_dim": 64, "criterion": True, "dim": 8,
                    "irreducible": True}
    assert calls == []


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


def test_selftest_acceptance_golden(tmp_path):
    # the per-criterion check counts at the acceptance seed, byte for byte
    out = tmp_path / "selftest.json"
    assert run("selftest", "--seed", "acceptance", "--grid", "2",
               "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (DATA / "selftest_acceptance_grid2.json").read_bytes()


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
    # Norton's test proves irreducibility without the closure
    assert calls == {"verify_relations": 1, "span_closure": 0}


def test_classify_twisted_even_checks_relations_once(tmp_path, monkeypatch):
    calls = []

    def counting(module):
        calls.append(module)
        return verify_relations(module)

    for module in (daha.cli, daha.analysis):
        monkeypatch.setattr(module, "verify_relations", counting)
    mod, tw = tmp_path / "even.json", tmp_path / "tw.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--out", str(mod))
    run("twist", "--in", str(mod), "--e", "1", "--out", str(tw))
    calls.clear()
    out = tmp_path / "cls.json"
    assert run("classify", "--in", str(tw), "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["twist"] == 1
    assert len(calls) == 1


@pytest.mark.parametrize("entry", ["1/0", "1 | 0"])
@pytest.mark.parametrize("command", ["verify", "classify", "irreducible"])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, command, entry):
    mod = tmp_path / "mod.json"
    for backend, k in (("ratfun", "q^-1,2,3,5"), ("rational", "1/2,2,3,5")):
        run("construct", "--parity", "even", "--backend", backend,
            "--k", k, "--d", "1", "--out", str(mod))
        data = json.loads(mod.read_text())
        data["t"][1]["entries"][0][1] = entry
        mod.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(command, "--in", str(mod)) == EXIT_IO, backend
        assert "zero denominator" in capsys.readouterr().err, backend


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_an_over_long_int_is_an_input_error(tmp_path, command):
    """A 5,000-digit numerator, past Python's limit on int string
    conversion, exits 4 with a one-line message and no traceback."""
    data = json.loads((DATA / "rational_even_d5_tw3.json").read_text())
    data["t"][2]["entries"][1][3] = "7" * 5000 + "/3"
    mod = tmp_path / "long.json"
    mod.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(daha.__file__)))
    proc = subprocess.run([sys.executable, "-m", "daha", command, "--in", str(mod)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_IO
    assert "Traceback" not in proc.stderr and "limit" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flag,token", [
    ("--q", "1/0"), ("--k", "1/2,1,3,1/0"), ("--k", "1/2,1,3,2/0q^2"), ("--k", "1/2,1,3,-1/0q"),
])
@pytest.mark.parametrize("command", ["construct", "lmatrix", "orbit"])
def test_zero_denominator_token_is_an_input_error(capsys, command, flag, token):
    args = {"--q": "2", "--k": "1/2,1,3,1", "--d": "1", flag: token}
    argv = [command, *(x for pair in args.items() for x in pair)]
    if command != "orbit":
        argv += ["--parity", "even"]
    assert run(*argv) == EXIT_IO
    assert "zero denominator" in capsys.readouterr().err


def test_python_m_daha_help():
    src = os.path.dirname(os.path.dirname(daha.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "daha", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest" in proc.stdout


# Formal-q construct/classify output, kept byte for byte.
GOLDEN_RATFUN = [
    ("even", "3", "-q^-2;1,1 | 2;-3;2/7q", "ratfun_even_d3.json"),
    ("odd", "2", "1,1 | 2;3;-2/5;-5 | 0,0,0,3,3", "ratfun_odd_d2.json"),
]


@pytest.mark.parametrize("parity,d,k,golden", GOLDEN_RATFUN)
def test_ratfun_construct_golden(tmp_path, parity, d, k, golden):
    out = tmp_path / golden
    assert run("construct", "--parity", parity, "--backend", "ratfun",
               "--k", k, "--d", d, "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_ratfun_classify_golden(tmp_path):
    out = tmp_path / "cls.json"
    assert run("classify", "--in", str(DATA / "ratfun_even_d3.json"),
               "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (DATA / "ratfun_even_d3_classify.json").read_bytes()


def test_formal_certificates_print_every_entry_in_pipe_form(tmp_path):
    """Rational k's of formal params are lifted into Q(q), so no
    certificate entry of their module prints as a bare rational."""
    mod, cls, itw = tmp_path / "m.json", tmp_path / "cls.json", tmp_path / "itw.json"
    assert run("construct", "--parity", "even", "--backend", "ratfun", "--d", "1",
               "--k=-q^-1,-1,8/15,-14/15", "--out", str(mod)) == EXIT_OK
    assert json.loads(mod.read_text())["params"]["k"] == ["-1 | 0,1", "-1 | 1", "8/15 | 1",
                                                          "-14/15 | 1"]
    assert run("classify", "--in", str(mod), "--out", str(cls)) == EXIT_OK
    assert run("intertwiner", "--a", str(mod), "--b", str(mod), "--out", str(itw)) == EXIT_OK
    for matrix in (json.loads(cls.read_text())["certificate"],
                   json.loads(itw.read_text())["matrix"]):
        assert matrix["entries"] == [["1 | 1", "0 | 1"], ["0 | 1", "1 | 1"]]


def test_formal_classify_needs_no_intertwining_equations(tmp_path, monkeypatch, old_format):
    """The standard-basis route certifies a formal module on its own, in pipe
    form or in the old form alike, with the bytes the intertwining
    equations give."""
    old = tmp_path / "old.json"
    module = daha.cli._load_module(str(DATA / "ratfun_odd_d2.json"))
    old.write_text(json.dumps(old_format(module)))
    calls = []
    equations = daha.analysis.find_intertwiner
    monkeypatch.setattr(daha.analysis, "find_intertwiner",
                        lambda a, b: calls.append(a) or equations(a, b))
    outputs = []
    for path in (DATA / "ratfun_odd_d2.json", old):
        out = tmp_path / "cls.json"
        assert run("classify", "--in", str(path), "--out", str(out)) == EXIT_OK
        outputs.append(out.read_bytes())
    assert calls == []
    monkeypatch.setattr(daha.analysis, "_standard_intertwiner", lambda *args: None)
    forced = tmp_path / "forced.json"
    assert run("classify", "--in", str(old), "--out", str(forced)) == EXIT_OK
    assert len(calls) == 1 and outputs == [forced.read_bytes()] * 2


def test_old_format_formal_files_read_like_the_pipe_form(tmp_path, old_format):
    """A formal module file that prints its constants as bare rationals
    loads into the matrices of the pipe-form file, all in Q(q), and
    verify, classify and intertwiner print the same bytes for both."""
    rng = random.Random("old-format")
    for sampler, make, d in ((sample_odd, make_O, 0), (sample_even, make_E, 1),
                             (sample_odd, make_O, 2), (sample_even, make_E, 3)):
        module = twist(make(sampler(rng, d, QQ_Q)), rng.randrange(4) if d % 2 else 0)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        new.write_text(json.dumps(module.to_json()))
        old.write_text(json.dumps(old_format(module)))
        if d == 0:  # a constant k makes a 1 x 1 generator with no pipe entry
            assert any("|" not in json.dumps(m) for m in old_format(module)["t"])
        loaded = ModuleRep.from_json(json.loads(old.read_text()))
        assert loaded.params == module.params and loaded.to_json() == module.to_json()
        assert all(m.field is QQ_Q and all(isinstance(e, RatFun) for row in m.entries for e in row)
                   for m in loaded.t + tuple(loaded.tinv))
        for argv in (("verify", "--in"), ("classify", "--in"),
                     ("intertwiner", "--b", str(new), "--a")):
            outputs = []
            for path in (new, old):
                out = tmp_path / "out.json"
                code = run(*argv, str(path), "--out", str(out))
                outputs.append((code, out.read_bytes()))
            assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_param_values_that_start_with_a_minus_sign_take_the_equals_form(tmp_path):
    mod = tmp_path / "m.json"
    assert run("construct", "--parity", "even", "--d", "1", "--q", "2",
               "--k=-1/2,1,-1,1", "--out", str(mod)) == EXIT_OK
    assert json.loads(mod.read_text())["params"]["k"] == ["-1/2", "1", "-1", "1"]
    assert run("construct", "--parity", "even", "--d", "1", "--q=-1/2",
               "--k", "2,1,3,1", "--out", str(mod)) == EXIT_OK
    assert json.loads(mod.read_text())["params"]["q"] == "-1/2"


# Rational classify/intertwiner output, kept byte for byte: a twisted
# even d=5 module and an odd d=4 module in a conjugated basis.
def test_rational_even_classify_intertwiner_golden(tmp_path):
    mod, tw = tmp_path / "e5.json", tmp_path / "tw.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/8,3,-2/5,7/3",
        "--d", "5", "--out", str(mod))
    run("twist", "--in", str(mod), "--e", "3", "--out", str(tw))
    assert tw.read_bytes() == (DATA / "rational_even_d5_tw3.json").read_bytes()
    other, other_tw = tmp_path / "e5b.json", tmp_path / "e5b_tw.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/8,3,-2/5,3/7",
        "--d", "5", "--out", str(other))
    run("twist", "--in", str(other), "--e", "3", "--out", str(other_tw))
    cls, itw = tmp_path / "cls.json", tmp_path / "itw.json"
    assert run("classify", "--in", str(tw), "--out", str(cls)) == EXIT_OK
    assert run("intertwiner", "--a", str(tw), "--b", str(other_tw), "--out", str(itw)) == EXIT_OK
    assert cls.read_bytes() == (DATA / "rational_even_d5_tw3_classify.json").read_bytes()
    assert itw.read_bytes() == (DATA / "rational_even_d5_tw3_intertwiner.json").read_bytes()


def test_rational_odd_classify_intertwiner_golden(tmp_path):
    conj = DATA / "rational_odd_d4_conj.json"
    mod, cls, itw = tmp_path / "o4.json", tmp_path / "cls.json", tmp_path / "itw.json"
    run("construct", "--parity", "odd", "--q", "2", "--k", "3,-5/2,7/3,-1/560",
        "--d", "4", "--out", str(mod))
    assert run("classify", "--in", str(conj), "--out", str(cls)) == EXIT_OK
    assert run("intertwiner", "--a", str(mod), "--b", str(conj), "--out", str(itw)) == EXIT_OK
    assert cls.read_bytes() == (DATA / "rational_odd_d4_conj_classify.json").read_bytes()
    assert itw.read_bytes() == (DATA / "rational_odd_d4_conj_intertwiner.json").read_bytes()


def _drop_last_generator(data):
    del data["t"][-1], data["tinv"][-1]


def _set_in(path, value):
    def mutate(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return mutate


MALFORMED = {
    "three_generators": _drop_last_generator,
    "entries_not_a_list": _set_in(("t", 0, "entries"), 5),
    "d_null": _set_in(("params", "d"), None),
    "dim_disagrees": _set_in(("dim",), 3),
    "entry_not_a_string": _set_in(("t", 1, "entries", 0, 0), 1),
    "ragged_rows": _set_in(("tinv", 2, "entries", 1), ["1"]),
    "twist_out_of_range": _set_in(("twist",), 4),
    "entry_in_q_under_rational_params": _set_in(("t", 1, "entries", 0, 0), "0,1 | 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["verify", "classify", "irreducible"])
def test_malformed_module_is_an_input_error(tmp_path, capsys, command, case):
    mod = tmp_path / "mod.json"
    run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
        "--d", "1", "--out", str(mod))
    data = json.loads(mod.read_text())
    MALFORMED[case](data)
    mod.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(command, "--in", str(mod)) == EXIT_IO
    assert capsys.readouterr().err.startswith("input error:")


def test_non_object_module_file_is_an_input_error(tmp_path, capsys):
    mod = tmp_path / "mod.json"
    mod.write_text("[1, 2]")
    assert run("classify", "--in", str(mod)) == EXIT_IO
    assert "missing field" in capsys.readouterr().err


# `daha verify` reports, kept byte for byte: a valid twisted module, a
# d=3 even module whose t1 entry (0, 0) was changed from 2/3 to 7/3, a
# valid untwisted formal module, and an untwisted rational module in a
# conjugated basis, on which the ladder identities fail.  They lock the
# "scalar ...", "difference Matrix[...]" and ladder "got [...]" strings.
@pytest.mark.parametrize(
    "module,golden,code",
    [
        ("rational_even_d5_tw3.json", "rational_even_d5_tw3_verify.json", EXIT_OK),
        ("rational_even_d3_corrupt.json", "rational_even_d3_corrupt_verify.json", EXIT_VERIFY),
        ("ratfun_even_d3.json", "ratfun_even_d3_verify.json", EXIT_OK),
        ("rational_odd_d4_conj.json", "rational_odd_d4_conj_verify.json", EXIT_VERIFY),
    ],
)
def test_verify_golden(tmp_path, monkeypatch, module, golden, code):
    """The report is the golden's bytes, from one fingerprint."""
    calls = []
    fingerprint = daha.cli.det_fingerprint
    monkeypatch.setattr(daha.cli, "det_fingerprint", lambda m: calls.append(m) or fingerprint(m))
    out = tmp_path / "verify.json"
    assert run("verify", "--in", str(DATA / module), "--out", str(out)) == code
    assert out.read_bytes() == (DATA / golden).read_bytes()
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_rational_module_with_a_constant_pipe_entry_reads_as_rational(tmp_path, command):
    # t1 entry (0, 0) of this module is 2/3; the edited copy writes it "2/3 | 1"
    plain, edited = tmp_path / "plain.json", tmp_path / "edited.json"
    assert run("construct", "--parity", "even", "--q", "2", "--k", "1/4,2/3,3,5/7",
               "--d", "3", "--out", str(plain)) == EXIT_OK
    data = json.loads(plain.read_text())
    assert data["t"][1]["entries"][0][0] == "2/3"
    data["t"][1]["entries"][0][0] = "2/3 | 1"
    edited.write_text(json.dumps(data))
    for path in (plain, edited):
        out = tmp_path / f"{path.stem}.{command}.json"
        assert run(command, "--in", str(path), "--out", str(out)) == EXIT_OK
    assert (tmp_path / f"edited.{command}.json").read_bytes() == \
        (tmp_path / f"plain.{command}.json").read_bytes()


def test_commands_refuse_modules_that_fail_the_relations(tmp_path):
    bad = str(DATA / "rational_even_d3_corrupt.json")
    good = tmp_path / "good.json"
    run("construct", "--parity", "even", "--d", "3", "--k", "1/4,2/3,3,5/7", "--q", "2",
        "--out", str(good))
    out = tmp_path / "out.json"
    for command in ("irreducible", "classify"):
        assert run(command, "--in", bad, "--out", str(out)) == EXIT_VERIFY
        data = json.loads(out.read_text())
        assert data["verdict"] == "invalid" and not data["relations"]["ok"], command
    for a, b in ((bad, str(good)), (str(good), bad)):
        assert run("intertwiner", "--a", a, "--b", b, "--out", str(out)) == EXIT_VERIFY
        data = json.loads(out.read_text())
        assert data["verdict"] == "invalid" and not data["relations"]["ok"]
    assert run("irreducible", "--in", str(good), "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["agrees"] is True


@pytest.mark.parametrize("e", range(4))
def test_twist_refuses_a_module_that_fails_the_relations(tmp_path, capsys, e):
    """Like classify, twist writes the "invalid" verdict and exits 5, also
    for e = 0, where it would otherwise copy the file."""
    bad = str(DATA / "rational_even_d3_corrupt.json")
    out, classified = tmp_path / "out.json", tmp_path / "classify.json"
    assert run("twist", "--in", bad, "--e", str(e), "--out", str(out)) == EXIT_VERIFY
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text())
    assert data["verdict"] == "invalid" and not data["relations"]["ok"]
    assert run("classify", "--in", bad, "--out", str(classified)) == EXIT_VERIFY
    assert out.read_bytes() == classified.read_bytes()


@pytest.mark.parametrize("parity,d", [("even", 2), ("odd", 3), ("even", -1), ("odd", -2)])
def test_sweep_rejects_a_d_of_the_wrong_parity(tmp_path, capsys, parity, d):
    out = tmp_path / "sweep.json"
    argv = ("sweep", "--parity", parity, "--d", str(d), "--grid", "2", "--out", str(out))
    assert run(*argv) == EXIT_CONSTRAINT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_sweep_rejects_a_grid_below_one(tmp_path, capsys, grid):
    """A sweep of no samples would report agreement over nothing."""
    out = tmp_path / "sweep.json"
    argv = ("sweep", "--parity", "even", "--d", "3", "--grid", grid, "--out", str(out))
    assert run(*argv) == EXIT_CONSTRAINT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("backend", ["ratfun", "rational", "both"])
def test_selftest_rejects_a_negative_grid(tmp_path, capsys, backend):
    """A negative grid used to run as --grid 0 and report a pass."""
    out = tmp_path / "selftest.json"
    argv = ("selftest", "--grid", "-3", "--backend", backend, "--out", str(out))
    assert run(*argv) == EXIT_CONSTRAINT
    captured = capsys.readouterr()
    assert captured.err == "error: grid must be at least 0, got -3\n"
    assert captured.out == ""
    assert not out.exists()


def test_back_to_back_main_calls_behave_like_fresh_ones(tmp_path, capsys, monkeypatch):
    """main shares one parser across calls; a usage error or --help in
    between leaves later calls unchanged."""
    monkeypatch.setenv("COLUMNS", "80")
    mod, first, second = tmp_path / "mod.json", tmp_path / "c1.json", tmp_path / "c2.json"
    assert run("construct", "--parity", "even", "--q", "2", "--k", "1/2,1,3,1",
               "--d", "1", "--out", str(mod)) == EXIT_OK
    assert run("classify", "--in", str(mod), "--out", str(first)) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        run("classify", "--bogus")
    assert usage.value.code == 2
    usage_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as helped:
        run("--help")
    assert helped.value.code == 0
    help_out = capsys.readouterr().out
    assert run("classify", "--in", str(mod), "--out", str(second)) == EXIT_OK
    assert second.read_bytes() == first.read_bytes()

    src = os.path.dirname(os.path.dirname(daha.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")

    def fresh(*argv):
        return subprocess.run([sys.executable, "-m", "daha", *argv],
                              capture_output=True, text=True, env=env)

    proc = fresh("classify", "--in", str(mod))
    assert proc.returncode == EXIT_OK and proc.stdout.encode() == first.read_bytes()
    proc = fresh("classify", "--bogus")
    assert proc.returncode == 2 and proc.stderr == usage_err
    proc = fresh("--help")
    assert proc.returncode == 0 and proc.stdout == help_out


# The classify goldens through the closure and the intertwining
# equations alone; the tests above take the standard-basis route.
@pytest.mark.parametrize("module,golden", [
    ("rational_even_d5_tw3.json", "rational_even_d5_tw3_classify.json"),
    ("rational_odd_d4_conj.json", "rational_odd_d4_conj_classify.json"),
    ("ratfun_even_d3.json", "ratfun_even_d3_classify.json"),
])
def test_classify_goldens_through_the_fallback(tmp_path, fallback, module, golden):
    out = tmp_path / "cls.json"
    assert daha.analysis._standard_intertwiner(None, None) is None
    assert run("classify", "--in", str(DATA / module), "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_classify_goldens_take_the_standard_basis_route(tmp_path, monkeypatch):
    """The goldens are classified by the route that starts from an
    eigenvector of X, Norton's test and a standard basis, with no
    closure."""
    calls = []
    monkeypatch.setattr(daha.analysis, "span_closure", calls.append)
    for module in ("rational_even_d5_tw3.json", "rational_odd_d4_conj.json", "ratfun_even_d3.json"):
        assert run("classify", "--in", str(DATA / module), "--out", str(tmp_path / "c.json")) == EXIT_OK
    assert calls == []


def _differential_grid(conjugate, old_format):
    """The JSON of irreducible modules of both families at d <= 5 with all
    twists, some in a random basis, reducible ones from single
    violations, formal-q modules in pipe form and in the old form that
    prints constants as bare rationals, and a formal module with the
    non-monomial k1 = (1+q)/(2-q)."""
    rng = random.Random("classify-differential")
    modules, docs = [], []
    for d in range(6):
        even = d % 2
        sampler, make, crit = (
            (sample_even, make_E, criterion_E) if even else (sample_odd, make_O, criterion_O)
        )
        p = sampler(rng, d)
        while not crit(p):
            p = sampler(rng, d)
        module = make(p)
        modules += [twist(module, e) for e in range(4)]
        modules.append(conjugate(twist(module, rng.randrange(4)), rng))
        if d:
            bad = adversarial_even(rng, d) if even else adversarial_odd(rng, d)
            modules.append(twist(make(bad), rng.randrange(4)))
        if d < 3:
            p = sampler(rng, d, QQ_Q)
            modules.append(twist(make(p), 1))
            docs.append(old_format(twist(make(p), 3)))
    q = QQ_Q.default_q()
    p = sample_even(rng, 1, QQ_Q).with_k(k1=(1 + q) / (2 - q))
    while not criterion_E(p):
        p = sample_even(rng, 1, QQ_Q).with_k(k1=(1 + q) / (2 - q))
    modules.append(twist(make_E(p), 2))
    return [m.to_json() for m in modules] + docs


def test_classify_json_is_the_same_through_both_routes(tmp_path, monkeypatch, conjugate,
                                                        old_format):
    docs = _differential_grid(conjugate, old_format)
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)

    def outputs():
        got = []
        for path in paths:
            out = tmp_path / "out.json"
            code = run("classify", "--in", str(path), "--out", str(out))
            got.append((code, out.read_bytes()))
        return got

    standard = outputs()
    monkeypatch.setattr(daha.analysis, "_standard_intertwiner", lambda *args: None)
    assert outputs() == standard
    verdicts = [json.loads(text)["verdict"] for _, text in standard]
    assert verdicts.count("reducible") == 5 and verdicts.count("classified") == len(docs) - 5


@pytest.mark.parametrize("parity,d,k", [
    ("even", "1", "-1/2,9/13,16/15,-1"),
    ("odd", "2", "7/9,1/7,-7/2,-9/28"),
])
def test_repeated_x_diagonal_classifies_without_the_fallback(tmp_path, monkeypatch, parity,
                                                             d, k):
    """X has a repeated diagonal entry here, yet an eigenvalue of nullity
    1 lets the standard-basis route decide, with no closure and no
    Sylvester solve, and the forced fallback prints the same bytes."""
    mod = tmp_path / "mod.json"
    run("construct", "--parity", parity, "--q", "2", f"--k={k}", "--d", d, "--out", str(mod))
    calls = {"span_closure": 0, "solve_sylvester_homogeneous": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        for module in (daha.cli, daha.analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    out, forced = tmp_path / "cls.json", tmp_path / "forced.json"
    assert run("classify", "--in", str(mod), "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["verdict"] == "classified"
    assert calls == {"span_closure": 0, "solve_sylvester_homogeneous": 0}
    monkeypatch.setattr(daha.analysis, "_standard_intertwiner", lambda *args: None)
    assert run("classify", "--in", str(mod), "--out", str(forced)) == EXIT_OK
    assert forced.read_bytes() == out.read_bytes()


def test_irreducible_refuses_params_that_do_not_fit_the_matrices(tmp_path, capsys):
    mod = tmp_path / "mod.json"
    run("construct", "--parity", "even", "--d", "3", "--k", "1/4,2/3,3,5/7", "--q", "2",
        "--out", str(mod))
    data = json.loads(mod.read_text())
    data["params"]["k"][3] = "4"  # the matrices still satisfy the relations
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("irreducible", "--in", str(bad)) == EXIT_CONSTRAINT
    captured = capsys.readouterr()
    assert captured.out == "" and "not match its params" in captured.err
    assert run("verify", "--in", str(bad)) == EXIT_VERIFY
    # a twisted module is not compared with the criterion, so it passes
    tw = tmp_path / "tw.json"
    run("twist", "--in", str(bad), "--e", "1", "--out", str(tw))
    assert run("irreducible", "--in", str(tw)) == EXIT_OK
