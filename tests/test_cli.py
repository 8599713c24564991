import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rolcheck import GAUSSIAN_RATIONAL, Matrix, matrix_from_json, matrix_to_json
from rolcheck import mp_exists, mp_inverse, prime_field
from rolcheck.cli import main
from rolcheck.harness import random_matrix_of_rank
from rolcheck.matrices import random_matrix

REPO = Path(__file__).resolve().parents[1]


def run_cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [sys.executable, "-m", "rolcheck", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, **kw)


def test_importing_main_module_runs_nothing(monkeypatch, capsys):
    """Only `python -m rolcheck` runs the CLI; importing rolcheck.__main__,
    as a walk over every module does, neither exits nor prints."""
    monkeypatch.delitem(sys.modules, "rolcheck.__main__", raising=False)
    module = importlib.import_module("rolcheck.__main__")
    assert module.main is main
    assert capsys.readouterr() == ("", "")


def write_matrix(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


IDENTITY2 = {
    "domain": "gaussian_rational",
    "rows": 2,
    "cols": 2,
    "entries": [["1", "0"], ["0", "1"]],
}
WITNESS_A = {
    "domain": "gaussian_rational",
    "rows": 2,
    "cols": 2,
    "entries": [["1", "0"], ["0", "0"]],
}
WITNESS_B = {
    "domain": "gaussian_rational",
    "rows": 2,
    "cols": 2,
    "entries": [["1", "1"], ["1", "1"]],
}
F5_NO_MP = {
    "domain": {"prime_field": 5},
    "rows": 2,
    "cols": 2,
    "entries": [["1", "0"], ["2", "0"]],
}


def test_mp_identity(tmp_path):
    f = tmp_path / "a.json"
    write_matrix(f, IDENTITY2)
    out = tmp_path / "out.json"
    result = run_cli(["mp", "--in", str(f), "--json", str(out)])
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text()) == IDENTITY2


def test_mp_no_inverse_over_f5(tmp_path):
    f = tmp_path / "a.json"
    write_matrix(f, F5_NO_MP)
    result = run_cli(["mp", "--in", str(f)])
    assert result.returncode == 1
    assert "no Moore-Penrose inverse" in result.stderr


def test_groupinv_nilpotent_fails(tmp_path):
    f = tmp_path / "a.json"
    write_matrix(f, {
        "domain": "gaussian_rational", "rows": 2, "cols": 2,
        "entries": [["0", "1"], ["0", "0"]],
    })
    result = run_cli(["groupinv", "--in", str(f)])
    assert result.returncode == 1


def test_kcheck(tmp_path):
    a = tmp_path / "a.json"
    x = tmp_path / "x.json"
    write_matrix(a, {
        "domain": "gaussian_rational", "rows": 2, "cols": 2,
        "entries": [["1", "1"], ["0", "0"]],
    })
    write_matrix(x, {
        "domain": "gaussian_rational", "rows": 2, "cols": 2,
        "entries": [["1/2", "0"], ["1/2", "0"]],
    })
    result = run_cli(["kcheck", "--a", str(a), "--x", str(x), "--k", "1,2,3,4"])
    assert result.returncode == 0
    assert "True" in result.stdout


KCHECK_KS = ({1}, {1, 3}, {1, 4}, {1, 2, 3}, {1, 2, 3, 4}, {2, 4})


def _kcheck_pool():
    """(a, x) pairs over Q(i) and F_5.  For each a with a Moore-Penrose
    inverse: a+, a {1,3}-, {1,4}-, {1,2,3}- and {1}-inverse built from it,
    zero and a random matrix.  The F_5 matrix with no a+ comes with a
    random x."""
    rng = random.Random(24)
    pool = [(matrix_from_json(F5_NO_MP), random_matrix(prime_field(5), 2, 2, rng))]
    for domain in (GAUSSIAN_RATIONAL, prime_field(5)):
        for rows, cols, r in ((2, 2, 1), (3, 3, 2), (2, 3, 1), (3, 2, 2)):
            a = next(a for a in (random_matrix_of_rank(domain, rows, cols, r, rng)
                                 for _ in range(100)) if mp_exists(a))
            ad = mp_inverse(a)
            y = random_matrix(domain, cols, rows, rng)
            z = random_matrix(domain, cols, rows, rng)
            left = Matrix.identity(cols, domain) - ad @ a
            right = Matrix.identity(rows, domain) - a @ ad
            for x in (ad, ad + left @ y, ad + y @ right, ad + left @ y @ a @ ad,
                      ad + left @ y + z @ right, Matrix.zeros(cols, rows, domain), y):
                pool.append((a, x))
    return pool


def test_kcheck_flags_are_the_written_out_penrose_equations(tmp_path, capsys):
    seen = set()
    out = tmp_path / "out.json"
    for n, (a, x) in enumerate(_kcheck_pool()):
        ax, xa = a @ x, x @ a
        eqs = {"eq1": ax @ a == a, "eq2": xa @ x == x,
               "eq3": ax.star() == ax, "eq4": xa.star() == xa}
        a_path, x_path = tmp_path / f"a{n}.json", tmp_path / f"x{n}.json"
        write_matrix(a_path, matrix_to_json(a))
        write_matrix(x_path, matrix_to_json(x))
        for ks in KCHECK_KS:
            k = ",".join(str(j) for j in sorted(ks))
            code = main(["kcheck", "--a", str(a_path), "--x", str(x_path), "--k", k,
                         "--json", str(out)])
            member = all(eqs[f"eq{j}"] for j in ks)
            assert code == 0
            assert capsys.readouterr().out == (
                f"member of a{{{k}}}: {member}\n"
                + "  " + "  ".join(f"{e}={v}" for e, v in eqs.items()) + "\n")
            expected = {"member": member, "k": sorted(ks), "penrose": eqs}
            assert out.read_text() == json.dumps(expected, indent=2) + "\n"
            seen.add((k, member))
    assert len(seen) == 2 * len(KCHECK_KS), sorted(seen)


@pytest.mark.parametrize("x_shape, k", [((2, 3), "1"), ((2, 2), "1,3"), ((3, 2), ""),
                                        ((3, 2), "1,5")])
def test_kcheck_malformed_input_exits_3(tmp_path, capsys, x_shape, k):
    a_path, x_path = tmp_path / "a.json", tmp_path / "x.json"
    write_matrix(a_path, matrix_to_json(Matrix.zeros(2, 3, GAUSSIAN_RATIONAL)))
    write_matrix(x_path, matrix_to_json(Matrix.zeros(*x_shape, GAUSSIAN_RATIONAL)))
    assert main(["kcheck", "--a", str(a_path), "--x", str(x_path), "--k", k]) == 3
    assert capsys.readouterr().out == ""


def test_law_check_c27_lambda_two(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out = tmp_path / "report.json"
    write_matrix(a, WITNESS_A)
    write_matrix(b, WITNESS_B)
    result = run_cli([
        "law", "check", "--law", "C27", "--a", str(a), "--b", str(b),
        "--lambda", "2", "--json", str(out),
    ])
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["verdict"] == "equivalent"
    assert report["statement_values"] == {"i": True, "ii": True, "iii": True}


def test_law_check_single_statement(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_matrix(a, WITNESS_A)
    write_matrix(b, WITNESS_B)
    result = run_cli([
        "law", "check", "--law", "GREVILLE", "--a", str(a), "--b", str(b),
        "--stmt", "i",
    ])
    assert result.returncode == 0
    assert "False" in result.stdout


def test_suite_runs_clean_and_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["suite", "--law", "T23", "--trials", "20", "--size", "2",
            "--seed", "42", "--weight", "commutant"]
    r1 = run_cli(args + ["--json", str(out1)])
    r2 = run_cli(args + ["--json", str(out2)])
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["violations"] == []
    assert report["trials"] == 20
    assert report["seed"] == 42


def test_law_search_finds_greville_witness_and_replays(tmp_path):
    out = tmp_path / "witness.json"
    result = run_cli([
        "law", "search", "--law", "GREVILLE", "--stmt", "i", "--size", "2",
        "--budget", "100", "--seed", "1", "--weight", "identity",
        "--json", str(out),
    ])
    assert result.returncode == 1, result.stdout + result.stderr
    found = json.loads(out.read_text())
    assert found["found"] is True
    witness = found["witness"]

    # replay: the serialized instance reproduces the reported value
    a = tmp_path / "wa.json"
    b = tmp_path / "wb.json"
    write_matrix(a, witness["a"])
    write_matrix(b, witness["b"])
    replay = run_cli([
        "law", "check", "--law", "GREVILLE", "--a", str(a), "--b", str(b),
        "--stmt", "i",
    ])
    assert replay.returncode == 0
    assert "False" in replay.stdout


def test_law_search_theorem_yields_nothing(tmp_path):
    result = run_cli([
        "law", "search", "--law", "T23", "--size", "2", "--budget", "10",
        "--seed", "3",
    ])
    assert result.returncode == 0
    assert "no counterexample" in result.stdout


def test_malformed_input_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli(["mp", "--in", str(bad)]).returncode == 3
    missing = run_cli(["mp", "--in", str(tmp_path / "nope.json")])
    assert missing.returncode == 3
    assert run_cli(["suite", "--law", "T99", "--trials", "1"]).returncode == 3
    assert run_cli(["suite", "--law", "T23", "--size", "99", "--trials", "1"]).returncode == 3
    assert run_cli(["nonsense"]).returncode == 3


def test_suite_rejects_a_commutant_weight_for_a_scalar_law():
    # Trial 0 at this seed has no a+, so it never reaches its weight; the
    # spec is rejected before it.
    result = run_cli(["suite", "--law", "C27", "--domain", "fp:3", "--size", "3", "--seed", "1",
                      "--weight", "commutant", "--trials", "1"])
    assert result.returncode == 3, result.stdout + result.stderr
    assert "takes a scalar weight" in result.stderr
    assert "Traceback" not in result.stderr


def _one_by_one(**fields):
    return {"domain": "gaussian_rational", "rows": 1, "cols": 1, "entries": [["5"]], **fields}


@pytest.mark.parametrize("obj", [
    _one_by_one(entries=[[5]]),
    _one_by_one(entries=[[None]]),
    _one_by_one(entries="5"),
    _one_by_one(entries=["5"]),
    _one_by_one(rows=True),
    _one_by_one(cols=True),
    _one_by_one(rows=1.0),
    _one_by_one(domain={"prime_field": True}),
    _one_by_one(domain={"prime_field": "5"}),
    _one_by_one(entries=[["1/0"]]),
    _one_by_one(entries=[["1/0i"]]),
    _one_by_one(entries=[["\u0661"]]),
    _one_by_one(domain={"prime_field": 5}, entries=[["\u0661"]]),
    "[" * 100_000,
], ids=["int-entry", "null-entry", "string-entries", "string-row", "bool-rows",
        "bool-cols", "float-rows", "bool-prime", "string-prime", "zero-den",
        "zero-den-imag", "arabic-indic-digit", "arabic-indic-digit-prime", "deep-nesting"])
def test_malformed_matrix_file_exits_3(tmp_path, obj):
    """obj is the matrix JSON, or the text of the file when a string."""
    f = tmp_path / "bad.json"
    if isinstance(obj, str):
        f.write_text(obj, encoding="utf-8")
    else:
        write_matrix(f, obj)
    result = run_cli(["mp", "--in", str(f)])
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr


def test_prime_field_suite_cli(tmp_path):
    out = tmp_path / "fp.json"
    result = run_cli([
        "suite", "--law", "T23", "--trials", "30", "--size", "2",
        "--domain", "fp:5", "--seed", "9", "--json", str(out),
    ])
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["domain"] == {"prime_field": 5}
    assert report["violations"] == []
    assert report["hypothesis_skips"] > 0


# The witness-draw budgets and their seed are fixed; no flag sets them, so a
# zero budget is refused as an unrecognized argument before any trial.
@pytest.mark.parametrize("law", ["T23", "T32"])
@pytest.mark.parametrize("flag", ["--samples", "--falsify-samples"])
@pytest.mark.parametrize("command", ["suite", "law search", "law check"])
def test_zero_draw_count_exits_3_before_any_trial(tmp_path, capsys, command, law, flag):
    from rolcheck.cli import main

    if command == "law check":
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a, IDENTITY2)
        write_matrix(b, IDENTITY2)
        argv = ["law", "check", "--law", law, "--a", str(a), "--b", str(b)]
    else:
        argv = [*command.split(), "--law", law, "--size", "2", "--weight", "identity",
                "--seed", "1", "--trials" if command == "suite" else "--budget", "3"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "0"])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines()[-1].endswith(f"error: unrecognized arguments: {flag} 0"), err


def test_law_check_seed_flag_exits_3_as_unrecognized(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a, IDENTITY2)
    write_matrix(b, IDENTITY2)
    result = run_cli(["law", "check", "--law", "T32", "--a", str(a), "--b", str(b),
                      "--seed", "1"])
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout == ""
    assert "unrecognized arguments: --seed 1" in result.stderr
    assert "Traceback" not in result.stderr


F5_AB_NO_MP = (
    {"domain": {"prime_field": 5}, "rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "1"]]},
    {"domain": {"prime_field": 5}, "rows": 2, "cols": 2, "entries": [["0", "1"], ["1", "2"]]},
)


@pytest.mark.parametrize("pair", ["hypotheses-met", "ab-without-mp"])
@pytest.mark.parametrize("extra,message", [
    (["--stmt", "iv"], "input error"),
    (["--stmt", "i", "--samples", "0"], "unrecognized arguments: --samples 0"),
    (["--stmt", "i", "--falsify-samples", "0"], "unrecognized arguments: --falsify-samples 0"),
], ids=["unknown-stmt", "zero-samples", "zero-falsify-samples"])
def test_bad_law_check_input_exits_3_whatever_the_data(tmp_path, pair, extra, message):
    # Over F_5, ab has no Moore-Penrose inverse in the second pair, so the
    # GREVILLE hypotheses fail; the input error must still win.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    first, second = (IDENTITY2, IDENTITY2) if pair == "hypotheses-met" else F5_AB_NO_MP
    write_matrix(a, first)
    write_matrix(b, second)
    result = run_cli(["law", "check", "--law", "GREVILLE", "--a", str(a), "--b", str(b),
                      *extra])
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout == ""
    assert message in result.stderr
