"""In-process fuzz of the CLI on malformed matrix JSON.

Each case starts from valid square matrices, breaks exactly one input
(its JSON text, its nesting depth, a key, the domain tag, the shape, the
entry structure or one scalar literal) and runs `mp`, `groupinv`, `kcheck` or `law check`
through cli.main.  Every case must exit 3 with a one-line message on
stderr and no traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolcheck.cli import main

DOMAIN_TAGS = ("gaussian_rational", {"prime_field": 5})
GOOD_LITERALS = {
    "gaussian_rational": ("0", "1", "-2/3", "1/2-1i", "i"),
    "prime_field": ("0", "1", "4", "-3"),
}
# Digits of other scripts, which int() and Fraction() accept: Arabic-Indic
# one, Devanagari three and fullwidth two.
OTHER_DIGITS = ("\u0661", "1/\u0969", "\u0969i", "1+\uff12i", "\uff12")
BAD_LITERALS = {
    "gaussian_rational": ("1/0", "1/0i", "2-1/0i", "1.5", "1e3", "ii", "1//2", "+-1",
                          "1/-2", "0x10", "1/2/3", "nan", "1 2", "3+i+i", "j") + OTHER_DIGITS,
    "prime_field": ("1/2", "1/0", "i", "2i", "1.0", "0x10", "--1", "nan", "1 2",
                    "\u0661", "-\u0969", "\uff12"),
}
BAD_DOMAINS = ("qi", "gaussian", 5, None, [], {}, {"prime_field": 4}, {"prime_field": 2},
               {"prime_field": -5}, {"prime_field": 2**40}, {"prime_field": 5.0},
               {"prime_field": True}, {"prime_field": "7"}, {"prime_field": 5, "x": 1})
BAD_SHAPES = (True, False, 1.5, "2", None, -1, [2])
BAD_ENTRY_VALUES = (0, 1.5, None, True, ["1"], {"re": 1})
NO_DIGITS = st.text(alphabet="xyz.e_ */+-", min_size=1, max_size=6)


def _kind(domain):
    return "gaussian_rational" if domain == "gaussian_rational" else "prime_field"


@st.composite
def _valid_matrix(draw, domain, n):
    literal = st.sampled_from(GOOD_LITERALS[_kind(domain)])
    entries = [[draw(literal) for _ in range(n)] for _ in range(n)]
    return {"domain": domain, "rows": n, "cols": n, "entries": entries}


@st.composite
def _broken(draw, matrix):
    """The matrix broken in one way, as the text of its file."""
    obj = json.loads(json.dumps(matrix))
    n = obj["rows"]
    how = draw(st.sampled_from(
        ["text", "deep", "top", "key", "domain", "shape", "entries", "row", "entry", "literal"]))
    if how == "text":
        # Shorter than the smallest valid matrix object, so never valid.
        return draw(st.text(max_size=20))
    if how == "deep":
        # Deeper than the JSON decoder's recursion limit.
        return "[" * draw(st.integers(10_000, 100_000))
    if how == "top":
        obj = draw(st.sampled_from([None, 3, "m", [], [obj]]))
    elif how == "key":
        del obj[draw(st.sampled_from(["domain", "rows", "cols", "entries"]))]
    elif how == "domain":
        obj["domain"] = draw(st.sampled_from(BAD_DOMAINS))
    elif how == "shape":
        key = draw(st.sampled_from(["rows", "cols"]))
        obj[key] = draw(st.sampled_from(BAD_SHAPES + (n + 1, n - 1)))
    elif how == "entries":
        obj["entries"] = draw(st.sampled_from(["1", 5, None, {}, obj["entries"][:-1]]))
    elif how == "row":
        i = draw(st.integers(0, n - 1))
        obj["entries"][i] = draw(st.sampled_from(["1", None, obj["entries"][i] + ["1"],
                                                  obj["entries"][i][:-1]]))
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if how == "entry":
            bad = draw(st.sampled_from(BAD_ENTRY_VALUES))
        else:
            bad = draw(st.one_of(st.sampled_from(BAD_LITERALS[_kind(obj["domain"])]), NO_DIGITS))
        obj["entries"][i][j] = bad
    return json.dumps(obj)


@st.composite
def _cases(draw):
    """(argv template, files): '{name}' in the template is a file path."""
    domain = draw(st.sampled_from(DOMAIN_TAGS))
    n = draw(st.integers(1, 3))
    command = draw(st.sampled_from(["mp", "groupinv", "kcheck", "law check"]))
    roles = {"mp": ["in"], "groupinv": ["in"], "kcheck": ["a", "x"],
             "law check": ["a", "b", "c"]}[command]
    files = {role: json.dumps(draw(_valid_matrix(domain, n))) for role in roles}
    target = draw(st.sampled_from(roles + (["lambda"] if command == "law check" else [])))
    if command == "mp" or command == "groupinv":
        argv = [command, "--in", "{in}"]
    elif command == "kcheck":
        argv = ["kcheck", "--a", "{a}", "--x", "{x}", "--k", "1,3"]
    elif target == "lambda":
        del files["c"]
        literal = draw(st.sampled_from(BAD_LITERALS[_kind(domain)]))
        argv = ["law", "check", "--law", "T23", "--a", "{a}", "--b", "{b}", f"--lambda={literal}"]
    else:
        argv = ["law", "check", "--law", "T23", "--a", "{a}", "--b", "{b}", "--c", "{c}"]
    if target != "lambda":
        files[target] = draw(_broken(json.loads(files[target])))
    return argv, files


def _run(argv, files):
    """cli.main on argv, '{name}' standing for the path of files[name];
    returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for role, text in files.items():
            paths[role] = Path(tmp) / f"{role}.json"
            paths[role].write_text(text, encoding="utf-8")
        argv = [arg.format(**paths) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_malformed_matrix_json_exits_3(case):
    argv, files = case
    code, message = _run(argv, files)
    assert code == 3, (argv, files, message)
    assert "Traceback" not in message
    assert len(message.strip().splitlines()) == 1, message


def _literal_cases():
    for domain in DOMAIN_TAGS:
        for literal in BAD_LITERALS[_kind(domain)]:
            matrix = json.dumps({"domain": domain, "rows": 1, "cols": 1,
                                 "entries": [[literal]]})
            one = json.dumps({"domain": domain, "rows": 1, "cols": 1, "entries": [["1"]]})
            flag = "qi" if domain == "gaussian_rational" else "fp:5"
            yield ["mp", "--in", "{m}"], {"m": matrix}
            yield ["groupinv", "--in", "{m}"], {"m": matrix}
            yield ["kcheck", "--a", "{one}", "--x", "{m}", "--k", "1"], {"m": matrix, "one": one}
            yield (["law", "check", "--law", "T23", "--a", "{one}", "--b", "{one}",
                    f"--lambda={literal}"], {"one": one})
            yield (["suite", "--law", "C27", "--trials", "1", "--domain", flag,
                    f"--weight=scalar:{literal}"], {})


@pytest.mark.parametrize("argv, files", list(_literal_cases()))
def test_every_bad_literal_exits_3(argv, files):
    """Each listed bad scalar literal, in a matrix file, as --lambda and as
    a scalar weight."""
    code, message = _run(argv, files)
    assert code == 3, (argv, files, message)
    assert "Traceback" not in message
    assert len(message.strip().splitlines()) == 1, message
