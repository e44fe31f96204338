import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import biops
from biops import biortho, cli
from biops.asep import stationary_mpa
from biops.cli import main
from biops.expr import eval_expr, parse
from biops.report import CheckReport
from biops.ring import Poly2, ALPHA, BETA, AB
from biops.tensor import linear_form
from oracles import TensorElem

SRC = os.path.dirname(os.path.dirname(os.path.abspath(biops.__file__)))
CORPUS = json.loads(Path(__file__).with_name("stdout_corpus.json").read_text())


def run_subprocess(*argv, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "biops.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          timeout=120)


# Runs main(argv) in a fresh interpreter, then writes the sorted names of
# the loaded biops modules as the last line of stderr.
LOADED_MODULES = """
import json, sys
import biops.cli
code = biops.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == "biops")), file=sys.stderr)
sys.exit(code)
"""

# what `import biops.cli` loads, and what each subcommand adds to it
BASE = {"biops", "biops.cli", "biops.errors"}
SHOCK = BASE | {"biops.ring", "biops.tensor"}
EXPR = SHOCK | {"biops.expr"}
BIORTHO = BASE | {"biops.ring", "biops.bimoment", "biops.biortho",
                  "biops.report"}
MATREP = BIORTHO | {"biops.matrep"}
ASEP = SHOCK | {"biops.asep", "biops.report"}
EVERY = {"biops"} | {f"biops.{name[:-3]}" for name in
                     os.listdir(os.path.dirname(biops.__file__))
                     if name.endswith(".py") and name != "__init__.py"}
COLD_START = [  # the README examples, and L of a power
    ((), BASE),
    (("L", "e1*e2"), EXPR),
    (("L", "(e1*e2)^3"), EXPR),
    # both emit the closed-form determinant under the LDU certificate
    (("bimoment", "--n", "3"), BIORTHO),
    (("det", "--n", "5"), BIORTHO),
    (("poly", "--which", "P", "--n", "3"), BIORTHO),
    (("lambda", "--n", "2"), BIORTHO),
    (("moments", "--dim", "6"), BIORTHO),
    # the shock ring loads only where it runs: for cheb, the moments of L
    (("represent", "P(1)*Q(1)", "--dim", "6", "--rep", "hat"),
     MATREP | {"biops.expr"}),
    (("second-moment", "--dim", "6"), MATREP),
    (("cheb", "--max-n", "6", "--reading", "corrected"),
     MATREP | {"biops.tensor"}),
    (("stationary", "--L", "4", "--alpha", "1/2", "--beta", "1/3"), ASEP),
    (("stationary", "--L", "4", "--alpha", "1/2", "--beta", "1/3",
      "--symbolic"), ASEP),
    (("compare", "--L", "5", "--alpha", "2/3", "--beta", "1/4"), ASEP),
    # the suites parse no expression
    (("check", "--max-n", "6", "--seed", "0"), EVERY - {"biops.expr"}),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSmoke:
    def test_L(self, capsys):
        code, out, _ = run_cli(capsys, "L", "e1*e2")
        assert code == 0
        obj = json.loads(out)
        assert obj["expr"] == "e1*e2"
        assert sorted(obj["text"].replace(" ", "")) == sorted("a^2*b+a*b^2")

    def test_L_long_word(self, capsys):
        m = 1000
        code, out, _ = run_cli(capsys, "L", f"e1^{m}*e2")
        assert code == 0
        expected = AB**m * BETA
        for j in range(1, m + 1):
            expected = expected + AB**j * ALPHA**(m - j + 1)
        assert Poly2.from_obj(json.loads(out)["L"]) == expected

    # the tasep deck's L requests: Z_L = L((e1+e2)^L), and the second
    # moments L((e1 e2)^k) = (alpha*beta)^k Z_k
    @pytest.mark.parametrize("src, k, scale", [
        *((f"(e1+e2)^{n}", n, 0) for n in (8, 9, 10)),
        *((f"(e1*e2)^{k}", k, k) for k in range(14, 19))])
    def test_L_of_the_deck_expressions(self, capsys, src, k, scale):
        from biops.asep import partition_Z
        want = AB**scale * partition_Z(k)
        code, out, _ = run_cli(capsys, "L", src)
        assert code == 0
        assert out == json.dumps({"expr": src, "L": want.to_obj(),
                                  "text": str(want)},
                                 indent=2, sort_keys=True) + "\n"

    # the algebra deck's L requests: its four expression forms, each with
    # every one of its five scalars; word expansion is the oracle
    @pytest.mark.parametrize("src", [
        "a*Q(2)*e1*P(1) + e1^3",
        "b*Q(2)*e1*P(1) + e1^3",
        "a*b*Q(2)*e1*P(1) + e1^3",
        "2*Q(2)*e1*P(1) + e1^3",
        "3*Q(2)*e1*P(1) + e1^3",
        "a*P(3)*e1^2*Q(3)",
        "b*P(3)*e1^2*Q(3)",
        "a*b*P(3)*e1^2*Q(3)",
        "2*P(3)*e1^2*Q(3)",
        "3*P(3)*e1^2*Q(3)",
        "a*e2^2*P(2) + P(1)*e1*Q(2)*e2",
        "b*e2^2*P(2) + P(1)*e1*Q(2)*e2",
        "a*b*e2^2*P(2) + P(1)*e1*Q(2)*e2",
        "2*e2^2*P(2) + P(1)*e1*Q(2)*e2",
        "3*e2^2*P(2) + P(1)*e1*Q(2)*e2",
        "P(2)*Q(2)*P(2) + a*e2^4 + a*Q(1)",
        "P(2)*Q(2)*P(2) + b*e2^4 + b*Q(1)",
        "P(2)*Q(2)*P(2) + a*b*e2^4 + a*b*Q(1)",
        "P(2)*Q(2)*P(2) + 2*e2^4 + 2*Q(1)",
        "P(2)*Q(2)*P(2) + 3*e2^4 + 3*Q(1)",
    ])
    def test_L_of_the_algebra_deck_expressions(self, capsys, src):
        want = linear_form(eval_expr(parse(src), TensorElem))
        code, out, _ = run_cli(capsys, "L", src)
        assert code == 0
        assert out == json.dumps({"expr": src, "L": want.to_obj(),
                                  "text": str(want)},
                                 indent=2, sort_keys=True) + "\n"

    def test_bimoment(self, capsys):
        code, out, _ = run_cli(capsys, "bimoment", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 2
        assert len(obj["entries"]) == 3

    def test_det(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--n", "3")
        assert code == 0
        assert json.loads(out)["matches_closed_form"] is True

    def test_poly(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--which", "P", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["variable"] == "e1"
        assert len(obj["coeffs"]) == 3

    def test_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--n", "1")
        assert code == 0
        terms = {(t["a"], t["b"]): t["c"] for t in json.loads(out)["lambda"]}
        assert terms == {(2, 1): "1", (1, 2): "1", (1, 1): "-1"}

    def test_moments(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--dim", "4")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"X", "Y", "Xbar", "Ybar", "Xhat", "Yhat"}

    def test_represent(self, capsys):
        code, out, _ = run_cli(capsys, "represent", "e1", "--dim", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 4
        assert obj["valid_block"] == 3

    def test_represent_corner_is_L(self, capsys):
        # (e1+e2)^12 is 4,096 words, evaluated as 12 matrix products
        code, out, _ = run_cli(capsys, "represent", "(e1+e2)^12",
                               "--dim", "16")
        assert code == 0
        corner = json.loads(out)["entries"][0][0]
        code, out, _ = run_cli(capsys, "L", "(e1+e2)^12")
        assert code == 0
        assert corner == {"k0": json.loads(out)["L"], "k1": []}

    def test_represent_formal_degree(self, capsys):
        # the longest words cancel; the valid block follows the degree 3
        code, out, _ = run_cli(capsys, "represent", "e1^3 - e1^3",
                               "--dim", "6")
        assert code == 0
        assert json.loads(out)["valid_block"] == 3

    def test_second_moment(self, capsys):
        code, out, _ = run_cli(capsys, "second-moment", "--dim", "4")
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_cheb(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "--max-n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["reading"] == "corrected"
        assert len(obj["polys"]) == 4

    def test_stationary(self, capsys):
        code, out, _ = run_cli(capsys, "stationary", "--L", "2",
                               "--alpha", "1/2", "--beta", "1/3")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["states"]) == 4

    def test_compare(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--L", "3",
                                 "--alpha", "1/2", "--beta", "1/3")
        assert code == 0
        assert err.startswith("PASS")

    def test_check(self, capsys):
        code, out, err = run_cli(capsys, "check", "--max-n", "3")
        assert code == 0
        lines = [l for l in err.splitlines() if l]
        assert lines and all(l.startswith("PASS") for l in lines)

    @pytest.mark.parametrize("command", ["cheb", "check"])
    def test_max_n_zero(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--max-n", "0")
        assert code == 0, err
        assert json.loads(out)


class TestColdStart:
    """Each README example, in a fresh interpreter, loads exactly the
    modules its subcommand runs; a branch that uses a name it never
    imported fails here too."""

    @pytest.mark.parametrize("argv, modules", COLD_START, ids=[
        " ".join(argv) or "import" for argv, _ in COLD_START])
    def test_loads_only_what_the_subcommand_runs(self, argv, modules):
        env = dict(os.environ, PYTHONPATH=SRC)
        r = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                           capture_output=True, env=env, timeout=120)
        err = r.stderr.decode()
        assert r.returncode == 0, err
        if argv:
            json.loads(r.stdout)
        assert set(json.loads(err.splitlines()[-1])) == modules


class TestFormats:
    def test_csv_stationary(self, capsys):
        code, out, _ = run_cli(capsys, "stationary", "--L", "1",
                               "--alpha", "1/2", "--beta", "1/3",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["probability", "state", "weight"]
        assert len(lines) == 3

    def test_csv_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "L", "e1", "--format", "csv")
        assert code == 0
        assert "expr,e1" in out

    def test_csv_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "stationary", "--L", "2",
                               "--alpha", "1/2", "--beta", "1/3",
                               "--format", "csv")
        assert code == 0
        assert out == ("probability,state,weight\r\n1/6,00,1/9\r\n"
                       "5/24,10,5/36\r\n1/4,01,1/6\r\n3/8,11,1/4\r\n")
        code, out, _ = run_cli(capsys, "L", "e1*e2", "--format", "csv")
        assert code == 0
        assert out == ('L,"[{""a"": 2, ""b"": 1, ""c"": ""1""}, '
                       '{""a"": 1, ""b"": 2, ""c"": ""1""}]"\r\n'
                       "expr,e1*e2\r\ntext,a^2*b + a*b^2\r\n")

    @pytest.mark.parametrize("argv, make, several", [
        (("stationary", "--L", "9", "--alpha", "7/9", "--beta", "9/4",
          "--symbolic"),
         lambda: stationary_mpa(9, Fraction(7, 9),
                                Fraction(9, 4)).to_obj(symbolic=True), True),
        (("L", "0*e1"), lambda: {"expr": "0*e1", "L": [], "text": "0"},
         False),
    ], ids=["stationary", "zero"])
    def test_json_is_one_dumps_written_in_batches(self, monkeypatch, argv,
                                                  make, several):
        class SizingStdout(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        obj = make()
        out = SizingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(list(argv)) == 0
        text = out.getvalue()
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        # a bare `text == expected` would have pytest diff the whole answer
        same = text == expected
        assert same, (f"{len(text)} characters against {len(expected)}, "
                      f"first differing at {mismatch(text, expected)}")
        # a write goes out once more than _FLUSH characters are pending,
        # so it holds at most one piece beyond them
        largest = max(map(len, cli._pieces(obj, "\n", 2)))
        assert (len(out.sizes) > 1) is several
        assert max(out.sizes) <= cli._FLUSH + largest

    @pytest.mark.parametrize("argv", [
        ("stationary", "--L", "12", "--alpha", "2/3", "--beta", "3/7",
         "--symbolic"),
        ("bimoment", "--n", "16"),
        ("cheb", "--max-n", "24"),
        ("moments", "--dim", "16"),
        ("check", "--max-n", "6"),
    ], ids=" ".join)
    def test_large_answers_are_written_as_json_dumps_writes_them(
            self, monkeypatch, capsys, argv):
        answers = []
        emit = cli._emit

        def recording_emit(obj, fmt):
            answers.append(obj)
            emit(obj, fmt)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        [obj] = answers
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        # a bare `out == expected` would have pytest diff megabytes
        same = out == expected
        assert same, f"differs from json.dumps at {mismatch(out, expected)}"


def mismatch(text, expected):
    """The index of the first character where `text` and `expected`
    differ, or the length of the shorter."""
    return next((i for i, pair in enumerate(zip(text, expected))
                 if pair[0] != pair[1]), min(len(text), len(expected)))


def written(obj):
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(obj, "json")
    return out.getvalue()


_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\n\t\x7f'),
                max_size=6)
_KEYS = _TEXT | st.sampled_from("abcd")
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | _TEXT)
# dicts shaped like a Poly2 term record {"a": int, "b": int, "c": str},
# and ones that only look like it
_TERMS = st.fixed_dictionaries(
    {"a": st.integers() | st.booleans(), "b": st.integers(),
     "c": _TEXT | st.integers()}, optional={"d": _SCALARS})


def json_trees(depth):
    if not depth:
        return _SCALARS
    below = json_trees(depth - 1)
    return (_SCALARS | _TERMS | st.lists(below, max_size=3)
            | st.dictionaries(_KEYS, below, max_size=3))


class TestJsonWriter:
    """The CLI writes JSON as json.dumps(obj, indent=2, sort_keys=True)
    would, on any JSON tree with str keys."""

    @settings(max_examples=300, deadline=None)
    @given(json_trees(5))
    def test_equals_json_dumps(self, obj):
        assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("record", [
        {"a": True, "b": 1, "c": "1"},
        {"a": 1, "b": 2, "c": 3},
        {"a": 1, "b": 2, "c": "3", "d": 4},
        {"a": 1, "b": 2},
        {"a": -1, "b": 0, "c": "\"\\\n\u00e9\x00"},
    ], ids=["bool a", "int c", "extra key", "no c", "escaped c"])
    def test_term_record_look_alikes(self, record):
        # an item of a list two or more deep is the one tested for a term
        real = {"a": 0, "b": 0, "c": "0"}
        for obj in (record, [record], [[[record]]],
                    {"w": [[real, record, real]]}):
            assert written(obj) == json.dumps(obj, indent=2,
                                              sort_keys=True) + "\n"


class TestPinnedStdout:
    """The sha256 of stdout and the exit code of every request in
    tests/stdout_corpus.json: the benchmark decks' requests, `stationary`
    and `compare` over a range of L, and the README examples.  A change
    that means to alter one of these answers re-records it with
    tests/record_stdout_corpus.py, on purpose."""

    @pytest.mark.parametrize("argv, entry", [
        (tuple(entry["argv"]), entry) for entry in CORPUS
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_stdout_bytes(self, capsys, argv, entry):
        code, out, _ = run_cli(capsys, *argv)
        assert code == entry["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "L", "e1^^2")
        assert code == 2
        assert "parse error" in err

    def test_degenerate_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "stationary", "--L", "1",
                               "--alpha", "1/2", "--beta=-1/2")
        assert code == 1
        assert "error" in err

    def test_failed_certificate_exit_1(self, capsys, monkeypatch):
        def failing(n):
            rep = CheckReport("LDU certificate")
            rep.record(False, "(P B Q^T)[0][0]")
            return rep

        monkeypatch.setattr(biortho, "ldu_certificate", failing)
        code, out, _ = run_cli(capsys, "det", "--n", "3")
        assert code == 1
        assert json.loads(out)["matches_closed_form"] is False
        code, out, err = run_cli(capsys, "bimoment", "--n", "3")
        assert code == 1
        assert out == ""
        assert err == "error: the LDU certificate does not prove det B_3\n"

    def test_wrong_closed_form_exit_1(self, capsys, monkeypatch):
        # the closed form that the certificate checks is off by 1 at n = 2
        right = biortho.det_closed_form
        monkeypatch.setattr(biortho, "det_closed_form",
                            lambda n: right(n) + (n == 2))
        code, out, _ = run_cli(capsys, "det", "--n", "3")
        assert code == 1
        assert json.loads(out)["matches_closed_form"] is False
        code, out, _ = run_cli(capsys, "det", "--n", "1")
        assert code == 0
        assert json.loads(out)["matches_closed_form"] is True

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["det"])
        assert e.value.code == 2

    def test_bad_fraction_exit_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["stationary", "--L", "1", "--alpha", "x", "--beta", "1/2"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("stationary", "--L", "0", "--alpha", "1/2", "--beta", "1/3"),
        ("compare", "--L", "-2", "--alpha", "1/2", "--beta", "1/3"),
        ("det", "--n", "-1"),
        ("bimoment", "--n", "-1"),
        ("lambda", "--n", "x"),
        ("check", "--max-n", "-1"),
        ("moments", "--dim", "-1"),
        ("moments", "--dim", "1"),
        ("represent", "e1", "--dim", "1"),
        ("second-moment", "--dim", "-1"),
        ("second-moment", "--dim", "2"),
    ], ids=" ".join)
    def test_bad_size_exit_2(self, argv):
        r = run_subprocess(*argv)
        err = r.stderr.decode()
        assert r.returncode == 2, err
        assert "usage:" in err
        assert "Traceback" not in err
        assert r.stdout == b""

    @pytest.mark.parametrize("src", ["(" * 400 + "e1" + ")" * 400,
                                     "-" * 2000 + "e1"],
                             ids=["parens", "minus"])
    def test_deep_nesting_exit_2(self, src):
        r = run_subprocess("L", "--", src)
        err = r.stderr.decode()
        assert r.returncode == 2, err
        assert "parse error" in err
        assert "Traceback" not in err
        assert r.stdout == b""

    @pytest.mark.parametrize("argv", [
        ("L", "7" * 5000),
        ("L", "e1^" + "7" * 5000),
        ("represent", "P(" + "7" * 5000 + ")", "--dim", "4"),
    ], ids=["scalar", "exponent", "index"])
    def test_integer_too_long_exit_2(self, argv):
        r = run_subprocess(*argv)
        err = r.stderr.decode()
        assert r.returncode == 2, err
        assert "parse error" in err
        assert "Traceback" not in err
        assert r.stdout == b""

    @pytest.mark.parametrize("argv", [
        ("represent", "e1^3000", "--dim", "16"),
        ("represent", "e1^3 - e1^3", "--dim", "4"),
        ("represent", "0*e2", "--dim", "2"),
    ], ids=["power", "cancelled", "zero"])
    def test_formal_degree_too_large_exit_1(self, argv):
        r = run_subprocess(*argv)
        err = r.stderr.decode()
        assert r.returncode == 1, err
        assert err.startswith("error: ") and "formal degree" in err
        assert "Traceback" not in err
        assert r.stdout == b""

    def test_output_number_too_long_exit_1(self, monkeypatch):
        # a short input whose answer, 3^9100, has 4,342 digits
        monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
        r = run_subprocess("L", "3^9100")
        err = r.stderr.decode()
        assert r.returncode == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert r.stdout == b""

    def test_closed_stdout(self):
        # the reader is gone before the first write: every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = run_subprocess("L", "(e1+e2)^8", stdout=write_end)
        finally:
            os.close(write_end)
        assert r.returncode == 1
        assert r.stderr == b""

    def test_reader_closes_stdout_mid_answer(self):
        # the reader takes the first 50 bytes of a long answer and closes
        # the pipe while the CLI is still writing
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = ("stationary", "--L", "12", "--alpha", "2/3", "--beta", "3/7")
        with subprocess.Popen([sys.executable, "-m", "biops.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            head = proc.stdout.read(50)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert len(head) == 50
        assert code == 1, err.decode()
        assert err == b""

    def test_bad_max_dim_exit_2(self, monkeypatch):
        monkeypatch.setenv("BIOPS_MAX_DIM", "abc")
        r = run_subprocess("moments", "--dim", "4")
        err = r.stderr.decode()
        assert r.returncode == 2, err
        assert "BIOPS_MAX_DIM" in err and "Traceback" not in err
        assert r.stdout == b""

    def test_nonpositive_rate_exit_1(self, capsys):
        for argv in (("compare", "--L", "3", "--alpha", "0", "--beta", "1/2"),
                     ("stationary", "--L", "2", "--alpha", "-1",
                      "--beta", "1/2"),
                     ("stationary", "--L", "2", "--alpha", "0",
                      "--beta", "1/2")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert "rates must be positive" in err
            assert out == ""

    def test_max_dim_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BIOPS_MAX_DIM", "5")
        code, _, err = run_cli(capsys, "second-moment", "--dim", "6")
        assert code == 1
        assert "BIOPS_MAX_DIM" in err
        monkeypatch.setenv("BIOPS_MAX_DIM", "6")
        code, out, _ = run_cli(capsys, "second-moment", "--dim", "6")
        assert code == 0
