"""CLI wiring: every subcommand, exit codes, JSON round trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import unimodular
from unimodular.cli import main
from unimodular.constructions import GLUE_A15_T3, GLUE_D16_T4, SHAVE_30, SHAVE_32
from unimodular.genus import genus_mass
from unimodular.lattice import lattice_from_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_text(capsys):
    code, out, _ = run(capsys, "table1", "--from", "8", "--to", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "bound", "odd", "even", "known", "attained", "by"]
    assert lines[1].split()[:5] == ["8", "2", "1", "2", "2"]
    assert lines[2].split()[:4] == ["9", "1", "1", "-"]


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--from", "8", "--to", "9", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [8, 9]
    assert rows[0]["bound"] == 2 and rows[1]["bound"] == 1


def test_bound_scan_text(capsys):
    code, out, _ = run(capsys, "bound", "--dim", "9", "--mu", "2")
    assert code == 0
    assert "n=9 mu=2: infeasible (non-integral coefficient)" in out
    assert "a_1 = -18" in out
    assert "theta" in out and "shadow" in out


def test_bound_scan_json(capsys):
    code, out, _ = run(capsys, "bound", "--dim", "33", "--mu", "4", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "infeasible" and d["reason"] == "rank obstruction"
    assert len(d["branches"]) == 2


def test_bound_certificate(capsys):
    code, out, _ = run(capsys, "bound", "--dim", "12")
    assert code == 0
    assert "mu_upper(12) = 2" in out
    code, out, _ = run(capsys, "bound", "--dim", "16", "--json")
    d = json.loads(out)
    assert d["mu_upper"] == 2 and d["dim"] == 16
    # the scan at mu = 1 passes Z^4 (its shadow vectors split across two cosets)
    code, out, _ = run(capsys, "bound", "--dim", "4")
    assert code == 0 and "mu_upper(4) = 1" in out


def test_theta_and_shadow(capsys):
    code, out, _ = run(capsys, "theta", "--lattice", "z3", "--max-norm", "2", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 3 and d["display"] == "1 + 6*q + 12*q^2"
    code, out, _ = run(capsys, "shadow", "--lattice", "z3", "--max-norm", "2")
    assert code == 0
    assert "8*q^(3/4)" in out


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--lattice", "z8", "--min", "1")
    assert code == 0 and "odd unimodular, dim 8, minimal norm 1" in out
    code, out, _ = run(capsys, "verify", "--lattice", "z8", "--min", "2")
    assert code == 2 and "FAIL" in out
    code, out, _ = run(capsys, "verify", "--lattice", "a15+", "--min", "2")
    assert code == 0


def test_construct_code_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "ham.json"
    code, out, _ = run(capsys, "construct", "code", "--code", "hamming8",
                       "--out", str(out_file))
    assert code == 0 and "dim 8" in out
    L = lattice_from_json_dict(json.loads(out_file.read_text()))
    assert L.dim == 8
    # the written file is accepted wherever a lattice argument is
    code, out, _ = run(capsys, "verify", "--lattice", str(out_file), "--min", "2")
    assert code == 0 and "even unimodular" in out


def test_construct_glue_identity(capsys):
    code, out, _ = run(capsys, "construct", "glue", "--base", "z2",
                       "--target", "1", "--verify-min", "1")
    assert code == 0
    assert "found doubling map at target 1" in out
    assert "dim 4, odd unimodular" in out and "verified" in out


def test_construct_glue_explicit_images(tmp_path, capsys):
    out_file = tmp_path / "d4.json"
    code, out, _ = run(capsys, "construct", "glue", "--base", "z2",
                       "--images", "1,2", "--out", str(out_file))
    assert code == 0 and out_file.exists()
    code, out, _ = run(capsys, "construct", "glue", "--base", "z2",
                       "--images", "1,1")
    assert code == 2  # not an isometry


def test_construct_glue_search_failure(capsys):
    code, out, _ = run(capsys, "construct", "glue", "--base", "z2", "--target", "9")
    assert code == 1 and "no doubling map found" in out


def test_construct_shave(tmp_path, capsys):
    out_file = tmp_path / "z3.json"
    code, out, _ = run(capsys, "construct", "shave", "--lattice", "z4",
                       "--vector", "1,1,1,1", "--verify-min", "1",
                       "--out", str(out_file))
    assert code == 0 and "dim 3, odd unimodular" in out and "verified" in out
    code, out, _ = run(capsys, "construct", "shave", "--lattice", "z4",
                       "--vector", "1,0,0,0")
    assert code == 2  # wrong norm -> ValueError -> exit 2


def test_code_info(capsys):
    code, out, _ = run(capsys, "code-info", "--code", "golay24", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["length"] == 24 and d["dimension"] == 12
    assert d["self_dual"] and d["doubly_even"] and d["min_distance"] == 8
    assert d["weight_enumerator"]["8"] == 759


def test_genus_avg(capsys):
    code, out, _ = run(capsys, "genus-avg", "--dim", "33", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 33 and len(d["c"]) == 9
    code, out, _ = run(capsys, "genus-avg", "--dim", "9", "--upto", "2")
    assert code == 0 and "c_j = [0, 16/17, 1/17]" in out
    code, out, _ = run(capsys, "genus-avg", "--dim", "12", "--upto", "2")
    assert code == 0 and "c_j = [0, 1/2, 1/2, 0]" in out


def test_genus_bound(capsys):
    code, out, _ = run(capsys, "genus-bound", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 33 and Fraction(d["mass"]) == genus_mass(33)
    assert d["count_lower"].startswith("200622370593700250691")
    assert Fraction(d["count_lower"]) >= 8 * 10 ** 20
    code, out, _ = run(capsys, "genus-bound", "--dim", "33")
    assert code == 0 and "8.09598e+20" in out and "(1.40766e+21)" in out
    for n in range(5, 41):
        assert run(capsys, "genus-bound", "--dim", str(n))[0] == 0


def _digest(capsys, *argvs):
    h = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        h.update(out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("argvs, digest", [
    ([["table1", "--json"]],
     "d5c207966cb1d2523cc72768acff589d3c935957e440bb6a2f3884a59300eeeb"),
    ([["bound", "--dim", "33", "--mu", "4"]],
     "4779fc52e14a8d5660018c3c2d0de92977a1f2f6db1a92586c947c4698ee5381"),
    ([["genus-avg", "--dim", str(n), "--json"] for n in range(5, 41)],
     "d151723f5660f03f053ae053ffd12b839e4dceabab39e18d2eaa115aae24d028"),
    ([["genus-bound", "--dim", "33", "--json"]],
     "ee4a7c53cd17cd843933cc79e9184b4d3e277eaea2df2d36769a36077e442241"),
], ids=["table1", "bound33", "genus-avg", "genus-bound"])
def test_series_engine_outputs_are_pinned(capsys, argvs, digest):
    # a speed-up of the series or genus engine must print the same bytes
    assert _digest(capsys, *argvs) == digest


def _csv(values):
    return ",".join(map(str, values))


@pytest.mark.parametrize("argv, digest", [
    (["construct", "code", "--code", "golay24"],
     "bd0c85d945ea7b6af841a769e77ec4d1709fee6156d4fc4f49a0051faf5743ce"),
    (["construct", "code", "--code", "rm32"],
     "e6ff090781996a504bd476a05f7eff1de98a368afb1a5a6aee9c614ef40b6600"),
    (["construct", "glue", "--base", "a15+", "--images", _csv(GLUE_A15_T3)],
     "4cf3ab5d0ffacc5372d087476c4604c2fd80581da32f848a16c7c33a1ad253b4"),
    (["construct", "glue", "--base", "d16+", "--images", _csv(GLUE_D16_T4)],
     "6db3e0324e431741e7e8e20be63590c274c4fcca35fc9807848630edfe7872cf"),
    (["construct", "shave", "--lattice", "glue30", "--vector=" + _csv(SHAVE_30)],
     "164fd51121243395ad4be97bf16036adf85aabf100908aa21ab30ea3d0ce322c"),
    (["construct", "shave", "--lattice", "glue32", "--vector=" + _csv(SHAVE_32)],
     "d13653f7af4596653d2e3d6c1ea15959040b83ebeb9dd30d2bc03d6950e7a9f5"),
], ids=["golay24", "rm32", "glue-a15", "glue-d16", "shave29", "shave31"])
def test_construction_outputs_are_pinned(tmp_path, capsys, argv, digest):
    # a change to the lattice engine or the builds must write the same bytes
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cli_error_paths(capsys):
    code, _, err = run(capsys, "verify", "--lattice", "nosuch")
    assert code == 2 and err == (
        "error: no lattice file or builtin named 'nosuch' (builtins: a15+, d16+, glue30, "
        "glue32, shave29, shave31, z<N>, code:<name>)\n")
    code, _, err = run(capsys, "code-info", "--code", "nosuch")
    assert code == 2 and "unknown code" in err
    code, _, err = run(capsys, "theta", "--lattice", "code:nosuch", "--max-norm", "1")
    assert code == 2
    for cmd in ("theta", "shadow"):  # used to say "truncation must be positive"
        code, out, err = run(capsys, cmd, "--lattice", "z2", "--max-norm", "-1")
        assert code == 2 and out == "" and err == "error: --max-norm must be at least 0, got -1\n"


def _gram_file(tmp_path, gram):
    """A lattice file holding the Gram matrix `gram`, or the dict `gram`
    itself when the case needs a field other than the Gram."""
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram if isinstance(gram, dict) else {"dim": len(gram), "gram": gram}))
    return str(path)


_I4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("argv, gram, status", [
    (["construct", "shave", "--lattice", "{file}", "--vector", "1,1,1,1"], _I4, 0),
    (["construct", "glue", "--base", "{file}", "--images", "1,2,4,8"], _I4, 0),
    (["verify", "--lattice", "z0"], None, 2),
    (["theta", "--lattice", "{file}", "--max-norm", "2"], [[1, 0], [0, "7/8"]], 2),
    (["verify", "--lattice", "z1", "--min", "1/0"], None, 2),
    (["verify", "--lattice", "{file}"], [["1/0"]], 2),
    # the genus average, so the count bound, needs dimension > 4
    (["genus-bound", "--dim", "4"], None, 2),
    (["construct", "glue", "--base", "z2", "--images", "9,2"], None, 2),
    (["construct", "glue", "--base", "z2", "--images=-1,2"], None, 2),
    # x.v is not an integer on a non-integral lattice
    (["construct", "shave", "--lattice", "{file}", "--vector", "1,0"],
     [[4, "1/2"], ["1/2", 1]], 2),
    (["genus-bound", "--dim", "0"], None, 2),
    (["genus-bound", "--dim", "-3"], None, 2),
    # the dimension-9 average is solved through norm 12
    (["genus-avg", "--dim", "9", "--upto", "13"], None, 2),
    (["genus-avg", "--dim", "9", "--upto", "-3"], None, 2),
    # the glue search's byte tables hold targets up to 64
    (["construct", "glue", "--base", "a15+", "--target", "200"], None, 2),
    # no doubling map has a minimum below 1
    (["construct", "glue", "--base", "a15+", "--target", "-5"], None, 2),
    (["construct", "glue", "--base", "a15+", "--target", "0"], None, 2),
    # dim must be a JSON integer and Gram entries exact: int() once read
    # 1.9 and true as dimension 1, and parse_rat read 1.0 as 1
    (["verify", "--lattice", "{file}"], {"dim": 1.9, "gram": [[1]]}, 2),
    (["verify", "--lattice", "{file}"], {"dim": True, "gram": [[1]]}, 2),
    (["verify", "--lattice", "{file}"], {"dim": "1", "gram": [[1]]}, 2),
    (["verify", "--lattice", "{file}"], [[1.0]], 2),
    # a string row was read digit by digit, "10", "01" as Z^2
    (["verify", "--lattice", "{file}"], ["10", "01"], 2),
    # a name that is not a string was passed through str() and printed
    (["verify", "--lattice", "{file}"], {"dim": 1, "gram": [[1]], "name": {"a": 1}}, 2),
    # generators given with a Gram must agree with it
    (["verify", "--lattice", "{file}"], {"dim": 1, "gram": [[1]], "generators": [[2]]}, 2),
    # an unknown lattice name; the error names the builtins
    (["verify", "--lattice", "leech"], None, 2),
])
def test_cli_bad_inputs(tmp_path, capsys, argv, gram, status):
    if gram is not None:
        path = _gram_file(tmp_path, gram)
        argv = [path if a == "{file}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == status
    if status == 2:
        assert out == ""  # nothing is printed before the error
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("extra", [
    {"generators": 5},
    {"generators": None},
    {"generators": [5]},
    {"generators": [[1], 5]},
    {"generators": [[1]], "scale_sq": None},
    {"generators": [[1]], "scale_sq": [1]},
    {"generators": ["1"]},
])
def test_bad_generators_are_an_invalid_lattice_file(tmp_path, capsys, extra):
    # generators and scale_sq are read inside the file check: a TypeError
    # there once escaped as a traceback with exit status 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "gram": [[1]], **extra}))
    code, out, err = run(capsys, "verify", "--lattice", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid lattice file: ") and len(err.splitlines()) == 1


def test_verify_fails_an_indefinite_gram(tmp_path, capsys):
    path = _gram_file(tmp_path, [[2, 1, 0], [1, 1, 0], [0, 0, -1]])
    code, out, err = run(capsys, "verify", "--lattice", path)
    assert code == 2 and err == ""
    assert out == "FAIL: %s is not-unimodular(not positive definite)\n" % path


@pytest.mark.parametrize("argv, gram, line", [
    (["construct", "glue", "--base", "{file}", "--images", "1"], [[2]],
     "double(L): dim 2, not unimodular (det=4)"),
    (["construct", "shave", "--lattice", "{file}", "--vector", "0,1"], [[2, 0], [0, 4]],
     "shave(L): dim 1, not unimodular (det=2)"),
])
def test_construct_reports_a_non_unimodular_result(tmp_path, capsys, argv, gram, line):
    path = _gram_file(tmp_path, gram)
    code, out, _ = run(capsys, *[path if a == "{file}" else a for a in argv])
    assert code == 0 and out == line + "\n"


@pytest.mark.parametrize("argv", [
    ["construct", "glue", "--base", "z2", "--images", "-1,2"],  # -1,2 reads as an option
    ["verify", "--lattice"],
    ["bound", "--dim", "33", "--mu", "4", "--trunc", "17"],  # no such option
    ["genus-bound", "--dim", "33", "--mass", "1"],  # the mass is computed, not given
])
def test_argparse_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "usage:" not in err


def test_numpy_is_never_imported():
    # numpy is blocked, so any import of it raises ImportError
    src = os.path.dirname(os.path.dirname(os.path.abspath(unimodular.__file__)))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from unimodular.constructions import GLUE_A15_T3, a15_plus_fixture, find_glue\n"
        "assert find_glue(a15_plus_fixture(), 3).images == GLUE_A15_T3\n"
        "from unimodular.cli import main\n"
        "assert main(['construct', 'glue', '--base', 'a15+', '--target', '3']) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# fuzzing the construct commands

_ENTRIES = ["0", "1", "-1", "2", "3", "4", "1/2", "-1/2", "3/2"]


def _fuzz_cases():
    """(Gram entries, command, coordinates, --verify-min) for `construct
    shave` and `construct glue` on small symmetric rational Grams."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        n = draw(st.integers(1, 4))
        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = draw(st.sampled_from(_ENTRIES))
        what = draw(st.sampled_from(["shave", "glue"]))
        length = draw(st.sampled_from([n] * 6 + [n - 1, n + 1]))
        if what == "shave":
            coords = draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length))
        else:
            coords = draw(st.lists(st.integers(-1, (1 << n) + 1),
                                   min_size=length, max_size=length))
        verify = draw(st.sampled_from([None, None, 1, 2]))
        return gram, what, coords, verify

    return case()


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_construct_fuzz(tmp_path_factory):
    # every input exits 0, 2 after a failed --verify-min, or 2 with one
    # `error:` line; an exception escaping main() would be a traceback
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("fuzz") / "gram.json"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_fuzz_cases())
    def check(case):
        gram, what, coords, verify = case
        path.write_text(json.dumps({"dim": len(gram), "gram": gram}))
        flag, arg = ("--vector", "--lattice") if what == "shave" else ("--images", "--base")
        argv = ["construct", what, arg, str(path),
                "%s=%s" % (flag, ",".join(map(str, coords)))]
        if verify is not None:
            argv += ["--verify-min", str(verify)]
        code, out, err = _run_quietly(argv)
        if code == 2 and err:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        else:
            assert code == 0 or (code == 2 and "FAIL" in out), (code, out, err)
            assert err == ""

    check()


def test_bound_fuzz():
    # `bound` on small dimensions, with and without --mu and --json: every
    # input exits 0, or 2 with one `error:` line
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(-2, 16), st.one_of(st.none(), st.integers(-2, 6)),
                      st.booleans())
    def check(dim, mu, as_json):
        argv = ["bound", "--dim", str(dim)]
        if mu is not None:
            argv += ["--mu", str(mu)]
        if as_json:
            argv.append("--json")
        code, out, err = _run_quietly(argv)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        else:
            assert code == 0 and out and err == "", (code, out, err)
            if as_json:
                json.loads(out)

    check()


# ---------------------------------------------------------------------------
# fuzzing the lattice-reading commands


def _lattice_file_cases():
    """(lattice JSON, argv) for `verify`, `theta` and `shadow` on small
    Gram files: random symmetric Grams, Grams of random generators (written
    with them, or with one entry off), and Z^n under a random basis."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        n = draw(st.integers(1, 4))
        data = {"dim": n}
        kind = draw(st.sampled_from(["gram", "gram", "gens", "bad-gens", "zn"]))
        if kind == "gram":
            gram = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = draw(st.sampled_from(_ENTRIES))
        else:
            if kind == "zn":  # integer shears of the identity
                gens = [[int(i == j) for j in range(n)] for i in range(n)]
                for i, j, q in draw(st.lists(st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
                        max_size=6)):
                    if i != j:
                        gens[i] = [a + q * b for a, b in zip(gens[i], gens[j])]
            else:
                gens = [[Fraction(draw(st.sampled_from(_ENTRIES))) for _ in range(n)]
                        for _ in range(n)]
            gram = [[sum(a * b for a, b in zip(r, s)) for s in gens] for r in gens]
            if kind == "bad-gens":
                gram[0][0] += 1
            if kind != "zn" or draw(st.booleans()):
                data["generators"] = [[str(x) for x in row] for row in gens]
        data["gram"] = [[str(x) for x in row] for row in gram]
        what = draw(st.sampled_from(["verify", "theta", "shadow"]))
        if what == "verify":
            extra = draw(st.sampled_from([[], [], ["--min", "1"], ["--min", "2"],
                                          ["--min", "3/2"]]))
        else:
            extra = ["--max-norm", str(draw(st.integers(-1, 3)))]
            extra += draw(st.sampled_from([[], ["--json"]]))
        return data, [what, "--lattice", "{file}"] + extra

    return case()


def test_lattice_command_fuzz(tmp_path_factory):
    # every input exits 0, 2 after a failed verify, or 2 with one `error:`
    # line; an exception escaping main() would be a traceback
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("fuzz") / "lattice.json"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_lattice_file_cases())
    def check(case):
        data, argv = case
        path.write_text(json.dumps(data))
        code, out, err = _run_quietly([str(path) if a == "{file}" else a for a in argv])
        if code == 2 and err:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert out == ""
        else:
            assert code == 0 or (code == 2 and argv[0] == "verify" and "FAIL" in out), \
                (code, out, err)
            assert err == ""

    check()
