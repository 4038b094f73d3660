"""Command-line interface: commands, exit codes, and deterministic output."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ewlgames
from ewlgames import cli
from ewlgames.cli import main

PD_JSON = {
    "rows": ["C", "D"],
    "cols": ["C", "D"],
    "payoffs": [[["3", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]],
}

GI3_JSON = {
    "rows": ["I", "iX", "Q"],
    "cols": ["I", "iX", "Q"],
    "payoffs": [
        [["1", "1"], ["5", "0"], ["3", "3"]],
        [["0", "5"], ["3", "3"], ["5", "0"]],
        [["3", "3"], ["0", "5"], ["1", "1"]],
    ],
}


@pytest.fixture
def pd_file(write_json):
    return write_json("pd.json", PD_JSON)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extend_q_operator(pd_file, write_json, tmp_path, capsys):
    out_path = str(tmp_path / "ext.json")
    code, out, _ = run(
        capsys, "extend", pd_file, "--theta", "0", "--alpha", "1/2pi", "--beta", "0",
        "-o", out_path,
    )
    assert code == 0
    assert "NonInvariant" in out and "exact: true" in out
    data = json.loads(open(out_path).read())
    assert data["rows"] == ["I", "iX", "U"]
    assert data["payoffs"] == [
        [["3", "3"], ["0", "5"], ["1", "1"]],
        [["5", "0"], ["1", "1"], ["0", "5"]],
        [["1", "1"], ["5", "0"], ["3", "3"]],
    ]
    assert data["params"] == {"theta": "0", "alpha": "1/2pi", "beta": "0"}
    assert data["exact"] is True


def test_extend_crossed_average_operator(pd_file, capsys):
    code, out, _ = run(
        capsys, "extend", pd_file, "--theta", "1/2pi", "--alpha", "1/2pi", "--beta", "1/2pi"
    )
    assert code == 0
    assert "class: TypeII (k=0, l=2)" in out
    assert "(9/4, 9/4)" in out


def test_extend_theta_out_of_range_is_domain_error(pd_file, capsys):
    code, _, err = run(
        capsys, "extend", pd_file, "--theta", "2pi", "--alpha", "0", "--beta", "0"
    )
    assert code == 3
    assert "theta" in err


@pytest.mark.parametrize("token", ["huh", "inf", "nan", "1e400", "1/0pi", "--"])
def test_extend_unparseable_angle_is_input_error(pd_file, capsys, token):
    code, _, err = run(
        capsys, "extend", pd_file, "--theta", "0", f"--alpha={token}", "--beta", "0"
    )
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_extend_non_2x2_game_is_domain_error(write_json, capsys):
    path = write_json("g.json", GI3_JSON)
    code, _, _ = run(capsys, "extend", path, "--theta", "0", "--alpha", "0", "--beta", "0")
    assert code == 3


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2


def test_game_schema_error_is_input_error(write_json, capsys):
    path = write_json("bad.json", {"rows": ["A"], "cols": ["B"]})
    code, _, _ = run(capsys, "solve", path)
    assert code == 2


def _pd_with(**changes):
    return json.loads(json.dumps(dict(PD_JSON, **changes)))


def _pd_with_cell(i, j, cell):
    document = _pd_with()
    document["payoffs"][i][j] = cell
    return document


@pytest.mark.parametrize(
    "document",
    [
        _pd_with(rows="CD"),
        _pd_with(cols="CD"),
        _pd_with(rows={"C": 0, "D": 1}),
        _pd_with(payoffs=[{"33": 0, "05": 0}, [["5", "0"], ["1", "1"]]]),
        _pd_with_cell(0, 0, "33"),
        _pd_with_cell(0, 1, {"0": 1, "5": 2}),
        _pd_with_cell(1, 1, [True, True]),
        _pd_with(exact="false"),
        _pd_with(exact=0),
        _pd_with(rows=[None, ["x"]]),
        _pd_with(cols=[1, True]),
        _pd_with_cell(1, 0, ["1e5000", "0"]),
        _pd_with_cell(1, 0, ["-1e-5000", "0"]),
    ],
    ids=[
        "rows-string", "cols-string", "rows-object", "payoff-row-object", "cell-string",
        "cell-object", "payoff-bool", "exact-string", "exact-number", "rows-null",
        "cols-mixed", "payoff-exponent", "payoff-negative-exponent",
    ],
)
def test_game_file_off_the_format_is_input_error(write_json, capsys, document):
    # No string or object may be read by its characters or keys, nor "exact" by its truth.
    code, out, err = run(capsys, "solve", write_json("g.json", document))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "1e400", "NaN"])
def test_non_finite_payoff_is_input_error(tmp_path, capsys, number):
    # Python's json reads all four as non-finite floats.
    path = tmp_path / "pd.json"
    path.write_text(
        '{"rows": ["C", "D"], "cols": ["C", "D"], '
        f'"payoffs": [[[{number}, 3], [0, 5]], [[5, 0], [1, 1]]]}}'
    )
    game = str(path)
    angles = ["--theta", "0", "--alpha", "0", "--beta", "0"]
    for argv in (
        ["solve", game],
        ["extend", game, *angles],
        ["sweep", game, "--thetas", "0", "--alphas", "0", "--betas", "0"],
        ["isocheck", game, game],
        ["reproduce", "--pd-file", game],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err


def test_payoff_beyond_float_range(write_json, capsys):
    huge = dict(PD_JSON, payoffs=[[["1e400", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]])
    game = write_json("huge.json", huge)
    float_built = write_json("huge-float.json", dict(huge, exact=False))
    code, out, _ = run(capsys, "extend", game, "--theta", "0", "--alpha", "1/2pi", "--beta", "0")
    assert code == 0 and "exact: true" in out
    for argv, want in (
        (["extend", game, "--theta", "0.8", "--alpha", "0", "--beta", "0"], 3),
        (["sweep", game, "--thetas", "0.8", "--alphas", "0", "--betas", "0"], 3),
        (["solve", float_built, "--allow-float-solve"], 2),
    ):
        code, _, err = run(capsys, *argv)
        assert code == want, argv
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_failed_float_sweep_leaves_no_partial_csv(write_json, tmp_path, capsys):
    # The theta = 0 point solves; the float point after it cannot be built.
    huge = dict(PD_JSON, payoffs=[[["1e400", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]])
    game = write_json("huge.json", huge)
    grid = ["--thetas", "0,0.8", "--alphas", "0", "--betas", "0"]
    out_path = tmp_path / "part.csv"
    code, _, err = run(capsys, "sweep", game, *grid, "-o", str(out_path))
    assert code == 3 and err.startswith("error:")
    assert not out_path.exists()
    out_path.write_bytes(b"earlier,output\r\n")
    code, _, _ = run(capsys, "sweep", game, *grid, "-o", str(out_path))
    assert code == 3
    assert out_path.read_bytes() == b"earlier,output\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json", "part.csv"]


# A payoff whose printed form has more digits than `str(int)` allows.
BIG_PD_JSON = dict(PD_JSON, payoffs=[[["3", "3"], ["0", "5"]], [["5", "0"], ["1e5000", "1"]]])


@pytest.mark.parametrize(
    "command",
    [
        ["extend", "{game}", "--theta", "0", "--alpha", "0", "--beta", "0", "-o", "{out}"],
        ["solve", "{game}", "-o", "{out}"],
        ["sweep", "{game}", "--thetas", "0", "--alphas", "0", "--betas", "0", "-o", "{out}"],
        ["reproduce", "--pd-file", "{game}"],
    ],
    ids=["extend", "solve", "sweep", "reproduce"],
)
def test_value_too_long_to_print_is_input_error(write_json, tmp_path, capsys, command):
    game = write_json("big.json", BIG_PD_JSON)
    out_path = tmp_path / "out"
    argv = [{"{game}": game, "{out}": str(out_path)}.get(arg, arg) for arg in command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert out == ""
    assert not out_path.exists()


def test_integer_literal_too_long_to_read_is_input_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"rows": ["A"], "cols": ["B"], "payoffs": [[[' + "7" * 5000 + ", 1]]]}")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_solve_dilemma(pd_file, capsys):
    code, out, _ = run(capsys, "solve", pd_file)
    assert code == 0
    assert "(D, D)  payoff (1, 1)" in out
    assert "degenerate: no" in out


def test_solve_full_support_game(write_json, tmp_path, capsys):
    path = write_json("gi3.json", GI3_JSON)
    out_path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "solve", path, "-o", out_path)
    assert code == 0
    assert "p1=(14/25, 2/25, 9/25)" in out
    assert "payoff (51/25, 51/25)" in out
    report = json.loads(open(out_path).read())
    assert report["pure"] == []
    assert report["mixed"] == [
        {
            "p1": ["14/25", "2/25", "9/25"],
            "p2": ["14/25", "2/25", "9/25"],
            "payoff": ["51/25", "51/25"],
        }
    ]
    assert report["degenerate"] is False


def test_solve_1x1(write_json, capsys):
    path = write_json("one.json", {"rows": ["A"], "cols": ["B"], "payoffs": [[["2", "3"]]]})
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert "(A, B)  payoff (2, 3)" in out


def test_float_extension_needs_opt_in(pd_file, tmp_path, capsys):
    ext_path = str(tmp_path / "float_ext.json")
    code, _, _ = run(
        capsys, "extend", pd_file, "--theta", "0.8", "--alpha", "0.3", "--beta", "1.1",
        "-o", ext_path,
    )
    assert code == 0
    code, _, err = run(capsys, "solve", ext_path)
    assert code == 3 and "allow-float-solve" in err
    code, out, _ = run(capsys, "solve", ext_path, "--allow-float-solve")
    assert code == 0
    assert "pure equilibria" in out


def test_off_grid_rational_angle_takes_the_float_route(pd_file, tmp_path, capsys):
    # pi/5 is a rational multiple of pi off the exact grid: cos(pi/5) is irrational.
    ext_path = str(tmp_path / "e.json")
    code, out, _ = run(
        capsys, "extend", pd_file, "--theta", "1/5pi", "--alpha", "0", "--beta", "0",
        "-o", ext_path,
    )
    assert code == 0
    assert out.splitlines()[-1] == "class: NonInvariant  exact: false"
    data = json.loads(open(ext_path).read())
    assert data["params"] == {"theta": "1/5pi", "alpha": "0", "beta": "0"}
    assert data["exact"] is False
    code, out, err = run(capsys, "solve", ext_path)
    assert code == 3 and out == "" and "allow-float-solve" in err


def test_isocheck_variants(pd_file, write_json, capsys):
    swapped = write_json(
        "pd_rows.json",
        {
            "rows": ["D", "C"],
            "cols": ["C", "D"],
            "payoffs": [[["5", "0"], ["1", "1"]], [["3", "3"], ["0", "5"]]],
        },
    )
    code, out, _ = run(capsys, "isocheck", pd_file, swapped)
    assert code == 0
    assert "isomorphic: yes" in out

    other = write_json(
        "other.json",
        {
            "rows": ["A", "B"],
            "cols": ["C", "D"],
            "payoffs": [[["9", "0"], ["1", "1"]], [["3", "3"], ["0", "5"]]],
        },
    )
    code, out, _ = run(capsys, "isocheck", pd_file, other)
    assert code == 0
    assert out.splitlines()[0] == "isomorphic: no"


def test_isocheck_reports_invariance(pd_file, capsys):
    code, out, _ = run(
        capsys, "isocheck", pd_file, pd_file,
        "--theta", "0", "--alpha", "1/2pi", "--beta", "0",
    )
    assert code == 0
    assert "invariant under relabelings: no" in out
    code, out, _ = run(
        capsys, "isocheck", pd_file, pd_file,
        "--theta", "1/2pi", "--alpha", "1/2pi", "--beta", "1/2pi",
    )
    assert "invariant under relabelings: yes" in out


def test_tied_isocheck_warns_in_one_line_on_every_call(write_json, capsys):
    tied = write_json(
        "tie.json", dict(PD_JSON, payoffs=[[["3", "3"], ["0", "5"]], [["5", "0"], ["3", "3"]]])
    )
    for _ in range(2):
        code, out, err = run(
            capsys, "isocheck", tied, tied, "--theta", "1/2pi", "--alpha", "0", "--beta", "0"
        )
        assert code == 0 and out.endswith("invariant under relabelings: yes\n")
        assert err.splitlines() == [
            "warning: empirical invariance checked on a non-generic game; "
            "payoff ties can make the verdict accidental"
        ]


def test_failed_tied_isocheck_prints_only_its_error(write_json):
    # A child process, so that a stray warning would reach its standard error.
    tied = write_json("gi3.json", GI3_JSON)
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "ewlgames.cli", "isocheck", tied, tied,
         "--theta", "1/2pi", "--alpha", "0", "--beta", "0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == "error: extensions need a 2x2 game, got (3, 3)\n"


def test_sweep_csv(pd_file, capsys):
    code, out, _ = run(
        capsys, "sweep", pd_file,
        "--thetas", "0,1/2pi",
        "--alphas", "0,1/2pi",
        "--betas", "1/2pi",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theta", "alpha", "beta", "class", "n_pure", "n_mixed", "payoff1", "payoff2"]
    assert len(rows) == 5
    by_key = {(r[0], r[1], r[2]): r for r in rows[1:]}
    assert by_key[("1/2pi", "1/2pi", "1/2pi")][3] == "TypeII"
    assert by_key[("1/2pi", "1/2pi", "1/2pi")][6] == "9/4"
    assert by_key[("0", "0", "1/2pi")][3] == "NonInvariant"


# The 320-point exact grid: five Niven thetas, and alpha and beta over the
# eight quarter-pi multiples.
QUARTER_PI = "0,1/4pi,1/2pi,3/4pi,pi,5/4pi,3/2pi,7/4pi"
FULL_GRID = ["--thetas", "0,1/3pi,1/2pi,2/3pi,pi", "--alphas", QUARTER_PI, "--betas", QUARTER_PI]


def test_full_grid_sweep_csv_is_unchanged(pd_file, capsys):
    code, out, _ = run(capsys, "sweep", pd_file, *FULL_GRID)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "4f82532571968410f9fefbb42c4a4f9c"


def test_reproduce_json_is_unchanged(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "029eb049729a23ddd18c60e2ccf5c3ce"


def counting_solver(monkeypatch):
    calls = []

    def solve(game):
        calls.append(game.payoffs)
        return ewlgames.support_enumeration(game)

    monkeypatch.setattr(cli, "support_enumeration", solve)
    return calls


def test_sweep_solves_each_distinct_grid_once(pd_file, capsys, monkeypatch):
    calls = counting_solver(monkeypatch)
    code, out, _ = run(capsys, "sweep", pd_file, *FULL_GRID)
    assert code == 0 and len(out.splitlines()) == 1 + 320
    assert len(calls) == len(set(calls)) == 45


def test_sweep_builds_each_weight_table_once(pd_file, capsys, monkeypatch):
    built = []

    def build(game, params):
        built.append(params)
        return ewlgames.build_extension(game, params)

    monkeypatch.setattr(cli, "build_extension", build)
    code, out, _ = run(capsys, "sweep", pd_file, *FULL_GRID)
    assert code == 0 and len(out.splitlines()) == 1 + 320
    assert len(built) == 45
    assert len({ewlgames.outcome_weights(p) for p in built}) == 45


def test_float_sweep_equals_pointwise_solves(pd_file, capsys, monkeypatch):
    # At theta = 0 beta drops out, so the three betas share one snapped grid
    # for each alpha, and the memo is hit.
    thetas, alphas, betas = ["0", "0.5"], ["0.3", "1/2pi"], ["0", "0.4", "1.1"]
    grid = ["--thetas", ",".join(thetas), "--alphas", ",".join(alphas),
            "--betas", ",".join(betas), "--allow-float-solve"]
    calls = counting_solver(monkeypatch)
    code, out, _ = run(capsys, "sweep", pd_file, *grid)
    assert code == 0
    assert len(calls) < 12
    pointwise = []
    for t in thetas:
        for a in alphas:
            for b in betas:
                code, one, _ = run(capsys, "sweep", pd_file, "--thetas", t, "--alphas", a,
                                   "--betas", b, "--allow-float-solve")
                assert code == 0
                pointwise.append(one.splitlines()[1])
    rows = out.splitlines()
    assert rows[1:] == pointwise
    assert all(row.split(",")[4] for row in pointwise)  # every point was solved


def test_sweep_writes_stripped_tokens(pd_file, capsys):
    code, out, _ = run(capsys, "sweep", pd_file, "--thetas", "0, 1/2pi", "--alphas", " 0",
                       "--betas", "1/2pi ,")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[:3] for row in rows[1:]] == [["0", "0", "1/2pi"], ["1/2pi", "0", "1/2pi"]]


# An axis with no angle in it is malformed too.
@pytest.mark.parametrize(
    "thetas, code", [("1/2pi,bogus", 2), ("1/2pi,2pi", 3), (",", 2), ("", 2), (" , ,", 2)]
)
def test_failed_sweep_leaves_no_output(pd_file, tmp_path, capsys, thetas, code):
    out_path = tmp_path / "sweep.csv"
    got, out, err = run(
        capsys, "sweep", pd_file, "--thetas", thetas, "--alphas", "0", "--betas", "0",
        "-o", str(out_path),
    )
    assert got == code and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["extend", "{game}", "--theta", "0", "--alpha", "1/2pi", "--beta", "0"],
        ["solve", "{game}"],
        ["sweep", "{game}", "--thetas", "0", "--alphas", "0", "--betas", "0"],
    ],
    ids=["extend", "solve", "sweep"],
)
def test_unwritable_output_is_input_error(pd_file, tmp_path, capsys, command):
    out_path = tmp_path / "missing-dir" / "out"
    argv = [pd_file if arg == "{game}" else arg for arg in command]
    code, out, err = run(capsys, *argv, "-o", str(out_path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err and ".tmp" not in err
    assert err == f"error: cannot write {out_path}: No such file or directory\n"
    assert out == ""
    assert not out_path.exists()
    assert run(capsys, *argv, "-o", str(out_path)) == (code, out, err)


def test_failed_replace_leaves_no_temporary_file(pd_file, tmp_path, capsys):
    # The output path is a directory, so the finished temporary file cannot
    # replace it.
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(capsys, "solve", pd_file, "-o", str(target))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pd.json", "taken"]
    assert list(target.iterdir()) == []
    # A second process, with another pid, prints the same error.
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "ewlgames.cli", "solve", pd_file, "-o", str(target)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (child.returncode, child.stderr) == (code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-oracle", "--samples", "5", "--games", "1", "--tol", "nan"],
        ["verify-oracle", "--samples", "5", "--games", "1", "--tol", "inf"],
        ["verify-oracle", "--samples", "5", "--games", "1", "--tol=-1"],
        ["verify-oracle", "--samples", "0"],
        ["verify-oracle", "--games=-1"],
        ["isocheck", "{game}", "{game}", "--tol", "nan"],
        ["isocheck", "{game}", "{game}", "--tol=-1"],
    ],
    ids=["oracle-nan", "oracle-inf", "oracle-negative", "samples-0", "games-negative",
         "isocheck-nan", "isocheck-negative"],
)
def test_invalid_tolerance_or_count_is_input_error(pd_file, capsys, argv):
    code, out, err = run(capsys, *[pd_file if arg == "{game}" else arg for arg in argv])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "OK" not in out and "isomorphic" not in out


@pytest.mark.parametrize(
    "angles, code",
    [
        (["--theta", "2pi", "--alpha", "0", "--beta", "0"], 3),
        (["--theta", "2pi", "--alpha", "bogus", "--beta", "0"], 2),
        (["--theta", "1/2pi"], 2),
        (["--alpha", "0", "--beta", "0"], 2),
    ],
    ids=["theta-out-of-range", "alpha-unparseable", "theta-only", "theta-missing"],
)
def test_failed_isocheck_writes_nothing(pd_file, capsys, angles, code):
    got, out, err = run(capsys, "isocheck", pd_file, pd_file, *angles)
    assert got == code
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert out == ""


def test_isocheck_with_tolerance_finds_identity(pd_file, capsys):
    code, out, _ = run(capsys, "isocheck", pd_file, pd_file, "--tol", "1e-9")
    assert code == 0
    assert "isomorphic: yes" in out


def test_isocheck_with_tolerance_beyond_float_range(write_json, capsys):
    big = write_json(
        "big.json",
        {
            "rows": ["C", "D"],
            "cols": ["C", "D"],
            "payoffs": [[["1e400", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]],
        },
    )
    code, out, err = run(capsys, "isocheck", big, big, "--tol", "1e-9")
    assert (code, err) == (0, "")
    assert out.startswith("isomorphic: yes\n")


def test_sweep_skips_float_solving_without_opt_in(pd_file, capsys):
    code, out, _ = run(
        capsys, "sweep", pd_file, "--thetas", "0.5", "--alphas", "0.25", "--betas", "0"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][3] == "NonInvariant"
    assert rows[1][4] == "" and rows[1][6] == ""


def test_verify_oracle(capsys):
    code, out, _ = run(capsys, "verify-oracle", "--samples", "50", "--seed", "1", "--games", "2")
    assert code == 0
    assert "OK: within 1e-12" in out
    # At zero tolerance the oracles' rounding differences fail the check.
    code, out, _ = run(capsys, "verify-oracle", "--samples", "5", "--games", "1", "--tol", "0")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL: deviation exceeds 0"


def test_reproduce_passes(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "11/11 claims pass" in out
    assert "FAIL" not in out


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert len(data["claims"]) == 11


def test_reproduce_corrupted_game_fails_q_claim(write_json, capsys):
    corrupted = dict(PD_JSON, payoffs=[[["4", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]])
    path = write_json("corrupted.json", corrupted)
    code, out, _ = run(capsys, "reproduce", "--pd-file", path)
    assert code == 1
    assert "FAIL  Q-extension: unique equilibrium (Q, Q)" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--theta", "1/2pi", "--alpha", "1/4pi", "--beta", "3/4pi")
    assert code == 0
    assert out.strip() == "class: TypeIII (k=-1, l=2)"


def test_classify_accepts_a_signed_bare_pi(capsys):
    # -pi is pi mod 2pi: alpha = pi, beta = 0 at theta = pi/2 is family I.
    code, out, _ = run(capsys, "classify", "--theta", "1/2pi", "--alpha=-pi", "--beta", "0")
    assert code == 0 and out == "class: TypeI (k=2, l=2)\n"
    assert run(capsys, "classify", "--theta", "1/2pi", "--alpha", "+pi", "--beta", "0")[1] == out


def test_near_grid_decimal_angles_are_exact(pd_file, capsys):
    # Ten-digit radians of (pi/2, pi/4, 3pi/4): within 1e-9 of the grid, so
    # every command reads them as the exact operator.
    angles = ["--theta", "1.5707963272", "--alpha", "0.7853981634", "--beta", "2.3561944902"]
    code, out, _ = run(capsys, "classify", *angles)
    assert code == 0 and out == "class: TypeIII (k=-1, l=2)\n"
    code, out, _ = run(capsys, "extend", pd_file, *angles)
    assert code == 0
    assert out.splitlines()[-1] == "class: TypeIII (k=-1, l=2)  exact: true"
    assert out == run(capsys, "extend", pd_file, "--theta", "1/2pi", "--alpha", "1/4pi",
                      "--beta", "3/4pi")[1]
    code, out, _ = run(capsys, "isocheck", pd_file, pd_file, *angles)
    assert code == 0 and out.endswith("invariant under relabelings: yes\n")


def test_identical_invocations_are_byte_identical(pd_file, capsys):
    results = [run(capsys, "solve", pd_file) for _ in range(2)]
    assert results[0] == results[1]



@pytest.mark.parametrize("payoff, code", [("3", 0), ("4", 1)], ids=["passing", "failing"])
def test_closed_stdout_pipe_ends_quietly(write_json, payoff, code):
    # A (C, C) payoff of 4 fails the Q claim.  The read end of the pipe is
    # closed before the child starts, so the child's write always fails.
    pd = dict(PD_JSON, payoffs=[[[payoff, "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]])
    argv = ["reproduce", "--json", "--pd-file", write_json("pd.json", pd)]
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    # Block-buffered, as by default: bytes left in the buffer would fail again
    # at interpreter exit.
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ewlgames.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == code
    assert result.stderr == b""


def _loaded_by_cli_import(module: str) -> str:
    """The probe's answer, "True" or "False": does `import ewlgames.cli` load ``module``?"""
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    probe = f"import sys, ewlgames.cli; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_loads_no_numpy():
    assert _loaded_by_cli_import("numpy") == "False"


def test_cli_import_loads_no_selfcheck():
    # Only verify-oracle and reproduce need the reference suite.
    assert _loaded_by_cli_import("ewlgames.selfcheck") == "False"


# --- fuzzing: any angle string or JSON document ends in a clean exit -----------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
payoff_entries = (
    st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.fractions().map(str)
    | st.sampled_from(["2.25", "1e400", "-1e-400", "1e5000", "1/" + "3" * 4400])
)
bad_cells = st.sampled_from([["1/0", "1"], ["Infinity", "0"], ["NaN", "0"], ["x", "1"], [1]])


@st.composite
def game_documents(draw):
    """Game-shaped documents, mostly well formed, so that most reach the solver.

    At most one field, or one payoff cell, is replaced by something malformed.
    """
    n, m = draw(st.sampled_from([1, 2, 2, 3])), draw(st.sampled_from([1, 2, 2, 3]))
    document = {
        "rows": draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True)),
        "cols": draw(st.lists(st.text(max_size=3), min_size=m, max_size=m, unique=True)),
        "payoffs": draw(
            st.lists(
                st.lists(st.lists(payoff_entries, min_size=2, max_size=2), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        ),
    }
    flaw = draw(st.sampled_from([None, None, None, "rows", "cols", "payoffs", "cell", "exact"]))
    if flaw in ("rows", "cols", "payoffs", "exact"):
        document[flaw] = draw(json_values)
    elif flaw == "cell":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        document["payoffs"][i][j] = draw(bad_cells | json_values)
    return document


angle_tokens = st.text(max_size=12) | st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,2})?pi|[0-9.e+-]{1,8}")


def run_quietly(*argv):
    """main(argv) with its output captured, asserting a clean documented exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def pd_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "pd.json"
    path.write_text(json.dumps(PD_JSON))
    return str(path)


@settings(max_examples=50, deadline=None)
@given(theta=angle_tokens, alpha=angle_tokens, beta=angle_tokens)
def test_fuzz_angle_strings(pd_path, theta, alpha, beta):
    angles = [f"--theta={theta}", f"--alpha={alpha}", f"--beta={beta}"]
    run_quietly("classify", *angles)
    run_quietly("extend", pd_path, *angles)


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    document=json_values | game_documents(),
    theta=st.sampled_from(["0.8", "1/3pi"]) | angle_tokens,  # float and exact routes
)
def test_fuzz_json_documents(tmp_path, document, theta):
    # The file is rewritten for every example, so sharing tmp_path is safe.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    run_quietly("solve", str(path))
    run_quietly("solve", str(path), "--allow-float-solve")
    run_quietly("extend", str(path), f"--theta={theta}", "--alpha=1/4pi", "--beta=1/2pi")
