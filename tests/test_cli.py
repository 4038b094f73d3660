"""Command-line interface: commands, exit codes, and deterministic output."""

import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ewlgames
from ewlgames import cli, nash
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

# Iterated strict dominance removes row c, then column z; the 2x2 game left
# has one mixed equilibrium.
DOMINANCE3_JSON = {
    "rows": ["a", "b", "c"],
    "cols": ["x", "y", "z"],
    "payoffs": [
        [["5", "0"], ["0", "3"], ["1", "2"]],
        [["1", "2"], ["2", "1"], ["4", "0"]],
        [["0", "0"], ["1", "0"], ["2", "9"]],
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
    data = json.loads(Path(out_path).read_text())
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


DIGIT_LIMIT_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["extend", "{game}", "--theta", "1/2pi", "--alpha", "1/4pi", "--beta", "0", "-o", "{out}"],
        ["solve", "{game}", "-o", "{out}"],
        ["sweep", "{game}", "--thetas", "0", "--alphas", "0", "--betas", "0", "-o", "{out}"],
        ["reproduce", "--pd-file", "{game}"],
    ],
    ids=["extend", "solve", "sweep", "reproduce"],
)


def run_failing_on_game(capsys, tmp_path, game, command):
    """Run ``command`` on ``game``; it fails with one error line, and writes nothing."""
    out_path = tmp_path / "out"
    argv = [{"{game}": game, "{out}": str(out_path)}.get(arg, arg) for arg in command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert out == ""
    assert not out_path.exists()
    return err


@DIGIT_LIMIT_COMMANDS
def test_payoff_too_long_to_read_is_refused_at_load(write_json, tmp_path, capsys, command):
    game = write_json("big.json", dict(PD_JSON, payoffs=[[["3", "3"], ["0", "5"]],
                                                         [["5", "0"], ["1e5000", "1"]]]))
    err = run_failing_on_game(capsys, tmp_path, game, command)
    assert "payoff '1e5000' has more than 4300 digits" in err


# Payoffs that each fit the 4300-digit limit, over four coprime denominators
# of about 3,900 digits, so that sums of them, in every command's output, do not.
_DENOMINATORS = [2**13000, 3**8000, 5**5600, 7**4700]
_P, _Q, _R, _S = (f"1/{d}" for d in _DENOMINATORS)
WIDE_GAME_JSON = dict(PD_JSON, payoffs=[[["1", _P], [_Q, "1"]], [[_R, "1"], ["1", _S]]])


@DIGIT_LIMIT_COMMANDS
def test_value_too_long_to_print_is_input_error(write_json, tmp_path, capsys, command):
    game = write_json("wide.json", WIDE_GAME_JSON)
    err = run_failing_on_game(capsys, tmp_path, game, command)
    assert err.startswith("error: a value has too many digits to print: ")


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
    report = json.loads(Path(out_path).read_text())
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
    data = json.loads(Path(ext_path).read_text())
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
    # A float operator is never invariant.
    code, out, _ = run(
        capsys, "isocheck", pd_file, pd_file,
        "--theta", "0.8", "--alpha", "0.3", "--beta", "1.1",
    )
    assert code == 0 and out.endswith("invariant under relabelings: no\n")


def test_tied_isocheck_warns_in_one_line_on_every_call(write_json, capsys):
    tied = write_json(
        "tie.json", dict(PD_JSON, payoffs=[[["3", "3"], ["0", "5"]], [["5", "0"], ["3", "3"]]])
    )
    # The row swap of this tied game has the same new payoffs as the game,
    # yet no isomorphism: still "no", with the same warning.
    decoy = write_json(
        "decoy.json", dict(PD_JSON, payoffs=[[["0", "0"], ["2", "2"]], [["2", "0"], ["2", "2"]]])
    )
    cases = [(tied, "1/2pi", "0", "yes")] * 2 + [(decoy, "0", "1/4pi", "no")]
    for game, theta, alpha, verdict in cases:
        code, out, err = run(
            capsys, "isocheck", game, game, "--theta", theta, "--alpha", alpha, "--beta", "0"
        )
        assert code == 0 and out.endswith(f"invariant under relabelings: {verdict}\n")
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


def test_extend_writes_an_unreduced_phase_beside_floats_reduced(pd_file, tmp_path, capsys):
    written = []
    for alpha in ("-46pi", "0"):
        out_path = tmp_path / f"ext{len(written)}.json"
        code, _, _ = run(capsys, "extend", pd_file, "--theta", "0.8", f"--alpha={alpha}",
                         "--beta", "0.3", "-o", str(out_path))
        assert code == 0
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["params"]["alpha"] == "0"


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
# 27 float points: no theta is within the snap tolerance of the grid.
FLOAT_GRID = ["--thetas", "1e-8,0.8,1.5707963", "--alphas", "0,1/2pi,0.3", "--betas", "0,1/4pi,1.1"]


EXTEND_TO_FILE = ["extend", "{pd}", "--theta", "1/3pi", "--alpha", "1/4pi", "--beta", "3/4pi",
                  "-o", "{ext}"]
EXTEND_FLOAT_TO_FILE = ["extend", "{pd}", "--theta", "0.8", "--alpha", "0.3", "--beta", "1.1",
                        "-o", "{ext}"]
# Its snapped extension has pure equilibria in two new cells and a mixed one
# on the new strategies, so the report reads snapped payoffs.
EXTEND_FLOAT_MIXED_TO_FILE = ["extend", "{pd}", "--theta", "1.2", "--alpha", "0.4",
                              "--beta", "2.3", "-o", "{ext}"]
SOLVE_FLOAT = ["solve", "{ext}", "--allow-float-solve", "-o", "{report}"]


# The md5 of the last command's -o file, or of its standard output if it has none.
@pytest.mark.parametrize(
    "commands, digest",
    [
        ([["sweep", "{pd}", *FULL_GRID]], "4f82532571968410f9fefbb42c4a4f9c"),
        ([["sweep", "{swapped}", *FULL_GRID]], "e957a54a985bf5ee2b75db6173d42946"),
        ([["sweep", "{swapped}", "--thetas", "0,0.8,1/2pi,1.5707963272",
           "--alphas", "0,0.3,0.7853981634", "--betas", "0,1.1,1/4pi", "--allow-float-solve"]],
         "607be443a44710b79008e2b6f53aa68f"),
        ([["solve", "{tie3}"]], "1e77f3e8066ecc43a0686454e16c5e31"),
        ([["solve", "{dominance3}"]], "95cac2b43d514f5e9c2de17973b43f28"),
        ([EXTEND_TO_FILE], "7ca3ed4ba6c4d15b545acd4da3c9f734"),
        ([EXTEND_TO_FILE, ["solve", "{ext}"]], "d73d3324ec7865c006e26804e401c801"),
        # Exact angles beside one in radians are written as given.
        ([["extend", "{pd}", "--theta", "1/3pi", "--alpha", "1/4pi", "--beta", "0.3",
           "-o", "{ext}"]], "5070db5e6a5429984a1034e76ef09a30"),
        ([["reproduce", "--json"]], "029eb049729a23ddd18c60e2ccf5c3ce"),
        ([EXTEND_FLOAT_TO_FILE, SOLVE_FLOAT], "5642ef12439c59ea17c515a561c05ab8"),
        ([EXTEND_FLOAT_MIXED_TO_FILE, SOLVE_FLOAT], "07b775d1568ba316dbb1b3fa0eeea7ba"),
        # Sweeps whose rows reach pure ties, several mixed equilibria and a
        # constant game.
        ([["sweep", "{tie}", *FULL_GRID]], "75bf2418ddce3e2ded20d886e7a6b7b3"),
        ([["sweep", "{fractions}", *FULL_GRID]], "105257674c0ceec90dac9a1a8085c48b"),
        ([["sweep", "{constant}", *FULL_GRID]], "6ffe7d51dbd38cde1c47c8fd036a5e96"),
        # Snapping makes the constant game's float payoffs exact ties again:
        # at (0.8, 0, 0) all nine cells are pure equilibria.
        ([["sweep", "{constant}", *FLOAT_GRID, "--allow-float-solve"]],
         "6fb57fbacdf5ab2038f2bd779be6b31b"),
    ],
    ids=["sweep-pd", "sweep-swapped", "sweep-mixed-float", "solve-tie3", "solve-dominance3",
         "extend-file", "solve-extension", "extend-file-mixed", "reproduce-json",
         "solve-float-extension", "solve-float-extension-mixed", "sweep-tie", "sweep-fractions",
         "sweep-constant", "sweep-constant-float"],
)
def test_output_is_unchanged(write_json, tmp_path, capsys, commands, digest):
    paths = {
        "{pd}": write_json("pd.json", PD_JSON),
        "{swapped}": write_json("swapped.json", dict(
            PD_JSON, rows=["D", "C"], cols=["D", "C"],
            payoffs=[[["1", "1"], ["5", "0"]], [["0", "5"], ["3", "3"]]])),
        "{tie3}": write_json("tie3.json", dict(GI3_JSON, rows=["a", "b", "c"],
                                               cols=["x", "y", "z"])),
        "{dominance3}": write_json("dominance3.json", DOMINANCE3_JSON),
        "{tie}": write_json("tie.json", dict(
            PD_JSON, payoffs=[[["3", "3"], ["0", "5"]], [["5", "0"], ["3", "3"]]])),
        "{fractions}": write_json("fractions.json", dict(
            PD_JSON, payoffs=[[["-7/3", "2"], ["1/6", "-5"]], [["4", "-1/9"], ["0", "11/4"]]])),
        "{constant}": write_json("constant.json", dict(PD_JSON, payoffs=[[["1", "1"]] * 2] * 2)),
        "{ext}": str(tmp_path / "ext.json"),
        "{report}": str(tmp_path / "report.json"),
    }
    for command in commands:
        argv = [paths.get(arg, arg) for arg in command]
        code, out, _ = run(capsys, *argv)
        assert code == 0
    data = Path(argv[argv.index("-o") + 1]).read_bytes() if "-o" in argv else out.encode()
    assert hashlib.md5(data).hexdigest() == digest


def counting_solver(monkeypatch):
    calls = []
    solve_exactly = nash._solve

    def solve(players):
        calls.append(tuple((tuple(map(tuple, rows)), scale) for rows, scale in players))
        return solve_exactly(players)

    # Every solve, the exact sweep's and `support_enumeration`'s, calls
    # `_solve` through the module attribute.
    monkeypatch.setattr(nash, "_solve", solve)
    return calls


def test_sweep_solves_each_distinct_grid_once(pd_file, capsys, monkeypatch):
    calls = counting_solver(monkeypatch)
    code, out, _ = run(capsys, "sweep", pd_file, *FULL_GRID)
    assert code == 0 and len(out.splitlines()) == 1 + 320
    assert len(calls) == len(set(calls)) == 45


@pytest.mark.parametrize("theta, shown", [("2pi", "2*pi"), ("4.0", "4.0")], ids=["exact", "float"])
def test_sweep_refuses_a_bad_theta_before_any_solve(pd_file, capsys, monkeypatch, theta, shown):
    calls = counting_solver(monkeypatch)
    code, out, err = run(capsys, "sweep", pd_file, "--thetas", f"0,1/3pi,1/2pi,2/3pi,pi,{theta}",
                         "--alphas", QUARTER_PI, "--betas", QUARTER_PI)
    assert (code, out, len(calls)) == (3, "", 0)
    assert err == f"error: theta = {shown} outside [0, pi]\n"


def test_sweep_builds_each_weight_table_once(pd_file, capsys, monkeypatch):
    built = []

    def cells(players, weights):
        built.append(weights)
        return ewlgames.extension._integer_cells(players, weights)

    monkeypatch.setattr(cli, "_integer_cells", cells)
    code, out, _ = run(capsys, "sweep", pd_file, *FULL_GRID)
    assert code == 0 and len(out.splitlines()) == 1 + 320
    assert len(built) == 45
    assert len(set(built)) == 45


def oracle_games():
    """Seeded 2x2 games: payoffs in {0, 1, 2}, in -2..2, and fractions with
    denominators up to 1e6, ten of each, then the constant game."""
    rng = random.Random(28)
    draws = [lambda: Fraction(rng.randrange(3)), lambda: Fraction(rng.randrange(-2, 3)),
             lambda: Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))]
    found = [ewlgames.make_game(("C", "D"), ("C", "D"),
                                [[(draw(), draw()) for _ in "CD"] for _ in "CD"])
             for draw in draws for _ in range(10)]
    return found + [ewlgames.make_game(("C", "D"), ("C", "D"), [[(1, 1)] * 2] * 2)]


def grid_tables():
    """One operator for each exact weight table of the canonical grid, in sweep order."""
    tables = {}
    for point in itertools.product(*(FULL_GRID[k].split(",") for k in (1, 3, 5))):
        params = ewlgames.params_from_angles(*map(ewlgames.parse_angle, point))
        weights, exact = ewlgames.outcome_weights(params)
        assert exact
        tables.setdefault(weights, params)
    return tables


def test_exact_sweep_cells_equal_built_extension():
    tables = grid_tables()
    assert len(tables) == 45
    for game in oracle_games():
        players = ewlgames.extension._classical_payoffs(game, True)
        for weights, params in tables.items():
            (a, den1), (b, den2) = ewlgames.extension._integer_cells(players, weights)
            cells = tuple(tuple((Fraction(x, den1), Fraction(y, den2)) for x, y in zip(*rows))
                          for rows in zip(a, b))
            assert cells == ewlgames.build_extension(game, params).game.payoffs


def test_exact_sweep_rows_equal_report_rows(write_json, capsys):
    # Each exact row against the row of the full report of the built
    # extension: the class, both counts and the first equilibrium's payoffs.
    tables = grid_tables()
    for game in oracle_games():
        expected = {}
        for weights, params in tables.items():
            report = nash.support_enumeration(ewlgames.build_extension(game, params).game)
            first = report.pure[0][2] if report.pure else report.mixed[0][1]
            expected[weights] = [ewlgames.classify(params).kind.value, str(len(report.pure)),
                                 str(len(report.mixed)), *map(str, first)]
        path = write_json("game.json", ewlgames.game_to_json_dict(game))
        code, out, _ = run(capsys, "sweep", path, *FULL_GRID)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 320
        for row in rows:
            params = ewlgames.params_from_angles(*map(ewlgames.parse_angle, row[:3]))
            assert row[3:] == expected[ewlgames.outcome_weights(params)[0]], row


def test_float_sweep_rows_equal_report_rows(write_json, capsys):
    # Each float row against the row of the full report of the snapped
    # built extension, its payoffs printed as floats; without the flag the
    # solve columns stay empty.
    for game in oracle_games():
        path = write_json("game.json", ewlgames.game_to_json_dict(game))
        sweeps = []
        for flag in (["--allow-float-solve"], []):
            code, out, _ = run(capsys, "sweep", path, *FLOAT_GRID, *flag)
            assert code == 0
            sweeps.append(list(csv.reader(io.StringIO(out)))[1:])
        solved, bare = sweeps
        assert len(solved) == 27
        for row, unsolved in zip(solved, bare):
            params = ewlgames.params_from_angles(*map(ewlgames.parse_angle, row[:3]))
            ext = ewlgames.build_extension(game, params)
            assert not ext.exact
            report = nash.support_enumeration(ewlgames.snapped(ext.game))
            first = report.pure[0][2] if report.pure else report.mixed[0][1]
            assert row[3:] == [ewlgames.classify(params).kind.value, str(len(report.pure)),
                               str(len(report.mixed)), *(format(float(v), ".12g") for v in first)]
            assert unsolved == row[:4] + [""] * 4


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


def test_sweep_operators_equal_pointwise_operators(pd_file, capsys, monkeypatch):
    # Exact tokens outside their reduced range, near-grid floats that snap
    # onto the grid, and plain floats.  4/3pi is off the grid and pi from
    # 1/3pi, so a place rule that merged off-grid phases mod pi fails here.
    thetas = ["0", "1/3pi", "1/2pi", "pi", "1.5707963272", "0.8", "1/6pi"]
    phases = ["-pi", "9/4pi", "2pi", "-1/4pi", "1/3pi", "4/3pi", "0.7853981634", "1.1"]
    built = []

    def weights(params):
        built.append(params)
        return ewlgames.outcome_weights(params)

    monkeypatch.setattr(cli, "outcome_weights", weights)
    code, out, _ = run(capsys, "sweep", pd_file, "--thetas", ",".join(thetas),
                       "--alphas=" + ",".join(phases), "--betas=" + ",".join(phases))
    assert code == 0
    points = list(itertools.product(thetas, phases, phases))
    # A point whose three tokens are exact and on the grid is built only if
    # no earlier such point has its theta in sixths and its alpha and beta
    # in quarters mod 4; every other point is built.
    pointwise, places = [], set()
    for point in points:
        angles = list(map(ewlgames.parse_angle, point))
        params = ewlgames.params_from_angles(*angles)
        place = params.grid_point if all(isinstance(v, Fraction) for v in angles) else None
        if place is not None:
            place = (place[0], place[1] % 4, place[2] % 4)
            if place in places:
                continue
            places.add(place)
        pointwise.append(params)
    assert built == pointwise
    assert len(places) < len(pointwise) < len(points)
    monkeypatch.undo()
    lines = out.splitlines()
    assert len(lines) == 1 + len(points)
    for point, line in zip(points, lines[1:]):
        code, alone, _ = run(capsys, "sweep", pd_file, "--thetas", point[0],
                             "--alphas=" + point[1], "--betas=" + point[2])
        assert code == 0
        assert alone.splitlines() == [lines[0], line]
    # Each exact phase outside [0, 2pi) gives the rows of its reduced spelling.
    reduced = ",".join(["pi", "1/4pi", "0", "7/4pi", *phases[4:]])
    code, same, _ = run(capsys, "sweep", pd_file, "--thetas", ",".join(thetas),
                        "--alphas", reduced, "--betas", reduced)
    assert code == 0
    assert [row.split(",")[3:] for row in same.splitlines()] == [
        row.split(",")[3:] for row in lines]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["sweep", "{pd}", "--thetas", "1/2pi,2pi", "--alphas", "0", "--betas", "0"], 3,
         "theta = 2*pi outside [0, pi]"),
        # Beside a float angle, an exact theta is still named as written.
        (["sweep", "{pd}", "--thetas", "1/2pi,2pi", "--alphas", "0.3,0", "--betas", "0"], 3,
         "theta = 2*pi outside [0, pi]"),
        (["classify", "--theta", "2pi", "--alpha", "0.3", "--beta", "0"], 3,
         "theta = 2*pi outside [0, pi]"),
        # Every token is parsed before any is checked, as for one point.
        (["sweep", "{pd}", "--thetas", "2pi", "--alphas", "0,foo", "--betas", "0"], 2,
         "cannot parse angle 'foo'"),
        (["solve", "{missing}"], 2,
         "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (["sweep", "{gi3}", "--thetas", "0", "--alphas", "0", "--betas", "0"], 3,
         "sweep needs a 2x2 game, got (3, 3)"),
        (["reproduce", "--pd-file", "{gi3}"], 3, "--pd-file must hold a 2x2 game"),
        # argparse reads "--thetas=--" as an empty list.
        (["sweep", "{pd}", "--thetas=--", "--alphas", "0", "--betas", "0"], 2,
         "cannot parse angle list []"),
    ],
    ids=["sweep-theta-exact", "sweep-theta-float-alpha", "classify-theta-float-alpha",
         "sweep-token-before-theta",
         "missing-file", "sweep-3x3", "reproduce-3x3", "sweep-empty-list"],
)
def test_error_is_one_pinned_line(pd_file, write_json, tmp_path, capsys, argv, code, message):
    paths = {"{pd}": pd_file, "{gi3}": write_json("gi3.json", GI3_JSON),
             "{missing}": str(tmp_path / "missing.json")}
    got, out, err = run(capsys, *[paths.get(arg, arg) for arg in argv])
    assert got == code and out == ""
    assert err == f"error: {message.replace('{missing}', paths['{missing}'])}\n"


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


def test_output_through_a_symlink_writes_its_target(pd_file, tmp_path, capsys):
    expected = tmp_path / "expected.json"
    assert run(capsys, "solve", pd_file, "-o", str(expected))[0] == 0
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "report.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, err = run(capsys, "solve", pd_file, "-o", str(link))
    assert (code, err) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == expected.read_text()
    # The temporary file was beside the target, and is gone.
    names = ["expected.json", "link.json", "pd.json", "real"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]


def test_output_keeps_the_permission_bits_of_the_file_it_replaces(pd_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    target.write_text("old")
    target.chmod(0o600)
    old_umask = os.umask(0o022)
    try:
        code, _, err = run(capsys, "solve", pd_file, "-o", str(target))
        assert (code, err) == (0, "")
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
        assert target.read_text() != "old"
        # A new file still takes its bits from the umask.
        fresh = tmp_path / "fresh.json"
        assert run(capsys, "solve", pd_file, "-o", str(fresh))[0] == 0
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o644
    finally:
        os.umask(old_umask)


def test_output_into_a_fifo_keeps_the_fifo(pd_file, tmp_path, capsys):
    expected = tmp_path / "expected.json"
    assert run(capsys, "solve", pd_file, "-o", str(expected))[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    # The reader's open waits for a writer; a FIFO replaced by a regular
    # file never gets one, and the join below times out.
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, err = run(capsys, "solve", pd_file, "-o", str(fifo))
    reader.join(timeout=30)
    assert (code, err) == (0, "")
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == [expected.read_text()]


def test_output_into_a_fifo_whose_reader_has_gone_keeps_the_exit_code(pd_file, tmp_path, capsys):
    # As with a pipe on standard output whose reader has gone.  The CSV is
    # larger than a pipe holds, so the write is still blocked when the
    # reader closes, and fails with EPIPE whatever the threads' timing.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: os.close(os.open(fifo, os.O_RDONLY)), daemon=True)
    reader.start()
    angles = ",".join(f"{k}/4pi" for k in range(24))
    code, out, err = run(capsys, "sweep", pd_file, "--thetas", "0,1/3pi,1/2pi,2/3pi,pi",
                         "--alphas", angles, "--betas", angles, "-o", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, out, err) == (0, "", "")


def test_output_to_a_standard_stream_writes_through_it(pd_file, tmp_path):
    # Child processes, whose standard streams go to a log file or a pipe.
    # Replacing the log file would send the lines written around the output
    # to the old, unlinked file.
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    argv = [sys.executable, "-m", "ewlgames.cli", "sweep", pd_file,
            "--thetas", "1/2pi", "--alphas", "0", "--betas", "0", "-o"]
    log = tmp_path / "log.txt"
    expected = tmp_path / "expected.csv"
    subprocess.run(argv + [str(expected)], env=env, check=True, timeout=120)
    # "r+" after the first line is `> log` after `echo before`; "a" is `>> log`.
    for target, stream, mode in [("/dev/stdout", "stdout", "r+"), ("/dev/fd/1", "stdout", "r+"),
                                 (str(log), "stdout", "r+"), ("/dev/stderr", "stderr", "a"),
                                 ("/dev/fd/2", "stderr", "a")]:
        log.write_text("before\n")
        inode = os.stat(log).st_ino
        with open(log, mode) as handle:
            handle.seek(0, os.SEEK_END)
            child = subprocess.run(argv + [target], env=env, timeout=120, **{stream: handle})
            handle.write("after\n")
        assert child.returncode == 0, target
        assert os.stat(log).st_ino == inode, target
        assert log.read_text() == f"before\n{expected.read_text()}after\n", target
    # A descriptor the shell passes on, as `3>> log`, is written through too;
    # one open only for reading, as `3< log`, is not, and the file is replaced.
    for mode, kept in [("a", True), ("r", False)]:
        log.write_text("before\n")
        inode = os.stat(log).st_ino
        with open(log, mode) as handle:
            child = subprocess.run(argv + [f"/dev/fd/{handle.fileno()}"], env=env, timeout=120,
                                   pass_fds=[handle.fileno()])
        assert child.returncode == 0, mode
        assert (os.stat(log).st_ino == inode) == kept, mode
        assert log.read_text() == ("before\n" if kept else "") + expected.read_text(), mode
    # Into a pipe, which has no path to replace.
    child = subprocess.run(argv + ["/dev/stdout"], env=env, capture_output=True, text=True,
                           timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (0, expected.read_text(), "")


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


def test_isocheck_with_tolerance_finds_identity(pd_file, write_json, capsys):
    code, out, _ = run(capsys, "isocheck", pd_file, pd_file, "--tol", "1e-9")
    assert code == 0
    assert "isomorphic: yes" in out
    # Against the game with both labels swapped, one payoff 5e-10 off: within
    # the tolerance the swap is found, and without it there is no map.
    swapped = write_json("swapped.json", dict(
        PD_JSON, rows=["D", "C"], cols=["D", "C"],
        payoffs=[[["1", "1"], ["5", "0"]], [["0", "5"], ["3", "3"]]]))
    bumped = write_json("bumped.json", _pd_with_cell(0, 0, ["3.0000000005", "3"]))
    code, out, _ = run(capsys, "isocheck", swapped, bumped, "--tol", "1e-9")
    assert code == 0 and "  rows: D -> D, C -> C" in out.splitlines()
    code, out, _ = run(capsys, "isocheck", swapped, bumped)
    assert code == 0 and out == "isomorphic: no\n"


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



@pytest.mark.parametrize(
    "argv, fault, code, out, err",
    [
        (["reproduce", "--json", "--pd-file", "{pd}"], "stdout pipe", 0, None, ""),
        # A (C, C) payoff of 4 fails the Q claim.
        (["reproduce", "--json", "--pd-file", "{failing}"], "stdout pipe", 1, None, ""),
        (["classify", "--theta", "9", "--alpha", "0", "--beta", "0"], "stderr pipe", 3, None, None),
        (["isocheck", "{tied}", "{tied}", "--theta", "1/2pi", "--alpha", "0", "--beta", "0"],
         "stderr pipe", 0, None, None),
        (["sweep", "{pd}", "--thetas", "1/2pi", "--alphas", "0", "--betas", "0",
          "-o", "/dev/stderr"], "stderr pipe", 0, None, None),
        # sys.stderr is None, and print(file=None) would write to standard output.
        (["classify", "--theta", "9", "--alpha", "0", "--beta", "0"], "stderr closed", 3, "", None),
        # As a launcher can leave descriptor 2: every write to it fails with EBADF.
        (["classify", "--theta", "9", "--alpha", "0", "--beta", "0"], "stderr read-only", 3,
         "", None),
        (["classify", "--theta", "1/2pi", "--alpha", "0", "--beta", "0"], "stderr read-only", 0,
         "class: TypeI (k=0, l=0)\n", None),
        (["classify", "--theta", "1/2pi", "--alpha", "0", "--beta", "0"], "stdout full", 2, None,
         "error: cannot write standard output: No space left on device\n"),
        (["sweep", "{pd}", "--thetas", "1/2pi", "--alphas", "0", "--betas", "0",
          "-o", "/dev/stdout"], "stdout full", 2, None,
         "error: cannot write /dev/stdout: No space left on device\n"),
    ],
    ids=["passing", "failing", "stderr-error", "stderr-warning", "stderr-output",
         "stderr-closed", "stderr-read-only-error", "stderr-read-only-output", "stdout-full",
         "stdout-full-output"],
)
def test_closed_stdout_pipe_ends_quietly(write_json, argv, fault, code, out, err):
    # The child starts with ``fault`` on one standard stream: a pipe whose read
    # end is already closed, the descriptor closed, a file open only for
    # reading, or /dev/full.  Every write to that stream fails.  A stream
    # checked against None is the faulty one, or one the test does not read.
    stream, kind = fault.split()
    if kind == "full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    paths = {
        "{pd}": write_json("pd.json", PD_JSON),
        "{failing}": write_json("failing.json", dict(
            PD_JSON, payoffs=[[["4", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]])),
        "{tied}": write_json("tie.json", dict(
            PD_JSON, payoffs=[[["3", "3"], ["0", "5"]], [["5", "0"], ["3", "3"]]])),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "ewlgames.cli", *[paths.get(arg, arg) for arg in argv]]
    if kind == "closed":
        command = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
    streams = {"stdout": subprocess.DEVNULL if out is None else subprocess.PIPE,
               "stderr": subprocess.PIPE, stream: subprocess.DEVNULL}
    with ExitStack() as stack:
        if kind == "pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            stack.callback(os.close, write_end)
            streams[stream] = write_end
        elif kind != "closed":
            target, mode = (paths["{pd}"], "rb") if kind == "read-only" else ("/dev/full", "wb")
            streams[stream] = stack.enter_context(open(target, mode))
        # Block-buffered, as by default, bytes left in the buffer would fail
        # again at interpreter exit; unbuffered, even an empty write reaches
        # the descriptor.
        for buffering in ({}, {"PYTHONUNBUFFERED": "1"}):
            result = subprocess.run(command, env=env | buffering, timeout=120, **streams)
            # With standard output faulty, standard error holds no traceback.
            assert (result.returncode,
                    None if out is None else result.stdout.decode(),
                    None if err is None else result.stderr.decode()) == (code, out, err), buffering


@pytest.mark.parametrize(
    "command",
    [
        ["extend", "{game}", "--theta", "0", "--alpha", "1/2pi", "--beta", "0"],
        ["solve", "{game}"],
        ["sweep", "{game}", "--thetas", "0", "--alphas", "0", "--betas", "0"],
    ],
    ids=["extend", "solve", "sweep"],
)
def test_empty_output_path_is_refused(pd_file, tmp_path, command):
    # A child process in a folder of its own, so that nothing can be written
    # as that folder or beside it, in its parent.
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    argv = [pd_file if arg == "{game}" else arg for arg in command]
    child = subprocess.run([sys.executable, "-m", "ewlgames.cli", *argv, "-o", ""], cwd=work,
                           env=env, capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (
        2, "", "error: cannot write '': No such file or directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pd.json", "work"]
    assert list(work.iterdir()) == []


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


def test_cli_import_loads_no_solver():
    # Only solve and sweep need the Nash solver.
    assert _loaded_by_cli_import("ewlgames.nash") == "False"


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "json", "csv"])
def test_cli_import_loads_no_module_a_command_may_not_need(module):
    # Records are named tuples, so nothing imports dataclasses, nor the
    # inspect it brings; json and csv are imported by the commands that use them.
    assert _loaded_by_cli_import(module) == "False"


def test_namespace_reads_one_export_table():
    for name in ewlgames.__all__:
        module = importlib.import_module(f"ewlgames.{ewlgames._MODULE_OF[name]}")
        assert getattr(ewlgames, name) is getattr(module, name), name
    star: dict = {}
    exec("from ewlgames import *", star)
    assert sorted(set(star) - {"__builtins__"}) == ewlgames.__all__
    assert set(ewlgames.__all__) <= set(dir(ewlgames))
    with pytest.raises(AttributeError, match="has no attribute 'nowhere'"):
        ewlgames.nowhere
    # Each submodule is imported only when one of its names is first read.
    env = dict(os.environ, PYTHONPATH=str(Path(ewlgames.__file__).parents[1]))
    probe = "import sys, ewlgames; print([m for m in sys.modules if m.startswith('ewlgames.')])"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


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
