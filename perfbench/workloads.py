"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")`` in
op order, so a seed fixes the inputs of op k whatever the run's length.
Ops call the program through module attributes (``nash.support_enumeration``
and so on), which is where the tracer wraps them.  ``run`` holds only the
program's work and is the part that is timed; ``check`` runs untimed and
untraced and returns None or a message saying what was wrong.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from ewlgames import cli, ewl, extension, games, nash

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
# Reference outputs of the seed commit; `make_expected.py` writes them.
EXPECTED = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.exists() else {}

PD_PAYOFFS = (((3, 3), (0, 5)), ((5, 0), (1, 1)))
THETAS = tuple(F(k, d) for k, d in ((0, 1), (1, 3), (1, 2), (2, 3), (1, 1)))
QUARTERS = tuple(F(k, 4) for k in range(8))
SWEEP_HEADER = ["theta", "alpha", "beta", "class", "n_pure", "n_mixed", "payoff1", "payoff2"]


def angle_token(r: F) -> str:
    """The CLI's spelling of r*pi."""
    return "0" if r == 0 else "pi" if r == 1 else f"{r}pi"


def make_2x2(cells) -> games.BimatrixGame:
    return games.make_game(("C", "D"), ("C", "D"), cells)


def swap(game: games.BimatrixGame, rows: bool, cols: bool) -> games.BimatrixGame:
    """A relabeled presentation of a 2x2 game, built here, not by the program."""
    grid = [list(row) for row in game.payoffs]
    if rows:
        grid.reverse()
    if cols:
        grid = [row[::-1] for row in grid]
    row_labels = game.row_labels[::-1] if rows else game.row_labels
    col_labels = game.col_labels[::-1] if cols else game.col_labels
    return games.make_game(row_labels, col_labels, grid)


def write_game(path: Path, game: games.BimatrixGame) -> str:
    data = {
        "rows": list(game.row_labels),
        "cols": list(game.col_labels),
        "payoffs": [[[str(a), str(b)] for a, b in row] for row in game.payoffs],
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def random_dilemma(rng: random.Random) -> games.BimatrixGame:
    """A seeded prisoner's dilemma: T > R > P > S and 2R > T + S."""
    while True:
        den = rng.randint(1, 10)
        s, p, r, t = (F(n, den) for n in sorted(rng.sample(range(-30, 31), 4)))
        if 2 * r > t + s:
            return make_2x2([[(r, r), (s, t)], [(t, s), (p, p)]])


def exact_params(rng: random.Random) -> ewl.UnitaryParams:
    """theta on the Niven grid, alpha and beta on the quarter-pi grid: every cell is exact."""
    return ewl.UnitaryParams.exact_pi(rng.choice(THETAS), rng.choice(QUARTERS), rng.choice(QUARTERS))


def float_params(rng: random.Random) -> ewl.UnitaryParams:
    return ewl.UnitaryParams.from_radians(
        rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    )


def game_digest(game: games.BimatrixGame) -> str:
    text = repr([[(str(a), str(b)) for a, b in row] for row in game.payoffs])
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def report_digest(report: nash.EquilibriumReport) -> str:
    """A short hash of a report's exact contents, independent of its JSON form."""
    text = repr(
        (
            [(i, j, str(p[0]), str(p[1])) for i, j, p in report.pure],
            [
                ([str(x) for x in prof.p1], [str(x) for x in prof.p2], str(p[0]), str(p[1]))
                for prof, p in report.mixed
            ],
            bool(report.degenerate),
        )
    )
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def check_report(game: games.BimatrixGame, report: nash.EquilibriumReport) -> str | None:
    """Every reported profile is an equilibrium and the pure list is complete."""
    n, m = game.shape
    for i, j, _pay in report.pure:
        p1 = tuple(F(int(r == i)) for r in range(n))
        p2 = tuple(F(int(c == j)) for c in range(m))
        if not nash.verify_equilibrium(game, nash.MixedProfile(p1, p2)):
            return f"pure ({i}, {j}) is not an equilibrium"
    for prof, _pay in report.mixed:
        if not nash.verify_equilibrium(game, prof):
            return f"mixed {prof} is not an equilibrium"
    if list(report.pure) != list(nash.pure_equilibria(game)):
        return "pure list differs from pure_equilibria"
    return None


class Workload:
    """Lazily generated, seeded inputs; subclasses define `_make`, `run` and `check`."""

    name = ""
    setup_ops = 0  # inputs generated during set-up
    trace_ops = 1  # ops in each pass of a traced run
    smoke_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.warm_rng = random.Random(f"{self.name}:{seed}:warm-up")
        # Only the first ops are kept, for the traced run's replay, so that
        # the benchmark's own memory does not grow with the number of ops.
        self._keep = max(self.setup_ops, self.trace_ops)
        self._kept: list = []
        self._made = 0
        self._latest = None
        self.input(self.setup_ops - 1)

    def input(self, k: int):
        """Op k's input; past the kept prefix, k must be the next or the latest op."""
        while self._made <= k:
            self._latest = self._make(self._made, self.rng)
            if self._made < self._keep:
                self._kept.append(self._latest)
            self._made += 1
        if k < self._keep:
            return self._kept[k] if k >= 0 else None
        if k != self._made - 1:
            raise IndexError(f"input {k} is no longer kept")
        return self._latest

    def warmup_input(self):
        return self._make(None, self.warm_rng)

    def distinct_ratio(self, ops: int) -> float | None:
        """Distinct solver inputs / solver calls over the first `ops` ops, if known."""
        return None


class SweepGrid(Workload):
    """`ewlgames sweep` in-process over the fixed 320-point exact grid."""

    name = "sweep-grid"
    setup_ops = 4
    trace_ops = 1
    smoke_ops = 2

    def __init__(self, seed, workdir):
        self.points = [(t, a, b) for t in THETAS for a in QUARTERS for b in QUARTERS]
        self.classes = [
            extension.classify(ewl.UnitaryParams.exact_pi(*p)).kind.value for p in self.points
        ]
        self.args = [
            "--thetas", ",".join(angle_token(t) for t in THETAS),
            "--alphas", ",".join(angle_token(a) for a in QUARTERS),
            "--betas", ",".join(angle_token(b) for b in QUARTERS),
        ]
        super().__init__(seed, workdir)

    def _make(self, k, rng):
        if k is None:
            # A small grid: enough to warm the interpreter, not a whole sweep.
            args = ["--thetas", "1/3pi,1/2pi", "--alphas", "0,1/4pi,1/2pi", "--betas", "0,3/4pi"]
            path = self.workdir / "warm-up.json"
            return write_game(path, games.random_generic_game(rng)), args, path.with_suffix(".csv")
        pd = make_2x2(PD_PAYOFFS)
        if k < 4:
            game = (pd, swap(pd, True, False), swap(pd, False, True), swap(pd, True, True))[k]
        elif k % 2 == 0:
            game = random_dilemma(rng)
        else:
            game = games.random_generic_game(rng)
        path = self.workdir / f"game{k}.json"
        return write_game(path, game), self.args, self.workdir / f"sweep{k}.csv"

    def run(self, inp):
        path, args, out = inp
        return cli.main(["sweep", path, *args, "-o", str(out)])

    def check(self, k, inp, code):
        if code != 0:
            return f"exit code {code}"
        raw = inp[2].read_bytes()
        if k == 0 and hashlib.md5(raw).hexdigest() != EXPECTED.get("canonical_pd_sweep_md5"):
            return "canonical-PD CSV differs from the reference"
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        if rows[0] != SWEEP_HEADER or len(rows) != 1 + len(self.points):
            return f"CSV has {len(rows) - 1} rows, expected {len(self.points)}"
        for row, point, cls in zip(rows[1:], self.points, self.classes):
            if row[:3] != [angle_token(x) for x in point] or row[3] != cls:
                return f"row {row[:4]} != classify {cls}"
            if not row[4] or not row[5]:
                return f"row {row[:3]} was not solved"
        return None

    def distinct_ratio(self, ops):
        grids = set()
        for k in range(ops):
            game = games.game_from_json_dict(json.loads((self.workdir / f"game{k}.json").read_text()))
            for point in self.points:
                grids.add(extension.build_extension(game, ewl.UnitaryParams.exact_pi(*point)).game.payoffs)
        return len(grids) / (ops * len(self.points)) if ops else None


class SolvePool(Workload):
    """One `support_enumeration` per op on a never-repeating seeded 3x3 game.

    Ops k = 0, 2 (mod 4) are exact extensions of generic games at
    non-invariant `exact_params`; k = 1 (mod 4) float-built extensions, which
    the op snaps before solving as ``solve --allow-float-solve`` does; and
    k = 3 (mod 4) tie-heavy games with payoffs in {0, 1, 2}.
    """

    name = "solve-pool"
    setup_ops = 64
    trace_ops = 120
    smoke_ops = 8

    def __init__(self, seed, workdir):
        self.hashes: list[int] = []  # of each measured game's payoffs, in op order
        self.seen: set[int] = set()
        # At the reference seed: game digest -> report digest at the seed commit.
        ref = EXPECTED.get("solve_pool_reference", {})
        self.reference = ref["reports"] if seed == ref.get("seed") else {}
        super().__init__(seed, workdir)

    def _make(self, k, rng):
        kind = (k if k is not None else rng.randrange(4)) % 4
        while True:
            if kind == 3:
                grid = [[(F(rng.randrange(3)), F(rng.randrange(3))) for _ in range(3)] for _ in range(3)]
                game = games.make_game(("a", "b", "c"), ("x", "y", "z"), grid)
            elif kind == 1:
                game = extension.build_extension(games.random_generic_game(rng), float_params(rng)).game
            else:
                params = exact_params(rng)
                if extension.classify(params).invariant:
                    continue
                game = extension.build_extension(games.random_generic_game(rng), params).game
            if k is None:
                return kind == 1, game
            if hash(game.payoffs) not in self.seen:
                self.seen.add(hash(game.payoffs))
                self.hashes.append(hash(game.payoffs))
                return kind == 1, game

    def run(self, inp):
        float_built, game = inp
        if float_built:
            game = games.snapped(game)
        return game, nash.support_enumeration(game)

    def check(self, k, inp, out):
        game, report = out
        problem = check_report(game, report)
        expected = self.reference.get(game_digest(game))
        if problem is None and expected is not None and report_digest(report) != expected:
            problem = "report differs from the seed commit's"
        return problem

    def distinct_ratio(self, ops):
        return len(set(self.hashes[:ops])) / ops if ops else None


class InvarianceScan(Workload):
    """classify, build_extension, empirical_invariance and both payoff routes.

    Even ops use `exact_params`, odd ops uniform float radians.
    """

    name = "invariance-scan"
    setup_ops = 256
    trace_ops = 1500
    smoke_ops = 16

    def _make(self, k, rng):
        game = games.random_generic_game(rng)
        exact = (k if k is not None else rng.randrange(2)) % 2 == 0
        return game, exact_params(rng) if exact else float_params(rng)

    def run(self, inp):
        game, params = inp
        cls = extension.classify(params)
        ext = extension.build_extension(game, params)
        invariant = extension.empirical_invariance(game, params)
        closed = ewl.closed_form_payoff(params, params, game)
        state = ewl.payoff_from_state(ewl.final_state(params, params), ewl.MeasurementPair.from_game(game))
        return cls, ext, invariant, closed, state

    def check(self, k, inp, out):
        cls, ext, invariant, closed, state = out
        if cls.invariant != invariant:
            return f"classify says {cls.kind.value}, empirical invariance says {invariant}"
        gap = max(abs(closed[0] - state[0]), abs(closed[1] - state[1]))
        if gap > 1e-12:
            return f"payoff routes differ by {gap:.3e}"
        if ext.game.shape != (3, 3):
            return f"extension has shape {ext.game.shape}"
        return None


class CliSession(Workload):
    """One `python -m ewlgames.cli` process per op, cycling through CYCLE.

    With ``in_process`` (the traced run) each command goes through
    ``cli.main`` in this interpreter instead, so that spans see it.
    """

    name = "cli-session"
    CYCLE = ("classify", "extend", "solve", "isocheck", "sweep", "verify-oracle", "reproduce", "malformed")
    N_GAMES = 4
    MINI_AXES = ((F(1, 3), F(1, 2)), (F(1, 4), F(1, 2)), (F(0), F(3, 4)))
    MINI_GRID = tuple(itertools.product(*MINI_AXES))
    setup_ops = len(CYCLE)
    trace_ops = 2 * len(CYCLE)
    smoke_ops = len(CYCLE)

    def __init__(self, seed, workdir, in_process=False):
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(Path(extension.__file__).parents[1]))
        self._expected: dict = {}
        rng = random.Random(f"{self.name}:{seed}:files")
        self.games = []
        for g in range(self.N_GAMES):
            game = games.random_generic_game(rng)
            params = exact_params(rng)
            while extension.classify(params).invariant:
                params = exact_params(rng)
            ext = extension.build_extension(game, params)
            ext_path = workdir / f"ext{g}.json"
            ext_path.write_text(json.dumps(extension.extended_to_json_dict(ext)), encoding="utf-8")
            self.games.append(
                (game, write_game(workdir / f"game{g}.json", game),
                 write_game(workdir / f"relabeled{g}.json", swap(game, True, True)), str(ext_path))
            )
        super().__init__(seed, workdir)

    def _make(self, k, rng):
        if k is None:
            k = len(self.CYCLE) * rng.randrange(1000)  # warm-up: a classify command
        command = self.CYCLE[k % len(self.CYCLE)]
        g = rng.randrange(self.N_GAMES)
        game, game_path, relabeled_path, ext_path = self.games[g]
        params = exact_params(rng)
        angles = [f"--{axis}={angle_token(r)}" for axis, r in zip(("theta", "alpha", "beta"), params.pi_multiples)]
        out = str(self.workdir / f"out{k}.json")
        argv = {
            "classify": ["classify", *angles],
            "extend": ["extend", game_path, *angles, "-o", out],
            "solve": ["solve", ext_path],
            "isocheck": ["isocheck", game_path, relabeled_path, *angles],
            "sweep": ["sweep", game_path, *(
                f"--{axis}={','.join(angle_token(r) for r in values)}"
                for axis, values in zip(("thetas", "alphas", "betas"), self.MINI_AXES))],
            "verify-oracle": ["verify-oracle", "--samples", "40", "--games", "2",
                              "--seed", str(rng.randrange(10**6))],
            "reproduce": ["reproduce"],
            "malformed": ["classify", "--theta", "1/2pi",
                          f"--alpha={rng.choice(['bogus', '1/2p', 'pi/2', '2pix', '1..2'])}", "--beta", "0"],
        }[command]
        return command, argv, (game, params, g, out)

    def run(self, inp):
        _command, argv, _ctx = inp
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            return code, stdout.getvalue(), stderr.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "ewlgames.cli", *argv], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _class_line(self, params) -> str:
        cls = extension.classify(params)
        return f"class: {cls.kind.value}" + (f" (k={cls.witness[0]}, l={cls.witness[1]})" if cls.witness else "")

    def check(self, k, inp, out):
        command, _argv, (game, params, g, out_path) = inp
        code, stdout, stderr = out
        lines = stdout.splitlines()
        if command == "malformed":
            if code != 2 or not stderr.startswith("error: cannot parse angle"):
                return f"malformed angle gave exit {code}, stderr {stderr[:80]!r}"
            return None
        if code != 0:
            return f"{command} exited {code}: {stderr[-200:]!r}"
        if command == "classify":
            ok = lines == [self._class_line(params)]
        elif command == "extend":
            ext = extension.build_extension(game, params)
            written = json.loads(Path(out_path).read_text(encoding="utf-8"))
            expected_grid = [[[str(a), str(b)] for a, b in row] for row in ext.game.payoffs]
            ok = (lines[-1] == f"{self._class_line(params)}  exact: {'true' if ext.exact else 'false'}"
                  and written["payoffs"] == expected_grid)
        elif command == "solve":
            if g not in self._expected:
                ext_game = games.game_from_json_dict(json.loads(Path(self.games[g][3]).read_text()))
                self._expected[g] = nash.support_enumeration(ext_game)
            report = self._expected[g]
            ok = (lines[-1] == f"degenerate: {'yes' if report.degenerate else 'no'}"
                  and sum(line.startswith("  p1=") for line in lines) == len(report.mixed)
                  and sum(line.startswith("  (") for line in lines) == len(report.pure))
        elif command == "isocheck":
            invariant = extension.classify(params).invariant
            ok = lines[0] == "isomorphic: yes" and lines[-1].endswith(
                f"invariant under relabelings: {'yes' if invariant else 'no'}")
        elif command == "sweep":
            rows = list(csv.reader(io.StringIO(stdout)))
            ok = rows[0] == SWEEP_HEADER and len(rows) == 1 + len(self.MINI_GRID) and all(
                row[:3] == [angle_token(x) for x in point]
                and row[3] == extension.classify(ewl.UnitaryParams.exact_pi(*point)).kind.value
                for row, point in zip(rows[1:], self.MINI_GRID))
        elif command == "verify-oracle":
            ok = lines[-1] == "OK: within 1e-12"
        else:
            ok = lines[-1] == "11/11 claims pass"
        return None if ok else f"{command}: unexpected output {stdout[-200:]!r}"


WORKLOADS = {w.name: w for w in (SweepGrid, SolvePool, InvarianceScan, CliSession)}
