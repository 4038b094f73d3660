"""Command-line front end.

Subcommands: extend, classify, solve, isocheck, sweep, verify-oracle,
reproduce.  Exit codes: 0 success, 1 reference-suite failure, 2 malformed
input, 3 domain error (angle out of range, wrong game shape, solving a
float-built game without opting in, or a payoff beyond the float range at
float angles).
"""

from __future__ import annotations

import argparse
import errno
import io
import math
import os
import stat
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .ewl import UnitaryParams, parse_angle, params_from_angles
from .extension import (
    _classical_payoffs,
    _integer_cells,
    build_extension,
    classify,
    empirical_invariance,
    extended_to_json_dict,
    outcome_weights,
)
from .games import BimatrixGame, _integer_payoffs, find_isomorphism, game_from_json_dict, snapped

if TYPE_CHECKING:
    from .nash import EquilibriumReport

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DOMAIN = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextmanager
def _failing(code: int, prefix: str = "", errors=ValueError):
    """Raise ``errors`` from inside the block as a `CliError` with ``code`` and ``prefix``."""
    try:
        yield
    except errors as exc:
        raise CliError(prefix + str(exc), code) from exc


# For the ValueError of str() on an int beyond sys.get_int_max_str_digits().
# Commands only return text, so such a value leaves no partial output behind.
_TOO_LONG = "a value has too many digits to print: "


def _json_text(data: dict) -> str:
    import json

    return json.dumps(data, indent=2) + "\n"


def _send(stream, text: str, name: str | None = None) -> None:
    """Write ``text`` to ``stream`` and flush it.

    A stream that is None, one the process started without, is skipped.  A
    failed write sends the stream's descriptor to devnull, so the flush at
    interpreter exit cannot fail again.  Where the reader has gone (``EPIPE``)
    or the descriptor cannot be written (``EBADF``), that is all.  Any other
    failure is an input error naming ``name``; standard error has none, since
    it has nowhere to report it.
    """
    if stream is None:
        return
    try:
        if text:  # an empty write can still reach the descriptor, and fail there
            stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if name is not None and exc.errno not in (errno.EPIPE, errno.EBADF):
            raise CliError(f"cannot write {name}: {exc.strerror}", EXIT_BAD_INPUT) from exc


def _write_through(opened: os.stat_result) -> int | None:
    """A descriptor this process holds open for writing on the file whose stat is ``opened``.

    Where ``/dev/fd`` cannot be listed, only standard output and error are tried.
    """
    try:
        listed = [int(fd) for fd in os.listdir("/dev/fd")]
    except OSError:
        listed = [1, 2]
    for fd in listed:
        try:
            if not os.path.samestat(opened, os.fstat(fd)):
                continue
            import fcntl  # not at start-up: most targets match no descriptor

            if fcntl.fcntl(fd, fcntl.F_GETFL) & (os.O_WRONLY | os.O_RDWR):
                return fd
        except OSError:  # closed, such as the descriptor that listed /dev/fd
            pass
    return None


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    Symlinks in ``path`` are resolved first, so a symlink stays a symlink
    and its target gets the text.  The text goes to a temporary file beside
    that target, which replaces it only once it is complete and takes the
    permission bits of a regular file it replaces.  On any failure the
    temporary file is removed, and a file that was already there is left as
    it was.  A target that exists and is not a regular file or a directory,
    such as a FIFO or a device, cannot be replaced, so the text is written
    into it directly.  So is a target that this process holds open for
    writing (``/dev/stdout``, ``/dev/fd/3``, or the file a descriptor is
    redirected to), through that descriptor: replacing the file would leave
    the descriptor writing to an unlinked one.  Both are written by `_send`,
    so a FIFO whose reader has gone is dropped, as standard output is.  The
    error names ``path`` and the OS reason, never the temporary file.  An
    empty ``path`` names no file.
    """
    try:
        if not path:  # realpath would read it as the working directory
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        target = os.path.realpath(path)
        try:
            # ``path``, not ``target``: /dev/stdout on a pipe resolves to no file.
            found = os.stat(path)
        except OSError:  # no target yet: the new file gets the umask's bits
            found = None
        mode = found.st_mode if found else 0
        fd = _write_through(found) if found else None
        if fd is not None or (mode and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))):
            # Earlier output stays first; standard error is line-buffered.
            _send(sys.stdout, "", "standard output")
            with open(target if fd is None else fd, "w", newline="", encoding="utf-8",
                      closefd=fd is None) as handle:
                _send(handle, text, path)
            return
        folder, name = os.path.split(target)
        tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
        handle = open(tmp, "x", newline="", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            if stat.S_ISREG(mode):
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path or repr(path)}: {exc.strerror}",
                       EXIT_BAD_INPUT) from exc


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise CliError(f"--tol must be a finite number >= 0, got {tol}", EXIT_BAD_INPUT)


def _check_count(option: str, value: int) -> None:
    if value < 1:
        raise CliError(f"{option} must be at least 1, got {value}", EXIT_BAD_INPUT)


def _load_game(path: str) -> tuple[BimatrixGame, dict]:
    # json, and csv in cmd_sweep, are imported where they run, so that
    # commands that read or write neither do not load them.
    import json

    # A ValueError is also an integer literal too long to read.
    with (_failing(EXIT_BAD_INPUT, f"{path} is not valid JSON: "),
          _failing(EXIT_BAD_INPUT, f"cannot read {path}: ", OSError),
          open(path, "r", encoding="utf-8") as handle):
        data = json.load(handle)
    with _failing(EXIT_BAD_INPUT, f"{path} is not a valid game file: ",
                  (ValueError, TypeError, ZeroDivisionError)):
        return game_from_json_dict(data), data


def _params_from_args(args) -> UnitaryParams:
    with _failing(EXIT_BAD_INPUT):
        angles = [parse_angle(tok) for tok in (args.theta, args.alpha, args.beta)]
    with _failing(EXIT_DOMAIN):
        return params_from_angles(*angles)


def _fmt(value: Fraction, exact: bool) -> str:
    return str(value) if exact else format(float(value), ".12g")


def _game_table(game: BimatrixGame, exact: bool) -> str:
    header = [""] + list(game.col_labels)
    rows = [header]
    for i, label in enumerate(game.row_labels):
        cells = [
            f"({_fmt(a, exact)}, {_fmt(b, exact)})" for a, b in game.payoffs[i]
        ]
        rows.append([label] + cells)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def _report_text(report: EquilibriumReport, game: BimatrixGame, exact: bool) -> str:
    lines = ["pure equilibria:"]
    if not report.pure:
        lines.append("  none")
    for i, j, pay in report.pure:
        lines.append(
            f"  ({game.row_labels[i]}, {game.col_labels[j]})  "
            f"payoff ({_fmt(pay[0], exact)}, {_fmt(pay[1], exact)})"
        )
    lines.append("mixed equilibria:")
    if not report.mixed:
        lines.append("  none")
    for prof, pay in report.mixed:
        p1 = ", ".join(_fmt(p, exact) for p in prof.p1)
        p2 = ", ".join(_fmt(p, exact) for p in prof.p2)
        lines.append(
            f"  p1=({p1})  p2=({p2})  "
            f"payoff ({_fmt(pay[0], exact)}, {_fmt(pay[1], exact)})"
        )
    lines.append(f"degenerate: {'yes' if report.degenerate else 'no'}")
    return "\n".join(lines)


def _class_line(params: UnitaryParams) -> str:
    cls = classify(params)
    if cls.witness is None:
        return f"class: {cls.kind.value}"
    k, l = cls.witness
    return f"class: {cls.kind.value} (k={k}, l={l})"


def cmd_extend(args) -> tuple[int, str, str | None]:
    game, _ = _load_game(args.game)
    params = _params_from_args(args)
    with _failing(EXIT_DOMAIN):
        ext = build_extension(game, params)
    with _failing(EXIT_BAD_INPUT, _TOO_LONG):
        text = (f"{_game_table(ext.game, ext.exact)}\n"
                f"{_class_line(params)}  exact: {'true' if ext.exact else 'false'}\n")
        saved = _json_text(extended_to_json_dict(ext)) if args.out is not None else None
    return EXIT_OK, text, saved


def cmd_classify(args) -> tuple[int, str, str | None]:
    return EXIT_OK, _class_line(_params_from_args(args)) + "\n", None


def cmd_solve(args) -> tuple[int, str, str | None]:
    game, data = _load_game(args.game)
    exact = data.get("exact", True)
    if not isinstance(exact, bool):
        raise CliError(f"{args.game} is not a valid game file: exact must be true or false",
                       EXIT_BAD_INPUT)
    if not exact and not args.allow_float_solve:
        raise CliError(
            "refusing to solve a float-built extension exactly; "
            "pass --allow-float-solve to snap payoffs and solve",
            EXIT_DOMAIN,
        )
    if not exact:
        if any(abs(x) > sys.float_info.max for p in (0, 1) for x in game.player_values(p)):
            raise CliError(
                f"{args.game} is marked float-built but holds a payoff beyond the float range",
                EXIT_BAD_INPUT,
            )
        game = snapped(game)
    # A local import, as for selfcheck, so that commands that never solve do
    # not compile nash.
    from .nash import report_to_json_dict, support_enumeration

    report = support_enumeration(game)
    with _failing(EXIT_BAD_INPUT, _TOO_LONG):
        text = _report_text(report, game, exact) + "\n"
        saved = _json_text(report_to_json_dict(report, game)) if args.out is not None else None
    return EXIT_OK, text, saved


def cmd_isocheck(args) -> tuple[int, str, str | None]:
    _check_tol(args.tol)
    angles = (args.theta, args.alpha, args.beta)
    if angles.count(None) not in (0, 3):
        raise CliError("give all of --theta, --alpha and --beta, or none of them", EXIT_BAD_INPUT)
    game_a, _ = _load_game(args.game_a)
    game_b, _ = _load_game(args.game_b)
    params = None if args.theta is None else _params_from_args(args)
    bijection = find_isomorphism(game_a, game_b, tol=args.tol)
    if bijection is None:
        lines = ["isomorphic: no" + (" (shapes differ)" if game_a.shape != game_b.shape else "")]
    else:
        lines = [
            "isomorphic: yes",
            "  rows: " + ", ".join(f"{x} -> {y}" for x, y in bijection.row_map),
            "  cols: " + ", ".join(f"{x} -> {y}" for x, y in bijection.col_map),
        ]
    if params is not None:
        with _failing(EXIT_DOMAIN):
            invariant = empirical_invariance(game_a, params)
        lines.append(f"extension of {args.game_a} invariant under relabelings: "
                     f"{'yes' if invariant else 'no'}")
    return EXIT_OK, "\n".join(lines) + "\n", None


def _angle_list(raw: str) -> list[tuple[str, Fraction | float]]:
    """The non-empty comma-separated tokens of ``raw``, stripped, each with its parsed angle."""
    if not isinstance(raw, str):  # argparse reads "--thetas=--" as []
        raise CliError(f"cannot parse angle list {raw!r}", EXIT_BAD_INPUT)
    with _failing(EXIT_BAD_INPUT):
        angles = [(tok.strip(), parse_angle(tok)) for tok in raw.split(",") if tok.strip()]
    if not angles:
        raise CliError(f"angle list {raw!r} holds no angle", EXIT_BAD_INPUT)
    return angles


def _solved_row(players, exact: bool) -> list[str]:
    """The equilibrium counts and first equilibrium's payoffs of one weight table.

    ``players`` holds each player's payoff rows as integers over one scale,
    as `nash._solve` takes them, and only the two printed payoffs become
    `Fraction`, formatted by `_fmt`.
    """
    from .nash import _solve

    solved = _solve(players)
    # Every game has an equilibrium, and the search is complete.
    first = (solved.pure or solved.mixed)[0][-1]
    with _failing(EXIT_BAD_INPUT, _TOO_LONG):
        pays = [_fmt(Fraction(*v), exact) for v in first]
    return [str(len(solved.pure)), str(len(solved.mixed)), *pays]


def cmd_sweep(args) -> tuple[int, str, str | None]:
    game, _ = _load_game(args.game)
    if game.shape != (2, 2):
        raise CliError(f"sweep needs a 2x2 game, got {game.shape}", EXIT_DOMAIN)
    # Before any point is solved, every token is parsed, so a malformed one is
    # exit 2 as for one point, and then read by its part, `theta_part` or
    # `phase_part`, so a theta out of range is exit 3.
    lists = [_angle_list(raw) for raw in (args.thetas, args.alphas, args.betas)]
    parts = (UnitaryParams.theta_part, UnitaryParams.phase_part, UnitaryParams.phase_part)
    with _failing(EXIT_DOMAIN):
        thetas, alphas, betas = [[(tok, part(angle)) for tok, angle in angles]
                                 for part, angles in zip(parts, lists)]

    import csv

    # The whole CSV is built in memory, so a failure at any point leaves no
    # partial output behind.
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["theta", "alpha", "beta", "class", "n_pure", "n_mixed", "payoff1", "payoff2"])
    # A row after its angles depends only on the operator's outcome-weight
    # table, so each table is classified and solved once: an exact one from
    # each player's classical payoffs, read once here, a float one from its
    # snapped extension.
    # The key holds `exact` too, because int and float tables can compare
    # equal.
    # On the exact grid the table is a function of the places the tokens'
    # parts carry, and it reads alpha and beta only through 2*alpha and
    # 2*beta, so a point whose places, the phases' mod 4, were seen reuses
    # its row without building its operator.  Points with a float or
    # off-grid token are built one by one: float tables at a and a + pi can
    # differ in the last bit.  The memos belong to this call, so they never
    # outgrow one sweep.
    players = _classical_payoffs(game, True)
    rows: dict[tuple, list[str]] = {}
    by_place: dict[tuple[int, int, int], list[str]] = {}
    for (t_tok, t), (a_tok, a), (b_tok, b) in product(thetas, alphas, betas):
        place = None if None in (t[2], a[2], b[2]) else (t[2], a[2] % 4, b[2] % 4)
        row = by_place.get(place)
        if row is None:
            params = UnitaryParams.from_parts(t, a, b)
            key = outcome_weights(params)
            row = rows.get(key)
            if row is None:
                weights, exact = key
                if exact:
                    solved = _solved_row(_integer_cells(players, weights), True)
                else:
                    with _failing(EXIT_DOMAIN):
                        ext = build_extension(game, params)
                    solved = (_solved_row(_integer_payoffs(snapped(ext.game)), False)
                              if args.allow_float_solve else ["", "", "", ""])
                row = rows[key] = [classify(params).kind.value, *solved]
            if place is not None:
                by_place[place] = row
        writer.writerow([t_tok, a_tok, b_tok, *row])
    if args.out is not None:
        return EXIT_OK, "", buffer.getvalue()
    return EXIT_OK, buffer.getvalue(), None


def cmd_verify_oracle(args) -> tuple[int, str, str | None]:
    _check_count("--samples", args.samples)
    _check_count("--games", args.games)
    _check_tol(args.tol)
    # A local import, as in cmd_reproduce, so that other commands do not compile selfcheck.
    from .selfcheck import max_oracle_deviation

    worst = max_oracle_deviation(samples=args.samples, seed=args.seed, n_games=args.games)
    text = (f"max |closed-form - statevector| over {args.games} games x "
            f"{args.samples} samples (seed {args.seed}): {worst:.3e}\n")
    if worst > args.tol:
        return EXIT_SUITE_FAILED, text + f"FAIL: deviation exceeds {args.tol:g}\n", None
    return EXIT_OK, text + f"OK: within {args.tol:g}\n", None


def cmd_reproduce(args) -> tuple[int, str, str | None]:
    pd = None
    if args.pd_file:
        pd, _ = _load_game(args.pd_file)
        if pd.shape != (2, 2):
            raise CliError("--pd-file must hold a 2x2 game", EXIT_DOMAIN)
    from .selfcheck import run_reference_suite

    with _failing(EXIT_BAD_INPUT, _TOO_LONG):
        claims = run_reference_suite(pd)
    all_ok = all(c.ok for c in claims)
    code = EXIT_OK if all_ok else EXIT_SUITE_FAILED
    if args.json:
        rows = [
            {"name": c.name, "pass": c.ok, "expected": c.expected, "actual": c.actual}
            for c in claims
        ]
        return code, _json_text({"claims": rows, "all_pass": all_ok}), None
    lines = []
    for c in claims:
        lines.append(f"{'PASS' if c.ok else 'FAIL'}  {c.name}")
        if not c.ok:
            lines += [f"      expected: {c.expected}", f"      actual:   {c.actual}"]
    lines.append(f"{sum(c.ok for c in claims)}/{len(claims)} claims pass")
    return code, "\n".join(lines) + "\n", None


def _add_angle_options(parser, required=True) -> None:
    parser.add_argument("--theta", required=required, help='angle, e.g. "1/2pi" or radians')
    parser.add_argument("--alpha", required=required, help='angle, e.g. "1/2pi" or radians')
    parser.add_argument("--beta", required=required, help='angle, e.g. "0" or radians')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewlgames",
        description="Quantum one-unitary extensions of 2x2 games, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="build the 3x3 extension of a 2x2 game")
    p.add_argument("game", help="game JSON file")
    _add_angle_options(p)
    p.add_argument("-o", "--out", help="write the extended game JSON here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("classify", help="invariance family of an operator")
    _add_angle_options(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="all Nash equilibria of a game file")
    p.add_argument("game", help="game JSON file (plain or extended)")
    p.add_argument("--allow-float-solve", action="store_true",
                   help="solve float-built extensions after snapping payoffs")
    p.add_argument("-o", "--out", help="write the equilibrium report JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("isocheck", help="strong isomorphism between two game files")
    p.add_argument("game_a")
    p.add_argument("game_b")
    p.add_argument("--tol", type=float, default=0.0,
                   help="payoff comparison tolerance (default exact)")
    _add_angle_options(p, required=False)
    p.set_defaults(func=cmd_isocheck)

    p = sub.add_parser("sweep", help="classify/solve extensions over an angle grid (CSV)")
    p.add_argument("game", help="2x2 game JSON file")
    p.add_argument("--thetas", required=True, help="comma-separated angles")
    p.add_argument("--alphas", required=True, help="comma-separated angles")
    p.add_argument("--betas", required=True, help="comma-separated angles")
    p.add_argument("--allow-float-solve", action="store_true")
    p.add_argument("-o", "--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-oracle",
                       help="compare the closed-form and statevector payoff routes")
    p.add_argument("--samples", type=int, default=1000, help="strategy pairs per game")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--games", type=int, default=5, help="number of random games")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_verify_oracle)

    p = sub.add_parser("reproduce", help="run the reference-results suite")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--pd-file", help="use this 2x2 game instead of the canonical one")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Run one command: write its ``-o`` file, then its warnings and standard output.

    Commands return ``(exit code, stdout text, -o text or None)`` and write
    nothing themselves.  A `CliError` from the command or from the ``-o``
    write leaves standard output empty and any ``-o`` target as it was, and
    drops the command's warnings; otherwise each is one ``warning:`` line.
    Every stream is written by `_send`.  One whose reader has gone, or whose
    descriptor cannot be written, is dropped and the exit code kept; any other
    failure to write standard output or an ``-o`` FIFO, device or descriptor
    is exit 2 with one ``error: cannot write`` line, and standard error drops
    it.
    """
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, saved = args.func(args)
        if saved is not None:
            _write_output(args.out, saved)
        _send(sys.stderr, "".join(f"warning: {warning.message}\n" for warning in caught))
        _send(sys.stdout, text, "standard output")
    except CliError as exc:
        code = exc.code
        _send(sys.stderr, f"error: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
