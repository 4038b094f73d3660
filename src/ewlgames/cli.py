"""Command-line front end.

Subcommands: extend, classify, solve, isocheck, sweep, verify-oracle,
reproduce.  Exit codes: 0 success, 1 reference-suite failure, 2 malformed
input, 3 domain error (angle out of range, wrong game shape, or solving a
float-built game without opting in).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from .ewl import UnitaryParams, parse_angle, params_from_angles
from .extension import (
    build_extension,
    classify,
    empirical_invariance,
    extended_to_json_dict,
    outcome_weights,
)
from .games import BimatrixGame, find_isomorphism, game_from_json_dict, snapped
from .nash import EquilibriumReport, report_to_json_dict, support_enumeration

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DOMAIN = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT) from exc
    except ValueError as exc:  # also an integer literal too long to read
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_BAD_INPUT) from exc


@contextmanager
def _rendering():
    """Make a value with too many digits to print, inside the block, an input error.

    Commands return their output as text and only `main` writes it, so such
    a value leaves no partial output behind.
    """
    try:
        yield
    except ValueError as exc:  # str() of an int beyond sys.get_int_max_str_digits()
        raise CliError(f"a value has too many digits to print: {exc}", EXIT_BAD_INPUT) from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file beside ``path``, which replaces
    ``path`` only once it is complete.  On any failure the temporary file is
    removed, and a file that was already at ``path`` is left as it was.  The
    error names ``path`` and the OS reason, never the temporary file.
    """
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        handle = open(tmp, "x", newline="", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_BAD_INPUT) from exc


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise CliError(f"--tol must be a finite number >= 0, got {tol}", EXIT_BAD_INPUT)


def _check_count(option: str, value: int) -> None:
    if value < 1:
        raise CliError(f"{option} must be at least 1, got {value}", EXIT_BAD_INPUT)


def _load_game(path: str) -> tuple[BimatrixGame, dict]:
    data = _load_json(path)
    try:
        return game_from_json_dict(data), data
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise CliError(f"{path} is not a valid game file: {exc}", EXIT_BAD_INPUT) from exc


def _params_from_args(args) -> UnitaryParams:
    try:
        angles = [parse_angle(tok) for tok in (args.theta, args.alpha, args.beta)]
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    try:
        return params_from_angles(*angles)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_DOMAIN) from exc


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
    try:
        ext = build_extension(game, params)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_DOMAIN) from exc
    with _rendering():
        text = (f"{_game_table(ext.game, ext.exact)}\n"
                f"{_class_line(params)}  exact: {'true' if ext.exact else 'false'}\n")
        saved = _json_text(extended_to_json_dict(ext)) if args.out else None
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
    report = support_enumeration(game)
    with _rendering():
        text = _report_text(report, game, exact) + "\n"
        saved = _json_text(report_to_json_dict(report, game)) if args.out else None
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
        try:
            invariant = empirical_invariance(game_a, params)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_DOMAIN) from exc
        lines.append(f"extension of {args.game_a} invariant under relabelings: "
                     f"{'yes' if invariant else 'no'}")
    return EXIT_OK, "\n".join(lines) + "\n", None


def _angle_list(raw: str) -> list[tuple[str, Fraction | float]]:
    """The non-empty comma-separated tokens of ``raw``, stripped, each with its parsed angle."""
    if not isinstance(raw, str):  # argparse reads "--thetas=--" as []
        raise CliError(f"cannot parse angle list {raw!r}", EXIT_BAD_INPUT)
    try:
        angles = [(tok.strip(), parse_angle(tok)) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    if not angles:
        raise CliError(f"angle list {raw!r} holds no angle", EXIT_BAD_INPUT)
    return angles


def _sweep_row(game: BimatrixGame, params: UnitaryParams, allow_float_solve: bool) -> list[str]:
    """The class, equilibrium counts and first equilibrium's payoffs of one sweep point."""
    try:
        ext = build_extension(game, params)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_DOMAIN) from exc
    kind = classify(params).kind.value
    if not (ext.exact or allow_float_solve):
        return [kind, "", "", "", ""]
    report = support_enumeration(ext.game if ext.exact else snapped(ext.game))
    first = None
    if report.pure:
        first = report.pure[0][2]
    elif report.mixed:
        first = report.mixed[0][1]
    with _rendering():
        pays = [_fmt(v, ext.exact) for v in first] if first else ["", ""]
    return [kind, str(len(report.pure)), str(len(report.mixed)), *pays]


def cmd_sweep(args) -> tuple[int, str, str | None]:
    game, _ = _load_game(args.game)
    if game.shape != (2, 2):
        raise CliError(f"sweep needs a 2x2 game, got {game.shape}", EXIT_DOMAIN)
    # Every token is parsed before any point is solved.
    thetas, alphas, betas = [_angle_list(raw) for raw in (args.thetas, args.alphas, args.betas)]

    # The whole CSV is built in memory, so a failure at any point leaves no
    # partial output behind.
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["theta", "alpha", "beta", "class", "n_pure", "n_mixed", "payoff1", "payoff2"])
    # A row after its angles depends only on the operator's outcome-weight
    # table, so each table is built, classified and solved once.  The key
    # holds `exact` too, because int and float tables can compare equal.
    # The memo belongs to this call, so it never outgrows one sweep.
    rows: dict[tuple, list[str]] = {}
    for (t_tok, theta), (a_tok, alpha), (b_tok, beta) in product(thetas, alphas, betas):
        try:
            params = params_from_angles(theta, alpha, beta)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_DOMAIN) from exc
        key = outcome_weights(params)
        row = rows.get(key)
        if row is None:
            row = rows[key] = _sweep_row(game, params, args.allow_float_solve)
        writer.writerow([t_tok, a_tok, b_tok, *row])
    if args.out:
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

    with _rendering():
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
    """
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, saved = args.func(args)
        if saved is not None:
            _write_output(args.out, saved)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`| head -1`).  Standard output now goes to
        # devnull, so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
