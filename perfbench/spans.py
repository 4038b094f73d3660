"""In-memory spans around the calls into each ewlgames module.

The tracer wraps public functions at their module attribute, and also in
every other ewlgames module that imported them by name (``cli`` and
``extension`` do), so calls between modules are seen too.  Spans are kept
in a list while the run lasts; `summary` turns them into per-layer counts
and self times, and `write_jsonl` writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Both halves of the statevector payoff
# route record under one name.
TARGETS = (
    ("games", "find_isomorphism", "games.find_isomorphism"),
    ("games", "snapped", "games.snapped"),
    ("ewl", "parse_angle", "ewl.parse_angle"),
    ("ewl", "closed_form_payoff", "ewl.closed_form_payoff"),
    ("ewl", "final_state", "ewl.statevector"),
    ("ewl", "payoff_from_state", "ewl.statevector"),
    ("extension", "classify", "extension.classify"),
    ("extension", "build_extension", "extension.build_extension"),
    ("extension", "empirical_invariance", "extension.empirical_invariance"),
    ("nash", "support_enumeration", "nash.support_enumeration"),
    ("nash", "solve_rational_system", "nash.solve_rational_system"),
    ("nash", "verify_equilibrium", "nash.verify_equilibrium"),
    ("selfcheck", "run_reference_suite", "selfcheck.run_reference_suite"),
    ("selfcheck", "max_oracle_deviation", "selfcheck.max_oracle_deviation"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Records (name, op, start_ns, end_ns, parent) spans while `enabled`."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.enabled = False
        self.op = -1
        self.missing: list[str] = []
        self.degenerate = 0
        self.routes = {"family": 0, "exact": 0, "float": 0}
        self.grids: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._classify = None

    def install(self) -> None:
        """Wrap every target in every loaded ewlgames module."""
        originals = {}
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"ewlgames.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            originals[id(fn)] = self._wrap(span, fn)
        extension = sys.modules["ewlgames.extension"]
        self._classify = getattr(extension, "classify", None)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ewlgames" or name.startswith("ewlgames.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, span, fn):
        spans, stack = self.spans, self._stack
        on_result = {
            "nash.support_enumeration": self._on_solve,
            "extension.build_extension": self._on_build,
        }.get(span)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = span
            if span == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.main.{argv[0]}" if argv else span
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, self.op, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_solve(self, args, report) -> None:
        self.degenerate += bool(report.degenerate)
        self.grids.add(args[0].payoffs)

    def _on_build(self, args, ext) -> None:
        if self._classify is not None and self._classify(args[1]).invariant:
            self.routes["family"] += 1
        elif ext.exact:
            self.routes["exact"] += 1
        else:
            self.routes["float"] += 1

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time (ns) per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        covered = [0] * len(self.spans)
        for name, _op, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
        for index, (name, _op, start, end, _parent) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_ns"] += end - start - covered[index]
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
