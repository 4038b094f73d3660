"""The README's library tour runs and gives the results its comments state."""

import ast
from fractions import Fraction as F
from pathlib import Path

from ewlgames import MixedProfile

README = Path(__file__).parents[1] / "README.md"


def tour_values():
    """Run the README's one python block; return each bare expression's value."""
    blocks = README.read_text(encoding="utf-8").split("```python\n")
    assert len(blocks) == 2, "the README should hold exactly one python block"
    source = blocks[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_library_tour():
    half = (F(1, 2), F(0), F(1, 2))
    quarter = (F(1, 4), F(1, 4), F(1, 2))
    assert tour_values() == [
        ((2, 2, (3, 3)),),  # (Q, Q)
        ((MixedProfile(half, half), (F(5, 2), F(5, 2))),),
        "NonInvariant",
        False,
        "TypeII",
        ((MixedProfile(quarter, quarter), (F(9, 4), F(9, 4))),),  # the only equilibrium
    ]
