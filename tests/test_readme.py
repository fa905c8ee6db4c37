"""The README's library examples run as written and print what they say."""

import ast
import re
from pathlib import Path

from countertwist import SolvabilityCategory

README = Path(__file__).resolve().parent.parent / "README.md"

# Each commented result of the examples: the expression, the comment's
# text and the value it stands for.
COMMENTED = {
    "char_poly_exact(j).coefficients": ("(0, -108, 0, 21, 0, -1)", (0, -108, 0, 21, 0, -1)),
    "classify_solvability(j).category": (
        "SolvabilityCategory.RADICALS", SolvabilityCategory.RADICALS
    ),
    "[str(ev.radical_form) for ev in report.eigenvalues if ev.radical_form]": (
        "['-sqrt(12)', 'sqrt(12)']", ["-sqrt(12)", "sqrt(12)"]
    ),
}


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_examples_run_and_match_their_comments():
    text = README.read_text(encoding="utf-8")
    blocks = _python_blocks(text)
    assert len(blocks) == 2
    namespace, values = {}, {}
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
                # The comment follows on the statement's line or the next.
                values[source] = value, "\n".join(lines[node.lineno - 1:node.lineno + 1])
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    for expression, (comment, expected) in COMMENTED.items():
        value, where = values[expression]
        assert f"# {comment}" in where, expression
        assert value == expected, expression
