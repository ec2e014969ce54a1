"""The README's library example runs and prints what its comments say."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def run_library_example(number: int) -> list[tuple]:
    """Runs the ``number``-th python block of the Library section; returns the
    (value, commented value) pair of each bare expression."""
    text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = text.split("```python\n")[number].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1]
            results.append((value, ast.literal_eval(comment.strip())))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return results


def test_readme_library_example():
    results = run_library_example(1)
    assert [expected for _, expected in results] == [0.975, ("BLEU", "NIST", "EBLEU")]
    score, predictors = (value for value, _ in results)
    assert score == pytest.approx(0.975, abs=1e-12)
    assert predictors == ("BLEU", "NIST", "EBLEU")


def test_readme_score_transcript_example():
    results = run_library_example(2)
    assert [expected for _, expected in results] == [[25.0, 25.0], (62.5, 87.5), 75.801282]
    assert [value for value, _ in results] == [expected for _, expected in results]
