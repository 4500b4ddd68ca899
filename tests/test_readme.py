"""The README's Library example runs and prints what its comments say.

Each expression line of the block ends in a comment holding the repr of
its value; other lines are executed in order.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no Library code block"
    return match.group(1)


def test_library_example_comments_match():
    source = library_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert repr(value) == comments[stmt.lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked
