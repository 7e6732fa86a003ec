"""The README's Library example runs and shows what it computes."""

import ast
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example():
    # each expression statement equals the value in the comment on its line,
    # or on the next line; a comment's text after " -- " is prose
    text = README.read_text()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        if not comment:
            comment = lines[stmt.end_lineno].strip().removeprefix("#")
        shown = ast.literal_eval(comment.split(" -- ")[0].strip())
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert got == shown, ast.unparse(stmt)
        checked.append(ast.unparse(stmt))
    assert checked == ["table.epsilon", "table.entry(8, 6)", "rows",
                       "{m: b for (r, m), b in sorted(bps.items()) if r == 3}",
                       "{m: b_unknot(3, m, 2) for m in (-3, -1, 1, 3)}"]
