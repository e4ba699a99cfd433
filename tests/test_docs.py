"""The README's library quickstart and the bundled demo problems run as
documented."""

import ast
import re
from pathlib import Path

from icsp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_the_quickstart_and_the_demos_run_as_the_readme_states(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # Run the block statement by statement, keeping the value of each bare
    # expression; the README states the results of the last three.
    namespace: dict = {}
    values = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    x, y, z = namespace["x"], namespace["y"], namespace["z"]
    assert values[-3:] == [True, ([1], [2]), {x: 1, y: 2, z: 2}]

    demos = sorted((ROOT / "problems").glob("*.icsp"))
    assert [p.name for p in demos] == ["closed_coloring.icsp", "lazy_intersection.icsp",
                                       "lazy_range.icsp"]
    for path in demos:
        assert main([str(path), "--trace"]) == 0, path.name
        assert "RESULT consistent\n" in capsys.readouterr().out
