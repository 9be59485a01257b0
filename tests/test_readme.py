"""The README's library session runs, the values its comments state hold, and
its flag table lists the flags of each command."""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

from klpriv.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def _python_block() -> str:
    """The one ```python block of the README."""
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```", 1)[0]


def _stated(comment: str):
    """The literal a ``# value`` comment states, or None for prose."""
    try:
        return ast.literal_eval(comment.lstrip("#").strip())
    except (ValueError, SyntaxError):
        return None


def _matches(value, stated) -> bool:
    """``value`` rounds to ``stated``: a float to the digits the comment gives."""
    if isinstance(stated, tuple):
        return (isinstance(value, tuple) and len(value) == len(stated)
                and all(_matches(v, s) for v, s in zip(value, stated)))
    if isinstance(stated, float):
        digits = len(repr(stated).partition(".")[2])
        return round(float(value), digits) == stated
    return value == stated


def test_library_session_runs_and_its_stated_values_hold():
    source = _python_block()
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            stated = _stated(comments.get(stmt.end_lineno, ""))
            if stated is not None:
                assert _matches(value, stated), (ast.unparse(stmt), value, stated)
                checked[ast.unparse(stmt.value)] = stated
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == {
        "kp.kl_bound_linearized(B, T=1.0, n=100, sigma2=0.01)": 1.05,
        "kp.init_betas('he', arch)": (0.2, 0.02, 0.02),
        "kp.lin_empirical_loss(features, W_avg, data.Y, kp.LossKind.LOGISTIC_SINGLE)": 0.256,
        "kp.averaged_iterate_risk_bound(sol.achieved_loss, sol.R, T=0.05 * 200, "
        "sigma2=0.0001, rank=sol.gram.rank)": 4.01,
    }
    for result in ("result", "linearized"):
        assert 0 < namespace[result].worst_mean[-1] < math.inf


def test_flag_table_lists_the_flags_of_each_command():
    lines = README.read_text().splitlines()
    commands = [c.strip() for c in next(l for l in lines if l.startswith("| flag |"))
                .strip("|").split("|")[1:]]
    table = {command: set() for command in commands}
    for line in (l for l in lines if l.startswith("| `--")):
        flags, *marks = (cell.strip() for cell in line.strip("|").split("|"))
        for command, mark in zip(commands, marks, strict=True):
            if mark == "x":
                table[command] |= {flag.strip(" `") for flag in flags.split(",")}
    for command in commands:
        names = set(vars(build_parser().parse_args([command]))) - {"command", "config"}
        assert table[command] == {"--" + name.replace("_", "-") for name in names}, command


def test_python_floor_matches_pyproject():
    # numerics._fork_worker calls BaseException.add_note, new in Python 3.11
    stated = re.findall(r"Python (3\.\d+)\+", README.read_text())
    floor = re.search(r'requires-python = ">=(3\.\d+)"', PYPROJECT.read_text())
    assert stated == [floor.group(1)] == ["3.11"]
