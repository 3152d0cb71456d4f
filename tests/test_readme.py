"""README's Python tour and command-line examples run as written and give what
their comments say."""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

from repfn.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# first output line of each example whose comment gives it
FIRST_LINES = {
    "eval": "14",
    "select-g": "T=40 g=7",
    "detect": "a=3 k=2 i0=1",
    "intersect": "nonempty (d=2, p=3, q=5)",
}


def example_lines() -> list[str]:
    """The `repfn ...` lines of README's first code block that holds any."""
    blocks = README.read_text().split("```")[1::2]  # the text inside each fence pair
    for block in blocks:
        lines = [ln for ln in block.splitlines() if ln.startswith("repfn ")]
        if lines:
            return lines
    return []


def test_command_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = example_lines()
    assert len(lines) == 10
    assert lines[0].startswith("repfn gen ")  # it writes the s.json the others read
    checked = set()
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, ""), line
        if argv[0] == "gen":
            Path("s.json").write_text(out.getvalue())
        if argv[0] in FIRST_LINES:
            expected = FIRST_LINES[argv[0]]
            assert comment.strip().startswith(expected), line
            assert out.getvalue().splitlines()[0] == expected, line
            checked.add(argv[0])
    assert checked == set(FIRST_LINES)


def tour_lines() -> list[str]:
    """The lines of README's first ```python block."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_python_tour_runs():
    # each commented expression's repr starts its comment; statements just run
    namespace: dict = {}
    checked = 0
    for line in tour_lines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        try:
            expr = compile(code.strip(), "README.md", "eval")
        except SyntaxError:  # a statement: an import or an assignment
            exec(code, namespace)
            continue
        value = eval(expr, namespace)
        if comment:
            assert comment.strip().startswith(repr(value)), line
            checked += 1
    assert checked == 11
