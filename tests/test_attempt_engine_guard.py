"""Guard: the attempt loop lives in one place.

Every wrapper that re-issues work drives its attempts through the engine
in ``repro/faults/filtering.py`` and keeps only its routing policy.  A
module that builds a bare in-flight table (``CompletionFilter()`` with no
owner) or calls the low-level screening primitives is growing a second
attempt loop beside it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ENGINE = SRC / "faults" / "filtering.py"
LOW_LEVEL = {"screen", "screen_chunk", "restart_stream"}


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def loop_fragments(path: Path):
    """``(line, what)`` for every attempt-loop fragment in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node)
        if name == "CompletionFilter" and not (node.args or node.keywords):
            yield node.lineno, "builds a bare in-flight table"
        elif isinstance(node.func, ast.Attribute) and name in LOW_LEVEL:
            yield node.lineno, f"calls the low-level {name}()"


def test_only_the_engine_runs_an_attempt_loop():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py")) if path != ENGINE
        for line, what in loop_fragments(path)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_guard_sees_a_fifth_loop(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "from repro.faults.filtering import CompletionFilter\n"
        "table = CompletionFilter()\n"
        "table.screen_chunk(query, chunk)\n",
        encoding="utf-8")
    assert [line for line, _ in loop_fragments(rogue)] == [2, 3]
