"""List the lines of the nleig package that a test run never executes, with the stdlib alone.

Runs pytest in this process under a line tracer (``sys.settrace``, and
``threading.settrace`` for the threads it starts) that follows only the
frames of ``src/nleig``, and prints ``module:line source`` for every
executable line of a package module that never ran.  Docstrings do not
count.  A module the run never imports in this process is not listed:
``python -m nleig`` runs ``__main__`` only in a subprocess.  The arguments
are pytest's test paths, by default the tier-1 set:

    PYTHONPATH=src python tools/uncovered.py [tests perfbench]

It exits with pytest's exit code.  No coverage package is needed.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nleig"
TIER1 = ["tests", "perfbench"]


def executable_lines(source: str) -> set[int]:
    """The lines that start a bytecode line of some code object of source, docstrings left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines, stack = set(), [compile(source, "<source>", "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0 marks no line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - docstrings


def main(paths: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main([*(paths or TIER1), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        if str(path) not in ran:
            continue
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(executable_lines(source) - ran[str(path)]):
            print(f"{path.stem}:{line} {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
