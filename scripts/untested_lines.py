"""List the statement lines of a package that no test executes.

Runs pytest in this process with a line tracer (sys.settrace) that records
only the frames whose code lives in the package, then prints each statement
that never ran as `module:line: source`.  Docstrings and other constant
expressions, `def` and `class` lines, imports and `global`/`nonlocal`
declarations are left out: they run at import or compile to nothing.  The
package's parent directory goes first on sys.path and on PYTHONPATH, so the
tests and the child processes they start (such as `python -m supercohom`)
import the traced source.  Code that runs only in a child process is not
seen.

Usage: python3 scripts/untested_lines.py [--package DIR] [PYTEST_ARG ...]
(default: src/supercohom, and pytest -q with the repository's test paths;
PYTHONPATH=src is not needed).  The exit status is pytest's.
"""

import argparse
import ast
import os
import pathlib
import sys
import threading

import pytest

HEADER = "untested statement lines:"
SKIPPED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
)


class LineTracer:
    """A pytest plugin that records (file, line) for every line executed in
    the files under one directory, from start() until pytest unconfigures."""

    def __init__(self, root: pathlib.Path):
        self.prefix = str(root) + "/"
        self.hits: dict[str, set[int]] = {}
        self.inside: dict[str, bool] = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self.inside.get(name)
        if inside is None:
            inside = self.inside[name] = name.startswith(self.prefix)
        if not inside:
            return None
        lines = self.hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_unconfigure(self, config) -> None:
        self.stop()


def statement_lines(source: str) -> list[int]:
    """The first line of every statement that compiles to code run after
    import, in order."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        lines.add(node.lineno)
    return sorted(lines)


def untested(root: pathlib.Path, hits: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = hits.get(str(path), set())
        out += [
            f"{path.relative_to(root)}:{n}: {text[n - 1].strip()}" for n in statement_lines(source) if n not in ran
        ]
    return out


def main(argv: list[str]) -> int:
    default = pathlib.Path(__file__).resolve().parents[1] / "src" / "supercohom"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--package", type=pathlib.Path, default=default)
    args, pytest_args = parser.parse_known_args(argv)
    root = args.package.resolve()
    sys.path.insert(0, str(root.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root.parent), os.environ.get("PYTHONPATH")]))
    tracer = LineTracer(root)
    tracer.start()
    try:
        code = pytest.main(pytest_args or ["-q"], plugins=[tracer])
    finally:
        tracer.stop()
    lines = untested(root, tracer.hits)
    print(HEADER, len(lines))
    for line in lines:
        print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
