"""Count the lines of each module of a package: all lines, and code lines.

A code line holds at least one token that is not a comment, a docstring or
whitespace; a line that a multi-line expression or string spans counts
once.  Docstrings are the string statements that open a module, a class or
a function.

Usage: python3 scripts/src_lines.py [PACKAGE_DIR]   (default: src/supercohom)
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1] / "src" / "supercohom"
    total = code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code_lines = count(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + code_lines
        print(f"{path.name:<20} {lines:>6} {code_lines:>6}")
    print(f"{'total':<20} {total:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
