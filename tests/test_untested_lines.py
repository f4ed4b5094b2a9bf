"""scripts/untested_lines.py, the statement lines that no test executes."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "untested_lines.py")

MODULE = '''"""A tiny module."""

import os


class Box:
    """A box."""

    size = 1

    def __init__(self, x):
        self.x = x

    def get(self):
        if self.x is None:
            raise ValueError(
                "empty box"
            )
        try:
            pass
        finally:
            y = 2
        return self.x


def unused(y):
    global SEEN
    total = 0
    for k in range(y):
        total += k
    return total
'''

TEST = '''from pkg.mod import Box


def test_box():
    assert Box(3).get() == 3
'''


def test_untested_lines_lists_the_statements_no_test_runs(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text('"""A tiny package."""\n')
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_tiny.py").write_text(TEST)
    argv = [sys.executable, SCRIPT, "--package", "pkg", "test_tiny.py", "-q", "-p", "no:cacheprovider"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    # imports, def and class lines, docstrings and global run at import or
    # compile to nothing; a multi-line statement is listed by its first line
    listing = run.stdout.split("untested statement lines: ")[1].splitlines()
    assert listing == [
        "5",
        'mod.py:16: raise ValueError(',
        "mod.py:28: total = 0",
        "mod.py:29: for k in range(y):",
        "mod.py:30: total += k",
        "mod.py:31: return total",
    ]
