"""scripts/src_lines.py, the line count of src/supercohom."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "src_lines.py")


def test_src_lines_counts_every_module_and_sums_them(tmp_path):
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, check=True)
    header, *rows, total = [line.split() for line in run.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    modules = sorted(name for name in os.listdir(os.path.join(ROOT, "src", "supercohom")) if name.endswith(".py"))
    assert [row[0] for row in rows] == modules
    for name, lines, code in rows:
        with open(os.path.join(ROOT, "src", "supercohom", name), encoding="utf-8") as fh:
            assert int(lines) == len(fh.read().splitlines())
        assert 0 < int(code) <= int(lines)
    assert total == ["total", str(sum(int(r[1]) for r in rows)), str(sum(int(r[2]) for r in rows))]

    # Docstrings, comments and blank lines are not code; a statement that
    # spans lines counts each of them.
    (tmp_path / "sample.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nx = (1,\n     2)  # trailing\n\n\ndef f():\n'
        '    """One line."""\n    return """not a\n    docstring"""\n'
    )
    run = subprocess.run([sys.executable, SCRIPT, str(tmp_path)], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[1].split() == ["sample.py", "12", "5"]
