"""Record the expected output of every cli-fixtures command with --emit json.

Runs each argv of bench/expected_cli.json, with "--emit json" appended, once
as a real `python -m supercohom.cli` subprocess and writes its exit code,
stdout and stderr to tests/expected_cli_json.json.  tests/test_cli_record.py
compares the in-process output with this record.  Run from the repository
root, and only when the JSON output is meant to change:

    python3 scripts/record_cli_json.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SOURCE = os.path.join(ROOT, "bench", "expected_cli.json")
RECORD = os.path.join(ROOT, "tests", "expected_cli_json.json")


def main() -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    env.pop("SUPERCOHOM_THREADS", None)
    with open(SOURCE, encoding="utf-8") as fh:
        argvs = [rec["argv"] + ["--emit", "json"] for rec in json.load(fh)]
    records = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "supercohom.cli", *argv],
            capture_output=True,
            cwd=ROOT,
            env=env,
            timeout=300,
        )
        records.append(
            {
                "argv": argv,
                "exit": proc.returncode,
                "stdout": proc.stdout.decode("utf-8"),
                "stderr": proc.stderr.decode("utf-8"),
            }
        )
        print(proc.returncode, " ".join(argv), file=sys.stderr)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
