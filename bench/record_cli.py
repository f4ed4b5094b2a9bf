"""Record the expected output of every cli-fixtures command.

Runs each argv of the command matrix once as a real `python -m supercohom.cli`
subprocess and writes its exit code, stdout and stderr to expected_cli.json
beside this file.  Every benchmark run compares its in-process output with this
record.  Run from the repository root, and only when the CLI output is meant to
change:

    python3 bench/record_cli.py
"""

import json
import os
import subprocess
import sys

from commands import command_argvs

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "expected_cli.json")


def main() -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    env.pop("SUPERCOHOM_THREADS", None)
    records = []
    for argv in command_argvs():
        proc = subprocess.run(
            [sys.executable, "-m", "supercohom.cli", *argv],
            capture_output=True,
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
