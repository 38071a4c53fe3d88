"""Rewrite the stored golden reports under tests/golden/ from the current code.

Run from the repository root as

    PYTHONPATH=src python tests/update_golden.py

It writes every case of `test_golden.py` in both formats, and the exit
codes, in place of what is stored.  Review the result with
`git diff tests/golden/`: every changed byte is a change of behaviour.
"""

import json
import os
import tempfile
from pathlib import Path

from test_golden import CASES, EXIT_CODES_PATH, GOLDEN_DIR, case_name, golden_path, run_report, write_fixtures


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path in GOLDEN_DIR.glob("*"):
        path.unlink()
    codes = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        os.chdir(tmp)
        try:
            for key, argv in sorted(CASES.items()):
                for fmt in ("json", "text"):
                    code, out = run_report(argv, fmt)
                    golden_path(key, fmt).write_bytes(out)
                    assert codes.setdefault(case_name(key), code) == code, f"{key}: exit code depends on the format"
        finally:
            os.chdir(here)
    EXIT_CODES_PATH.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
