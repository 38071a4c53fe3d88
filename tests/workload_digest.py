"""One digest of every benchmark operation's output, to compare two versions.

Run from the repository root as

    PYTHONPATH=src python tests/workload_digest.py

It writes the inputs of seeds 1 and 2 of every workload with the
benchmark's own generator (`bench/gen.py` `WORKLOADS`) and operation list
(`bench/run.py` `build_ops`) under .bench_work/digest/, runs each operation
in process through `tropctl.cli.main` in `--format json` and in
`--format text`, and hashes the argv, format, exit code and standard
output of each run.  It prints one line `<workload> <runs> <sha256>` for
each workload, over that workload's runs, and last one line
`<runs> <sha256>` over every run.  Point PYTHONPATH at another checkout's
`src` to digest that version on the same inputs: equal last lines mean
byte-identical reports and exit codes, and where they differ, the workload
lines show which workload's reports changed.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
import run  # noqa: E402
from tropctl import cli  # noqa: E402

SEEDS = (1, 2)
FORMATS = ("json", "text")


def _call(argv) -> tuple[str, str]:
    """(exit code, standard output) of one in-process call; a crash reads as
    the name of its exception."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"crash: {type(exc).__name__}"
    return str(code), buf.getvalue()


def main():
    digest = hashlib.sha256()
    count = 0
    for workload, cases in sorted(gen.WORKLOADS.items()):
        own, own_count = hashlib.sha256(), 0
        for seed in SEEDS:
            ops = run.build_ops(run.WORK / "digest" / f"{workload}-seed{seed}", cases(seed))
            for op in ops:
                argv = op["argv"][:-2]  # build_ops ends every argv with --format json
                for fmt in FORMATS:
                    code, out = _call(argv + ["--format", fmt])
                    for part in (" ".join(argv), fmt, code, out):
                        digest.update(part.encode() + b"\0")
                        own.update(part.encode() + b"\0")
                    own_count += 1
        print(workload, own_count, own.hexdigest())
        count += own_count
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
