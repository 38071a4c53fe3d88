"""Benchmark of the tropctl command line on seeded workloads.

Usage, from the root of a checkout (standard library only, nothing installed):

    python3 bench/run.py --workload small-sweep --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs under .bench_work/<workload>-seed<seed>/
(and, with --trace 1, its spans next to them), measures the
start-up of a fresh `python -m tropctl` process, then repeats whole rounds
of the workload's operations for --seconds seconds.  Each operation is one
in-process `tropctl.cli.main([...,"--format", "json"])` call, timed from
argument parsing to the encoded report.  Every report is checked by
bench/check.py, which does not use tropctl; a report repeated in a later
round must be byte-identical to the first.  A round is also measured in
units of a fixed reference computation timed all through it (reference()),
which repeats on a machine whose speed drifts.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, end-to-end
ones with --trace 0 and per-layer ones (bench/tracing.py) with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # timed set-up runs before the rounds, and again after them
REF_EVERY_S = 0.1  # period of the reference computation during the rounds

import check  # noqa: E402  (bench/ is the script's own directory)
import gen  # noqa: E402
import tracing  # noqa: E402


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return str(path.relative_to(ROOT))


def build_ops(out_dir, cases):
    """Write each case's files and list its operations, case by case."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, case in enumerate(cases):
        stem = out_dir / f"case{i:03d}"
        if case["kind"] == "local-model":
            argvs = {"local_model": ["local-model", "--model", _dump(stem.with_suffix(".model.json"), case["doc"])]}
        elif "high" in case:
            curve = _dump(stem.with_suffix(".json"), case["doc"])
            config = _dump(stem.with_suffix(".config.json"), case["config"])
            laurent = _dump(stem.with_suffix(".laurent.json"), case["laurent"])
            argvs = {
                "validate": ["validate", curve],
                "obstruction_xi": ["obstruction", curve, "--method", "xi", "--config", config],
                "phylo": ["phylo", curve, "--laurent", laurent],
                "compare": ["compare", curve, "--laurent", laurent],
            }
        else:
            curve = _dump(stem.with_suffix(".json"), case["doc"])
            argvs = {
                "validate": ["validate", curve],
                "obstruction_chain": ["obstruction", curve, "--method", "chain"],
                "obstruction_xi": ["obstruction", curve, "--method", "xi"],
                "classify": ["classify", curve],
                "abundancy": ["abundancy", curve],
            }
            if case["genus"] == 1:
                argvs["genus1_check"] = ["genus1-check", curve]
        for kind, argv in argvs.items():
            ops.append({"kind": kind, "argv": argv + ["--format", "json"], "case": case})
    return ops


def _reference_matrix():
    rng = random.Random("reference")
    return [[Fraction(rng.randint(-5, 5)) for _ in range(14)] for _ in range(14)]


REFERENCE_MATRIX = _reference_matrix()


def reference():
    """A fixed exact computation of the same kind as tropctl's: Gauss-Jordan
    elimination of a 14x14 integer matrix over Fractions (about 8 ms).

    The machine this runs on changes speed by up to a factor of two within
    minutes. Timed all through a round, this computation tracks that speed,
    so a round's time divided by it repeats where the round's time alone
    does not.
    """
    m = [row[:] for row in REFERENCE_MATRIX]
    n = len(m)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return m


class Metronome:
    """Runs reference() every REF_EVERY_S seconds of wall time from a SIGALRM
    handler, in the main thread, also in the middle of a long operation,
    and records when each run started and ended."""

    def __init__(self, tracer=None):
        self.ticks = []  # (start, end) of each reference run
        self.tracer = tracer

    def tick(self, _signum=None, _frame=None):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.ticks.append((t0, t1))
        if self.tracer is not None:  # keep it out of the spans it interrupted
            self.tracer.overhead += t1 - t0

    def within(self, t0, t1, first=0):
        """Seconds of reference runs, from tick `first` on, inside [t0, t1]."""
        return sum(e - s for s, e in self.ticks[first:] if s >= t0 and e <= t1)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def measure_setup(curve_path, repeats):
    """Wall times of fresh `python -m tropctl validate` processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "tropctl", "validate", "--format", "json", curve_path]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or not json.loads(proc.stdout).get("valid"):
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return times


class Runner:
    def __init__(self, cli, ops, metronome):
        self.cli = cli
        self.ops = ops
        self.metronome = metronome
        self.truth = {}
        self.digests = {}
        self.errors = []
        self.failed = 0
        self.attempted = 0
        self.report_bytes = 0
        self.times = {}  # kind -> seconds of each successful call
        self.rounds = []  # (seconds of the round's operations, mean reference seconds)

    def call(self, op):
        """(seconds, exit code, standard output) of one operation; the
        seconds leave out reference runs that interrupted it."""
        buf = io.StringIO()
        first = len(self.metronome.ticks)
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                code = self.cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, reported below
                code = traceback.format_exc()
            t1 = perf_counter()
        return t1 - t0 - self.metronome.within(t0, t1, first), code, buf.getvalue()

    def verify(self, i, op, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if i in self.digests:
            if digest != self.digests[i]:
                self.errors.append(f"{' '.join(op['argv'])}: report differs from the first round")
            return
        self.digests[i] = digest
        key = id(op["case"])
        if key not in self.truth:
            self.truth[key] = check.Truth(op["case"])
        try:
            errors = check.check_report(op, json.loads(text), self.truth[key])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"malformed report: {exc!r}"]
        for err in errors:
            self.errors.append(f"{' '.join(op['argv'])}: {err}")

    def warm_up(self):
        """One call per command, on its smallest input."""
        smallest = {}
        for op in self.ops:
            size = len(json.dumps(op["case"]["doc"]))
            if op["kind"] not in smallest or size < smallest[op["kind"]][0]:
                smallest[op["kind"]] = (size, op)
        for _size, op in smallest.values():
            self.call(op)

    def run(self, seconds, tracer=None):
        deadline = perf_counter() + seconds
        with self.metronome:
            while not self.rounds or perf_counter() < deadline:
                self.run_round(tracer)

    def run_round(self, tracer):
        first = len(self.metronome.ticks)
        total = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = op["kind"]
            dt, code, text = self.call(op)
            self.attempted += 1
            total += dt
            if code != 0:
                self.failed += 1
                if self.failed <= 5:
                    print(f"failed ({code}): {' '.join(op['argv'])}", file=sys.stderr)
                continue
            self.times.setdefault(op["kind"], []).append(dt)
            self.report_bytes += len(text.encode())
            self.verify(i, op, text)
        if len(self.metronome.ticks) == first:  # a round shorter than the period
            self.metronome.tick()
        self.rounds.append((total, statistics.mean(e - s for s, e in self.metronome.ticks[first:])))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tropctl" / "cli.py").is_file():
        print(f"error: no tropctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    cases = gen.WORKLOADS[args.workload](args.seed)
    ops = build_ops(WORK / f"{args.workload}-seed{args.seed}", cases)
    first_curve = next(op["argv"][1] for op in ops if op["kind"] == "validate")
    if not args.trace:  # the first run only compiles the package's bytecode
        setup_times = measure_setup(first_curve, 1 + SETUP_REPEATS)[1:]

    from tropctl import cli

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, ops, Metronome(tracer))
    runner.warm_up()
    if tracer is not None:
        tracer.install()
    runner.run(args.seconds, tracer)
    if not args.trace:  # a second sample, at another moment of the machine's speed
        setup_times += measure_setup(first_curve, SETUP_REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = len(runner.rounds)
    total_s = statistics.median(t for t, _ref in runner.rounds)
    total_ref = statistics.median(t / ref for t, ref in runner.rounds)
    reference_ms = 1000 * statistics.median(ref for _t, ref in runner.rounds)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} ops/round={len(ops)} "
        f"total_ref={total_ref:.2f} total_s={total_s:.4f} reference_ms={reference_ms:.3f} "
        f"round_refs={[round(t / ref, 1) for t, ref in runner.rounds]} "
        f"round_totals={[round(t, 4) for t, _ref in runner.rounds]}"
    )
    # too few calls per run on loopchain-large for these to be steady, so
    # they are shown for attribution and not reported as metrics
    per_command = {k: [round(1000 * statistics.median(v), 3), len(v)] for k, v in sorted(runner.times.items())}
    print("# per-command [median ms, calls]: " + json.dumps(per_command))
    for err in runner.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "total_ref": (total_ref, "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        layer = tracer.layer_metrics(rounds, runner.report_bytes)
        metrics = {name: (value, tracing.layer_unit(name)) for name, value in layer.items()}
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
