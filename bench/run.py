"""entquant benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ tree. One client sends one op at a time (closed loop, one process, one
thread). --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. End-to-end times are scaled to a reference speed
of the host (speed.py); the record line keeps the raw wall times too. The
last line of stdout is the result object; the line before it records the
machine, the seed and the details behind each metric. Workload rationale
and reference numbers are in NOTES.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from speed import Clock
from tracer import NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9  # fresh processes timed for setup_s; the median is reported
STARTUP_REPEATS = 5  # child processes per startup.* metric
STARTUP_CHILD = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import entquant.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

# An untraced cold op: `python -m entquant ARGV` through runpy, so that the
# child can write its own peak RSS to the file named first. ru_maxrss from
# wait4 would not do: it counts the pages of the benchmark process that the
# child was forked from, which is larger than the child.
COLD_CHILD = (
    "import atexit, runpy, sys\n"
    "def peak(path=sys.argv.pop(1)):\n"
    "    with open('/proc/self/status') as st, open(path, 'w') as out:\n"
    "        out.write(next(line for line in st if line.startswith('VmHWM:')).split()[1])\n"
    "atexit.register(peak)\n"
    "runpy.run_module('entquant', run_name='__main__', alter_sys=True)\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def call_in_process(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process; looks cli.main up on every call so
    that the tracer's wrapper is used while it is installed."""
    cli = sys.modules["entquant.cli"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash inside the program fails the op, not the run
        traceback.print_exc()
        code = 1
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


class ColdRunner:
    """Runs an op as a fresh `python -m entquant` process (or through the
    tracer script) and keeps the largest peak RSS of an untraced child."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.peak_rss_kb = 0
        self.totals: dict[str, list[int]] = {}
        self.absent: list[str] = []

    def __call__(self, argv: list[str], traced: bool = False) -> tuple[int, str]:
        totals_path = self.workdir / "cold_totals.json"
        peak_path = self.workdir / "cold_peak_kb.txt"
        for path in (totals_path, peak_path):  # a child that dies early must not leave the last op's figures
            path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(totals_path), *argv]
        else:
            cmd = [sys.executable, "-c", COLD_CHILD, str(peak_path), *argv]
        err_path = self.workdir / "cold_stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=_child_env())
            out = proc.stdout.read()
            proc.stdout.close()
            proc.wait()
        if peak_path.exists():
            self.peak_rss_kb = max(self.peak_rss_kb, int(peak_path.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace"))
        if traced and totals_path.exists():
            child = json.loads(totals_path.read_text(encoding="utf-8"))
            self.absent = child["absent"]
            for name, (calls, self_ns) in child["totals"].items():
                entry = self.totals.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += self_ns
        return proc.returncode, out.decode("utf-8", errors="replace")


class Stats:
    def __init__(self) -> None:
        self.op_s: list[float] = []  # at reference speed
        self.wall_s: list[float] = []
        self.tables = 0
        self.failed = 0
        self.verbs: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    def absorb(self, other: "Stats") -> None:
        self.op_s += other.op_s
        self.wall_s += other.wall_s
        self.tables += other.tables
        self.failed += other.failed
        for verb, n in other.verbs.items():
            self.verbs[verb] = self.verbs.get(verb, 0) + n

    def tables_per_s(self, wall: bool = False) -> float:
        """Tables of ops that passed their check, per second spent in ops."""
        return self.tables / sum(self.wall_s if wall else self.op_s)


def run_op(op, runner, stats: Stats, clock: Clock) -> None:
    """Time one op, then check its output outside the timed span."""
    wall, scaled, (code, out) = clock.time(lambda: runner(op.argv))
    stats.op_s.append(scaled)
    stats.wall_s.append(wall)
    stats.verbs[op.argv[0]] = stats.verbs.get(op.argv[0], 0) + 1
    try:
        if code != 0:
            raise workloads.CheckFailed(f"exit code {code}")
        op.check(out)
    except Exception as exc:  # any failed check or malformed output counts against the op
        stats.failed += 1
        if stats.failed <= 3:
            print(f"op {op.argv} failed: {exc!r}", file=sys.stderr)
            if not isinstance(exc, workloads.CheckFailed):
                traceback.print_exc()
        return
    stats.tables += op.tables


def measure(plan, seconds: float, clock: Clock, *lanes) -> None:
    """Closed loop from op 0 until `seconds` have passed (at least one op).
    Each lane is a (runner, Stats) pair that runs every op; with two lanes
    the order alternates from op to op, so drift hits both alike."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = plan.op(i)
        for runner, stats in lanes if i % 2 == 0 else lanes[::-1]:
            run_op(op, runner, stats, clock)
        i += 1
        if time.perf_counter() >= deadline:
            return


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the tail op latency: p99 in
    runs of 1000 ops or more, the highest percentile with ten samples beyond
    it from 100 to 1000 ops, p90 below 100 ops (where ten beyond would not
    lie in the tail). The count beyond moves in steps of one with the op
    count, so the metric never jumps between distant percentiles."""
    xs = sorted(samples)
    n = len(xs)
    beyond = max(n // 100, min(10, n // 10))
    return 100.0 * (n - beyond) / n, xs[n - 1 - beyond], beyond


def build_plan(workload: str, seed: int, workdir: Path):
    ctx = workloads.Context(workdir=workdir, seed=seed, src=SRC, call=call_in_process)
    plan = workloads.WORKLOADS[workload](ctx)
    runner = ColdRunner(workdir) if plan.cold else call_in_process
    warm, clock = Stats(), Clock(probed=False)
    for op in plan.warmup:
        run_op(op, runner, warm, clock)
    if warm.failed:
        raise SystemExit(f"set-up of {workload} failed its own checks")
    return plan, runner


def timed_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Times of whole set-ups (interpreter, import, inputs, warm-up) in fresh
    processes, so that work moved into import or first calls shows: (at
    reference speed, wall)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", "0", "--setup-only"]
    clock = Clock()
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        wall, at_ref, proc = clock.time(lambda: subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL))
        scaled.append(at_ref)
        walls.append(wall)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process exited {proc.returncode}")
    return scaled, walls


def startup_breakdown() -> dict[str, float]:
    """Median ms of a bare interpreter, of importing numpy, and of importing
    entquant.cli on top of numpy, each from fresh child processes."""
    bare, numpy_s, entquant_s = [], [], []
    env = _child_env()
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        bare.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD], check=True, env=env, cwd=ROOT, capture_output=True, text=True
        ).stdout.split()
        numpy_s.append(float(out[0]))
        entquant_s.append(float(out[1]))
    return {
        "startup.python_ms": 1e3 * statistics.median(bare),
        "startup.numpy_import_ms": 1e3 * statistics.median(numpy_s),
        "startup.entquant_import_ms": 1e3 * statistics.median(entquant_s),
    }


def machine_info(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def end_to_end(seconds: int, plan, runner, setups: tuple[list[float], list[float]]) -> tuple[Stats, dict, dict]:
    stats, clock = Stats(), Clock()
    measure(plan, seconds, clock, (runner, stats))
    q, tail_s, beyond = tail(stats.op_s)
    if plan.cold:
        peak_kb = runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "tables_per_s": (stats.tables_per_s(), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(stats.op_s), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setups[0]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {
        "op_tail_percentile": q,
        "op_tail_samples_beyond": beyond,
        "speed_factor_median": statistics.median(clock.factors),
        "wall": {
            "tables_per_s": stats.tables_per_s(wall=True),
            "op_p50_ms": 1e3 * statistics.median(stats.wall_s),
            "op_tail_ms": 1e3 * tail(stats.wall_s)[1],
            "setup_s": statistics.median(setups[1]),
        },
        "setup_s_each": setups[0],
    }
    return stats, metrics, detail


def per_layer(seconds: int, plan, runner) -> tuple[Stats, dict, dict]:
    """Every op runs once untraced and once traced; the traced runs give the
    per-layer numbers, the pair gives the tracing overhead."""
    untraced, stats, clock = Stats(), Stats(), Clock()
    if plan.cold:
        measure(plan, seconds, clock, (runner, untraced), (lambda argv: runner(argv, traced=True), stats))
        totals, absent = runner.totals, runner.absent
    else:
        tracer = Tracer()

        def traced(argv: list[str]) -> tuple[int, str]:
            with tracer:
                return runner(argv)

        measure(plan, seconds, clock, (runner, untraced), (traced, stats))
        totals, absent = tracer.totals(), tracer.absent
    metrics = {}
    for name in NAMES:
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls_per_op"] = (calls / stats.attempted, "count")
        metrics[f"{name}.self_us_per_op"] = (self_ns / 1e3 / stats.attempted, "us")
    metrics.update({k: (v, "ms") for k, v in startup_breakdown().items()})
    traced_rate = stats.tables_per_s()  # 0 only if every traced op failed, and then correct is false
    overhead = untraced.tables_per_s() / traced_rate - 1.0 if traced_rate else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    ranked = sorted(NAMES, key=lambda n: -metrics[f"{n}.self_us_per_op"][0])
    detail = {
        "absent": absent,
        "traced_ops": stats.attempted,
        "self_us_per_op_ranking": [[n, round(metrics[f"{n}.self_us_per_op"][0], 1)] for n in ranked[:8]],
    }
    stats.absorb(untraced)  # ops of both lanes count towards attempted and failed
    return stats, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured seconds (0: one op)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "entquant" / "__init__.py").is_file():
        print(f"error: no entquant sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.setup_only and args.trace == 0:
        setups = timed_setups(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import entquant.cli  # noqa: F401  (the in-process runner looks it up in sys.modules)

    if not Path(entquant.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported entquant from {entquant.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan, runner = build_plan(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            stats, metrics, detail = per_layer(args.seconds, plan, runner)
        else:
            stats, metrics, detail = end_to_end(args.seconds, plan, runner, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "ops_by_verb": stats.verbs,
        "samples": stats.attempted,
        "failed_frac": stats.failed / stats.attempted,
        **detail,
    }
    print(json.dumps(detail))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
