"""Runs workload passes as fresh CLI subprocesses and measures them.

Every command runs in its own interpreter, one at a time (a closed loop with
one client), started through ``spawn.py``.  Wall time spans process start to
exit; CPU time and peak RSS come from ``os.wait4`` on the command.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import corpus
import tracing

BENCH_DIR = Path(__file__).resolve().parent
TRACE_CLI = BENCH_DIR / "trace_cli.py"
SPAWN = BENCH_DIR / "spawn.py"


@dataclass
class Outcome:
    """One finished command: its measurements, output and check result."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    error: str | None


class Runner:
    """Runs commands of one seeded corpus from the root of a checkout."""

    def __init__(self, root: Path, seed: int, golden_dir: Path = corpus.GOLDEN_DIR):
        self.root = root
        self.seed = seed
        self.golden_dir = golden_dir
        self.work = root / ".bench_work" / f"seed{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        names = [c.algebra for cmds in corpus.WORKLOADS.values() for c in cmds]
        self.algebra_args = corpus.write_algebras(seed, names + [corpus.SETUP_COMMAND.algebra], self.work)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def execute(self, command: corpus.Command, trace_file: Path | None = None) -> Outcome:
        """Run one command; ``error`` is set only on a nonzero exit status."""
        argv = command.argv(self.algebra_args[command.algebra])
        if trace_file is None:
            cmd = [sys.executable, "-m", "leibniz_deform", *argv]
        else:
            cmd = [sys.executable, str(TRACE_CLI), str(trace_file), *argv]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        launch = [sys.executable, "-I", "-S", str(SPAWN), str(out_path), str(err_path), *cmd]
        proc = subprocess.run(launch, env=self.env, cwd=self.root, capture_output=True, text=True, check=True)
        usage = json.loads(proc.stdout)
        error = None
        if usage["status"] != 0:
            stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
            error = f"exit status {usage['status']}: {stderr[-500:]}"
        return Outcome(usage["wall_s"], usage["cpu_s"], usage["rss_kb"] / 1024, out_path.read_bytes(), error)

    def run(self, command: corpus.Command, trace_file: Path | None = None) -> Outcome:
        """Run one command and check its output."""
        outcome = self.execute(command, trace_file)
        if outcome.error is None:
            outcome.error = corpus.check_output(command, self.seed, outcome.stdout, self.golden_dir)
        if outcome.error:
            print(f"FAILED {command.key} (seed {self.seed}): {outcome.error}", file=sys.stderr)
        return outcome


# Terms of the probe's sum; about 1 ms on the development host (a 2-vCPU
# Linux VM, Python 3.11.7).
PROBE_TERMS = 400
# About the fastest probe() seen there.  Normalised times are scaled to a
# host this fast.
REFERENCE_PROBE_S = 0.001
# Seconds between two probes while a command runs.
PROBE_INTERVAL_S = 0.1
# Seconds a measured step costs beside its command: choosing a CPU and a
# set-up sample.
STEP_OVERHEAD_S = 0.4


def probe() -> float:
    """Seconds this CPU takes to sum 1/i for i < PROBE_TERMS in ``Fraction``s.

    That is big-integer arithmetic and allocation, as in the program's hot
    loops.  It runs none of the program's code.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


class SpeedProbe:
    """Probes this CPU's speed every PROBE_INTERVAL_S while a step runs.

    The probes run in a thread of this process, on the CPU the step's
    commands run on; each takes the CPU from the command for about 1 ms.
    """

    def __enter__(self) -> SpeedProbe:
        self.times = [probe()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.times.append(probe())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.times.append(probe())

    @property
    def scale(self) -> float:
        """Multiplies a time measured during the step to the reference host speed."""
        return REFERENCE_PROBE_S / statistics.median(self.times)


class CpuPicker:
    """Moves this process, and so the commands it starts, to the fastest CPU.

    Every CPU this process may use (at most four) is timed by the median of
    ten probes, and the process moves to the fastest.  The host's speed
    changes within seconds, independently on each CPU.  On a 2-vCPU host,
    over ten repeats of one 7 s command, choosing the CPU this way (timed by
    a longer sum) cut the spread of its times from 0.137 of their mean on a
    fixed CPU (0.133 on either CPU) to 0.052.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))[:4] if hasattr(os, "sched_setaffinity") else []

    def pick(self) -> int | None:
        """Move to the fastest CPU and return it."""
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = statistics.median(probe() for _ in range(10))
        if not speeds:
            return None
        best = min(speeds, key=speeds.get)
        os.sched_setaffinity(0, {best})
        return best

    def release(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, set(self.cpus))


@dataclass
class Step:
    """A set-up sample and one command, run on one CPU while it was probed."""

    setup: Outcome
    command: Outcome
    cpu: int | None
    scale: float


def measure(runner: Runner, workload: str, seconds: float) -> tuple[list[Outcome], dict]:
    """End-to-end metrics of the workload's commands, run until ``seconds`` have elapsed.

    The first pass runs every command; after it, the commands run again in
    turn, each only while its last duration still fits in the run.  Each
    command, with a set-up sample before it, is a Step: it runs on the CPU
    that CpuPicker finds fastest, and its times are normalised by the median
    of the probes SpeedProbe takes on that CPU before, during and after it.
    The host's speed switches within seconds between a fast state and one up
    to 1.8 times slower, and whole runs can fall in the slow state; over five
    seeds, normalising cut the spread between quartiles of the runs' pass
    times from 0.20 to 0.05 of their median on ``versal`` and from 0.24 to
    0.07 on ``cohomology``.  A pass time is the sum over commands of the
    median normalised time of each; set-up time is the median normalised
    sample.  The raw times are kept in the record.
    """
    commands = corpus.WORKLOADS[workload]
    steps: dict[str, list[Step]] = {c.key: [] for c in commands}
    picker = CpuPicker()
    start = time.perf_counter()

    def fits(command) -> bool:
        done = steps[command.key]
        left = seconds - (time.perf_counter() - start)
        return not done or done[-1].command.wall_s + STEP_OVERHEAD_S <= left

    ran = True
    try:
        while ran:
            ran = False
            for command in commands:
                if not fits(command):
                    continue
                cpu = picker.pick()
                with SpeedProbe() as speed:
                    setup = runner.run(corpus.SETUP_COMMAND)
                    outcome = runner.run(command)
                steps[command.key].append(Step(setup, outcome, cpu, speed.scale))
                ran = True
    finally:
        picker.release()

    every = [step for done in steps.values() for step in done]

    def total(value) -> float:
        return sum(statistics.median(value(step) for step in done) for done in steps.values())

    metrics = {
        "norm_wall_s": (total(lambda step: step.command.wall_s * step.scale), "s"),
        "norm_cpu_s": (total(lambda step: step.command.cpu_s * step.scale), "s"),
        "setup_s": (statistics.median(step.setup.wall_s * step.scale for step in every), "s"),
        "peak_rss_mb": (max(statistics.median(step.command.rss_mb for step in done) for done in steps.values()), "MB"),
    }
    return [o for step in every for o in (step.setup, step.command)], {
        "metrics": metrics,
        "wall_s": total(lambda step: step.command.wall_s),
        "cpu_s": total(lambda step: step.command.cpu_s),
        "setup_wall_s": statistics.median(step.setup.wall_s for step in every),
        "steps": {
            key: [[step.cpu, step.command.wall_s, step.scale] for step in done] for key, done in steps.items()
        },
    }


def trace(runner: Runner, workload: str, seconds: float) -> tuple[list[Outcome], dict]:
    """Per-layer metrics: the medians over passes of traced commands.

    Passes run while the last one still fits in ``seconds``.  In a pass each
    command runs untraced and then traced, back to back on the CPU that
    CpuPicker finds fastest, and the traced output must equal the untraced
    one byte for byte.  ``trace.overhead_s`` is the sum over commands of the
    median difference between their traced and untraced wall times, each
    normalised as in ``measure``; the other per-layer times are raw.
    """
    commands = corpus.WORKLOADS[workload]
    trace_dir = runner.work / "traces"
    trace_dir.mkdir(exist_ok=True)
    picker = CpuPicker()
    outcomes: list[Outcome] = []
    layers: list[dict] = []  # per-layer metrics of each pass whose commands all succeeded
    overheads: dict[str, list[float]] = {c.key: [] for c in commands}
    passes = 0
    pass_s = 0.0
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start + pass_s <= seconds:
            pass_start = time.perf_counter()
            traces = []
            for command in commands:
                picker.pick()
                with SpeedProbe() as speed:
                    plain = runner.run(command)
                plain_s = plain.wall_s * speed.scale
                trace_file = trace_dir / f"{command.key}.json"
                with SpeedProbe() as speed:
                    traced = runner.run(command, trace_file)
                if traced.error is None and traced.stdout != plain.stdout:
                    traced.error = "traced output differs from the untraced output"
                    print(f"FAILED {command.key} (seed {runner.seed}): {traced.error}", file=sys.stderr)
                if traced.error is None:
                    traces.append(tracing.read_trace(trace_file))
                    overheads[command.key].append(traced.wall_s * speed.scale - plain_s)
                outcomes += [plain, traced]
            passes += 1
            if len(traces) == len(commands):
                layers.append(tracing.layer_metrics(traces))
            pass_s = time.perf_counter() - pass_start
    finally:
        picker.release()
    values = tracing.median_metrics(layers) if layers else {}
    if values:
        values["trace.overhead_s"] = sum(statistics.median(v) for v in overheads.values())
    units = tracing.per_layer_metric_units()
    metrics = {name: (values[name], units[name]) for name in units if name in values}
    return outcomes, {"metrics": metrics, "passes": passes}


def environment(root: Path) -> dict:
    """Python version, host, CPU count and the code under test."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def result_line(outcomes: list[Outcome], metrics: dict) -> dict:
    failed = sum(o.error is not None for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def save(root: Path, name: str, record: dict) -> Path:
    path = root / ".bench_work" / "results" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
