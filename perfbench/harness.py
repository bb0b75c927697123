"""Closed-loop timing of one workload: one caller, each case waits for
the previous one, BLAS pinned to one thread by ``run.py``.

A case fails when its certificate or oracle check fails, when it
raises ``SpectroidError``, ``LinAlgError`` or ``ValueError`` (as
``selftest._guard`` treats them), or when it runs past the workload's
deadline.  A failure never aborts the run.  A failed check is also a
wrong answer and makes the run incorrect; an exception or a deadline
hit is a refusal and is counted only as a failure.

The host's speed swings by up to 2x for seconds to minutes at a time,
so the timed run goes over its deck several times and scales every time
to the speed of ``speed``'s reference kernel; see ``run_timed``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spectroid
from spectroid.errors import SpectroidError
import speed
from tracer import Tracer
from workloads import WORKLOADS

# Fresh processes that repeat the set-up, besides the run's own, so that
# setup_s is a median of five.
SETUP_PROBES = 4
# Fewest passes a timed run makes over its deck.
MIN_PASSES = 2
# Least time between two samples of the reference kernel in a pass.
SAMPLE_GAP_S = 0.02


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM inside a case.  A ``BaseException`` so that
    no ``except Exception`` in the code under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float
    status: str  # "ok", "wrong", "deadline" or the exception's type name
    digest: str  # sha256 of the emitted output, "" when none

    @property
    def passed(self) -> bool:
        return self.status == "ok"


def time_case(label: str, call, inputs: tuple, deadline_s: float) -> Outcome:
    """Run ``call(*inputs)`` under a deadline and classify the result."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    digest = ""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        ok, output = call(*inputs)
        status = "ok" if ok else "wrong"
        digest = hashlib.sha256(output).hexdigest()
    except DeadlineExceeded:
        status = "deadline"
    except (SpectroidError, np.linalg.LinAlgError, ValueError) as exc:
        status = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    return Outcome(label, seconds, status, digest)


def run_pass(workload, deck) -> tuple:
    """Time every case of the deck; returns (outcomes, loop wall time)."""
    t0 = time.perf_counter()
    outcomes = [
        time_case(c.label, workload.run, c.inputs, workload.deadline_s) for c in deck
    ]
    return outcomes, time.perf_counter() - t0


def set_up(workload, seed: int, t_start: float) -> tuple:
    """Generate the deck and warm up on its first case; returns the deck
    and the set-up time since ``t_start``, scaled to the reference
    speed by the median of five samples taken right after it."""
    deck = workload.make_deck(seed)
    time_case(deck[0].label, workload.run, deck[0].inputs, workload.deadline_s)
    setup_s = time.perf_counter() - t_start
    reference_s = statistics.median(speed.sample() for _ in range(5))
    return deck, speed.scale(setup_s, reference_s)


def run_timed(workload, deck: list, seconds: float) -> tuple:
    """Time the deck in whole passes, at least ``MIN_PASSES``, and no
    more once the next pass would likely end after ``seconds``.  Each
    attempt's time is scaled to the reference speed, and a case's time
    is the median of its attempts' scaled times.

    The reference kernel is sampled before a case whenever
    ``SAMPLE_GAP_S`` has passed since the last sample, and once after
    the pass; an attempt is scaled by the mean of the samples around it.
    A case that fails once stays failed, at the wall time it took, and is
    not run again: its inputs are fixed, and a blow-up would only cost
    another deadline.  Returns (one outcome per case, passes, loop wall
    time, median reference sample over NOMINAL_S: the host's slowdown)."""
    scaled = [[] for _ in deck]
    failed = [None] * len(deck)
    last = [None] * len(deck)
    all_samples = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        samples = [speed.sample()]
        sampled_at = time.perf_counter()
        attempts = []  # (case index, outcome, index of the sample before it)
        for i, c in enumerate(deck):
            if failed[i]:
                continue
            if time.perf_counter() - sampled_at >= SAMPLE_GAP_S:
                samples.append(speed.sample())
                sampled_at = time.perf_counter()
            got = time_case(c.label, workload.run, c.inputs, workload.deadline_s)
            attempts.append((i, got, len(samples) - 1))
        samples.append(speed.sample())
        all_samples += samples
        for i, got, k in attempts:
            if not got.passed:
                failed[i] = got
            else:
                reference_s = (samples[k] + samples[k + 1]) / 2
                scaled[i].append(speed.scale(got.seconds, reference_s))
                last[i] = got
        passes += 1
        wall = time.perf_counter() - t0
        if passes >= MIN_PASSES and wall + wall / passes > seconds:
            break
    outcomes = []
    for times, fail, got in zip(scaled, failed, last):
        if fail:
            outcomes.append(fail)
        else:
            seconds = statistics.median(times)
            outcomes.append(Outcome(got.label, seconds, "ok", got.digest))
    return outcomes, passes, wall, statistics.median(all_samples) / speed.NOMINAL_S


def probe_setup(workload_name: str, seed: int) -> float:
    """Set-up time of a fresh process, as it measures and scales it."""
    script = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a weighted mean of
    all order statistics, with weights from the Beta(q(n+1), (1-q)(n+1))
    distribution.  It moves far less with the noise of the single values
    around the quantile than the one or two order statistics a plain
    percentile reads."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # Beta CDF at i/n by the trapezoid rule on a fine grid
    grid = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf = np.concatenate([[0.0], cdf, [cdf[-1]]]) / cdf[-1]
    grid = np.concatenate([[0.0], grid, [1.0]])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def end_to_end_metrics(workload, outcomes, setup_samples) -> dict:
    """The end-to-end metrics as ``{name: (value, unit)}``, from one
    outcome per case holding its scaled time or its failure."""
    passed = sum(o.passed for o in outcomes)
    # a failed case misses every latency limit: rank it at the deadline
    latency_ms = [
        1e3 * (o.seconds if o.passed else workload.deadline_s) for o in outcomes
    ]
    p50, p90 = hd_quantile(latency_ms, 0.5), hd_quantile(latency_ms, 0.9)
    # one pass at each case's time, failed cases at the time they took
    pass_s = sum(o.seconds for o in outcomes)
    return {
        "cases_per_s": (passed / pass_s, "1/s"),
        "case_p50_ms": (float(p50), "ms"),
        "case_p90_ms": (float(p90), "ms"),
        "pass_frac": (passed / len(outcomes), "frac"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly, so that git
    never searches directories above the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run_record(args, pinned, outcomes, passes, loop_s, slowdown) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": _git_commit(Path.cwd()),
        "spectroid": spectroid.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "pinned_threads": {v: os.environ.get(v) for v in pinned},
        "nproc": os.cpu_count(),
        "cases": len(outcomes),
        "passes": passes,
        "loop_wall_s": loop_s,
        "host_slowdown": slowdown,
        "deadline_s": WORKLOADS[args.workload].deadline_s,
        "peak_rss_mb": peak_rss_mb(),
        "failures": [
            {"case": i, "label": o.label, "status": o.status}
            for i, o in enumerate(outcomes)
            if not o.passed
        ],
    }


def run(args, t_start: float, pinned) -> tuple:
    """One benchmark run; returns (run record, result object)."""
    workload = WORKLOADS[args.workload]
    deck, setup_s = set_up(workload, args.seed, t_start)
    if args.trace:
        # one untraced pass, then the same inputs again under the tracer
        outcomes, untraced_wall = run_pass(workload, deck)
        passes, loop_s, slowdown = 1, untraced_wall, None
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(workload, deck)
        finally:
            tracer.uninstall()
        same = [(o.status, o.digest) for o in traced] == [
            (o.status, o.digest) for o in outcomes
        ]
        metrics = tracer.metrics(traced_wall, untraced_wall)
        # Per-layer rather than end-to-end: on funcalc the peak is set by
        # how far the closure blow-up gets before the deadline, so it
        # spreads too widely across seeds to carry a regression bound.
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        same = True
        outcomes, passes, loop_s, slowdown = run_timed(workload, deck, args.seconds)
        samples = [setup_s] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        metrics = end_to_end_metrics(workload, outcomes, samples)

    wrong = any(o.status == "wrong" for o in outcomes)
    result = {
        "correct": same and not wrong,
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return run_record(args, pinned, outcomes, passes, loop_s, slowdown), result
