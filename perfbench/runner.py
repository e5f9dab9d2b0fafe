"""Closed-loop op runner: one client, one op at a time, each under a deadline.

An op is one in-process call into the program.  Its outcome is classified
while it runs (timeout, raised error, exit code); its output is verified
after the pass, outside the timed region, against a reference answer or
against another op's verdict.

Op times are calibrated.  On a shared machine the speed of one core swings
by 2x and more over tens of seconds, as other tenants come and go.  A fixed
piece of pure-Python work (`speed_sample`) is timed before and after
every op and every SAMPLE_EVERY_S of CPU time while an op runs; each op's
time is scaled by NOMINAL_SAMPLE_S over the mean of its samples, which
reports it in seconds at the reference machine's quiet speed.
`Outcome.elapsed` keeps the raw time.
"""
from __future__ import annotations

import contextlib
import gc
import io
import math
import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional

import corpus
import reference

# outcome statuses; every one but OK counts as failed
OK = "ok"
TIMEOUT = "timeout"
ERROR = "error"
EXIT2 = "exit2"
EXIT3 = "exit3"
WRONG = "wrong"
# statuses that mean the program gave a wrong answer, not just no answer
INCORRECT = (EXIT3, WRONG)


class OpTimeout(BaseException):
    """Raised by the deadline alarm.  Derives from BaseException so that
    the program's own ``except Exception`` handlers cannot swallow it."""


def call_with_deadline(fn: Callable[[], object], seconds: float,
                       on_fire: Optional[Callable[[], None]] = None):
    """fn() cut off by an ITIMER_REAL alarm after `seconds`.  on_fire runs
    inside the signal handler, before OpTimeout is raised."""

    def alarm(signum, frame):
        if on_fire is not None:
            on_fire()
        raise OpTimeout(f"deadline of {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# speed_sample() on an idle core of the reference machine (see README)
NOMINAL_SAMPLE_S = 0.001
SAMPLE_EVERY_S = 0.1

_SAMPLE_GRAPH = corpus.sparse_random(corpus.stream(0, 99, 0), 300)


def speed_sample() -> float:
    """Seconds for the benchmark's own bisimulation refinement on a fixed
    300-node graph: frozenset, tuple and dict work like the library's,
    in code that no change to the library can speed up or slow down."""
    t0 = time.perf_counter()
    reference.bisim_classes(_SAMPLE_GRAPH)
    return time.perf_counter() - t0


@dataclass
class Outcome:
    op_id: str
    status: str
    elapsed: float  # raw seconds
    stdout: str = ""
    note: str = ""
    sample: str = ""
    scale: float = 1.0  # calibration factor, see the module docstring

    @property
    def time(self) -> float:
        """Calibrated seconds."""
        return self.elapsed * self.scale


# verify(outcome, outcomes of this pass by op id) -> None if right, else why not
Verify = Callable[[Outcome, dict], Optional[str]]


def _exit_status(code) -> str:
    return {0: OK, 2: EXIT2, 3: EXIT3}.get(code, ERROR)


@dataclass
class Op:
    op_id: str
    call: Callable[[], object]  # returns an exit code, or a value `status_of` reads
    deadline: float
    verify: Optional[Verify] = None
    status_of: Callable[[object], str] = _exit_status
    sample: str = ""  # latency sample the op belongs to; "" means its own

    def __post_init__(self):
        self.sample = self.sample or self.op_id


class _SpeedMeter:
    """Speed samples for one op: one before it and, from a SIGPROF handler,
    one every SAMPLE_EVERY_S of CPU time while it runs, so that a long op
    is calibrated by the speed the machine had during it.  The time the
    handler takes is not the op's."""

    def __init__(self, before: float):
        self.samples = [before]
        self.spent = 0.0

    def tick(self, signum, frame) -> None:
        # no collection inside the sample: its garbage is gone when it
        # returns, and the op's collections happen when they would have
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            self.samples.append(speed_sample())
        finally:
            self.spent += time.perf_counter() - t0
            if enabled:
                gc.enable()


def run_op(op: Op, meter: _SpeedMeter, on_fire: Optional[Callable[[], None]] = None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    note = ""
    previous = signal.signal(signal.SIGPROF, meter.tick)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = op.status_of(call_with_deadline(op.call, op.deadline, on_fire))
    except OpTimeout as e:
        status, note = TIMEOUT, str(e)
    except SystemExit as e:  # argparse rejects its arguments this way
        status, note = _exit_status(e.code), f"SystemExit({e.code})"
    except Exception as e:  # a raised error is a failed op, not a crashed run
        status, note = ERROR, f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    elapsed = time.perf_counter() - t0 - meter.spent
    if status != OK and not note:
        note = err.getvalue().strip()[:200]
    return Outcome(op.op_id, status, elapsed, out.getvalue(), note, sample=op.sample)


def run_pass(ops: list[Op], on_fire: Optional[Callable[[], None]] = None,
             before_op: Optional[Callable[[], None]] = None) -> list[Outcome]:
    """Run every op once in order, calibrating as it goes; return the
    verified outcomes.  before_op() runs before each op."""
    outcomes: list[Outcome] = []
    before = speed_sample()
    for op in ops:
        if before_op is not None:
            before_op()
        meter = _SpeedMeter(before)
        o = run_op(op, meter, on_fire)
        # each op stands for one polymu process: collect its cyclic garbage
        # (the evaluator's closures hold its caches) before the next op
        gc.collect()
        before = speed_sample()
        samples = meter.samples + [before]
        # a timeout lasts its deadline whatever the machine's speed
        if o.status != TIMEOUT:
            o.scale = NOMINAL_SAMPLE_S * len(samples) / sum(samples)
        outcomes.append(o)
    by_id = {o.op_id: o for o in outcomes}
    for op, o in zip(ops, outcomes):
        if o.status == OK and op.verify is not None:
            why = op.verify(o, by_id)
            if why:
                o.status, o.note = WRONG, why
    return outcomes


def run_for(ops: list[Op], seconds: float, **kw) -> list[list[Outcome]]:
    """Repeat passes while the next one is expected to end within `seconds`;
    always at least one.  Returns the outcomes of each pass."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, **kw))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, taken on the log scale.

    A weighted mean of all the order statistics of log(value), with
    Beta(p(n+1), (1-p)(n+1)) weights, mapped back with exp.  Unlike a
    single order statistic it does not jump when the quantile falls on a
    gap between clusters of op times; the log scale keeps a few slow ops
    from pulling the median.  Values must be positive and finite."""
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule inside each of the n bins of [0, 1]
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return math.exp(sum(w * math.log(v) for w, v in zip(weights, s)) / sum(weights))
