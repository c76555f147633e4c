"""Suite runs spread over the usable CPUs, with the reports of one process.

``fan_out(runs)`` returns the reports of suite runs, the same on any number
of CPUs; ``Suite.__call__``, `mseg suite NAME` and `mseg suite all` all call
it.  A run (``harness.SuiteRun``) is a fold of its draws' outcomes: it has
``limit``, the most draws it makes, and ``draws``, those folded so far;
``live``, its stop rule; ``outcome(i)``, the work of draw i, made of what
``marshal`` sends; ``fold(outcome)``, which takes the outcome of draw
``draws``; ``steps()``, the run as a generator; and ``report()``.

A run also has ``stride``, the ``gen_ms`` indices one draw reads: draw i
of a pair suite reads 2i and 2i + 1, of ``3ms`` 3i to 3i + 2.  The index
space is cut into windows of W = ``BLOCK`` times the largest stride of the
runs (``window``), and block b is the window [W b, W (b + 1)): ``block``
walks its indices in order and gives each run the draw that starts at each.
So a block holds ``BLOCK`` draws of the widest run, and a run called alone
has blocks of ``BLOCK`` draws.

With P usable CPUs, this process (k = 0) and P - 1 forked workers, each
pinned to one CPU, compute blocks k, k + P, k + 2P, ... of every run.  So
each instance is drawn by one process (but the m2 of ``invariances``' draw
i, at index ``target + i``), whose memos of ``gen_ms`` and of the verdicts
catch its repeats across suites as in ``_lockstep``.  In `mseg suite all` at
seed 0 on two CPUs, this process drew 1,374 instances, and the worker 1,368
to 1,426 in ten runs (1,360 in its share), against 2,702 in one process.

A worker sends each block's outcomes back by ``marshal``, which start-up
already loads.  It skips the runs that the parent has marked as stopped in a
shared byte map (an anonymous ``mmap`` made before the fork), read before
each block and each draw.  It starts a block only on a credit, a byte that
the parent writes to it for each block of its that it folds, beyond the
``AHEAD`` it starts with, so it computes few blocks past a run's stop.  The
parent folds block after block, each run strictly in draw order under its
stop rule, and starts a block of its own only after folding every earlier
block, so the draws it computes, and a traced pass's counters, are the same
on every pass of one seed.  A block that does not come back is computed
here, so an exception surfaces as it does in one process.  Every draw is
pure, so each report is that of the run in one process.

It forks only where ``os.fork`` exists, the runs span at least two blocks,
P >= 2, and the caller runs a single thread; otherwise ``_lockstep``
advances the runs' ``steps()`` in this process, the one-CPU path and the
reference.
"""

from __future__ import annotations

import marshal
import os
import sys
import threading

# Draws of the widest run in a block.  Measured with blocks of BLOCK draws of
# every run, the blocks of a run called alone: medians of fresh processes on
# a shared 2-vCPU Xeon VM (Python 3.11), 20 or 40 each.  The six suites of
# the acceptance benchmark's criterion 6, called one at a time after
# criteria 1-5, took 0.146 s at 8 draws, 0.156 at 12, 0.141 at 16, 0.150 at
# 24, 0.160 at 32 and 0.145 at 48 (0.172 s in one process); `mseg suite all`
# took 0.171, 0.187, 0.156, 0.155, 0.177 and 0.148 s (0.229 s in one
# process).  The spread between sizes is within the noise; smaller blocks
# cost more messages, larger ones more draws past a run's stop.
BLOCK = 16

# Blocks a worker may compute ahead of the parent's fold of its blocks.
# Unbounded, a worker ran ahead as far as its pipe's buffer let it whenever
# the parent fell behind, and computed blocks past the suites' stops: at seed
# 0 on two CPUs, the two processes of `mseg suite all` drew 2,744 to 3,550
# instances in 20 runs, and 2,744 to 2,800 with 2 blocks ahead.  In two
# rounds of 8 and 12 alternating benchmark runs the bound moved the median
# time of `suite` by -3 % and +3 %, within the noise of the shared VM.
AHEAD = 2


def usable_cpus() -> list:
    """The CPUs this process may run on, by number; where the platform has
    no affinity call, ``os.cpu_count()`` unnamed ones (None)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None] * (os.cpu_count() or 1)


def _pin(cpus) -> None:
    """Run this process on ``cpus`` alone, when they are named.  Where the
    kernel does not balance load (a cpuset with sched_load_balance 0), a
    forked child stays on its parent's CPU, so unpinned workers share one."""
    if None not in cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # a CPU taken away meanwhile: run unpinned
            pass


def _lockstep(runs: list) -> list:
    """The values the generators return, advanced one step each in turn.

    The suites of `suite all` draw from one index space and ask for the same
    checks, so in lockstep they ask for an instance or a verdict while the
    memos of ``gen_ms`` and the verdicts still hold it.  Every draw and
    check is pure, so each report is that of the suite run alone.
    """
    reports = {}
    while len(reports) < len(runs):
        for k, run in enumerate(runs):
            if k not in reports:
                try:
                    next(run)
                except StopIteration as done:
                    reports[k] = done.value
    return [reports[k] for k in range(len(runs))]


def window(runs: list) -> int:
    """W, the ``gen_ms`` indices of a block of ``runs``: ``BLOCK`` draws of
    the run with the largest stride."""
    return BLOCK * max(run.stride for run in runs)


def block(runs: list, b: int) -> list:
    """The draws of block b as (run, draw) pairs: at each index j of the
    window [W b, W (b + 1)), in order, draw j / stride of every run, in run
    order, whose stride divides j and whose limit is above it."""
    width = window(runs)
    return [
        (r, j // run.stride)
        for j in range(width * b, width * (b + 1))
        for r, run in enumerate(runs)
        if j % run.stride == 0 and j // run.stride < run.limit
    ]


def fan_out(runs: list) -> list:
    """The reports of ``runs``, from P = min(usable CPUs, blocks) processes;
    from ``_lockstep`` in this process when it may not fork."""
    cpus = usable_cpus()
    width = window(runs)
    procs = min(len(cpus), max(run.stride * (run.limit - 1) // width + 1 for run in runs))
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _lockstep([run.steps() for run in runs])
    import mmap  # loaded only where a run forks

    stopped = mmap.mmap(-1, len(runs))  # shared with the workers forked below
    readers: list = [None] * procs  # the pipe worker k writes, at k
    credits: list = [None] * procs  # the pipe worker k reads its credits from, at k
    pids = []
    try:
        for k, cpu in enumerate(cpus[1:procs], 1):
            back, send = os.pipe()
            go, credit = os.pipe()
            os.write(credit, bytes(AHEAD))
            try:
                pid = os.fork()
            except OSError:  # fewer workers: their blocks are computed here
                os.close(back), os.close(send), os.close(go), os.close(credit)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(back), os.close(credit)
                    for pipe in filter(None, readers + credits):
                        pipe.close()
                    _pin({cpu})
                    with open(send, "wb") as pipe:
                        _work(runs, range(k, sys.maxsize, procs), stopped, pipe, go)
                    code = 0
                finally:
                    os._exit(code)
            os.close(send), os.close(go)
            pids.append(pid)
            readers[k], credits[k] = open(back, "rb"), open(credit, "wb", buffering=0)
        _pin({cpus[0]})
        _fold(runs, readers, credits, stopped)
    finally:
        stopped[:] = b"\1" * len(runs)  # a worker still drawing ends at its next draw
        _pin(set(cpus))
        # a worker writing a block past the last ends on EPIPE, and one
        # waiting for a credit on EOF
        for pipe in filter(None, readers + credits):
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
        stopped.close()
    return [run.report() for run in runs]


def _work(runs: list, blocks, stopped, pipe, credits: int) -> None:
    """A worker: the outcomes of ``blocks`` of every run not marked stopped,
    a ``{run: outcomes}`` message a block, until no run is left.  Each block
    takes a credit, a byte read from ``credits``; none comes once the parent
    has closed its end."""
    for b in blocks:
        if not os.read(credits, 1):
            return
        draws = block(runs, b)
        todo = {r: [] for r, _ in draws if not stopped[r]}
        if not todo:
            return
        for r, i in draws:
            if not stopped[r]:  # a run stopped before the block is not in todo
                todo[r].append(runs[r].outcome(i))
        marshal.dump(todo, pipe)
        pipe.flush()


def _fold(runs: list, readers: list, credits: list, stopped) -> None:
    """Fold block b = 0, 1, ... of every live run until none is: from worker
    b mod P, or computed here for b mod P = 0 and for any block whose worker
    ended without sending it.  Each block a worker sends earns it the credit
    for one more."""
    b = 0
    while True:
        live = [r for r, run in enumerate(runs) if run.live]
        if not live:
            return
        k = b % len(readers)
        sent = None
        if readers[k] is not None:
            try:
                sent = marshal.load(readers[k])
            except (EOFError, ValueError, TypeError):  # it ended early
                readers[k].close()
                readers[k] = None
            else:
                try:
                    credits[k].write(b"\0")
                except OSError:  # it ended since: its pipe ends at its next block
                    pass
        if sent is None:
            for r, i in block(runs, b):
                if runs[r].live:
                    runs[r].fold(runs[r].outcome(i))
        else:
            for r in live:
                for outcome in sent[r]:
                    runs[r].fold(outcome)
                    if not runs[r].live:
                        break
        for r in live:
            if not runs[r].live:
                stopped[r] = 1
        b += 1
