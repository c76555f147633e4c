"""Suite runs spread over the usable CPUs, with the reports of one process.

``fan_out(runs)`` returns what ``harness._lockstep(runs)`` returns.  `mseg
suite all` calls it with the ``Suite.steps`` generators of the suites it
names; no other command loads this module.
"""

from __future__ import annotations

import marshal
import os
from fractions import Fraction

from .harness import PropertyReport, _lockstep


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


def fan_out(runs: list) -> list:
    """The values the generators ``runs`` return, from P = min(usable CPUs,
    runs) processes, one on each CPU; in lockstep in this process when
    P < 2 or ``os.fork`` is missing.

    The run indices go into one ticket pipe.  P - 1 forked children and this
    process each take one index at a time and run that generator alone until
    the pipe is empty; a queue needs no tuning, where a fixed split leaves a
    core idle.  A child marshals its reports into its own pipe and ends with
    ``os._exit``: ``marshal`` is loaded at start-up, where ``pickle`` would
    add its import to the peak RSS.  Runs are pure, so each report is that
    of the run alone.  A run whose report did not come back runs here
    afterwards, so its exception surfaces as in ``_lockstep``.
    """
    cpus = usable_cpus()
    procs = min(len(cpus), len(runs))
    if procs < 2 or not hasattr(os, "fork"):
        return _lockstep(runs)
    tickets, put = os.pipe()
    os.write(put, bytes(range(len(runs))))  # one byte a run: SUITES has 7
    os.close(put)

    def work() -> dict:
        done = {}
        for ticket in iter(lambda: os.read(tickets, 1), b""):
            done[ticket[0]] = _lockstep([runs[ticket[0]]])[0]
        return done

    children: dict = {}  # pid -> the result pipe it writes
    reports: dict = {}
    try:
        for cpu in cpus[1:procs]:
            back, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # fewer workers, same reports
                os.close(back), os.close(send)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(back)
                    for pipe in children.values():
                        pipe.close()
                    _pin({cpu})
                    wire = {k: (*r[:4], str(r[4]), *r[5:]) for k, r in work().items()}
                    with open(send, "wb") as pipe:
                        marshal.dump(wire, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(send)
            children[pid] = open(back, "rb")
        _pin({cpus[0]})
        reports.update(work())
        sent = {pid: pipe.read() for pid, pipe in children.items()}
    finally:
        _pin(set(cpus))
        while os.read(tickets, 64):  # leave no ticket for a child
            pass
        os.close(tickets)
        for pipe in children.values():
            pipe.close()
        ended = {pid: os.waitpid(pid, 0)[1] for pid in children}
    for pid, data in sent.items():
        if data and ended[pid] == 0:
            for k, (*head, bound, details, short) in marshal.loads(data).items():
                reports[k] = PropertyReport(*head, Fraction(bound), details, short)
    missing = [k for k in range(len(runs)) if k not in reports]
    reports.update(zip(missing, _lockstep([runs[k] for k in missing])))
    return [reports[k] for k in range(len(runs))]
