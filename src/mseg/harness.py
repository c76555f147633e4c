"""Random instance generation and property suites.

Each suite draws deterministic pseudo-random instances, filters them to the
hypothesis of one consistency statement (rejection sampling, except where a
gap construction guarantees the hypothesis), evaluates the statement through
the randomized condition checks, and reports violations.  Expected outcome
on every suite: none.

Every statement a suite tests lives in one table, ``CHECKS`` of
:mod:`mseg.checks`, of single-instance checks keyed by the names in
violation records: the proposition statements and the ``invariances/``
identities.  Every suite is a row of a second table, ``SUITES``: the checks
it runs, its default target and its input source.  One driver,
``SuiteRun``, runs every row, in one of two modes: until each check has met
its hypothesis a target number of times (the propositions), or for a fixed
number of draws (the invariances); every run goes through
:func:`mseg.fanout.fan_out`, which spreads its draws over the usable CPUs
by blocks and reports what one process would.
``replay_violation`` re-runs any recorded violation through ``CHECKS``.

Verdicts of the condition checks are treated as ground truth.  A FALSE
verdict is certified when a Hall violator (structural rank, tested before
any random trial) proves it, and probabilistic otherwise; so every report
carries the accumulated error bound (the union bound, capped at 1), and each
violation is flagged as possibly spurious when its evidence includes a
probabilistic FALSE.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .checks import CHECK_INPUTS, CHECKS, run_check
from .conditions import union_bound
from .errors import TooLargeError
from .linalg import RankConfig, mix_stream
from .segments import (
    DEFAULT_LINE,
    MAX_SEGMENTS,
    CuspidalPoint,
    Multisegment,
    Segment,
    parse_mseg,
    parse_rho,
)


class _Shape(NamedTuple):
    max_segments: int = 4
    coord_range: int = 4
    max_length: int = 4
    lines: int = 1
    seed: int = 0


class GenParams(_Shape):
    """Shape of the random instances: count, coordinate box, lengths.

    A count past ``MAX_SEGMENTS``, more than the parser takes, raises
    ``TooLargeError``: a draw holds up to that many segments."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_segments < 0 or self.coord_range < 0:
            raise ValueError("sizes must be nonnegative")
        if self.max_segments > MAX_SEGMENTS:
            raise TooLargeError(f"more than {MAX_SEGMENTS} segments")
        return self

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: validate there too
        return cls(*fields)


def _rng(p: GenParams, index: int, tag: int = 0) -> random.Random:
    """The generator of draw (p.seed, index, tag); every draw reads it by
    :func:`_below`, so through ``getrandbits`` alone."""
    return random.Random(mix_stream(p.seed, index, tag))


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1: CPython's rejection loop on
    ``getrandbits`` (k = n.bit_length() bits, redrawn while r >= n), so the
    same stream gives the same values."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _line_name(rng: random.Random, p: GenParams) -> str:
    if p.lines <= 1:
        return DEFAULT_LINE
    return str(_below(rng, p.lines))


def _random_segment(rng: random.Random, p: GenParams, lo: int, hi: int) -> Segment:
    b = lo + _below(rng, hi - lo + 1)
    e = min(b + _below(rng, max(1, p.max_length)), hi)
    return Segment(_line_name(rng, p), b, e)


# Six of the seven suites draw from one index space, gen_ms(p, index), so a
# run asks for the same instances again: `mseg suite all` at seed 0 makes
# 7,003 calls for 2,702 draws.  A block is a window of this index space
# (Suite.stride), so each instance falls to one process, which catches its
# repeats across suites.  On one CPU the one process walks every window in
# turn, and 512 entries catch all 4,301 repeats (256 catch 4,158).  On two
# CPUs the parent drew 1,374 instances and caught 2,185 repeats, and in ten
# runs the worker drew 1,372 to 1,426 (1,360 in its share) and caught 2,432.
# The acceptance benchmark repeats its draws farther apart: 2,048 entries
# catch 2,014 repeats of its 9,294 calls, 512 none.  Its criteria 4, 5 and 8
# draw thousands of new instances and fill the memo: 4,096 entries
# raised its peak RSS by 1.6 MB (23.5 to 25.1 MB) and 2,048 by 0.7 MB.
# Draws are immutable; callers may share the results.
@lru_cache(maxsize=2048)
def gen_ms(p: GenParams, index: int) -> Multisegment:
    """A random multisegment, deterministic in (p, index).

    Memoised per process: a repeated (p, index) returns the same object.
    """
    rng = _rng(p, index, 1)
    k = _below(rng, p.max_segments + 1)
    r = p.coord_range
    return Multisegment(tuple(_random_segment(rng, p, -r, r) for _ in range(k)))


def gen_ladder(p: GenParams, index: int) -> Multisegment:
    """A random ladder: consecutive segments strictly climb in begin and end."""
    rng = _rng(p, index, 2)
    k = 1 + _below(rng, max(1, p.max_segments))
    r = p.coord_range
    seg = _random_segment(rng, p, -r, r)
    chain = [seg]
    while len(chain) < k and seg.e < r:
        b = seg.b + 1 + _below(rng, seg.e - seg.b + 1)
        e = seg.e + 1 + _below(rng, min(max(1, p.max_length), r - seg.e))
        seg = Segment(seg.line, b, e)
        chain.append(seg)
    return Multisegment(tuple(chain))


class PropertyReport(NamedTuple):
    """Result of one suite run; empty violations means the property passed."""

    name: str
    instances_generated: int
    hypothesis_satisfied: int
    violations: List[dict]
    accumulated_bound: Fraction
    details: Dict[str, int]
    # (check, count, floor) when the draws ran out before every check met its
    # hypothesis floor times (the target, or 1 in a fixed-draw suite): the
    # first check in run order with the least count; not part of to_dict
    shortfall: Optional[Tuple[str, int, int]] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances_generated": self.instances_generated,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "violations": self.violations,
            "accumulated_bound": str(self.accumulated_bound),
            "passed": self.passed,
            "details": dict(sorted(self.details.items())),
        }


# ---------------------------------------------------------------------------
# the suite table
# ---------------------------------------------------------------------------

_ATTEMPT_FACTOR = 200


def _point_of(p: GenParams, m: Multisegment, index: int, tag: int) -> CuspidalPoint:
    """A point of the support of nonzero m, deterministic in (p.seed, index, tag)."""
    points = sorted(m.supp())
    return points[_below(_rng(p, index, tag), len(points))]


# An input source: draw(p, target, i) is draw i, its inputs named as in the
# violation records, or None for a rejected draw.


def _draw_pair(p: GenParams, target: int, i: int) -> Dict[str, object]:
    return {"m": gen_ms(p, 2 * i), "m2": gen_ms(p, 2 * i + 1)}


def _draw_triple(p: GenParams, target: int, i: int) -> Dict[str, object]:
    return {"m": gen_ms(p, 3 * i), "m2": gen_ms(p, 3 * i + 1), "n": gen_ms(p, 3 * i + 2)}


def _draw_split(p: GenParams, target: int, i: int) -> Dict[str, object]:
    """Four blocks on one line: m1 and m1p in [-r, -2], m2 and m2p in [2, r]."""
    r = max(p.coord_range, 3)
    rng = _rng(p, i, 3)
    one_line = p._replace(lines=1)  # no line draw, every segment on DEFAULT_LINE

    def block(lo: int, hi: int) -> Multisegment:
        k = _below(rng, max(1, p.max_segments // 2) + 1)
        return Multisegment(tuple(_random_segment(rng, one_line, lo, hi) for _ in range(k)))

    spans = {"m1": (-r, -2), "m1p": (-r, -2), "m2": (2, r), "m2p": (2, r)}
    return {key: block(lo, hi) for key, (lo, hi) in spans.items()}


def _draw_gedelta(p: GenParams, target: int, i: int) -> Dict[str, object]:
    delta = _random_segment(_rng(p, i, 4), p, -p.coord_range, p.coord_range)
    return {**_draw_pair(p, target, i), "delta": delta}


def _draw_rhoext(p: GenParams, target: int, i: int) -> Optional[Dict[str, object]]:
    drawn = _draw_pair(p, target, i)
    if not drawn["m"]:
        return None
    drawn["rho"] = _point_of(p, drawn["m"], i, 5)
    return drawn


def _draw_invariances(p: GenParams, target: int, i: int) -> Dict[str, object]:
    """m = gen_ms(i), m2 = gen_ms(target + i) and, when m is nonzero, a
    point rho of its support."""
    m = gen_ms(p, i)
    drawn: Dict[str, object] = {"m": m, "m2": gen_ms(p, target + i)}
    if m:
        drawn["rho"] = _point_of(p, m, i, 6)
    return drawn


class SuiteRun:
    """One run of a suite toward a target, as a fold of its draws' outcomes.

    ``outcome(i)`` is the work of draw i, and ``fold`` takes the outcome of
    draw ``draws``; ``live`` is the stop rule: fewer than ``limit`` draws,
    and, unless the suite makes a fixed number, a check still short of the
    target.  ``stride`` is the suite's (``Suite.stride``).  ``mseg.fanout``
    computes the outcomes, in this process or in forked workers, and folds
    them in draw order.
    """

    __slots__ = (
        "suite", "p", "cfg", "target", "stride", "limit", "draws", "counts", "violations", "bounds"
    )

    def __init__(
        self, suite: Suite, p: GenParams, cfg: RankConfig, instances: Optional[int] = None
    ):
        target = suite.target if instances is None else instances
        if target < 1:
            raise ValueError("instances must be positive")
        self.suite, self.p, self.cfg, self.target = suite, p, cfg, target
        self.stride = suite.stride
        self.limit = target if suite.fixed_draws else target * _ATTEMPT_FACTOR
        self.draws = 0
        self.counts = [0] * len(suite.checks)
        self.violations: List[dict] = []
        self.bounds: List[Fraction] = []

    @property
    def live(self) -> bool:
        return self.draws < self.limit and (
            self.suite.fixed_draws or min(self.counts) < self.target
        )

    def outcome(self, i: int) -> list:
        """Draw i: (k, violation record or None, FALSE bound) for each check
        k, in run order, that met its hypothesis.  The bound is (numerator,
        denominator), or 0 when it is 0, so that ``marshal`` sends an outcome
        as it is."""
        met: list = []
        suite = self.suite
        drawn = suite.draw(self.p, self.target, i)
        if drawn is None:
            return met
        for k, check in enumerate(suite.checks):
            try:
                inputs = {key: drawn[key] for key in CHECK_INPUTS[check]}
            except KeyError:  # the draw lacks an input of this check
                continue
            result = run_check(check, self.cfg, inputs)
            if result is not None:
                violation, b = result
                met.append((k, violation, (b.numerator, b.denominator) if b else 0))
        return met

    def fold(self, outcome: list) -> None:
        self.draws += 1
        for k, violation, bound in outcome:
            self.counts[k] += 1
            if bound:
                self.bounds.append(Fraction(*bound))
            if violation is not None:
                self.violations.append(violation)

    def report(self) -> PropertyReport:
        suite, counts = self.suite, self.counts
        # details count the part <name>-<k> as part<k> and <name>/<check> as <check>
        details = {
            check.replace(f"{suite.name}-", "part", 1).removeprefix(f"{suite.name}/"): n
            for check, n in zip(suite.checks, counts)
            if check != suite.name
        }
        floor = 1 if suite.fixed_draws else self.target
        least = counts.index(min(counts))
        shortfall = (suite.checks[least], counts[least], floor) if counts[least] < floor else None
        satisfied = self.draws if suite.fixed_draws else sum(counts)
        return PropertyReport(
            suite.name,
            self.draws,
            satisfied,
            self.violations,
            union_bound(self.bounds),
            details,
            shortfall,
        )


class Suite(NamedTuple):
    """One row of ``SUITES``: a property suite, run by calling it.

    ``checks`` names its ``CHECKS`` entries in run order, and ``draw`` is its
    input source.  ``stride`` is the number of ``gen_ms`` indices one draw
    reads: draw i reads those in [stride * i, stride * (i + 1)), apart from
    the m2 of ``invariances`` at ``target + i``.  ``fanout.fan_out`` cuts
    the index space into windows by it; a wrong stride costs speed, not
    output.  Each check runs on every draw that holds all the inputs it
    names in ``CHECK_INPUTS``.  The suite draws until every check has met its
    hypothesis ``target`` times, or ``target * 200`` draws are used up; with
    ``fixed_draws`` it makes exactly ``target`` draws instead, and each check
    must meet its hypothesis at least once.  A check short of that floor
    sets the report's ``shortfall``.  A ``SuiteRun`` is one run of it: the
    work of each draw and the fold of their outcomes.  A call runs it through
    ``fanout.fan_out``, which spreads its blocks of draws over the usable
    CPUs where it may (``mseg.fanout`` describes how); the report is that
    of one process.
    """

    name: str
    checks: Tuple[str, ...]
    target: int
    draw: Callable[[GenParams, int, int], Optional[Dict[str, object]]]
    stride: int
    fixed_draws: bool = False

    def __call__(
        self, p: GenParams, cfg: RankConfig = RankConfig(), instances: Optional[int] = None
    ) -> PropertyReport:
        """The report of a run toward ``instances`` (default ``target``),
        from ``fanout.fan_out``: that of one process on any number of CPUs."""
        from .fanout import fan_out  # compiled by the first suite run, not at start-up

        return fan_out([SuiteRun(self, p, cfg, instances)])[0]


SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite("mm-minus", ("mm-minus",), 300, _draw_pair, 2),
        Suite("splitdisj", ("splitdisj",), 200, _draw_split, 1),
        Suite("gedelta", ("gedelta",), 200, _draw_gedelta, 2),
        Suite("3ms", ("3ms-2", "3ms-3", "3ms-4", "3ms-5"), 300, _draw_triple, 3),
        Suite("sumofseg", ("sumofseg",), 200, _draw_pair, 2),
        Suite("rhoext", ("rhoext",), 300, _draw_rhoext, 2),
        Suite(
            "invariances",
            tuple(check for check in CHECKS if check.startswith("invariances/")),
            200,
            _draw_invariances,
            1,
            fixed_draws=True,
        ),
    )
}

# The benchmark in msegbench/ calls and traces the suites by these names; its
# update under ROADMAP item 1 removes them.
prop_mm_minus = SUITES["mm-minus"]
prop_splitdisj = SUITES["splitdisj"]
prop_gedelta = SUITES["gedelta"]
prop_3ms = SUITES["3ms"]
prop_sumofseg_geom = SUITES["sumofseg"]
prop_rhoext_geom = SUITES["rhoext"]
suite_invariances = SUITES["invariances"]


def _parse_delta(text: str) -> Segment:
    """The one segment of a recorded delta; ValueError for any other count."""
    segs = parse_mseg(text).segs
    if len(segs) != 1:
        raise ValueError(f"delta must be exactly one segment, not {text!r}")
    return segs[0]


def replay_violation(violation: dict, cfg: RankConfig = RankConfig()) -> bool:
    """Re-run a recorded violation in isolation; True when it reproduces.

    Raises ValueError for an unknown property, for inputs that are not
    exactly those its check takes, or for a delta that is not one segment."""
    name = violation["property"]
    if name not in CHECKS:
        raise ValueError(f"no replay available for {name!r}")
    keys = CHECK_INPUTS[name]
    if set(violation["inputs"]) != set(keys):
        given = ", ".join(violation["inputs"]) or "none"
        raise ValueError(f"{name!r} takes the inputs {', '.join(keys)}, not {given}")
    parsers = {"rho": parse_rho, "delta": _parse_delta}
    inputs = {
        key: parsers.get(key, parse_mseg)(text) for key, text in violation["inputs"].items()
    }
    result = run_check(name, cfg, inputs)
    return result is not None and result[0] is not None
