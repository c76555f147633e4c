"""Random instance generation and property suites.

Each suite draws deterministic pseudo-random instances, filters them to the
hypothesis of one consistency statement (rejection sampling, except where a
gap construction guarantees the hypothesis), evaluates the statement through
the randomized condition checks, and reports violations.  Expected outcome
on every suite: none.

Every statement a suite tests lives in one table, ``CHECKS``, of
single-instance checks keyed by the names in violation records: the
proposition statements and the ``invariances/`` identities.  Every suite is
a row of a second table, ``SUITES``: the checks it runs, its default target
and its input source.  One driver runs every row, in one of two modes: until
each check has met its hypothesis a target number of times (the
propositions), or for a fixed number of draws (the invariances).
``replay_violation`` re-runs any recorded violation through ``CHECKS``.

Verdicts of the condition checks are treated as ground truth.  A FALSE
verdict is certified when pigeonhole or a Hall violator (structural rank,
tested before any random trial) proves it, and probabilistic otherwise;
so every report carries the accumulated error bound (the union bound, capped
at 1), and each violation is flagged as possibly spurious when its evidence
includes a probabilistic FALSE.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .conditions import Verdict, check_gls, check_lc, union_bound
from .linalg import RankConfig, mix_stream
from .segments import (
    DEFAULT_LINE,
    CuspidalPoint,
    Multisegment,
    Segment,
    ms_filter,
    parse_mseg,
    parse_rho,
    precedes,
)
from .zelevinsky import (
    best_matching,
    cross_pairs,
    derivative,
    enumerate_maximal_matchings,
    is_maximal_matching,
    leading_indices,
    matching_equivalent,
    mw_dual,
    mw_frontier,
    mw_step,
    rho_frontier,
    rho_sets,
    soc_cuspidal,
)


@dataclass(frozen=True)
class GenParams:
    """Shape of the random instances: count, coordinate box, lengths."""

    max_segments: int = 4
    coord_range: int = 4
    max_length: int = 4
    lines: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_segments < 0 or self.coord_range < 0:
            raise ValueError("sizes must be nonnegative")


def _rng(p: GenParams, index: int, tag: int = 0) -> random.Random:
    return random.Random(mix_stream(p.seed, index, tag))


def _line_name(rng: random.Random, p: GenParams) -> str:
    if p.lines <= 1:
        return DEFAULT_LINE
    return str(rng.randrange(p.lines))


def _random_segment(rng: random.Random, p: GenParams, lo: int, hi: int) -> Segment:
    b = rng.randint(lo, hi)
    e = min(b + rng.randint(1, max(1, p.max_length)) - 1, hi)
    return Segment(_line_name(rng, p), b, e)


def gen_ms(p: GenParams, index: int) -> Multisegment:
    """A random multisegment, deterministic in (p.seed, index)."""
    rng = _rng(p, index, 1)
    k = rng.randint(0, p.max_segments)
    r = p.coord_range
    return Multisegment(tuple(_random_segment(rng, p, -r, r) for _ in range(k)))


def gen_ladder(p: GenParams, index: int) -> Multisegment:
    """A random ladder: consecutive segments strictly climb in begin and end."""
    rng = _rng(p, index, 2)
    k = rng.randint(1, max(1, p.max_segments))
    r = p.coord_range
    seg = _random_segment(rng, p, -r, r)
    chain = [seg]
    while len(chain) < k and seg.e < r:
        b = rng.randint(seg.b + 1, seg.e + 1)
        e = rng.randint(seg.e + 1, min(seg.e + max(1, p.max_length), r))
        seg = Segment(seg.line, b, e)
        chain.append(seg)
    return Multisegment(tuple(chain))


@dataclass
class PropertyReport:
    """Result of one suite run; empty violations means the property passed."""

    name: str
    instances_generated: int
    hypothesis_satisfied: int
    violations: List[dict]
    accumulated_bound: Fraction
    details: Dict[str, int] = field(default_factory=dict)
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


def _violation(name: str, inputs: Dict[str, str], detail: dict, bound: Fraction) -> dict:
    return {
        "property": name,
        "inputs": inputs,
        "detail": detail,
        "false_verdict_bound": str(bound),
        "possibly_spurious": bound > 0,
    }


# ---------------------------------------------------------------------------
# single-instance checks, shared by the suites and by replay
# ---------------------------------------------------------------------------

# A check takes the configuration and the instance as keyword inputs, named
# as in its violation record.  It returns None when the hypothesis fails, and
# otherwise whether the statement held, the detail of its violation record
# and every verdict it used.
Outcome = Optional[Tuple[bool, dict, Tuple[Verdict, ...]]]


def _frontier_defined(m: Multisegment, m2: Multisegment) -> bool:
    """The hypothesis of ``mw_frontier``: m and m2 nonzero on one common
    line, with the max end of m below that of m2."""
    if not m or not m2 or len(set(m.lines()) | set(m2.lines())) != 1:
        return False
    return m.max_end() < m2.max_end()


def _mm_minus(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    if not _frontier_defined(m, m2):
        return None
    lhs = check_lc(m, m2, cfg)
    _, m2r = mw_step(m2)
    _, sumr = mw_step(m + m2)
    commutes = sumr == m + m2r
    rhs = check_lc(m, m2r, cfg)
    detail = {"lc": lhs.holds, "lc_reduced": rhs.holds, "reduction_commutes": commutes}
    return lhs.holds == (rhs.holds and commutes), detail, (lhs, rhs)


def _splitdisj(
    cfg: RankConfig, m1: Multisegment, m1p: Multisegment, m2: Multisegment, m2p: Multisegment
) -> Outcome:
    group2 = list(m2) + list(m2p)
    for a in list(m1) + list(m1p):
        for b in group2:
            if precedes(a, b) or precedes(a.shift(-1), b):
                return None
    whole = check_lc(m1 + m2, m1p + m2p, cfg)
    if not whole.holds:
        return None
    part1, part2 = check_lc(m1, m1p, cfg), check_lc(m2, m2p, cfg)
    detail = {"part1": part1.holds, "part2": part2.holds}
    return part1.holds and part2.holds, detail, (whole, part1, part2)


def _gedelta(cfg: RankConfig, m: Multisegment, m2: Multisegment, delta: Segment) -> Outcome:
    whole = check_lc(m, m2, cfg)
    if not whole.holds:
        return None
    parts = {
        kind: check_lc(ms_filter(m, kind, delta), ms_filter(m2, kind, delta), cfg)
        for kind in ("ge_seg", "end_in", "begin_in")
    }
    bad = {kind: False for kind, v in parts.items() if not v.holds}
    return not bad, bad, (whole, *parts.values())


def _3ms_2(cfg: RankConfig, m: Multisegment, m2: Multisegment, n: Multisegment) -> Outcome:
    h1, h2 = check_lc(m, m2, cfg), check_lc(m + m2, n, cfg)
    if not (h1.holds and h2.holds):
        return None
    c1, c2 = check_lc(m, m2 + n, cfg), check_lc(m, n, cfg)
    return c1.holds and c2.holds, {"sum": c1.holds, "single": c2.holds}, (h1, h2, c1, c2)


def _3ms_3(cfg: RankConfig, m: Multisegment, m2: Multisegment, n: Multisegment) -> Outcome:
    h1, h2 = check_lc(m, m2, cfg), check_lc(m, n, cfg)
    if not (h1.holds and h2.holds):
        return None
    c = check_lc(m, m2 + n, cfg)
    return c.holds, {"sum": c.holds}, (h1, h2, c)


def _3ms_4(cfg: RankConfig, m: Multisegment, m2: Multisegment, n: Multisegment) -> Outcome:
    h1, h2 = check_lc(m, n, cfg), check_lc(m2, n, cfg)
    if not (h1.holds and h2.holds):
        return None
    c = check_lc(m + m2, n, cfg)
    return c.holds, {"sum": c.holds}, (h1, h2, c)


def _3ms_5(cfg: RankConfig, m: Multisegment, m2: Multisegment, n: Multisegment) -> Outcome:
    h1, h2 = check_lc(m, m2, cfg), check_lc(m2, m, cfg)
    if not (h1.holds and h2.holds):
        return None
    lhs = check_lc(m + m2, n, cfg)
    r1, r2 = check_lc(m, n, cfg), check_lc(m2, n, cfg)
    detail = {"sum": lhs.holds, "first": r1.holds, "second": r2.holds}
    return lhs.holds == (r1.holds and r2.holds), detail, (h1, h2, lhs, r1, r2)


def _sumofseg(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    g1, g2 = check_gls(m, cfg), check_gls(m2, cfg)
    if not (g1.holds and g2.holds):
        return None
    l1, l2 = check_lc(m, m2, cfg), check_lc(m + m2, m, cfg)
    if not (l1.holds and l2.holds):
        return None
    g = check_gls(m + m2, cfg)
    return g.holds, {"gls_sum": g.holds}, (g1, g2, l1, l2, g)


def _rhoext(cfg: RankConfig, m: Multisegment, m2: Multisegment, rho: CuspidalPoint) -> Outcome:
    if not m or derivative(m2, rho).mu != 0:
        return None
    lhs = check_lc(m, m2, cfg)
    xt, yt = rho_frontier(m, m2, rho)
    rhs = check_lc(derivative(m, rho).derived, m2, cfg)
    counts_match = len(xt) == len(yt)
    detail = {"lc": lhs.holds, "lc_derived": rhs.holds, "frontier_counts_match": counts_match}
    return lhs.holds == (rhs.holds and counts_match), detail, (lhs, rhs)


def _pair_multiset(m: Multisegment, m2: Multisegment, pairs) -> Counter:
    return Counter((m.seg(i), m2.seg(j)) for (i, j) in pairs)


# The structural invariances use no verdict: each returns the verdicts ().


def _mw_involution(cfg: RankConfig, m: Multisegment) -> Outcome:
    # the involution squares to the identity and keeps point multiplicities
    md = mw_dual(m)
    return mw_dual(md) == m and md.supp() == m.supp(), {"dual": str(md)}, ()


def _mw_delta_minimal(cfg: RankConfig, m: Multisegment) -> Outcome:
    if not m:
        return None
    delta, _ = mw_step(m)
    cands = [s for s in mw_dual(m) if s.end_point() == m.max_end()]
    return bool(cands) and min(cands) == delta, {"delta": str(delta)}, ()


def _y_diagonal(cfg: RankConfig, m: Multisegment) -> Outcome:
    ys = set(cross_pairs(m, m)[1])
    return all((i, i) in ys for i in range(1, len(m) + 1)), {}, ()


def _pairset_decomposition(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    # the X and Y pairs of m + m2 are those within m, within m2 and across
    total = m + m2
    parts = [(a, b, cross_pairs(a, b)) for a, b in ((m, m), (m2, m2), (m, m2), (m2, m))]
    whole = cross_pairs(total, total)
    held = all(
        _pair_multiset(total, total, whole[k])
        == sum((_pair_multiset(a, b, pairs[k]) for a, b, pairs in parts), Counter())
        for k in (0, 1)  # X, then Y
    )
    return held, {}, ()


def _frontier_map(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    if not _frontier_defined(m, m2):
        return None
    xt, yt, f = mw_frontier(m, m2)
    pos = {idx: k for k, idx in enumerate(leading_indices(m2))}

    def rank(pair: Tuple[int, int]) -> Tuple[int, int]:
        return pair[0], pos[pair[1]]

    keys = sorted(f, key=rank)
    monotone = all(rank(a) < rank(b) and rank(f[a]) < rank(f[b]) for a, b in zip(keys, keys[1:]))
    image = set(f.values())
    injective = len(image) == len(f)
    onto = len(f) == len(xt)
    _, sumr = mw_step(m + m2)
    _, m2r = mw_step(m2)
    commutes = sumr == m + m2r
    held = (
        injective and monotone and image <= xt and onto == commutes
        and (len(xt) > len(yt) or onto)
    )
    detail = {"xt": len(xt), "yt": len(yt), "onto": onto, "commutes": commutes}
    return held, detail, ()


def _best_matching_maximal(cfg: RankConfig, m: Multisegment, rho: CuspidalPoint) -> Outcome:
    r = best_matching(m, rho)
    crossing = any(
        m.seg(i1) < m.seg(i2) and precedes(m.seg(i2), m.seg(j1)) and m.seg(j1) < m.seg(j2)
        for (i1, j1) in r.pairs
        for (i2, j2) in r.pairs
    )
    return is_maximal_matching(m, rho, r) and not crossing, {}, ()


def _matching_unmatched_equivalence(
    cfg: RankConfig, m: Multisegment, rho: CuspidalPoint
) -> Outcome:
    xr, yr = rho_sets(m, rho)
    if len(xr) + len(yr) > 10:
        return None
    r = best_matching(m, rho)
    others = enumerate_maximal_matchings(m, rho)
    held = all(
        matching_equivalent(m, r.a_set, o.a_set) and matching_equivalent(m, r.b_set, o.b_set)
        for o in others
    )
    return held, {"maximal_count": len(others)}, ()


def _derivative_soc_supp(cfg: RankConfig, m: Multisegment, rho: CuspidalPoint) -> Outcome:
    dv = derivative(m, rho)
    back = dv.derived
    for _ in range(dv.mu):
        back = soc_cuspidal(back, rho)
    return back.supp() == m.supp(), {"mu": dv.mu}, ()


def _frontier_inequality(
    cfg: RankConfig, m: Multisegment, m2: Multisegment, rho: CuspidalPoint
) -> Outcome:
    if not m2 or derivative(m2, rho).mu != 0:
        return None
    xt, yt = rho_frontier(m, m2, rho)
    return len(xt) >= len(yt), {"xt": len(xt), "yt": len(yt)}, ()


def _gls_involution_invariance(cfg: RankConfig, m: Multisegment) -> Outcome:
    g, gd, gmw = check_gls(m, cfg), check_gls(m.dual(), cfg), check_gls(mw_dual(m), cfg)
    detail = {"gls": g.holds, "dual": gd.holds, "mw": gmw.holds}
    return g.holds == gd.holds == gmw.holds, detail, (g, gd, gmw)


def _lc_dual_symmetry(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    lc, lcd = check_lc(m, m2, cfg), check_lc(m2.dual(), m.dual(), cfg)
    return lc.holds == lcd.holds, {"lc": lc.holds, "dual": lcd.holds}, (lc, lcd)


def _gls_implies_lc_self(cfg: RankConfig, m: Multisegment) -> Outcome:
    g = check_gls(m, cfg)
    if not g.holds:
        return None
    lcself = check_lc(m, m, cfg)
    return lcself.holds, {"lc_self": lcself.holds}, (g, lcself)


CHECKS: Dict[str, Callable[..., Outcome]] = {
    "mm-minus": _mm_minus,
    "splitdisj": _splitdisj,
    "gedelta": _gedelta,
    "3ms-2": _3ms_2,
    "3ms-3": _3ms_3,
    "3ms-4": _3ms_4,
    "3ms-5": _3ms_5,
    "sumofseg": _sumofseg,
    "rhoext": _rhoext,
    "invariances/mw-involution": _mw_involution,
    "invariances/mw-delta-minimal": _mw_delta_minimal,
    "invariances/y-diagonal": _y_diagonal,
    "invariances/pairset-decomposition": _pairset_decomposition,
    "invariances/frontier-map": _frontier_map,
    "invariances/best-matching-maximal": _best_matching_maximal,
    "invariances/matching-unmatched-equivalence": _matching_unmatched_equivalence,
    "invariances/derivative-soc-supp": _derivative_soc_supp,
    "invariances/frontier-inequality": _frontier_inequality,
    "invariances/gls-involution-invariance": _gls_involution_invariance,
    "invariances/lc-dual-symmetry": _lc_dual_symmetry,
    "invariances/gls-implies-lc-self": _gls_implies_lc_self,
}

# The inputs of each check, named and ordered as in its violation record: its
# parameters after cfg, read once here, so a check replaced later (a test
# double) keeps its names.
CHECK_INPUTS: Dict[str, Tuple[str, ...]] = {
    name: check.__code__.co_varnames[1 : check.__code__.co_argcount]
    for name, check in CHECKS.items()
}


def run_check(
    name: str, cfg: RankConfig, inputs: Dict[str, object]
) -> Optional[Tuple[Optional[dict], Fraction]]:
    """Run the check ``name`` on one instance.

    None when the hypothesis fails; otherwise the violation record (None when
    the statement held) and the summed FALSE bound of the verdicts used.
    """
    outcome = CHECKS[name](cfg, **inputs)
    if outcome is None:
        return None
    held, detail, verdicts = outcome
    bound = union_bound(v.false_verdict_bound for v in verdicts)
    if held:
        return None, bound
    record = {key: str(value) for key, value in inputs.items()}
    return _violation(name, record, detail, bound), bound


# ---------------------------------------------------------------------------
# the suite table
# ---------------------------------------------------------------------------

_ATTEMPT_FACTOR = 200


def _point_of(p: GenParams, m: Multisegment, index: int, tag: int) -> CuspidalPoint:
    """A point of the support of nonzero m, deterministic in (p.seed, index, tag)."""
    return _rng(p, index, tag).choice(sorted(m.supp()))


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

    def block(lo: int, hi: int) -> Multisegment:
        k = rng.randint(0, max(1, p.max_segments // 2))
        segs = []
        for _ in range(k):
            b = rng.randint(lo, hi)
            e = min(b + rng.randint(1, max(1, p.max_length)) - 1, hi)
            segs.append(Segment(DEFAULT_LINE, b, e))
        return Multisegment(tuple(segs))

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


class Suite(NamedTuple):
    """One row of ``SUITES``: a property suite, run by calling it.

    ``checks`` names its ``CHECKS`` entries in run order, and ``draw`` is its
    input source.  Each check runs on every draw that holds all the inputs it
    names in ``CHECK_INPUTS``.  The suite draws until every check has met its
    hypothesis ``target`` times, or ``target * 200`` draws are used up; with
    ``fixed_draws`` it makes exactly ``target`` draws instead, and each check
    must meet its hypothesis at least once.  A check short of that floor
    sets the report's ``shortfall``.
    """

    name: str
    checks: Tuple[str, ...]
    target: int
    draw: Callable[[GenParams, int, int], Optional[Dict[str, object]]]
    fixed_draws: bool = False

    def __call__(
        self, p: GenParams, cfg: RankConfig = RankConfig(), instances: Optional[int] = None
    ) -> PropertyReport:
        target = self.target if instances is None else instances
        limit = target if self.fixed_draws else target * _ATTEMPT_FACTOR
        plan = [(check, CHECK_INPUTS[check]) for check in self.checks]
        counts = dict.fromkeys(self.checks, 0)
        violations: List[dict] = []
        bounds: List[Fraction] = []
        draws = 0
        while draws < limit and (self.fixed_draws or min(counts.values()) < target):
            drawn = self.draw(p, target, draws)
            draws += 1
            if drawn is None:
                continue
            for check, keys in plan:
                try:
                    inputs = {key: drawn[key] for key in keys}
                except KeyError:  # the draw lacks an input of this check
                    continue
                result = run_check(check, cfg, inputs)
                if result is None:
                    continue
                violation, b = result
                counts[check] += 1
                bounds.append(b)
                if violation is not None:
                    violations.append(violation)
        # details count the part <name>-<k> as part<k> and <name>/<check> as <check>
        details = {
            check.replace(f"{self.name}-", "part", 1).removeprefix(f"{self.name}/"): n
            for check, n in counts.items()
            if check != self.name
        }
        floor = 1 if self.fixed_draws else target
        least = min(counts, key=counts.get)
        shortfall = (least, counts[least], floor) if counts[least] < floor else None
        satisfied = draws if self.fixed_draws else sum(counts.values())
        return PropertyReport(
            self.name, draws, satisfied, violations, union_bound(bounds), details, shortfall
        )


SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite("mm-minus", ("mm-minus",), 300, _draw_pair),
        Suite("splitdisj", ("splitdisj",), 200, _draw_split),
        Suite("gedelta", ("gedelta",), 200, _draw_gedelta),
        Suite("3ms", ("3ms-2", "3ms-3", "3ms-4", "3ms-5"), 300, _draw_triple),
        Suite("sumofseg", ("sumofseg",), 200, _draw_pair),
        Suite("rhoext", ("rhoext",), 300, _draw_rhoext),
        Suite(
            "invariances",
            tuple(check for check in CHECKS if check.startswith("invariances/")),
            200,
            _draw_invariances,
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


def replay_violation(violation: dict, cfg: RankConfig = RankConfig()) -> bool:
    """Re-run a recorded violation in isolation; True when it reproduces.

    Raises ValueError for an unknown property, or for inputs that are not
    exactly those its check takes."""
    name = violation["property"]
    if name not in CHECKS:
        raise ValueError(f"no replay available for {name!r}")
    keys = CHECK_INPUTS[name]
    if set(violation["inputs"]) != set(keys):
        given = ", ".join(violation["inputs"]) or "none"
        raise ValueError(f"{name!r} takes the inputs {', '.join(keys)}, not {given}")
    parsers = {"rho": parse_rho, "delta": lambda text: parse_mseg(text).seg(1)}
    inputs = {
        key: parsers.get(key, parse_mseg)(text) for key, text in violation["inputs"].items()
    }
    result = run_check(name, cfg, inputs)
    return result is not None and result[0] is not None
