"""Single-instance checks: every statement a property suite tests.

The table ``CHECKS`` holds one check per statement, keyed by the names in
violation records: the proposition statements and the ``invariances/``
identities, structural and condition-level.  The suites of
:mod:`mseg.harness` run them through ``run_check``, and so does
``harness.replay_violation`` for a recorded violation.

Verdicts of the condition checks are treated as ground truth.  A FALSE
verdict is certified when a Hall violator (structural rank, tested before
any random trial) proves it, and probabilistic otherwise; so every record
carries the summed FALSE bound of the verdicts it used.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from .conditions import Verdict, check_gls, check_lc, union_bound
from .linalg import RankConfig
from .segments import CuspidalPoint, Multisegment, Segment, ms_filter, precedes
from .zelevinsky import (
    best_matching,
    cross_pairs,
    derivative,
    enumerate_maximal_matchings,
    frontier_defined,
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


def _violation(name: str, inputs: Dict[str, str], detail: dict, bound: Fraction) -> dict:
    return {
        "property": name,
        "inputs": inputs,
        "detail": detail,
        "false_verdict_bound": str(bound),
        "possibly_spurious": bound > 0,
    }


# A check takes the configuration and the instance as keyword inputs, named
# as in its violation record.  It returns None when the hypothesis fails, and
# otherwise whether the statement held, the detail of its violation record
# and every verdict it used.
Outcome = Optional[Tuple[bool, dict, Tuple[Verdict, ...]]]


def _reduced(m: Multisegment, m2: Multisegment) -> Tuple[Multisegment, bool]:
    """One reduction of m2, and whether reducing m + m2 gives m plus it."""
    _, m2r = mw_step(m2)
    _, sumr = mw_step(m + m2)
    return m2r, sumr == m + m2r


def _mm_minus(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    if not frontier_defined(m, m2):
        return None
    lhs = check_lc(m, m2, cfg)
    m2r, commutes = _reduced(m, m2)
    rhs = check_lc(m, m2r, cfg)
    detail = {"lc": lhs.holds, "lc_reduced": rhs.holds, "reduction_commutes": commutes}
    return lhs.holds == (rhs.holds and commutes), detail, (lhs, rhs)


def _splitdisj(
    cfg: RankConfig, m1: Multisegment, m1p: Multisegment, m2: Multisegment, m2p: Multisegment
) -> Outcome:
    # the hypothesis: X and Y of (m1 + m1p, m2 + m2p) are empty
    left, right = m1 + m1p, m2 + m2p
    if cross_pairs(left, right) or cross_pairs(left, right, 1):
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
    ys = set(cross_pairs(m, m, 1))
    return all((i, i) in ys for i in range(1, len(m) + 1)), {}, ()


def _pairset_decomposition(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    # the X and Y pairs of m + m2 are those within m, within m2 and across
    total = m + m2
    parts = ((m, m), (m2, m2), (m, m2), (m2, m))
    held = all(
        Counter((total.seg(i), total.seg(j)) for i, j in cross_pairs(total, total, k))
        == Counter((a.seg(i), b.seg(j)) for a, b in parts for i, j in cross_pairs(a, b, k))
        for k in (0, 1)  # the shift: X, then Y
    )
    return held, {}, ()


def _frontier_map(cfg: RankConfig, m: Multisegment, m2: Multisegment) -> Outcome:
    if not frontier_defined(m, m2):
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
    _, commutes = _reduced(m, m2)
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
