"""Index-pair sets, the end-stripping (Moeglin-Waldspurger) involution,
crossing-free matchings and the left point-derivative on multisegments.

Everything here works with the 1-based canonical indices fixed by
:class:`~mseg.segments.Multisegment`.  Pair sets record precedence between
indexed segments; the involution repeatedly strips the chain of ends found
by the leading-index scan; matchings pair segments beginning at a point with
segments beginning one step to its right.

The kernels walk the canonical segment tuple ``m.segs`` once, numbering it
as they go, instead of looking segments up by index.  The involution strips
plain re-sorted lists and builds one multisegment at the end, and the
matching oracle computes the rho index sets once per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

from .errors import (
    EmptyMultisegmentError,
    InvalidMatchingError,
    PreconditionError,
    TooLargeError,
)
from .segments import CuspidalPoint, Multisegment, Segment, precedes


# A set of (i, j) index pairs; i indexes the first multisegment, j the second.
Pairs = FrozenSet[Tuple[int, int]]


def _shifted_precedes(d: Segment, d2: Segment) -> bool:
    # d precedes the right shift of d2; unfolds to nested begin/end chains.
    return d.line == d2.line and d.b <= d2.b <= d.e <= d2.e


def pairset_x(m: Multisegment) -> Pairs:
    """Pairs (i, j) with segment i preceding segment j (never i = j)."""
    return pairset_x_cross(m, m)


def pairset_y(m: Multisegment) -> Pairs:
    """Pairs (i, j) with segment i preceding the right shift of segment j.

    Unfolds to b_i <= b_j <= e_i <= e_j on a common line, so the diagonal is
    always contained.
    """
    return pairset_y_cross(m, m)


def pairset_x_cross(m: Multisegment, m2: Multisegment) -> Pairs:
    """Pairs (i, j), i indexing m and j indexing m2, with seg_i preceding seg_j."""
    return frozenset(
        (i, j)
        for i, d in enumerate(m.segs, 1)
        for j, d2 in enumerate(m2.segs, 1)
        if precedes(d, d2)
    )


def pairset_y_cross(m: Multisegment, m2: Multisegment) -> Pairs:
    return frozenset(
        (i, j)
        for i, d in enumerate(m.segs, 1)
        for j, d2 in enumerate(m2.segs, 1)
        if _shifted_precedes(d, d2)
    )


# ---------------------------------------------------------------------------
# the end-stripping involution
# ---------------------------------------------------------------------------


def _chain(segs) -> List[int]:
    """0-based positions of the leading chain of canonically ordered segments.

    One forward walk from position 0: every chain segment sorts below its
    predecessor, and the candidates for the next one (same line, end one
    step earlier) follow it contiguously, so the walk stops at the first
    segment on another line or ending further down.
    """
    if not segs:
        raise EmptyMultisegmentError("leading indices need a nonzero multisegment")
    chain = [0]
    cur = segs[0]
    for k in range(1, len(segs)):
        s = segs[k]
        if s.line != cur.line or s.e < cur.e - 1:
            break
        if s.e == cur.e - 1 and precedes(s, cur):
            chain.append(k)
            cur = s
    return chain


def _strip(segs) -> Tuple[Segment, List[Segment]]:
    """One involution step on canonically ordered segments: the stripped
    segment and the remaining segments, not re-sorted."""
    chain = _chain(segs)
    first, last = segs[chain[0]], segs[chain[-1]]
    rest = list(segs)
    for k in chain:
        rest[k] = segs[k].drop_last()
    return Segment(first.line, last.e, first.e), [s for s in rest if s is not None]


def leading_indices(m: Multisegment) -> List[int]:
    """The chain of indices stripped by one involution step.

    The first index carries the maximal end; each next one precedes the
    current segment and ends exactly one step earlier, maximal in the total
    order among candidates.  Ties between equal segments go to the smallest
    canonical index.  The chain always starts at index 1: the canonical
    order is descending in (line, end, begin), so the first segment lies on
    the largest line with the largest end there, which is the maximal end.
    The same descending order makes the next-link rule a first-match scan.
    """
    return [k + 1 for k in _chain(m.segs)]


def mw_step(m: Multisegment) -> Tuple[Segment, Multisegment]:
    """One involution step: the stripped end-chain segment and the reduction.

    The returned segment collects the ends of the leading chain; the
    reduction right-truncates exactly the chain segments, discarding any
    that empty.  Point multiplicities are preserved between the two parts.
    """
    delta, rest = _strip(m.segs)
    return delta, Multisegment(tuple(rest))


# The invariance suite asks for the dual of one m in several checks; the
# result is immutable, so callers may share it.  At `mseg suite all` seed 0,
# 8 entries catch 444 of the 761 calls and 64 entries 479, but 64 raised the
# suite's peak RSS by about 0.15 MB with the cache below.
@lru_cache(maxsize=8)
def mw_dual(m: Multisegment) -> Multisegment:
    """The Moeglin-Waldspurger involution, by repeated end-chain stripping.

    Lines are processed independently and the results summed; all chain
    conditions are intra-line so this agrees with stripping the global
    maximum first.  Each line is stripped on a plain list, re-sorted into
    canonical order after every step.
    """
    out: List[Segment] = []
    for line in m.lines():
        sub = [s for s in m.segs if s.line == line]
        while sub:
            delta, sub = _strip(sub)
            sub.sort(key=Segment.sort_key, reverse=True)
            out.append(delta)
    return Multisegment(tuple(out))


def mw_frontier(
    m: Multisegment, m2: Multisegment
) -> Tuple[Pairs, Pairs, Dict[Tuple[int, int], Tuple[int, int]]]:
    """Frontier pairs created by reducing m2, and the shift-down map f.

    Requires both multisegments nonzero on one common line with
    max end of m strictly below max end of m2.  Returns

      xt -- cross pairs into m2 that disappear after one reduction of m2,
      yt -- shifted-precedence cross pairs that disappear likewise,
      f  -- the injective map yt -> xt replacing a chain index by its
            predecessor in the leading chain.

    f is strictly monotone for the lexicographic order on (first index,
    chain position); it is onto exactly when reducing m2 commutes with
    adding m.
    """
    if not m or not m2:
        raise PreconditionError("frontier needs nonzero multisegments")
    lines = set(m.lines()) | set(m2.lines())
    if len(lines) != 1:
        raise PreconditionError("frontier is defined per line")
    if not m.max_end() < m2.max_end():
        raise PreconditionError("max end of m must be below max end of m2")

    chain = leading_indices(m2)
    x_cross = pairset_x_cross(m, m2)
    y_cross = pairset_y_cross(m, m2)

    xt = set()
    yt = set()
    f: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for pos, idx in enumerate(chain):
        end = m2.segs[idx - 1].e
        for i, d in enumerate(m.segs, 1):
            if (i, idx) in x_cross and d.e == end - 1:
                xt.add((i, idx))
            if pos >= 1 and (i, idx) in y_cross and d.e == end:
                yt.add((i, idx))
                f[(i, idx)] = (i, chain[pos - 1])
    return frozenset(xt), frozenset(yt), f


# ---------------------------------------------------------------------------
# matchings and the point derivative
# ---------------------------------------------------------------------------


def rho_sets(m: Multisegment, rho: CuspidalPoint) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Indices beginning one past rho (x side) and at rho (y side)."""
    x: List[int] = []
    y: List[int] = []
    for i, s in enumerate(m.segs, 1):
        if s.line == rho.line:
            if s.b == rho.pos + 1:
                x.append(i)
            elif s.b == rho.pos:
                y.append(i)
    return frozenset(x), frozenset(y)


@dataclass(frozen=True, slots=True)
class Matching:
    """A partial bijection from y-side to x-side indices along precedence.

    ``a_set`` / ``b_set`` cache the unmatched y-side / x-side indices.
    """

    pairs: FrozenSet[Tuple[int, int]]
    a_set: FrozenSet[int] = field(default_factory=frozenset)
    b_set: FrozenSet[int] = field(default_factory=frozenset)

    def forward(self) -> Dict[int, int]:
        return {i: j for i, j in self.pairs}

    def backward(self) -> Dict[int, int]:
        return {j: i for i, j in self.pairs}


def _validated(m: Multisegment, x: FrozenSet[int], y: FrozenSet[int], pairs) -> Matching:
    """Validate pairs against the rho sets (x, y) of m and build the matching."""
    pairs = frozenset(pairs)
    dom = {i for i, _ in pairs}
    img = {j for _, j in pairs}
    if len(dom) != len(pairs) or len(img) != len(pairs):
        raise InvalidMatchingError("relation is not one-to-one")
    segs = m.segs
    for i, j in pairs:
        if i not in y or j not in x:
            raise InvalidMatchingError(f"pair ({i},{j}) outside the index sets")
        if not precedes(segs[i - 1], segs[j - 1]):
            raise InvalidMatchingError(f"pair ({i},{j}) violates precedence")
    return Matching(pairs, y - dom, x - img)


def _is_maximal(m: Multisegment, x: FrozenSet[int], y: FrozenSet[int], r: Matching) -> bool:
    """Maximality of a validated matching r against the rho sets (x, y) of m."""
    segs = m.segs
    fwd = r.forward()
    bwd = r.backward()
    for i in y:
        d = segs[i - 1]
        for j in x:
            d2 = segs[j - 1]
            if not precedes(d, d2):
                continue
            if i in fwd and j in bwd:
                continue
            if i in fwd and j not in bwd:
                if d2 >= segs[fwd[i] - 1]:
                    continue
                return False
            if i not in fwd and j in bwd:
                if d <= segs[bwd[j] - 1]:
                    continue
                return False
            return False
    return True


def make_matching(
    m: Multisegment, rho: CuspidalPoint, pairs
) -> Matching:
    """Validate and build a matching for (m, rho), caching unmatched sets."""
    x, y = rho_sets(m, rho)
    return _validated(m, x, y, pairs)


# Two invariance checks ask for the matching of one (m, rho); a Matching
# is immutable, so callers may share it.  At `mseg suite all` seed 0, 8
# entries catch 738 of the 1,754 calls and 64 entries 803.
@lru_cache(maxsize=8)
def best_matching(m: Multisegment, rho: CuspidalPoint) -> Matching:
    """The greedy crossing-free maximal matching.

    x-side indices are visited in increasing total order of their segments
    (ties by canonical index); each is matched to the unmatched y-side
    partner of maximal total order (ties to the smallest index).  The result
    is maximal and contains no crossing quadruple; the enumeration oracle
    validates both claims on small instances.
    """
    x, y = rho_sets(m, rho)
    segs = m.segs
    xs = sorted(x, key=lambda j: (segs[j - 1].sort_key(), j))
    unmatched = set(y)
    pairs = []
    for j in xs:
        cands = [i for i in unmatched if precedes(segs[i - 1], segs[j - 1])]
        if not cands:
            continue
        best = max(cands, key=lambda i: (segs[i - 1].sort_key(), -i))
        pairs.append((best, j))
        unmatched.discard(best)
    return _validated(m, x, y, pairs)


def is_maximal_matching(m: Multisegment, rho: CuspidalPoint, r: Matching) -> bool:
    """Maximality test: every linked (y, x) pair must be fully matched, or
    blocked on the matched side by a partner at least as good."""
    x, y = rho_sets(m, rho)
    return _is_maximal(m, x, y, _validated(m, x, y, r.pairs))


def enumerate_maximal_matchings(m: Multisegment, rho: CuspidalPoint) -> List[Matching]:
    """All maximal matchings, by exhaustive search; a test oracle.

    Also the ground truth for the claim that unmatched sets agree across
    maximal matchings up to segment values.  Every leaf goes through the
    same validation and maximality test as :func:`is_maximal_matching`.
    """
    x, y = rho_sets(m, rho)
    if len(x) + len(y) > 12:
        raise TooLargeError("enumeration oracle capped at 12 indices")
    segs = m.segs
    xs = sorted(x)
    results: List[Matching] = []
    # Depth-first over (next x position, used y indices, pairs so far); each
    # x index stays unmatched first, then takes its partners in index order.
    stack: List[Tuple[int, FrozenSet[int], Tuple[Tuple[int, int], ...]]] = [(0, frozenset(), ())]
    while stack:
        k, used, pairs = stack.pop()
        if k == len(xs):
            cand = _validated(m, x, y, pairs)
            if _is_maximal(m, x, y, cand):
                results.append(cand)
            continue
        j = xs[k]
        nexts = [(k + 1, used, pairs)]
        nexts += [
            (k + 1, used | {i}, pairs + ((i, j),))
            for i in sorted(y - used)
            if precedes(segs[i - 1], segs[j - 1])
        ]
        stack.extend(reversed(nexts))
    return results


def matching_equivalent(m: Multisegment, a: FrozenSet[int], b: FrozenSet[int]) -> bool:
    """Index sets are equivalent when they carry the same segment multiset."""
    segs = m.segs
    return Counter(segs[i - 1] for i in a) == Counter(segs[i - 1] for i in b)


@dataclass(frozen=True)
class DerivativeResult:
    """Outcome of the left point-derivative at rho."""

    mu: int
    derived: Multisegment
    a_set: FrozenSet[int]
    b_set: FrozenSet[int]


def derivative(m: Multisegment, rho: CuspidalPoint) -> DerivativeResult:
    """Left derivative at rho: left-truncate the unmatched y-side segments.

    mu counts them; a zero mu means no segment of the result starts a copy
    of rho that could be split off.
    """
    r = best_matching(m, rho)
    derived: List[Segment] = []
    for i, s in enumerate(m.segs, 1):
        if i in r.a_set:
            t = s.drop_first()
            if t is not None:
                derived.append(t)
        else:
            derived.append(s)
    return DerivativeResult(len(r.a_set), Multisegment(tuple(derived)), r.a_set, r.b_set)


def soc_cuspidal(m: Multisegment, rho: CuspidalPoint) -> Multisegment:
    """The multisegment of the socle after multiplying by the point rho.

    With no unmatched x-side index the point joins as a new singleton;
    otherwise the maximal unmatched x-side segment absorbs it by extending
    one step to the left.
    """
    r = best_matching(m, rho)
    if not r.b_set:
        return m + Multisegment((Segment(rho.line, rho.pos, rho.pos),))
    segs = list(m.segs)
    i0 = max(r.b_set, key=lambda i: (segs[i - 1].sort_key(), -i))
    segs[i0 - 1] = segs[i0 - 1].extend_left()
    return Multisegment(tuple(segs))


def rho_frontier(
    m: Multisegment, m2: Multisegment, rho: CuspidalPoint
) -> Tuple[Pairs, Pairs]:
    """Cross pairs whose first index is truncated by the derivative at rho
    and whose second index sits on the matching side of m2."""
    a = derivative(m, rho).a_set
    x2, y2 = rho_sets(m2, rho)
    xt = frozenset(
        (i, j) for (i, j) in pairset_x_cross(m, m2) if i in a and j in x2
    )
    yt = frozenset(
        (i, j) for (i, j) in pairset_y_cross(m, m2) if i in a and j in y2
    )
    return xt, yt
