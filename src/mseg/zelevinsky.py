"""Index-pair sets, the end-stripping (Moeglin-Waldspurger) involution,
crossing-free matchings and the left point-derivative on multisegments.

Everything here works with the 1-based canonical indices fixed by
:class:`~mseg.segments.Multisegment`.  Pair sets record precedence between
indexed segments; the involution repeatedly strips the chain of ends found
by the leading-index scan; matchings pair segments beginning at a point with
segments beginning one step to its right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

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
        for i in range(1, len(m) + 1)
        for j in range(1, len(m2) + 1)
        if precedes(m.seg(i), m2.seg(j))
    )


def pairset_y_cross(m: Multisegment, m2: Multisegment) -> Pairs:
    return frozenset(
        (i, j)
        for i in range(1, len(m) + 1)
        for j in range(1, len(m2) + 1)
        if _shifted_precedes(m.seg(i), m2.seg(j))
    )


# ---------------------------------------------------------------------------
# the end-stripping involution
# ---------------------------------------------------------------------------


def leading_indices(m: Multisegment) -> List[int]:
    """The chain of indices stripped by one involution step.

    The first index carries the maximal end; each next one precedes the
    current segment and ends exactly one step earlier, maximal in the total
    order among candidates.  Ties between equal segments go to the smallest
    canonical index.  The canonical descending order makes both maximality
    rules a first-match scan.
    """
    if not m:
        raise EmptyMultisegmentError("leading indices need a nonzero multisegment")
    top = m.max_end()
    chain: List[int] = []
    cur: Optional[Segment] = None
    for i in range(1, len(m) + 1):
        if m.seg(i).end_point() == top:
            chain.append(i)
            cur = m.seg(i)
            break
    assert cur is not None
    while True:
        nxt = None
        for i in range(1, len(m) + 1):
            s = m.seg(i)
            if s.line == cur.line and s.e == cur.e - 1 and precedes(s, cur):
                nxt = i
                break
        if nxt is None:
            return chain
        chain.append(nxt)
        cur = m.seg(nxt)


def mw_step(m: Multisegment) -> Tuple[Segment, Multisegment]:
    """One involution step: the stripped end-chain segment and the reduction.

    The returned segment collects the ends of the leading chain; the
    reduction right-truncates exactly the chain segments, discarding any
    that empty.  Point multiplicities are preserved between the two parts.
    """
    chain = leading_indices(m)
    ends = [m.seg(i).e for i in chain]
    line = m.seg(chain[0]).line
    delta = Segment(line, min(ends), max(ends))
    chain_set = set(chain)
    reduced: List[Segment] = []
    for i in range(1, len(m) + 1):
        if i in chain_set:
            t = m.seg(i).drop_last()
            if t is not None:
                reduced.append(t)
        else:
            reduced.append(m.seg(i))
    return delta, Multisegment(tuple(reduced))


# The invariance suite asks for the dual of one m in several checks; the
# result is immutable, so callers may share it.  At `mseg suite all` seed 0,
# 8 entries catch 444 of the 761 calls and 64 entries 479, but 64 raised the
# suite's peak RSS by about 0.15 MB with the cache below.
@lru_cache(maxsize=8)
def mw_dual(m: Multisegment) -> Multisegment:
    """The Moeglin-Waldspurger involution, by repeated end-chain stripping.

    Lines are processed independently and the results summed; all chain
    conditions are intra-line so this agrees with stripping the global
    maximum first.
    """
    out: List[Segment] = []
    for line in m.lines():
        sub = m.restrict_line(line)
        while sub:
            delta, sub = mw_step(sub)
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
        end = m2.seg(idx).e
        for i in range(1, len(m) + 1):
            if (i, idx) in x_cross and m.seg(i).e == end - 1:
                xt.add((i, idx))
            if pos >= 1 and (i, idx) in y_cross and m.seg(i).e == end:
                yt.add((i, idx))
                f[(i, idx)] = (i, chain[pos - 1])
    return frozenset(xt), frozenset(yt), f


# ---------------------------------------------------------------------------
# matchings and the point derivative
# ---------------------------------------------------------------------------


def rho_sets(m: Multisegment, rho: CuspidalPoint) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Indices beginning one past rho (x side) and at rho (y side)."""
    x = frozenset(
        i
        for i in range(1, len(m) + 1)
        if m.seg(i).line == rho.line and m.seg(i).b == rho.pos + 1
    )
    y = frozenset(
        i
        for i in range(1, len(m) + 1)
        if m.seg(i).line == rho.line and m.seg(i).b == rho.pos
    )
    return x, y


@dataclass(frozen=True)
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


def make_matching(
    m: Multisegment, rho: CuspidalPoint, pairs
) -> Matching:
    """Validate and build a matching for (m, rho), caching unmatched sets."""
    x, y = rho_sets(m, rho)
    pairs = frozenset(pairs)
    dom = [i for i, _ in pairs]
    img = [j for _, j in pairs]
    if len(set(dom)) != len(pairs) or len(set(img)) != len(pairs):
        raise InvalidMatchingError("relation is not one-to-one")
    for i, j in pairs:
        if i not in y or j not in x:
            raise InvalidMatchingError(f"pair ({i},{j}) outside the index sets")
        if not precedes(m.seg(i), m.seg(j)):
            raise InvalidMatchingError(f"pair ({i},{j}) violates precedence")
    return Matching(pairs, y - frozenset(dom), x - frozenset(img))


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
    xs = sorted(x, key=lambda j: (m.seg(j).sort_key(), j))
    unmatched = set(y)
    pairs = []
    for j in xs:
        cands = [i for i in unmatched if precedes(m.seg(i), m.seg(j))]
        if not cands:
            continue
        best = max(cands, key=lambda i: (m.seg(i).sort_key(), -i))
        pairs.append((best, j))
        unmatched.discard(best)
    return make_matching(m, rho, pairs)


def is_maximal_matching(m: Multisegment, rho: CuspidalPoint, r: Matching) -> bool:
    """Maximality test: every linked (y, x) pair must be fully matched, or
    blocked on the matched side by a partner at least as good."""
    x, y = rho_sets(m, rho)
    r = make_matching(m, rho, r.pairs)
    fwd = r.forward()
    bwd = r.backward()
    for i in y:
        for j in x:
            if not precedes(m.seg(i), m.seg(j)):
                continue
            if i in fwd and j in bwd:
                continue
            if i in fwd and j not in bwd:
                if m.seg(j) >= m.seg(fwd[i]):
                    continue
                return False
            if i not in fwd and j in bwd:
                if m.seg(i) <= m.seg(bwd[j]):
                    continue
                return False
            return False
    return True


def enumerate_maximal_matchings(m: Multisegment, rho: CuspidalPoint) -> List[Matching]:
    """All maximal matchings, by exhaustive search; a test oracle.

    Also the ground truth for the claim that unmatched sets agree across
    maximal matchings up to segment values.
    """
    x, y = rho_sets(m, rho)
    if len(x) + len(y) > 12:
        raise TooLargeError("enumeration oracle capped at 12 indices")
    xs = sorted(x)
    results: List[Matching] = []

    def extend(k: int, used: FrozenSet[int], pairs: Tuple[Tuple[int, int], ...]):
        if k == len(xs):
            cand = make_matching(m, rho, pairs)
            if is_maximal_matching(m, rho, cand):
                results.append(cand)
            return
        j = xs[k]
        extend(k + 1, used, pairs)
        for i in sorted(y - used):
            if precedes(m.seg(i), m.seg(j)):
                extend(k + 1, used | {i}, pairs + ((i, j),))

    extend(0, frozenset(), ())
    return results


def matching_equivalent(m: Multisegment, a: FrozenSet[int], b: FrozenSet[int]) -> bool:
    """Index sets are equivalent when they carry the same segment multiset."""
    from collections import Counter

    return Counter(m.seg(i) for i in a) == Counter(m.seg(i) for i in b)


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
    for i in range(1, len(m) + 1):
        if i in r.a_set:
            t = m.seg(i).drop_first()
            if t is not None:
                derived.append(t)
        else:
            derived.append(m.seg(i))
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
    i0 = max(r.b_set, key=lambda i: (m.seg(i).sort_key(), -i))
    segs = list(m.segs)
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
