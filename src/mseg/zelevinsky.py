"""Index-pair sets, the end-stripping (Moeglin-Waldspurger) involution,
crossing-free matchings and the left point-derivative on multisegments.

Everything here works with the 1-based canonical indices fixed by
:class:`~mseg.segments.Multisegment`.  Pair sets record precedence between
indexed segments; the involution repeatedly strips the chain of ends found
by the leading-index scan; matchings pair segments beginning at a point with
segments beginning one step to its right.

The kernels walk the canonical segment tuple ``m.segs`` once, numbering it
as they go, instead of looking segments up by index.  One merge walk over
m and m2, :func:`cross_pairs`, yields both cross pair sets X and Y as
lists in sorted pair order; X(m) and Y(m) are the walk over (m, m).  It
relies on two facts of the canonical order: lines come in descending label
order, and within a line ends do not rise as the index rises.  So the
partners of a segment of m are found in one run of m2 between two pointers
that only move forward, and the walk costs about |m| + |m2| + the pairs it
inspects rather than |m| * |m2|; long segments that begin early widen the
runs.  The involution strips plain re-sorted lists and builds one
multisegment at the end, and the matching oracle computes the rho index
sets once per call.
"""

from __future__ import annotations

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


def cross_pairs(
    m: Multisegment, m2: Multisegment
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The cross pair sets X(m, m2) and Y(m, m2) from one walk, each sorted.

    (i, j) is in X when seg_i of m precedes seg_j of m2, and in Y when seg_i
    precedes the right shift of seg_j (b_i <= b_j <= e_i <= e_j on a common
    line).  Both need a common line with b_i <= b_j <= e_i + 1 and
    e_i <= e_j; X adds b_i < b_j and e_i < e_j, Y adds b_j <= e_i.  With
    m2 = m they are X(m), which never holds (i, i), and Y(m), which always
    does.

    The walk merges the two canonical orders instead of testing every pair.
    Lines come in descending label order on both sides, so ``hi`` moves
    forward to the line run of m2 for each line of m.  Within a line ends
    do not rise as the index rises, on either side, so the segments with
    e_j >= e_i end at ``hi``, which only moves forward.  They start at
    ``lo``: a segment of m2 beginning past e_i + 1 also begins past the end
    plus one of every later segment of the line, so ``lo`` moves forward
    past it for good.  The pairs between the pointers, a subset of all
    |m| * |m2| pairs, are the ones tested, so the walk costs about
    |m| + |m2| + the pairs it tests.  A long segment of m2 that begins
    early stops ``lo`` and widens every later run of its line.  Pairs come
    out in sorted order.
    """
    segs2 = m2.segs
    n2 = len(segs2)
    xs: List[Tuple[int, int]] = []
    ys: List[Tuple[int, int]] = []
    line = None
    lo = hi = 0
    for i, d in enumerate(m.segs, 1):
        b, e = d.b, d.e
        if d.line != line:
            line = d.line
            while hi < n2 and segs2[hi].line > line:
                hi += 1
            lo = hi
        while hi < n2 and segs2[hi].e >= e and segs2[hi].line == line:
            hi += 1
        top = e + 1
        while lo < hi and segs2[lo].b > top:
            lo += 1
        for j in range(lo, hi):
            d2 = segs2[j]
            b2 = d2.b
            if b <= b2 <= top:
                if b < b2 and e < d2.e:
                    xs.append((i, j + 1))
                if b2 <= e:
                    ys.append((i, j + 1))
    return xs, ys


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
    x_cross, y_cross = map(set, cross_pairs(m, m2))

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
    """Index sets are equivalent when they carry the same segment multiset.

    Equal segments sit next to each other in canonical order, so the
    segments of an index set taken in index order are already sorted, and
    two multisets agree exactly when those lists do.
    """
    segs = m.segs
    return [segs[i - 1] for i in sorted(a)] == [segs[i - 1] for i in sorted(b)]


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
    xs, ys = cross_pairs(m, m2)
    xt = frozenset((i, j) for (i, j) in xs if i in a and j in x2)
    yt = frozenset((i, j) for (i, j) in ys if i in a and j in y2)
    return xt, yt
