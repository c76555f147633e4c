"""Index-pair sets, the end-stripping (Moeglin-Waldspurger) involution,
crossing-free matchings and the left point-derivative on multisegments.

Everything here works with the 1-based canonical indices fixed by
:class:`~mseg.segments.Multisegment`.  Pair sets record precedence between
indexed segments; the involution repeatedly strips the chain of ends found
by the leading-index scan; matchings pair segments beginning at a point with
segments beginning one step to its right.

The kernels walk the canonical segment tuple ``m.segs`` once, numbering it
as they go, instead of looking segments up by index.  The cross pair sets
X and Y are one relation, precedence of a segment of m over a segment of m2
moved right by a shift: X at shift 0, Y at shift 1.  One merge walk over m
and m2, :func:`cross_pairs`, lists either in sorted pair order; X(m) and
Y(m) are the walks over (m, m).  It relies on two facts of the canonical
order: lines come in descending label order, and within a line ends do not
rise as the index rises.  So the partners of a segment of m are found in
one run of m2 between two pointers that only move forward, and the walk
costs about |m| + |m2| + the pairs it inspects rather than |m| * |m2|; long
segments that begin early widen the runs.  Every pair-set question of the
package is read off this walk, and :func:`frontier_defined` states the
frontier hypothesis once.  The involution strips plain ``(line, e, b)``
tuples, re-sorted after each step, and builds segments only for its output.
The matchings of one (m, rho) read one link table: the rho sets x and y and,
for each x index in increasing order, the y indices that precede it.  Where
no pair is linked, the empty matching is the greedy one and the only maximal
one, and both are returned without a search.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .errors import (
    EmptyMultisegmentError,
    InvalidMatchingError,
    PreconditionError,
    TooLargeError,
)
from .segments import MAX_SEGMENTS, CuspidalPoint, Multisegment, Segment, precedes


# A set of (i, j) index pairs; i indexes the first multisegment, j the second.
Pairs = FrozenSet[Tuple[int, int]]


def cross_pairs(m: Multisegment, m2: Multisegment, shift: int = 0) -> List[Tuple[int, int]]:
    """The pairs (i, j) where seg_i of m precedes seg_j of m2 moved right by
    ``shift``, in sorted pair order: X(m, m2) at shift 0, Y(m, m2) at shift 1.

    This is :func:`~mseg.segments.precedes` for every pair, read off one
    merge walk of the two canonical orders instead of |m| * |m2| tests.
    With b, e = b_i - shift, e_i - shift the test is b < b_j <= e + 1 on a
    common line with e_j > e.  Lines come in descending label order on both
    sides, so ``hi`` moves forward to the line run of m2 for each line of m.
    Within a line ends do not rise as the index rises, on either side, so
    the segments with e_j > e end at ``hi``, which only moves forward.  They
    start at ``lo``: a segment of m2 beginning past e + 1 also begins past
    the end plus one of every later segment of the line, so ``lo`` moves
    forward past it for good.  The pairs between the pointers are the ones
    tested, so the walk costs about |m| + |m2| + the pairs it tests.  A long
    segment of m2 that begins early stops ``lo`` and widens every later run
    of its line.  With m2 = m, X(m) never holds (i, i) and Y(m) always does.
    """
    segs2 = m2.segs
    n2 = len(segs2)
    pairs: List[Tuple[int, int]] = []
    line = None
    lo = hi = 0
    for i, d in enumerate(m.segs, 1):
        b, e = d.b - shift, d.e - shift
        if d.line != line:
            line = d.line
            while hi < n2 and segs2[hi].line > line:
                hi += 1
            lo = hi
        while hi < n2 and segs2[hi].e > e and segs2[hi].line == line:
            hi += 1
        top = e + 1
        while lo < hi and segs2[lo].b > top:
            lo += 1
        for j in range(lo, hi):
            if b < segs2[j].b <= top:
                pairs.append((i, j + 1))
    return pairs


# ---------------------------------------------------------------------------
# the end-stripping involution
# ---------------------------------------------------------------------------


def _chain(segs) -> List[int]:
    """0-based positions of the leading chain of ``(line, e, b)`` tuples in
    descending tuple order, which is the canonical order.

    One forward walk from position 0: every chain segment sorts below its
    predecessor, and the candidates for the next one (same line, end one
    step earlier) follow it contiguously, so the walk stops at the first
    segment on another line or ending further down.  At end e - 1, b2 < b
    is :func:`~mseg.segments.precedes` of the candidate over the current one,
    so the next link is the first tuple below ``(line, e - 1, b)``.  A tuple
    that neither links nor stops the walk starts a bisection to that one,
    so piles of equal or nested segments are jumped, not walked.
    """
    if not segs:
        raise EmptyMultisegmentError("leading indices need a nonzero multisegment")
    chain = [0]
    line, e, b = segs[0]
    n = len(segs)
    k = 1
    while k < n:
        line2, e2, b2 = segs[k]
        if line2 != line or e2 < e - 1:
            break
        if e2 == e - 1 and b2 < b:
            chain.append(k)
            e, b = e2, b2
            k += 1
        else:
            k = bisect_left(segs, True, k + 1, n, key=(line, e - 1, b).__gt__)
    return chain


def _strip(segs: list) -> Segment:
    """One involution step, in place, on ``(line, e, b)`` tuples in
    descending order, which it keeps without a re-sort: from the chain's end
    back, an emptied tuple is deleted, a shortened one stays where the order
    allows, else moves down by bisection.  Returns the stripped segment."""
    chain = _chain(segs)
    line, top, _ = segs[0]
    bottom = segs[chain[-1]][1]
    for k in reversed(chain):
        _, e, b = segs[k]
        if b == e:
            del segs[k]
            continue
        t = (line, e - 1, b)
        if k + 1 == len(segs) or segs[k + 1] <= t:
            segs[k] = t
        else:
            del segs[k]
            segs.insert(bisect_left(segs, True, k, key=t.__ge__), t)
    return Segment(line, bottom, top)


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
    return [k + 1 for k in _chain([s.sort_key() for s in m.segs])]


def mw_step(m: Multisegment) -> Tuple[Segment, Multisegment]:
    """One involution step: the stripped end-chain segment and the reduction.

    The returned segment collects the ends of the leading chain; the
    reduction right-truncates exactly the chain segments, discarding any
    that empty.  Point multiplicities are preserved between the two parts.
    """
    rest = [s.sort_key() for s in m.segs]
    delta = _strip(rest)
    return delta, Multisegment(tuple(Segment(line, b, e) for line, e, b in rest))


# The invariance suite asks for the dual of one m in several checks; the
# result is immutable, so callers may share it.  At `mseg suite all` seed 0,
# 8 entries catch 444 of the 761 calls and 64 entries 479, but 64 raised the
# suite's peak RSS by about 0.15 MB with the cache below.
@lru_cache(maxsize=8)
def mw_dual(m: Multisegment) -> Multisegment:
    """The Moeglin-Waldspurger involution, by repeated end-chain stripping.

    The segments are stripped as plain ``(line, e, b)`` tuples, kept in
    canonical order by each step; only the output is built as segments.  A
    chain never leaves the line of its first segment, so this equals the sum
    over the lines of m of the involution of each line's part.
    Past ``MAX_SEGMENTS`` output segments, more than the parser takes, it
    raises ``TooLargeError``."""
    out: List[Segment] = []
    segs = [s.sort_key() for s in m.segs]
    while segs:
        if len(out) == MAX_SEGMENTS:
            raise TooLargeError(f"the involution has more than {MAX_SEGMENTS} segments")
        out.append(_strip(segs))
    return Multisegment(tuple(out))


def frontier_defined(m: Multisegment, m2: Multisegment) -> bool:
    """The hypothesis of :func:`mw_frontier`: m and m2 nonzero on one
    common line, with the max end of m below that of m2."""
    if not m or not m2 or len(set(m.lines()) | set(m2.lines())) != 1:
        return False
    return m.max_end() < m2.max_end()


def mw_frontier(
    m: Multisegment, m2: Multisegment
) -> Tuple[Pairs, Pairs, Dict[Tuple[int, int], Tuple[int, int]]]:
    """Frontier pairs created by reducing m2, and the shift-down map f.

    Requires :func:`frontier_defined`, else raises ``PreconditionError``.
    Filters the :func:`cross_pairs` walks for X and Y by the leading chain
    of m2 and returns

      xt -- the X pairs (i, j) with j on the chain and e_i = e_j - 1: they
            disappear after one reduction of m2,
      yt -- the Y pairs (i, j) with j on the chain past its first index and
            e_i = e_j: they disappear likewise,
      f  -- the injective map yt -> xt replacing a chain index by its
            predecessor in the leading chain.

    f is strictly monotone for the lexicographic order on (first index,
    chain position); it is onto exactly when reducing m2 commutes with
    adding m.
    """
    if not frontier_defined(m, m2):
        raise PreconditionError(
            "frontier needs m and m2 nonzero on one common line, "
            "with the max end of m below that of m2"
        )
    chain = leading_indices(m2)
    pos = {idx: k for k, idx in enumerate(chain)}
    segs, segs2 = m.segs, m2.segs
    xs, ys = cross_pairs(m, m2), cross_pairs(m, m2, 1)
    xt = frozenset((i, j) for i, j in xs if j in pos and segs[i - 1].e == segs2[j - 1].e - 1)
    f = {
        (i, j): (i, chain[pos[j] - 1])
        for i, j in ys
        if pos.get(j, 0) >= 1 and segs[i - 1].e == segs2[j - 1].e
    }
    return xt, frozenset(f), f


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


class Matching(NamedTuple):
    """A partial bijection from y-side to x-side indices along precedence.

    ``a_set`` / ``b_set`` cache the unmatched y-side / x-side indices.
    """

    pairs: FrozenSet[Tuple[int, int]]
    a_set: FrozenSet[int] = frozenset()
    b_set: FrozenSet[int] = frozenset()


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


# Two invariance checks, and criterion 7 of the acceptance benchmark, ask
# for the matchings of one (m, rho) twice; the table is immutable.
@lru_cache(maxsize=8)
def _link_table(m: Multisegment, rho: CuspidalPoint) -> tuple:
    """(x, y, links): the rho sets of (m, rho), and each x index that some y
    index precedes, in increasing order, with those y partners in increasing
    order.  No linked pair leaves the links empty."""
    x, y = rho_sets(m, rho)
    segs = m.segs
    ys = sorted(y)
    links = []
    for j in sorted(x):
        partners = tuple(i for i in ys if precedes(segs[i - 1], segs[j - 1]))
        if partners:
            links.append((j, partners))
    return x, y, tuple(links)


def _is_maximal(m: Multisegment, links: tuple, r: Matching) -> bool:
    """Maximality of a validated matching r against the links of (m, rho)."""
    segs = m.segs
    fwd = dict(r.pairs)
    bwd = {j: i for i, j in r.pairs}
    for j, partners in links:
        for i in partners:
            if i in fwd:
                if j not in bwd and segs[j - 1] < segs[fwd[i] - 1]:
                    return False
            elif j not in bwd or segs[i - 1] > segs[bwd[j] - 1]:
                return False
    return True


def make_matching(m: Multisegment, rho: CuspidalPoint, pairs) -> Matching:
    """Validate and build a matching for (m, rho), caching unmatched sets."""
    x, y = rho_sets(m, rho)
    return _validated(m, x, y, pairs)


def best_matching(m: Multisegment, rho: CuspidalPoint) -> Matching:
    """The greedy crossing-free maximal matching.

    x-side indices are visited in increasing total order of their segments
    (ties by canonical index); each is matched to the unmatched y-side
    partner of maximal total order (ties to the smallest index).  The result
    is maximal and contains no crossing quadruple; the enumeration oracle
    validates both claims on small instances.
    """
    x, y, links = _link_table(m, rho)
    if not links:
        return Matching(frozenset(), y, x)
    segs = m.segs
    unmatched = set(y)
    pairs = []
    for j, partners in sorted(links, key=lambda link: (segs[link[0] - 1].sort_key(), link[0])):
        cands = [i for i in partners if i in unmatched]
        if cands:
            best = max(cands, key=lambda i: (segs[i - 1].sort_key(), -i))
            pairs.append((best, j))
            unmatched.discard(best)
    return _validated(m, x, y, pairs)


def is_maximal_matching(m: Multisegment, rho: CuspidalPoint, r: Matching) -> bool:
    """Maximality test: every linked (y, x) pair must be fully matched, or
    blocked on the matched side by a partner at least as good."""
    x, y, links = _link_table(m, rho)
    return _is_maximal(m, links, _validated(m, x, y, r.pairs))


def enumerate_maximal_matchings(m: Multisegment, rho: CuspidalPoint) -> List[Matching]:
    """All maximal matchings, by exhaustive search; a test oracle.

    Also the ground truth for the claim that unmatched sets agree across
    maximal matchings up to segment values.  The search reads the link
    table of (m, rho): with no linked pair the empty matching is the only
    maximal one, returned at once.  Otherwise every leaf goes through the
    same validation and maximality test as :func:`is_maximal_matching`.
    """
    x, y, links = _link_table(m, rho)
    if len(x) + len(y) > 12:
        raise TooLargeError("enumeration oracle capped at 12 indices")
    if not links:
        return [Matching(frozenset(), y, x)]
    results: List[Matching] = []
    # Depth-first over (next link position, used y indices, pairs so far);
    # each linked x index stays unmatched first, then takes its partners in
    # index order.  An x index without partners would have only that first
    # branch, so the links leave it out.
    stack: List[Tuple[int, FrozenSet[int], Tuple[Tuple[int, int], ...]]] = [(0, frozenset(), ())]
    while stack:
        k, used, pairs = stack.pop()
        if k == len(links):
            cand = _validated(m, x, y, pairs)
            if _is_maximal(m, links, cand):
                results.append(cand)
            continue
        j, partners = links[k]
        nexts = [(k + 1, used, pairs)]
        nexts += [(k + 1, used | {i}, pairs + ((i, j),)) for i in partners if i not in used]
        stack.extend(reversed(nexts))
    return results


def matching_equivalent(m: Multisegment, a: FrozenSet[int], b: FrozenSet[int]) -> bool:
    """Index sets are equivalent when they carry the same segment multiset.

    Equal segments sit next to each other in canonical order, so the
    segments of an index set taken in index order are already sorted, and
    two multisets agree exactly when those lists do.
    """
    if a == b:
        return True
    segs = m.segs
    return [segs[i - 1] for i in sorted(a)] == [segs[i - 1] for i in sorted(b)]


class DerivativeResult(NamedTuple):
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
    xt = frozenset((i, j) for (i, j) in cross_pairs(m, m2) if i in a and j in x2)
    yt = frozenset((i, j) for (i, j) in cross_pairs(m, m2, 1) if i in a and j in y2)
    return xt, yt
