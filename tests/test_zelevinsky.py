"""Pair sets, the involution, frontiers, matchings and derivatives."""

import gc
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mseg import conditions, zelevinsky
from mseg.cli import parse_mseg
from mseg.conditions import CoeffVector, lc_matrix
from mseg.errors import (
    EmptyMultisegmentError,
    InvalidMatchingError,
    PreconditionError,
    TooLargeError,
)
from mseg.linalg import MERSENNE61, RankConfig, sample_coeffs
from mseg.segments import CuspidalPoint, Multisegment, Segment, precedes
from mseg.zelevinsky import (
    Matching,
    best_matching,
    cross_pairs,
    derivative,
    enumerate_maximal_matchings,
    frontier_defined,
    is_maximal_matching,
    leading_indices,
    make_matching,
    matching_equivalent,
    mw_dual,
    mw_frontier,
    mw_step,
    rho_frontier,
    rho_sets,
    soc_cuspidal,
)


def S(b, e, line="0"):
    return Segment(line, b, e)


def M(*segs):
    return Multisegment(tuple(segs))


def drop_last(s):
    """[b, e-1], or None if s is a singleton."""
    return Segment(s.line, s.b, s.e - 1) if s.b < s.e else None


RHO = CuspidalPoint("0", 0)


def random_ms(rng, max_segments=6, box=4, max_len=4):
    k = rng.randint(0, max_segments)
    segs = []
    for _ in range(k):
        b = rng.randint(-box, box)
        segs.append(S(b, min(b + rng.randint(1, max_len) - 1, box)))
    return M(*segs)


class TestPairSets:
    def test_examples(self):
        m = M(S(1, 2), S(0, 1))
        assert cross_pairs(m, m) == [(2, 1)]
        assert cross_pairs(m, m, 1) == [(1, 1), (2, 1), (2, 2)]
        assert cross_pairs(M(S(3, 5)), M(S(3, 5))) == []
        assert cross_pairs(M(S(3, 5)), M(S(3, 5)), 1) == [(1, 1)]

    def test_cross_examples(self):
        assert cross_pairs(M(S(0, 0)), M(S(1, 1))) == [(1, 1)]
        assert cross_pairs(M(S(0, 0)), M(S(1, 1)), 1) == []
        assert cross_pairs(M(S(0, 1)), M(S(1, 2)), 1) == [(1, 1)]
        assert cross_pairs(M(S(0, 1, "a")), M(S(1, 2, "b"))) == []
        assert cross_pairs(M(S(0, 1, "a")), M(S(1, 2, "b")), 1) == []

    def test_diagonal_always_in_y(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_ms(rng)
            ys = cross_pairs(m, m, 1)
            assert all((i, i) in ys for i in range(1, len(m) + 1))

    def test_sum_decomposition(self):
        rng = random.Random(8)
        for _ in range(50):
            m, m2 = random_ms(rng, 4), random_ms(rng, 4)
            total = m + m2

            def values(ms, other, k):
                pairs = cross_pairs(ms, other, k)
                return Counter((ms.seg(i), other.seg(j)) for i, j in pairs)

            for k in (0, 1):  # the shift: X, then Y
                assert values(total, total, k) == (
                    values(m, m, k) + values(m2, m2, k) + values(m, m2, k) + values(m2, m, k)
                )


class TestLeadingIndices:
    def test_examples(self):
        assert leading_indices(M(S(1, 1), S(0, 0))) == [1, 2]
        assert leading_indices(M(S(0, 1))) == [1]
        assert leading_indices(M(S(1, 2), S(0, 2))) == [1]

    def test_zero_rejected(self):
        with pytest.raises(EmptyMultisegmentError):
            leading_indices(M())

    def test_chain_is_a_chain(self):
        rng = random.Random(9)
        for _ in range(100):
            m = random_ms(rng)
            if not m:
                continue
            chain = leading_indices(m)
            assert m.seg(chain[0]).end_point() == m.max_end()
            for a, b in zip(chain, chain[1:]):
                assert precedes(m.seg(b), m.seg(a))
                assert m.seg(b).e == m.seg(a).e - 1


def _walked_chain(segs):
    """The reference for ``zelevinsky._chain``: one tuple after another,
    stopping at another line or an end below e - 1."""
    chain = [0]
    line, e, b = segs[0]
    for k in range(1, len(segs)):
        line2, e2, b2 = segs[k]
        if line2 != line or e2 < e - 1:
            break
        if e2 == e - 1 and b2 < b:
            chain.append(k)
            e, b = e2, b2
    return chain


def _resorted_strip(segs):
    """The reference for ``zelevinsky._strip``: the stripped segment, and the
    remaining tuples shortened or dropped in place, then re-sorted."""
    chain = _walked_chain(segs)
    rest = list(segs)
    for k in reversed(chain):
        line, e, b = segs[k]
        if b < e:
            rest[k] = (line, e - 1, b)
        else:
            del rest[k]
    rest.sort(reverse=True)
    line, top, _ = segs[0]
    return Segment(line, segs[chain[-1]][1], top), rest


def _resorted_dual(m):
    """The reference for ``mw_dual``: strip and re-sort until nothing is left."""
    segs, out = [s.sort_key() for s in m.segs], []
    while segs:
        delta, segs = _resorted_strip(segs)
        out.append(delta)
    return Multisegment(tuple(out))


class _Counted(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


class TestChain:
    def test_equals_the_walk(self):
        # piles of equal and nested segments, some sharing one end, on up
        # to two lines; every strip of the involution is compared
        rng = random.Random(31)
        for _ in range(400):
            segs = []
            for _ in range(rng.randint(1, 6)):
                line, e = rng.choice("ab"), rng.randint(0, 4)
                segs += [(line, e, e - rng.randint(0, 3))] * rng.randint(1, 5)
            segs.sort(reverse=True)
            while segs:
                assert zelevinsky._chain(segs) == _walked_chain(segs)
                zelevinsky._strip(segs)

    def test_strip_equals_the_resorting_loop(self):
        # piles of equal and nested segments, some sharing one end, on up to
        # two lines: every strip keeps the order that re-sorting gives
        rng = random.Random(47)
        for _ in range(400):
            segs = []
            for _ in range(rng.randint(1, 6)):
                line, e = rng.choice("ab"), rng.randint(0, 4)
                segs += [(line, e, e - rng.randint(0, 3))] * rng.randint(1, 5)
            segs.sort(reverse=True)
            m = Multisegment(tuple(Segment(line, b, e) for line, e, b in segs))
            assert mw_dual.__wrapped__(m) == _resorted_dual(m)
            while segs:
                want = _resorted_strip(segs)
                assert zelevinsky._strip(segs) == want[0] and segs == want[1]

    def test_equal_segments_are_jumped(self):
        # the walk read all 4,096 tuples of 4096*[0,0]; bisection reads
        # about log2(4096) of them
        segs = _Counted([("0", 0, 0)] * 4096)
        assert zelevinsky._chain(segs) == [0]
        assert segs.reads < 20


class TestInvolution:
    def test_step_examples(self):
        assert mw_step(M(S(1, 1), S(0, 0))) == (S(0, 1), M())
        assert mw_step(M(S(0, 1))) == (S(1, 1), M(S(0, 0)))
        assert mw_step(M(S(1, 2), S(0, 1))) == (S(1, 2), M(S(1, 1), S(0, 0)))

    def test_step_preserves_supp(self):
        rng = random.Random(10)
        for _ in range(100):
            m = random_ms(rng)
            if not m:
                continue
            delta, reduced = mw_step(m)
            assert reduced.supp() + M(delta).supp() == m.supp()

    def test_dual_examples(self):
        assert mw_dual(M(S(1, 1), S(0, 0))) == M(S(0, 1))
        assert mw_dual(M(S(0, 1))) == M(S(1, 1), S(0, 0))
        assert mw_dual(M()) == M()

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(300):
            m = random_ms(rng)
            md = mw_dual(m)
            assert mw_dual(md) == m
            assert md.supp() == m.supp()

    def test_involution_multiline(self):
        m = M(S(0, 1, "a"), S(1, 1, "a"), S(0, 0, "b"), S(0, 1, "b"))
        assert mw_dual(mw_dual(m)) == m

    @settings(deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.builds(
                    lambda line, b, n: S(b, b + n, line),
                    st.sampled_from("abcd"[:k]),
                    st.integers(-2, 3),
                    st.integers(0, 3),
                ),
                max_size=12,
            )
        )
    )
    def test_dual_is_the_sum_over_lines(self, segs):
        # the involution of m is the sum of the involutions of its lines
        m = M(*segs)
        parts = [mw_dual(M(*(s for s in segs if s.line == line))) for line in m.lines()]
        assert mw_dual(m) == sum(parts, M())

    def test_delta_is_minimal_top_segment_of_dual(self):
        rng = random.Random(12)
        for _ in range(100):
            m = random_ms(rng)
            if not m:
                continue
            delta, _ = mw_step(m)
            md = mw_dual(m)
            tops = [s for s in md if s.end_point() == m.max_end()]
            assert tops and min(tops) == delta


class TestFrontier:
    def test_example_not_bijective(self):
        xt, yt, f = mw_frontier(M(S(0, 0)), M(S(1, 1)))
        assert set(xt) == {(1, 1)} and len(yt) == 0 and f == {}
        _, sumr = mw_step(M(S(0, 0)) + M(S(1, 1)))
        _, m2r = mw_step(M(S(1, 1)))
        assert sumr != M(S(0, 0)) + m2r

    def test_example_bijective(self):
        xt, yt, f = mw_frontier(M(S(0, 0)), M(S(0, 1)))
        assert len(xt) == 0 and len(yt) == 0 and f == {}
        _, sumr = mw_step(M(S(0, 0)) + M(S(0, 1)))
        _, m2r = mw_step(M(S(0, 1)))
        assert sumr == M(S(0, 0)) + m2r

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            mw_frontier(M(S(1, 1)), M(S(0, 0)))
        with pytest.raises(PreconditionError):
            mw_frontier(M(), M(S(0, 0)))
        with pytest.raises(PreconditionError):
            mw_frontier(M(S(0, 0, "a")), M(S(1, 1, "b")))

    def test_agrees_with_set_difference(self):
        # frontier sets equal the literal difference against the reduced
        # second argument, tracked through index identity
        rng = random.Random(13)
        done = 0
        while done < 60:
            m, m2 = random_ms(rng, 4), random_ms(rng, 4)
            if not m or not m2 or not m.max_end() < m2.max_end():
                continue
            done += 1
            xt, yt, f = mw_frontier(m, m2)
            chain = set(leading_indices(m2))
            reduced = {
                i: (drop_last(m2.seg(i)) if i in chain else m2.seg(i))
                for i in range(1, len(m2) + 1)
            }

            def cross_with_reduced(rel):
                keep = set()
                for i in range(1, len(m) + 1):
                    for j, seg in reduced.items():
                        if seg is not None and rel(m.seg(i), seg):
                            keep.add((i, j))
                return keep

            shifted = lambda a, b: a.line == b.line and a.b <= b.b <= a.e <= b.e
            xs, ys = cross_pairs(m, m2), cross_pairs(m, m2, 1)
            assert set(xt) == set(xs) - cross_with_reduced(precedes)
            assert set(yt) == set(ys) - cross_with_reduced(shifted)

    def test_monotone_injective_surjective_iff(self):
        rng = random.Random(14)
        done = 0
        while done < 80:
            m, m2 = random_ms(rng, 5), random_ms(rng, 5)
            if not m or not m2 or not m.max_end() < m2.max_end():
                continue
            done += 1
            xt, yt, f = mw_frontier(m, m2)
            chain = leading_indices(m2)
            pos = {idx: k for k, idx in enumerate(chain)}
            # injective and into xt
            assert len(set(f.values())) == len(f)
            assert set(f.values()) <= xt
            # strictly monotone for (first index, chain position)
            keys = sorted(f, key=lambda pr: (pr[0], pos[pr[1]]))
            for a, b in zip(keys, keys[1:]):
                fa, fb = f[a], f[b]
                assert (fa[0], pos[fa[1]]) < (fb[0], pos[fb[1]])
            # onto iff reduction commutes with adding m
            _, sumr = mw_step(m + m2)
            _, m2r = mw_step(m2)
            assert (len(f) == len(xt)) == (sumr == m + m2r)
            if len(xt) <= len(yt):
                assert len(f) == len(xt)


class TestRhoSets:
    def test_examples(self):
        assert rho_sets(M(S(0, 1), S(1, 2)), RHO) == (frozenset({1}), frozenset({2}))
        assert rho_sets(M(S(0, 1), S(0, 2)), RHO) == (frozenset(), frozenset({1, 2}))
        assert rho_sets(M(S(2, 3)), RHO) == (frozenset(), frozenset())


class TestMatching:
    def test_best_matching_examples(self):
        r = best_matching(M(S(0, 1), S(1, 2)), RHO)
        assert r.pairs == frozenset({(2, 1)})
        assert r.a_set == frozenset() and r.b_set == frozenset()

        m = M(S(0, 1), S(0, 2), S(1, 3))
        r = best_matching(m, RHO)
        assert r.pairs == frozenset({(2, 1)})
        assert {m.seg(i) for i in r.a_set} == {S(0, 1)}

        m = M(S(2, 3), S(3, 4))  # x side empty for rho=0
        r = best_matching(m, RHO)
        assert r.pairs == frozenset() and r.a_set == frozenset()

    def test_is_maximal_examples(self):
        m = M(S(0, 1), S(1, 2))
        assert is_maximal_matching(m, RHO, best_matching(m, RHO))
        empty = make_matching(m, RHO, [])
        assert not is_maximal_matching(m, RHO, empty)
        no_x = M(S(0, 1), S(0, 2))
        assert is_maximal_matching(no_x, RHO, make_matching(no_x, RHO, []))

    def test_invalid_matchings_rejected(self):
        m = M(S(0, 1), S(1, 2))
        with pytest.raises(InvalidMatchingError):
            make_matching(m, RHO, [(1, 2)])  # wrong sides
        big = M(S(0, 1), S(0, 2), S(1, 3), S(1, 4))
        with pytest.raises(InvalidMatchingError):
            make_matching(big, RHO, [(3, 1), (3, 2)])  # not one-to-one

    def test_frozen_and_slotted(self):
        r = best_matching(M(S(0, 1), S(1, 2)), RHO)
        with pytest.raises(AttributeError):
            r.pairs = frozenset()
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(r, "extra", 1)

    def test_enumeration_examples(self):
        assert len(enumerate_maximal_matchings(M(S(0, 1), S(1, 2)), RHO)) == 1
        only = enumerate_maximal_matchings(M(S(0, 1), S(0, 2)), RHO)
        assert len(only) == 1 and only[0].pairs == frozenset()
        ms = enumerate_maximal_matchings(M(S(0, 1), S(0, 2), S(1, 3), S(1, 4)), RHO)
        assert len(ms) >= 2

    def test_enumeration_cap(self):
        m = M(*[S(0, 1)] * 7, *[S(1, 2)] * 7)
        with pytest.raises(TooLargeError):
            enumerate_maximal_matchings(m, RHO)

    def test_enumeration_leaves_no_garbage_cycle(self):
        # the search frees everything it built when it returns, without
        # waiting for the cyclic collector
        m = M(S(0, 1), S(0, 2), S(1, 3), S(1, 2), S(0, 0), S(1, 1))
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                assert enumerate_maximal_matchings(m, RHO)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_best_agrees_with_oracle(self):
        rng = random.Random(15)
        for _ in range(80):
            m = random_ms(rng, 5, 3, 3)
            best = best_matching(m, RHO)
            assert is_maximal_matching(m, RHO, best)
            crossings = [
                1
                for (i1, j1) in best.pairs
                for (i2, j2) in best.pairs
                if m.seg(i1) < m.seg(i2)
                and precedes(m.seg(i2), m.seg(j1))
                and m.seg(j1) < m.seg(j2)
            ]
            assert not crossings
            for other in enumerate_maximal_matchings(m, RHO):
                assert matching_equivalent(m, best.a_set, other.a_set)
                assert matching_equivalent(m, best.b_set, other.b_set)


class TestDerivative:
    def test_examples(self):
        dv = derivative(M(S(0, 1), S(0, 2)), RHO)
        assert dv.mu == 2 and dv.derived == M(S(1, 1), S(1, 2))
        dv = derivative(M(S(0, 1), S(1, 2)), RHO)
        assert dv.mu == 0 and dv.derived == M(S(0, 1), S(1, 2))
        dv = derivative(M(S(2, 3)), RHO)
        assert dv.mu == 0 and dv.derived == M(S(2, 3))

    def test_soc_examples(self):
        assert soc_cuspidal(M(S(1, 2)), RHO) == M(S(0, 2))
        assert soc_cuspidal(M(S(0, 1), S(1, 2)), RHO) == M(S(0, 0), S(0, 1), S(1, 2))
        assert soc_cuspidal(M(), RHO) == M(S(0, 0))

    def test_soc_inverts_derivative_on_supp(self):
        rng = random.Random(16)
        for _ in range(120):
            m = random_ms(rng)
            if not m:
                continue
            rho = rng.choice(sorted(m.supp()))
            dv = derivative(m, rho)
            back = dv.derived
            for _ in range(dv.mu):
                back = soc_cuspidal(back, rho)
            assert back.supp() == m.supp()


class TestRhoFrontier:
    def test_examples(self):
        xt, yt = rho_frontier(M(S(0, 2)), M(S(0, 0), S(1, 1)), RHO)
        assert len(xt) == 0 and len(yt) == 0
        xt, yt = rho_frontier(M(S(0, 1), S(1, 2)), M(S(0, 0)), RHO)
        assert len(xt) == 0 and len(yt) == 0
        xt, yt = rho_frontier(M(S(0, 2)), M(S(1, 3)), RHO)
        assert set(xt) == {(1, 1)} and len(yt) == 0

    def test_inequality_when_separated(self):
        rng = random.Random(17)
        done = 0
        while done < 80:
            m, m2 = random_ms(rng, 4), random_ms(rng, 4)
            if not m:
                continue
            rho = rng.choice(sorted(m.supp()))
            if derivative(m2, rho).mu != 0:
                continue
            done += 1
            xt, yt = rho_frontier(m, m2, rho)
            assert len(xt) >= len(yt)


# ---------------------------------------------------------------------------
# differential tests: the segment-walking kernels against index-loop
# references that look every segment up by its 1-based position
# ---------------------------------------------------------------------------


def ref_pairset_x_cross(m, m2):
    return frozenset(
        (i, j)
        for i in range(1, len(m) + 1)
        for j in range(1, len(m2) + 1)
        if precedes(m.seg(i), m2.seg(j))
    )


def ref_pairset_y_cross(m, m2):
    def shifted(d, d2):
        return d.line == d2.line and d.b <= d2.b <= d.e <= d2.e

    return frozenset(
        (i, j)
        for i in range(1, len(m) + 1)
        for j in range(1, len(m2) + 1)
        if shifted(m.seg(i), m2.seg(j))
    )


def ref_rho_sets(m, rho):
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


def ref_leading_indices(m):
    top = m.max_end()
    chain, cur = [], None
    for i in range(1, len(m) + 1):
        if m.seg(i).end_point() == top:
            chain.append(i)
            cur = m.seg(i)
            break
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


def ref_mw_step(m):
    chain = ref_leading_indices(m)
    ends = [m.seg(i).e for i in chain]
    delta = Segment(m.seg(chain[0]).line, min(ends), max(ends))
    reduced = []
    for i in range(1, len(m) + 1):
        if i in chain:
            t = drop_last(m.seg(i))
            if t is not None:
                reduced.append(t)
        else:
            reduced.append(m.seg(i))
    return delta, Multisegment(tuple(reduced))


def ref_mw_dual(m):
    out = []
    for line in m.lines():
        sub = Multisegment(tuple(s for s in m.segs if s.line == line))
        while sub:
            delta, sub = ref_mw_step(sub)
            out.append(delta)
    return Multisegment(tuple(out))


def ref_mw_frontier(m, m2):
    """The frontier by set lookups over chain x m, with the hypothesis
    tested in three steps."""
    if not m or not m2:
        raise PreconditionError("frontier needs nonzero multisegments")
    lines = set(m.lines()) | set(m2.lines())
    if len(lines) != 1:
        raise PreconditionError("frontier is defined per line")
    if not m.max_end() < m2.max_end():
        raise PreconditionError("max end of m must be below max end of m2")

    chain = leading_indices(m2)
    x_cross, y_cross = set(cross_pairs(m, m2)), set(cross_pairs(m, m2, 1))

    xt = set()
    yt = set()
    f = {}
    for pos, idx in enumerate(chain):
        end = m2.segs[idx - 1].e
        for i, d in enumerate(m.segs, 1):
            if (i, idx) in x_cross and d.e == end - 1:
                xt.add((i, idx))
            if pos >= 1 and (i, idx) in y_cross and d.e == end:
                yt.add((i, idx))
                f[(i, idx)] = (i, chain[pos - 1])
    return frozenset(xt), frozenset(yt), f


def ref_make_matching(m, rho, pairs):
    x, y = ref_rho_sets(m, rho)
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


def ref_is_maximal(m, rho, r):
    x, y = ref_rho_sets(m, rho)
    r = ref_make_matching(m, rho, r.pairs)
    fwd, bwd = r.forward(), r.backward()
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


def ref_enumerate(m, rho):
    x, y = ref_rho_sets(m, rho)
    if len(x) + len(y) > 12:
        raise TooLargeError("enumeration oracle capped at 12 indices")
    xs, results = sorted(x), []

    def extend(k, used, pairs):
        if k == len(xs):
            cand = ref_make_matching(m, rho, pairs)
            if ref_is_maximal(m, rho, cand):
                results.append(cand)
            return
        extend(k + 1, used, pairs)
        for i in sorted(y - used):
            if precedes(m.seg(i), m.seg(xs[k])):
                extend(k + 1, used | {i}, pairs + ((i, xs[k]),))

    extend(0, frozenset(), ())
    return results


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (InvalidMatchingError, TooLargeError) as e:
        return type(e), str(e)


# two lines and small coordinates, so segments link often; every drawn
# segment appears one to three times
line_segments = st.builds(
    lambda line, b, n: S(b, b + n, line),
    st.sampled_from(["0", "a"]),
    st.integers(-2, 3),
    st.integers(0, 3),
)
repeated_ms = st.lists(st.tuples(line_segments, st.integers(1, 3)), max_size=4).map(
    lambda drawn: M(*[s for s, copies in drawn for _ in range(copies)])
)
# (m, rho) with at least one extra segment beginning at rho = 0 and one
# beginning one step right of it, so that both rho sets fill and matchings
# have choices
matching_cases = st.builds(
    lambda m, ys, xs, line: (
        m + M(*[S(0, n, line) for n in ys], *[S(1, 1 + n, line) for n in xs]),
        CuspidalPoint(line, 0),
    ),
    repeated_ms,
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.sampled_from(["0", "a"]),
)


# up to three lines and up to 39 segments a side, each drawn segment one
# to three times, so that lines interleave and equal segments tie
three_line_segments = st.builds(
    lambda line, b, n: S(b, b + n, line),
    st.sampled_from(["0", "a", "b"]),
    st.integers(-3, 4),
    st.integers(0, 3),
)
wide_ms = st.lists(st.tuples(three_line_segments, st.integers(1, 3)), max_size=13).map(
    lambda drawn: M(*[s for s, copies in drawn for _ in range(copies)])
)


def long_ms(lines):
    """Up to 40 segments of length up to 15 over a wide begin range, on
    lines drawn from ``lines``: long segments that begin early hold the
    walk's lower pointer back, and two pools that differ give each side a
    line the other lacks."""
    segment = st.builds(
        lambda line, b, n: S(b, b + n, line),
        st.sampled_from(lines),
        st.integers(-12, 12),
        st.integers(0, 14),
    )
    return st.lists(st.tuples(segment, st.integers(1, 2)), max_size=20).map(
        lambda drawn: M(*[s for s, copies in drawn for _ in range(copies)])
    )


# the references are slow by design; no example may fail on time alone
no_deadline = settings(deadline=None)


LARGE = Path(__file__).resolve().parents[1] / "msegbench" / "large.json"


def ref_cross_pairs(m, m2):
    return sorted(ref_pairset_x_cross(m, m2)), sorted(ref_pairset_y_cross(m, m2))


def both_walks(m, m2):
    """X(m, m2) and Y(m, m2): the walks at shift 0 and 1."""
    return cross_pairs(m, m2), cross_pairs(m, m2, 1)


def sampled_sides(m):
    """Coefficients over X(m) for both sides of LC(m, m), drawn on streams 0
    and 1."""
    xs = cross_pairs(m, m)
    return tuple(
        CoeffVector(sample_coeffs(xs, MERSENNE61, 0, 1, stream)) for stream in (0, 1)
    )


class TestCrossPairs:
    @no_deadline
    @given(wide_ms, wide_ms)
    def test_one_walk_against_index_loops(self, m, m2):
        # both lists, in sorted pair order
        assert both_walks(m, m2) == ref_cross_pairs(m, m2)
        assert both_walks(m, m) == ref_cross_pairs(m, m)

    @no_deadline
    @given(long_ms(["a", "b", "c"]), long_ms(["b", "c", "d"]))
    def test_long_segments_and_one_sided_lines(self, m, m2):
        for a, b in ((m, m2), (m, m), (m2, m2), (m2, m)):
            assert both_walks(a, b) == ref_cross_pairs(a, b)

    def test_large_benchmark_inputs(self):
        # every input of the large workload, read and left as it is
        for items in json.loads(LARGE.read_text()).values():
            for item in items:
                ms = [parse_mseg(text) for text in item["inputs"]]
                for a in ms:
                    for b in ms:
                        assert both_walks(a, b) == ref_cross_pairs(a, b)

    def test_partner_behind_a_held_lower_pointer(self):
        # [0,12] heads m2's line and begins before every segment of m, so
        # the run of [3,4] still starts there; [10,11] begins past 4 + 1
        # but sits behind it, and the short partner [4,5] comes after both
        m, m2 = M(S(8, 9), S(3, 4)), M(S(0, 12), S(10, 11), S(4, 5))
        assert m2.segs == (S(0, 12), S(10, 11), S(4, 5))
        assert both_walks(m, m2) == ([(1, 2), (2, 3)], [(2, 3)]) == ref_cross_pairs(m, m2)

    @no_deadline
    @given(wide_ms)
    def test_gls_layout_equals_layout_of_an_equal_copy(self, m):
        # the shortcut for m2 identical to m gives the values of the general
        # walk; sampled coefficients, distinct per side, compare signs and keys
        copy = Multisegment(m.segs)
        assert copy == m and copy is not m
        lam, lam2 = sampled_sides(m)
        assert lc_matrix(m, m, lam, lam2) == lc_matrix(m, copy, lam, lam2)

    def test_walks_per_layout(self, monkeypatch):
        # one walk when m2 is m or there are no rows, three otherwise, no
        # precedence calls in the walk, and every walk at shift 0: a check
        # and the matrix builder list X only, never Y
        walks, shifts = [], []

        def counted(m, m2, shift=0):
            walks.append((m, m2))
            shifts.append(shift)
            return cross_pairs(m, m2, shift)

        def refuse(*args):
            raise AssertionError("precedence tested outside the walk")

        monkeypatch.setattr(conditions, "cross_pairs", counted)
        monkeypatch.setattr(zelevinsky, "precedes", refuse)
        m = M(S(1, 2), S(-1, 1), S(0, 0), S(-2, -1), S(0, 1, "a"), S(1, 2, "a"))
        copy = Multisegment(m.segs)
        lam, lam2 = sampled_sides(m)
        assert walks == []
        lc_matrix(m, m, lam, lam2)
        assert walks == [(m, m)]
        walks.clear()
        lc_matrix(m, copy, lam, lam2)
        assert len(walks) == 3
        walks.clear()
        conditions._decide.__wrapped__(m, m, RankConfig(seed=5), True)
        assert walks == [(m, m)]
        # no rows: one walk, though m2 is not m and X(m) is not empty
        walks.clear()
        m, m2 = M(S(1, 1), S(0, 0)), M(S(5, 5))
        v = conditions._decide.__wrapped__(m, m2, RankConfig(), False)
        assert walks == [(m, m2)] and cross_pairs(m, m)
        assert v.holds and v.witness == (CoeffVector({}), CoeffVector({}))
        assert lc_matrix(m, m2, *v.witness) == []
        assert shifts == [0] * 9  # 1 + 3 + 1 + 1 walks above, and 3 for the last matrix

    @no_deadline
    @given(wide_ms, wide_ms)
    def test_walk_is_precedes_at_each_shift(self, m, m2):
        # the walk at shift k against index loops over the one relation
        for k in (0, 1):
            assert cross_pairs(m, m2, k) == [
                (i, j)
                for i in range(1, len(m) + 1)
                for j in range(1, len(m2) + 1)
                if precedes(m.seg(i), m2.seg(j), k)
            ]


class TestAgainstIndexLoops:
    @no_deadline
    @given(matching_cases)
    def test_rho_sets(self, case):
        m, rho = case
        assert rho_sets(m, rho) == ref_rho_sets(m, rho)

    @no_deadline
    @given(repeated_ms)
    def test_involution(self, m):
        if not m:
            with pytest.raises(EmptyMultisegmentError):
                mw_step(m)
            assert mw_dual(m) == M()
            return
        chain = leading_indices(m)
        assert chain == ref_leading_indices(m)
        assert chain[0] == 1
        assert mw_step(m) == ref_mw_step(m)
        assert mw_dual(m) == ref_mw_dual(m)

    def test_mw_frontier_exhaustive(self):
        # every pair of at most two segments in [-1, 3] on one line, and each
        # of those beside a segment on a second line
        segs = [S(b, e) for b in range(-1, 4) for e in range(b, 4)]
        box = [M(*c) for k in range(3) for c in itertools.combinations_with_replacement(segs, k)]
        box += [m + M(S(0, 1, "a")) for m in box[1:16]]
        defined = 0
        for m in box:
            for m2 in box:
                try:
                    want = ref_mw_frontier(m, m2)
                except PreconditionError:
                    assert not frontier_defined(m, m2)
                    with pytest.raises(PreconditionError):
                        mw_frontier(m, m2)
                    continue
                assert frontier_defined(m, m2)
                assert mw_frontier(m, m2) == want
                defined += 1
        assert len(box) ** 2 == 151 ** 2 and defined > 1000

    @no_deadline
    @given(matching_cases)
    def test_enumeration(self, case):
        m, rho = case
        assert outcome(enumerate_maximal_matchings, m, rho) == outcome(ref_enumerate, m, rho)

    def test_matchings_exhaustive(self):
        # every multisegment of at most 4 segments in [0, 3], at every rho
        # from -1 to 3; the random cases above may never draw an instance
        # without a linked pair, where the link table returns at once
        box = [S(b, e) for b in range(4) for e in range(b, 4)]
        cases = unlinked = 0
        for k in range(5):
            for combo in itertools.combinations_with_replacement(box, k):
                m = M(*combo)
                for pos in range(-1, 4):
                    rho = CuspidalPoint("0", pos)
                    got = enumerate_maximal_matchings(m, rho)
                    assert got == ref_enumerate(m, rho)
                    best = best_matching(m, rho)
                    assert ref_is_maximal(m, rho, best)
                    x, y = ref_rho_sets(m, rho)
                    if not any(precedes(m.seg(i), m.seg(j)) for i in y for j in x):
                        assert got == [Matching(frozenset(), y, x)] == [best]
                        unlinked += 1
                    cases += 1
        assert cases == 5005 and 0 < unlinked < cases

    @no_deadline
    @given(matching_cases, st.data())
    def test_validation_and_maximality(self, case, data):
        m, rho = case
        # pairs drawn from y x x: some violate precedence, some repeat an index
        x, y = ref_rho_sets(m, rho)
        candidates = sorted((i, j) for i in y for j in x)
        pairs = data.draw(st.lists(st.sampled_from(candidates), max_size=3))
        got, want = outcome(make_matching, m, rho, pairs), outcome(ref_make_matching, m, rho, pairs)
        assert got == want
        if isinstance(want, Matching):
            assert is_maximal_matching(m, rho, got) == ref_is_maximal(m, rho, want)

    @given(repeated_ms.filter(bool), st.data())
    def test_matching_equivalent(self, m, data):
        # arbitrary index subsets against the multiset definition; the
        # others are any subset, one of the same size, and the first with
        # indices swapped for copies of their segments, so that unequal
        # sets of one size carry equal and unequal multisets
        indices = st.integers(1, len(m))
        a = data.draw(st.frozensets(indices))
        any_set = data.draw(st.frozensets(indices))
        same_size = data.draw(st.frozensets(indices, min_size=len(a), max_size=len(a)))
        copies = frozenset(
            data.draw(st.sampled_from([k for k, s in enumerate(m.segs, 1) if s == m.seg(i)]))
            for i in a
        )
        for other in (any_set, same_size, copies):
            want = Counter(m.seg(i) for i in a) == Counter(m.seg(i) for i in other)
            assert matching_equivalent(m, a, other) == want
            assert matching_equivalent(m, other, a) == want
