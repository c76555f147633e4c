"""Segment and multisegment basics: construction, orders, surgeries, filters."""

import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mseg
from mseg.errors import EmptyMultisegmentError, EmptySegmentError
from mseg.segments import (
    CuspidalPoint,
    Multisegment,
    Segment,
    ms_filter,
    precedes,
)


def S(b, e, line="0"):
    return Segment(line, b, e)


def M(*segs):
    return Multisegment(tuple(segs))


segments = st.builds(
    lambda b, n: S(b, b + n), st.integers(-6, 6), st.integers(0, 5)
)
multisegments = st.lists(segments, max_size=6).map(lambda ss: M(*ss))


class TestSegment:
    def test_construction(self):
        s = Segment("0", 1, 2)
        assert (s.b, s.e) == (1, 2)
        assert len(Segment("0", 0, 0)) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptySegmentError):
            Segment("0", 3, 1)

    def test_point_membership(self):
        s = S(0, 2)
        assert s.contains(CuspidalPoint("0", 1))
        assert not s.contains(CuspidalPoint("0", 3))
        assert not s.contains(CuspidalPoint("a", 1))

    def test_surgeries(self):
        assert S(0, 2).drop_last() == S(0, 1)
        assert S(0, 0).drop_first() is None
        assert S(0, 0).drop_last() is None
        assert S(1, 2).dual() == S(-2, -1)
        assert S(0, 1).extend_left() == S(-1, 1)
        assert S(0, 1).shift(1) == S(1, 2)
        assert S(0, 1).shift(-1) == S(-1, 0)


class TestPrecedes:
    def test_examples(self):
        assert precedes(S(0, 1), S(1, 2))
        assert not precedes(S(0, 0), S(0, 1))
        assert not precedes(S(0, 2), S(1, 1))
        assert not precedes(S(0, 1, "a"), S(1, 2, "b"))

    def test_irreflexive(self):
        assert not precedes(S(0, 1), S(0, 1))

    @given(segments, segments)
    def test_precedes_implies_less(self, d, d2):
        if precedes(d, d2):
            assert d.sort_key() < d2.sort_key()

    def test_shift_equivalences_exhaustive(self):
        # both shifted forms agree with the containment form on a small box
        box = [S(b, e) for b in range(-3, 4) for e in range(b, 4)]
        for d in box:
            for d2 in box:
                lhs = precedes(d.shift(-1), d2)
                mid = precedes(d, d2.shift(1))
                rhs = d.contains(d2.begin_point()) and d2.contains(d.end_point())
                assert lhs == mid == rhs

    def test_shift_one_is_the_y_relation(self):
        # precedes at shift 1 is the relation of the Y pairs, and at any
        # shift it is precedence over the moved segment, on two lines
        box = [S(b, e, line) for line in ("0", "a") for b in range(-2, 4) for e in range(b, 4)]
        for d in box:
            for d2 in box:
                y = d.line == d2.line and d.b <= d2.b <= d.e <= d2.e
                assert precedes(d, d2, 1) == y
                assert precedes(d, d2, 1) == precedes(d, d2.shift(1))
                assert precedes(d, d2, 0) == precedes(d, d2)


class TestTotalOrder:
    def test_examples(self):
        assert S(0, 1).sort_key() < S(1, 1).sort_key()  # superset with equal ends
        assert S(0, 1).sort_key() < S(1, 2).sort_key()
        assert S(0, 1).sort_key() == S(0, 1).sort_key()

    def test_equal_end_containment(self):
        # with equal ends, smaller means containing
        assert S(0, 3) <= S(1, 3) and S(1, 3) >= S(0, 3)

    def test_lines_compared_first(self):
        assert S(5, 9, "a") < S(0, 0, "b")


class TestMultisegment:
    def test_canonical_order(self):
        m = M(S(0, 1), S(1, 2))
        assert m.segs == (S(1, 2), S(0, 1))

    def test_supp(self):
        got = (M(S(0, 1)) + M(S(1, 2))).supp()
        want = Counter(
            {
                CuspidalPoint("0", 0): 1,
                CuspidalPoint("0", 1): 2,
                CuspidalPoint("0", 2): 1,
            }
        )
        assert got == want

    def test_dual(self):
        assert M(S(1, 2), S(-1, 0)).dual() == M(S(0, 1), S(-2, -1))

    def test_max_end(self):
        assert M(S(0, 1), S(1, 2)).max_end() == CuspidalPoint("0", 2)
        with pytest.raises(EmptyMultisegmentError):
            M().max_end()

    @given(multisegments)
    def test_dual_involution(self, m):
        assert m.dual().dual() == m
        assert m.dual().supp() == Counter(
            {CuspidalPoint(pt.line, -pt.pos): c for pt, c in m.supp().items()}
        )

    @given(multisegments, multisegments)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(multisegments, multisegments, multisegments)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(multisegments)
    def test_canonical_never_precedes_forward(self, m):
        for i in range(1, len(m) + 1):
            for j in range(i + 1, len(m) + 1):
                assert not precedes(m.seg(i), m.seg(j))


class TestLadder:
    def test_examples(self):
        assert M(S(1, 2), S(0, 1)).is_ladder()
        assert not M(S(0, 1), S(0, 2)).is_ladder()
        assert M(S(0, 0)).is_ladder()
        assert M().is_ladder()

    @given(multisegments)
    def test_dual_preserves_ladders(self, m):
        if m.is_ladder():
            assert m.dual().is_ladder()


class TestFilter:
    def test_examples(self):
        m = M(S(1, 2), S(0, 1))
        assert ms_filter(m, "ge_seg", S(1, 1)) == M(S(1, 2))
        assert ms_filter(m, "end_in", S(1, 1)) == M(S(0, 1))
        assert ms_filter(m, "begin_in", S(0, 0)) == M(S(0, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ms_filter(M(), "weird", S(0, 0))


class TestValueTypes:
    @given(
        st.lists(segments, max_size=6).flatmap(
            lambda ss: st.tuples(st.just(ss), st.permutations(ss))
        )
    )
    def test_permuted_segments_equal_and_hash_equal(self, pair):
        segs, shuffled = pair
        a, b = M(*segs), M(*shuffled)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == f"Multisegment(segs={a.segs!r})"

    def test_frozen_and_slotted(self):
        for value, attr in ((S(0, 1), "b"), (M(S(0, 1)), "segs"), (CuspidalPoint("0", 1), "pos")):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
            assert not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                object.__setattr__(value, "extra", 1)

    def test_pickle_rebuilds_the_hash(self):
        # string hashes differ between processes, so an unpickled
        # multisegment must hash its segments afresh
        m = M(S(0, 2, "a"), S(1, 3, "b"), S(1, 3, "b"))
        assert pickle.loads(pickle.dumps(m)) == m
        env = dict(
            os.environ,
            PYTHONHASHSEED="1",
            PYTHONPATH=str(Path(mseg.__file__).resolve().parents[1]),
        )
        code = "import pickle, sys; m = pickle.load(sys.stdin.buffer); print(hash(m) == hash(m.segs))"
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(m), env=env, capture_output=True, check=True
        )
        assert out.stdout == b"True\n"
