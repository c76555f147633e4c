"""Condition matrices and the randomized verdict protocol."""

import hashlib
import io
import json
import random
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from exact_rank import rank_exact
from hypothesis import assume, given, settings, strategies as st

from mseg import conditions, harness
from mseg.cli import parse_mseg, run
from mseg.conditions import (
    CoeffVector,
    check_gls,
    check_ig,
    check_lc,
    lc_matrix,
    li_for_good,
)
from mseg.errors import NotApplicableError, SupportMismatchError
from mseg.harness import GenParams, gen_ms
from mseg.linalg import MERSENNE61, RankConfig, hall_violator, sample_coeffs
from mseg.segments import Multisegment, Segment
from mseg.zelevinsky import cross_pairs


def S(b, e, line="0"):
    return Segment(line, b, e)


def M(*segs):
    return Multisegment(tuple(segs))


LECLERC = M(S(1, 2), S(-1, 1), S(0, 0), S(-2, -1))
FIVE_SEG = M(S(1, 3), S(-2, 2), S(-1, 1), S(0, 0), S(-3, -1))
# LC([2,3]+[0,2]+[-1,2], [3,3]+[3,3]+[2,2]) is FALSE over the rationals with
# rows that match, and the reverse has no rows; with one on each line, LC
# is FALSE that way in both directions
IG_CANCELLING = (
    parse_mseg("a:[2,3]+a:[0,2]+a:[-1,2]+b:[3,3]+b:[3,3]+b:[2,2]"),
    parse_mseg("a:[3,3]+a:[3,3]+a:[2,2]+b:[2,3]+b:[0,2]+b:[-1,2]"),
)
CFG = RankConfig()


def random_ms(rng, max_segments=5, box=4, max_len=4, lines=("0",)):
    k = rng.randint(0, max_segments)
    segs = []
    for _ in range(k):
        b = rng.randint(-box, box)
        segs.append(S(b, min(b + rng.randint(1, max_len) - 1, box), rng.choice(lines)))
    return M(*segs)


def sampled(m, seed=0):
    xs = cross_pairs(m, m)
    return CoeffVector(sample_coeffs(xs, MERSENNE61, seed, 1))


def gls_reference(m, lam):
    """The GLS rows of m for lam, dense over all of Y, from the definition.

    Row (i, j) collects, for every index k, a +lam[k, j] contribution at
    column (i, k) when (k, j) is a precedence pair and (i, k) a shifted one,
    and a -lam[i, k] contribution at column (k, j) in the mirrored case.
    """
    xs, ys = cross_pairs(m, m), cross_pairs(m, m, 1)
    xset = set(xs)
    col = {pair: c for c, pair in enumerate(ys)}
    rows = []
    for i, j in xs:
        row = [0] * len(col)
        for k in range(1, len(m) + 1):
            if (k, j) in xset and (i, k) in col:
                row[col[(i, k)]] += lam.get(k, j)
            if (i, k) in xset and (k, j) in col:
                row[col[(k, j)]] -= lam.get(i, k)
        rows.append(row)
    return rows


def lc_reference(m, m2, lam, lam2):
    """The LC(m, m2) rows for (lam, lam2), dense over all of Y(m, m2), from
    the definition.

    Row (i, j), a cross precedence pair, collects for every index k of m2 a
    +lam2[k, j] contribution at column (i, k) when (k, j) is a precedence
    pair of m2 and (i, k) a cross shifted one, and for every index k of m a
    -lam[i, k] contribution at column (k, j) when (i, k) is a precedence
    pair of m and (k, j) a cross shifted one.
    """
    x1, x2 = set(cross_pairs(m, m)), set(cross_pairs(m2, m2))
    xs, ys = cross_pairs(m, m2), cross_pairs(m, m2, 1)
    col = {pair: c for c, pair in enumerate(ys)}
    rows = []
    for i, j in xs:
        row = [0] * len(col)
        for k in range(1, len(m2) + 1):
            if (k, j) in x2 and (i, k) in col:
                row[col[(i, k)]] += lam2.get(k, j)
        for k in range(1, len(m) + 1):
            if (i, k) in x1 and (k, j) in col:
                row[col[(k, j)]] -= lam.get(i, k)
        rows.append(row)
    return rows


def multisegments(lines, max_size=5):
    return st.lists(
        st.builds(
            lambda line, b, length: S(b, b + length, line),
            st.sampled_from(lines),
            st.integers(-3, 3),
            st.integers(0, 3),
        ),
        max_size=max_size,
    ).map(lambda segs: M(*segs))


def by_line(m, xs):
    """The pairs xs line by line, in ascending line order, each line in
    sorted pair order: the row order of lc_matrix."""
    lines = sorted({m.seg(x[0]).line for x in xs})
    return [x for ln in lines for x in xs if m.seg(x[0]).line == ln]


def dense(m, m2, rows):
    """Place lc_matrix's rows into the |X| x |Y| matrix of sorted pairs;
    each row is keyed by the Y pairs of its columns, which lie on its
    row's line."""
    xs, ys = cross_pairs(m, m2), cross_pairs(m, m2, 1)
    col = {y: c for c, y in enumerate(ys)}
    order = by_line(m, xs)
    assert len(rows) == len(order)
    out = {x: [0] * len(ys) for x in xs}
    for x, row in zip(order, rows):
        for y, v in row.items():
            assert m.seg(y[0]).line == m.seg(x[0]).line
            out[x][col[y]] = v
    return [out[x] for x in xs]


class TestGlsMatrix:
    """The GLS rows are the LC(m, m) rows with one vector on both sides."""

    def test_single_row_example(self):
        m = M(S(1, 2), S(0, 1))
        lam = CoeffVector({(2, 1): 1})
        # columns keyed by their Y pairs (1,1), (2,1), (2,2)
        assert lc_matrix(m, m, lam, lam) == [{(1, 1): -1, (2, 2): 1}]
        assert gls_reference(m, lam) == [[-1, 0, 1]]

    def test_zero_coefficients_zero_row(self):
        m = M(S(1, 2), S(0, 1))
        lam = CoeffVector({})
        assert dense(m, m, lc_matrix(m, m, lam, lam)) == [[0, 0, 0]]

    def test_single_segment_no_rows(self):
        m = M(S(0, 3))
        assert lc_matrix(m, m, CoeffVector({}), CoeffVector({})) == []

    def test_support_mismatch(self):
        # X(m) is {(2, 1)}: a key outside it is refused on either side
        m = M(S(1, 2), S(0, 1))
        zero, outside = CoeffVector({}), CoeffVector({(1, 2): 1})
        for lam, lam2 in ((outside, zero), (zero, outside)):
            with pytest.raises(SupportMismatchError):
                lc_matrix(m, m, lam, lam2)

    def test_cross_line_entries_vanish(self):
        m = M(S(0, 1), S(1, 2), S(0, 1, "a"), S(1, 2, "a"))
        lam = sampled(m)
        ref = gls_reference(m, lam)
        xs, ys = cross_pairs(m, m), cross_pairs(m, m, 1)
        for r, (i, _) in enumerate(xs):
            for c, (a, _) in enumerate(ys):
                if m.seg(i).line != m.seg(a).line:
                    assert ref[r][c] == 0
        assert dense(m, m, lc_matrix(m, m, lam, lam)) == ref


class TestLcMatrix:
    def test_one_by_zero(self):
        g = lc_matrix(M(S(0, 0)), M(S(1, 1)), CoeffVector({}), CoeffVector({}))
        assert g == [{}]

    def test_empty_rows(self):
        g = lc_matrix(M(S(0, 0)), M(S(5, 5)), CoeffVector({}), CoeffVector({}))
        assert g == []

    def test_diagonal_rows_match_gls(self):
        rng = random.Random(20)
        for k in range(80):
            m = random_ms(rng, lines=("0", "a") if k % 2 else ("0",))
            lam = sampled(m, seed=3)
            assert dense(m, m, lc_matrix(m, m, lam, lam)) == gls_reference(m, lam)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([("0",), ("0", "a")]).flatmap(
            lambda lines: st.tuples(multisegments(lines), multisegments(lines))
        ),
        st.data(),
    )
    def test_distinct_pair_against_definition(self, pair, data):
        m, m2 = pair
        assume(m != m2)

        def coeffs(ms):
            xs = cross_pairs(ms, ms)
            values = data.draw(st.lists(st.integers(-9, 9), min_size=len(xs), max_size=len(xs)))
            return CoeffVector(dict(zip(xs, values)))

        lam, lam2 = coeffs(m), coeffs(m2)
        assert dense(m, m2, lc_matrix(m, m2, lam, lam2)) == lc_reference(m, m2, lam, lam2)
        if lam.values.keys() != lam2.values.keys():
            with pytest.raises(SupportMismatchError):
                lc_matrix(m, m2, lam2, lam)

    def test_leclerc_self_rows(self):
        lam = sampled(LECLERC, seed=1)
        g = lc_matrix(LECLERC, LECLERC, lam, lam)
        assert len(g) == len(lam.values) == 4


class TestCheckGls:
    def test_leclerc_false(self):
        assert check_gls(LECLERC, CFG).holds is False

    def test_ladder_true(self):
        v = check_gls(M(S(1, 2), S(0, 1)), CFG)
        assert v.holds and v.witness is not None and v.trials_run == 1

    def test_trivial_true(self):
        for m in (M(), M(S(0, 5))):
            v = check_gls(m, CFG)
            assert v.holds and v.certified and v.false_verdict_bound == 0

    def test_false_bound_formula(self):
        v = check_gls(LECLERC, CFG)
        xs = len(cross_pairs(LECLERC, LECLERC))
        # coefficients are drawn from [1, p-1], so each trial misses with
        # probability at most |X|/(p-1)
        assert v.false_verdict_bound == Fraction(xs, CFG.prime - 1) ** CFG.trials
        # its rows are structurally full (rank 3 by cancelling terms),
        # so every trial runs and the FALSE stays probabilistic
        assert not v.certified and v.witness is None and v.trials_run == CFG.trials

    def test_bound_at_most_one(self):
        # Leclerc's example is FALSE over the rationals with rows that match:
        # at p = 2 every coefficient is 1 and |X| = 4 > p - 1, so the bound
        # is capped at 1
        v = check_gls(LECLERC, RankConfig(prime=2))
        assert v.holds is False and v.trials_run == 8
        assert v.false_verdict_bound == 1 and not v.certified
        # TRUE over the rationals: a 0/1 witness proves it at every prime
        m = parse_mseg("[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]")
        v = check_gls(m, CFG)
        assert v.holds and v.certified
        assert check_gls(m, RankConfig(prime=2)) == v

    def test_certified_witness_has_full_exact_rank(self):
        m = M(S(1, 2), S(0, 1))
        v = check_gls(m, CFG)
        assert v.holds and v.certified
        rows = lc_matrix(m, m, v.witness, v.witness)
        assert rank_exact(rows) == len(rows) == len(cross_pairs(m, m))

    def test_certify_long_ladder(self):
        # 126 segments give a matrix of 166 rows and 418 nonzeros, the size
        # of the benchmark's certified ladder
        rng = random.Random(0)
        segs = [S(0, 2)]
        while len(segs) < 126:
            s = segs[-1]
            b = rng.randint(s.b + 1, s.e + 1)
            segs.append(S(b, rng.randint(s.e + 1, s.e + 4)))
        m = M(*segs)
        assert m.is_ladder()
        v = check_gls(m, CFG)
        assert v.holds and v.certified
        rows = lc_matrix(m, m, v.witness, v.witness)
        assert len(rows) == 166
        assert rank_exact(rows) == len(rows)

    def test_equal_segments_never_list_y(self):
        # 2,048 equal segments have no precedence pair but 2,048^2 Y pairs:
        # TRUE with no trial, from a walk that lists X only
        m = parse_mseg("2048*[0,0]")
        conditions._decide.cache_clear()
        tracemalloc.start()
        try:
            v = check_gls(m, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.holds and v.trials_run == 0
        assert peak < 1 << 20

    def test_multiline_conjunction(self):
        good = M(S(1, 2), S(0, 1))
        two_lines = Multisegment(
            good.segs + tuple(Segment("z", s.b, s.e) for s in LECLERC)
        )
        assert check_gls(two_lines, CFG).holds is False
        both_good = Multisegment(
            good.segs + tuple(Segment("z", s.b, s.e) for s in good)
        )
        assert check_gls(both_good, CFG).holds is True


class TestCheckLc:
    def test_leclerc_self_true(self):
        assert check_lc(LECLERC, LECLERC, CFG).holds is True

    def test_pigeonhole_false(self):
        # one row and no column: the row alone is a Hall violator
        v = check_lc(M(S(0, 0)), M(S(1, 1)), CFG)
        assert v.holds is False and v.certified and v.false_verdict_bound == 0
        assert is_hall_violator(M(S(0, 0)), M(S(1, 1)), v.witness)

    def test_vacuous_true(self):
        v = check_lc(M(S(1, 1)), M(S(0, 0)), CFG)
        assert v.holds and v.certified

    def test_dual_symmetry(self):
        rng = random.Random(21)
        for _ in range(60):
            m, m2 = random_ms(rng, 4), random_ms(rng, 4)
            assert (
                check_lc(m, m2, CFG).holds
                == check_lc(m2.dual(), m.dual(), CFG).holds
            )

    def test_gls_implies_lc_self(self):
        rng = random.Random(22)
        for _ in range(60):
            m = random_ms(rng, 4)
            if check_gls(m, CFG).holds:
                assert check_lc(m, m, CFG).holds


LARGE = Path(__file__).resolve().parents[1] / "msegbench" / "large.json"


def ones(m):
    xs = cross_pairs(m, m)
    return CoeffVector(dict.fromkeys(xs, 1))


def pattern(m, m2):
    """The rows of LC(m, m2), read from lc_matrix at all-ones coefficients:
    every entry is a single +-lam term, so none vanishes and each row's
    keys, Y pairs, are its column pattern."""
    return lc_matrix(m, m2, ones(m), ones(m2))


def line_blocks(m, m2):
    """The rows of LC(m, m2) grouped by line, in row order, as (column
    count, rows).  The column count is the number of Y pairs on the line."""
    width = Counter(m.seg(i).line for i, _ in cross_pairs(m, m2, 1))
    lines = [m.seg(i).line for i, _ in by_line(m, cross_pairs(m, m2))]
    rows = pattern(m, m2)
    return [
        (width[line], [row for ln, row in zip(lines, rows) if ln == line])
        for line in sorted(set(lines))
    ]


def is_hall_violator(m, m2, witness):
    """The witness, sorted row indices of LC(m, m2), names rows on one line
    whose terms lie in fewer columns than there are rows."""
    rows = pattern(m, m2)
    lines = {m.seg(x[0]).line for x in (by_line(m, cross_pairs(m, m2))[r] for r in witness)}
    assert list(witness) == sorted(set(witness)) and len(lines) == 1
    return len({c for r in witness for c in rows[r]}) < len(witness)


def assert_sparse_witness(m, m2, v):
    """v is a TRUE of LC(m, m2) (GLS when its witness is one vector) found
    in no trial: its witness is 1 on a nonempty set of keys and absent
    elsewhere, and the rows have full rank there over the rationals."""
    lam, lam2 = (v.witness, v.witness) if isinstance(v.witness, CoeffVector) else v.witness
    assert v.holds and v.trials_run == 0 and v.false_verdict_bound == 0
    values = [*lam.values.values(), *lam2.values.values()]
    assert values and set(values) == {1}
    rows = lc_matrix(m, m2, lam, lam2)
    assert rows and rank_exact(rows) == len(rows)


def elimination_alone(patched):
    """Switch off the unique-matching skip and the sparse step: the peel
    finds no matching unique, so every open check runs its trials."""
    patched.setattr(conditions, "unique_matching", lambda rows, matched: False)


class TestStructuralFalse:
    """FALSE certified by a Hall violator before any trial."""

    def test_same_verdicts_as_the_trials_alone(self, monkeypatch):
        # 300 one- and two-line instances each for GLS and LC, against the
        # protocol with the structural steps disabled: every trial, as before
        cases = []
        for lines in (1, 2):
            gen = GenParams(max_segments=8, coord_range=3, lines=lines, seed=10 + lines)
            for index in range(150):
                m, m2 = gen_ms(gen, 2 * index), gen_ms(gen, 2 * index + 1)
                cases += [(check_gls, (m,), (m, m)), (check_lc, (m, m2), (m, m2))]

        def verdicts():
            conditions._decide.cache_clear()
            return [check(*args, CFG) for check, args, _ in cases]

        def no_structure(rows):
            # every row is still built, none is found deficient, and no
            # matching is offered to the sparse step
            for _ in rows:
                pass
            return None, []

        new = verdicts()
        with monkeypatch.context() as patched:
            patched.setattr(conditions, "hall_violator", no_structure)
            patched.setattr(conditions, "_sparse_witness", lambda *args: None)
            elimination_alone(patched)
            old = verdicts()
        conditions._decide.cache_clear()
        structural = sparse = 0
        for (_, _, pair), v, ref in zip(cases, new, old):
            assert v.holds == ref.holds
            if v.holds and v != ref:
                sparse += 1
                assert_sparse_witness(*pair, v)
                continue
            if v.holds or not v.certified or v.witness is None:
                assert v == ref  # TRUE and structurally full FALSE
                continue
            structural += 1
            assert v.trials_run == 0 and v.false_verdict_bound == 0
            assert not ref.certified and ref.trials_run == CFG.trials
            assert is_hall_violator(*pair, v.witness)
        assert structural >= 50 and sparse >= 10

    def test_large_benchmark_falses_certified(self):
        hall = pigeonhole = 0
        for instances in json.loads(LARGE.read_text()).values():
            for inst in instances:
                ms = [parse_mseg(text) for text in inst["inputs"]]
                v = (check_gls if inst["kind"] == "gls" else check_lc)(*ms, CFG)
                assert v.holds == inst["holds"]
                if v.holds:
                    continue
                assert v.certified and v.false_verdict_bound == 0
                assert v.trials_run == 0
                if v.witness is None:
                    pigeonhole += 1
                else:
                    hall += 1
                    assert is_hall_violator(ms[0], ms[-1], v.witness)
        # every FALSE has a Hall violator, the lc_n64 pair whose rows
        # outnumber its columns too
        assert (hall, pigeonhole) == (7, 0)

    def test_no_coefficients_drawn(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("a structural FALSE ran a trial")

        cases = [(check_lc, (parse_mseg("[1,3]+[0,1]+[0,0]"), parse_mseg("[1,3]")))]
        for instances in json.loads(LARGE.read_text()).values():
            for inst in instances:
                if not inst["holds"]:
                    ms = [parse_mseg(text) for text in inst["inputs"]]
                    cases.append((check_gls if inst["kind"] == "gls" else check_lc, ms))
        conditions._decide.cache_clear()
        monkeypatch.setattr(conditions, "sample_coeffs", drawn)
        monkeypatch.setattr(conditions, "rank_mod_p", drawn)
        for check, ms in cases:
            v = check(*ms, CFG)
            assert not v.holds and v.certified and v.trials_run == 0


def part(m, line):
    """The segments of m on one line."""
    return Multisegment(tuple(s for s in m.segs if s.line == line))


class TestLinesAreIndependent:
    """Rows of distinct lines share no column, so a check on several lines
    decides the checks on each line's part at once."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([("a", "b"), ("a", "b", "c")]).flatmap(
            lambda lines: st.tuples(multisegments(lines, 10), multisegments(lines, 10))
        )
    )
    def test_verdict_is_the_conjunction_of_the_lines(self, pair):
        m, m2 = pair
        lines = sorted(set(m.lines()) | set(m2.lines()))
        for check, args, (a, b) in ((check_gls, (m,), (m, m)), (check_lc, (m, m2), (m, m2))):
            v = check(*args, CFG)
            parts = [check(*(part(x, line) for x in args), CFG) for line in lines]
            assert v.holds == all(p.holds for p in parts)
            hall = not v.holds and v.certified
            assert hall == any(not p.holds and p.certified for p in parts)
            if hall:
                assert v.trials_run == 0 and is_hall_violator(a, b, v.witness)


class TestOneLayoutPerCheck:
    """The protocol builds a check's layout once, whatever its trial count:
    one term function, and each row at most once."""

    def decide_layouts(self, monkeypatch, m, m2, shared):
        layouts, built = [], []
        row_terms = conditions._row_terms

        def counted(*args):
            layouts.append(args)
            terms = row_terms(*args)

            def build(i, j):
                built.append((i, j))
                return terms(i, j)

            return build

        monkeypatch.setattr(conditions, "_row_terms", counted)
        v = conditions._decide.__wrapped__(m, m2, CFG, shared)
        return v, layouts, built

    def test_gls_after_every_trial(self, monkeypatch):
        v, layouts, built = self.decide_layouts(monkeypatch, LECLERC, LECLERC, True)
        assert v.holds is False and v.trials_run == CFG.trials == 8
        assert len(layouts) == 1
        assert built == cross_pairs(LECLERC, LECLERC)  # one line, every row once

    def test_two_line_lc_true(self, monkeypatch):
        m = parse_mseg("a:[0,1]+a:[0,0]+b:[0,1]+b:[0,0]")
        m2 = parse_mseg("a:[1,1]+a:[0,0]+b:[1,1]+b:[0,0]")
        assert len(line_blocks(m, m2)) == 2
        v, layouts, built = self.decide_layouts(monkeypatch, m, m2, False)
        assert v.holds and v.trials_run >= 1
        assert len(layouts) == 1
        assert sorted(built) == cross_pairs(m, m2) and len(set(built)) == len(built)


def large_cases():
    """Every check of msegbench/large.json: (class name, check, inputs)."""
    cases = []
    for name, instances in json.loads(LARGE.read_text()).items():
        for inst in instances:
            ms = [parse_mseg(text) for text in inst["inputs"]]
            cases.append((name, check_gls if inst["kind"] == "gls" else check_lc, ms))
    return cases


def random_cases():
    """GLS and LC checks on 1- to 3-line instances, then every check of
    large.json: (check, inputs, (m, m2) of the LC condition it decides)."""
    cases = []
    for lines in (1, 2, 3):
        gen = GenParams(max_segments=9, coord_range=3, lines=lines, seed=20 + lines)
        for index in range(80):
            m, m2 = gen_ms(gen, 2 * index), gen_ms(gen, 2 * index + 1)
            cases += [(check_gls, (m,), (m, m)), (check_lc, (m, m2), (m, m2))]
    for _, check, ms in large_cases():
        cases.append((check, tuple(ms), (ms[0], ms[-1])))
    return cases


def structural_reference(m, m2):
    """The first Hall violator of the fully built line blocks of LC(m, m2),
    as indices R into all of its rows, or None; and whether some line has
    more rows than columns."""
    blocks = line_blocks(m, m2)
    pigeonhole = any(len(rows) > cols for cols, rows in blocks)
    offset = 0
    for _, rows in blocks:
        hall = hall_violator(rows)[0]
        if hall is not None:
            return tuple(offset + r for r in hall), pigeonhole
        offset += len(rows)
    return None, pigeonhole


class TestStructuralFirst:
    """Rows built as the Hall search reaches them, and elimination skipped
    when the matching is unique, against the fully built line blocks and
    the elimination of every matrix."""

    def test_on_demand_witness_equals_full_layout(self):
        conditions._decide.cache_clear()
        hall = pigeonholes = 0
        for check, args, pair in random_cases():
            v = check(*args, CFG)
            ref, pigeonhole = structural_reference(*pair)
            # a line with more rows than columns has a Hall violator
            assert ref is not None or not pigeonhole
            pigeonholes += pigeonhole
            if ref is None:
                assert v.holds or v.trials_run == CFG.trials
            else:
                hall += 1
                assert v == conditions.Verdict(False, ref, 0, Fraction(0))
        assert hall >= 70 and pigeonholes >= 10

    @pytest.mark.parametrize("prime", [2, 3, 97, MERSENNE61])
    def test_same_verdicts_without_the_skip(self, monkeypatch, prime):
        cfg = RankConfig(prime=prime)
        cases = random_cases()

        def verdicts():
            conditions._decide.cache_clear()
            return [check(*args, cfg) for check, args, _ in cases]

        new = verdicts()
        with monkeypatch.context() as patched:
            elimination_alone(patched)
            old = verdicts()
        conditions._decide.cache_clear()
        sparse = 0
        for (_, _, pair), v, ref in zip(cases, new, old):
            if prime == MERSENNE61:
                assert v.holds == ref.holds
            if v != ref:
                # only the sparse step decides differently, and only a TRUE
                sparse += 1
                assert_sparse_witness(*pair, v)
        assert sum(v.holds for v in new) >= 300
        assert sparse >= 10

    @pytest.mark.parametrize("prime", [2, 3, MERSENNE61])
    def test_skipped_blocks_have_full_rank_at_the_witness(self, monkeypatch, prime):
        cfg = RankConfig(prime=prime)
        search, peel = conditions.hall_violator, conditions.unique_matching
        searched, peeled = [], []

        def recorded(rows):
            rows = list(rows)
            searched.append(rows)
            return search(rows)

        def judged(rows, matched):
            peeled.append(peel(rows, matched))
            return peeled[-1]

        monkeypatch.setattr(conditions, "hall_violator", recorded)
        monkeypatch.setattr(conditions, "unique_matching", judged)
        conditions._decide.cache_clear()
        skipped = sparse = 0
        for check, args, (m, m2) in random_cases():
            searched.clear()
            peeled.clear()
            v = check(*args, cfg)
            if not v.holds or not searched:
                continue
            lam, lam2 = (v.witness, v.witness) if check is check_gls else v.witness
            matrix = lc_matrix(m, m2, lam, lam2)
            # the first search takes the check's rows, and the first peel
            # judges its matching on them
            rows, unique = searched[0], peeled[0]
            assert [set(row) for row in rows] == [set(row) for row in matrix]
            if unique:
                skipped += 1
                assert v.trials_run == 1 and len(searched) == len(peeled) == 1
                assert rank_exact(matrix) == len(matrix)
            elif v.trials_run == 0:
                sparse += 1
                assert_sparse_witness(m, m2, v)
        conditions._decide.cache_clear()
        assert skipped >= 130 and sparse >= 10

    def test_false_search_builds_only_the_rows_it_reaches(self, monkeypatch):
        (m,) = [ms[0] for name, _, ms in large_cases() if name == "gls_false_n128"]
        built = []
        row_terms = conditions._row_terms

        def counted(*args):
            terms = row_terms(*args)
            return lambda i, j: built.append((i, j)) or terms(i, j)

        monkeypatch.setattr(conditions, "_row_terms", counted)
        v = conditions._decide.__wrapped__(m, m, CFG, True)
        assert not v.holds and v.trials_run == 0
        # the search fails at row 45 of 382, having reached rows 0 to 45
        assert max(v.witness) == 45 and len(cross_pairs(m, m)) == 382
        assert built == cross_pairs(m, m)[:46]

    def test_unique_ladder_runs_no_elimination(self, monkeypatch):
        (m,) = [ms[0] for name, _, ms in large_cases() if name == "gls_true_n128"]

        def refuse(*args):
            raise AssertionError("a block with a unique matching was eliminated")

        monkeypatch.setattr(conditions, "rank_mod_p", refuse)
        v = conditions._decide.__wrapped__(m, m, CFG, True)
        assert v.holds and v.trials_run == 1
        assert v.witness.values == sample_coeffs(cross_pairs(m, m), CFG.prime, CFG.seed, 1)

    def test_cancelling_terms_still_run_every_trial(self, monkeypatch):
        ranks = []
        rank_mod_p = conditions.rank_mod_p

        def counted(rows, p):
            ranks.append(len(rows))
            return rank_mod_p(rows, p)

        monkeypatch.setattr(conditions, "rank_mod_p", counted)
        v = conditions._decide.__wrapped__(LECLERC, LECLERC, CFG, True)
        nrows = len(cross_pairs(LECLERC, LECLERC))
        assert (v.holds, v.witness, v.trials_run) == (False, None, 8)
        assert v.false_verdict_bound == Fraction(nrows, CFG.prime - 1) ** 8
        assert ranks == [nrows] * 8


class TestSparseWitness:
    """An open TRUE decided at lam = 1 on the keys of a matching that stays
    unique where only they are nonzero: 0 trials, no elimination."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([("0",), ("0", "a")]).flatmap(
            lambda lines: st.tuples(multisegments(lines, 7), multisegments(lines, 7))
        ),
        st.sampled_from([CFG, RankConfig(prime=2), RankConfig(prime=3, seed=5)]),
    )
    def test_true_in_no_trial_has_a_full_rank_witness_of_ones(self, pair, cfg):
        m, m2 = pair
        for check, args, (a, b) in ((check_gls, (m,), (m, m)), (check_lc, (m, m2), (m, m2))):
            v = check(*args, cfg)
            if v.holds and v.trials_run == 0 and cross_pairs(a, b):
                assert_sparse_witness(a, b, v)

    def test_open_ladder_family_without_elimination(self, monkeypatch):
        # k copies of two linked segments: k^2 rows over 2k^2 columns whose
        # matching is not unique, which elimination took seconds to rank
        def refuse(*args):
            raise AssertionError("an open TRUE was eliminated")

        monkeypatch.setattr(conditions, "rank_mod_p", refuse)
        monkeypatch.setattr(conditions, "sample_coeffs", refuse)
        m = parse_mseg("12*[0,1]+12*[1,2]")
        v = conditions._decide.__wrapped__(m, m, CFG, True)
        assert_sparse_witness(m, m, v)

    def test_a_retry_finds_the_witness(self, monkeypatch):
        # the search's own matching leaves an alternating cycle among the
        # terms keyed by its entries; the first reordered search does not
        m = parse_mseg("[2,4]+[2,3]+[0,2]+[1,1]")
        v = conditions._decide.__wrapped__(m, m, CFG, True)
        assert_sparse_witness(m, m, v)
        assert v.witness.values == {(3, 2): 1, (4, 1): 1, (4, 2): 1}
        monkeypatch.setattr(conditions, "SPARSE_RETRIES", 0)
        first = conditions._decide.__wrapped__(m, m, CFG, True)
        assert first.holds and first.trials_run == 1
        monkeypatch.setattr(conditions, "SPARSE_RETRIES", 1)
        assert conditions._decide.__wrapped__(m, m, CFG, True) == v

    def test_lc_witness_is_a_pair_of_vectors_of_ones(self):
        # LC keys each side's coefficients apart, so the witness is the pair
        m, m2 = parse_mseg("[2,2]+[1,1]+[1,1]+[0,0]"), parse_mseg("[2,2]+[1,1]")
        v = check_lc(m, m2, CFG)
        assert_sparse_witness(m, m2, v)
        lam, lam2 = v.witness
        assert lam.values == {(2, 1): 1, (4, 2): 1} and lam2.values == {(2, 1): 1}


class TestCheckIg:
    def test_examples(self):
        assert check_ig(M(S(0, 0)), M(S(1, 1)), CFG)[0].holds is False
        assert check_ig(M(S(1, 2)), M(S(5, 6)), CFG)[0].holds is True

    def test_is_conjunction(self):
        rng = random.Random(23)
        for _ in range(40):
            m, m2 = random_ms(rng, 4), random_ms(rng, 4)
            v, fwd, rev = check_ig(m, m2, CFG)
            assert fwd == check_lc(m, m2, CFG) and rev == check_lc(m2, m, CFG)
            assert v.holds == (fwd.holds and rev.holds)

    def test_bounds_add(self):
        v, fwd, rev = check_ig(M(S(0, 0)), M(S(1, 1)), CFG)
        assert v.false_verdict_bound == fwd.false_verdict_bound + rev.false_verdict_bound
        assert v.trials_run == fwd.trials_run + rev.trials_run

    def test_certified_side_certifies(self):
        # LC(m2, m) has a Hall violator; LC(m, m2), FALSE over the rationals
        # with rows that match, fails all 8 trials at p = 2 with bound 1,
        # which adding would carry into IG
        m, m2 = FIVE_SEG, parse_mseg("[1,3]+[0,1]+[0,1]")
        cfg = RankConfig(prime=2)
        v, fwd, rev = check_ig(m, m2, cfg)
        assert fwd.false_verdict_bound == 1 and fwd.trials_run == 8
        assert rev.certified and not rev.holds and rev.witness is not None
        assert v.holds is False and v.certified and v.false_verdict_bound == 0
        assert v.trials_run == 8

    def test_bound_capped_at_one(self):
        # each direction holds one line where LC is FALSE over the rationals
        # with rows that match: at p = 2 each fails its trial with bound 1
        m, m2 = IG_CANCELLING
        cfg = RankConfig(prime=2, trials=1)
        lc = check_lc(m, m2, cfg)
        assert lc.holds is False and lc.false_verdict_bound == 1
        v, _, rev = check_ig(m, m2, cfg)
        assert v.holds is False and v.false_verdict_bound == 1
        assert rev.holds is False and not rev.certified


class TestCertified:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 2),
        st.sampled_from([CFG, RankConfig(prime=2, trials=1), RankConfig(prime=3, trials=1)]),
    )
    def test_certified_iff_bound_zero(self, index, lines, cfg):
        # at p = 2 or 3 about 1 % of these verdicts are probabilistic FALSEs
        gen = GenParams(max_segments=8, coord_range=4, lines=lines, seed=index % 7)
        m, m2 = gen_ms(gen, index), gen_ms(gen, index + 1)
        gls, lc = check_gls(m, cfg), check_lc(m, m2, cfg)
        for v in (gls, lc, *check_ig(m, m2, cfg)):
            assert v.certified == (v.false_verdict_bound == 0)
            assert v.certified or not v.holds
        # a GLS or LC FALSE is certified before any trial, or runs them all
        for v in (gls, lc):
            if not v.holds:
                assert v.trials_run == (0 if v.certified else cfg.trials)


class TestLiForGood:
    def test_examples(self):
        assert li_for_good(M(S(1, 2)), M(S(0, 1)), CFG).holds is True
        assert li_for_good(M(S(0, 0)), M(S(1, 1)), CFG).holds is False

    def test_not_applicable(self):
        bad = M(S(0, 1), S(0, 2))
        with pytest.raises(NotApplicableError):
            li_for_good(bad, bad, CFG)

    def test_ladder_on_either_side(self):
        bad = M(S(0, 1), S(0, 2))
        lad = M(S(1, 2), S(0, 1))
        assert li_for_good(lad, bad, CFG).holds == check_lc(lad, bad, CFG).holds
        assert li_for_good(bad, lad, CFG).holds == check_lc(bad, lad, CFG).holds


class TestDeterminism:
    def test_identical_inputs_identical_verdicts(self):
        v1 = check_gls(LECLERC, CFG)
        v2 = check_gls(LECLERC, CFG)
        assert v1 == v2

    def test_seed_stability(self):
        rng = random.Random(24)
        corpus = [random_ms(rng, 4) for _ in range(40)]
        pairs = [(random_ms(rng, 3), random_ms(rng, 3)) for _ in range(40)]
        for seed in (1, 2, 3):
            cfg = RankConfig(seed=seed)
            for m in corpus:
                assert check_gls(m, cfg).holds == check_gls(m, CFG).holds
            for m, m2 in pairs:
                assert check_lc(m, m2, cfg).holds == check_lc(m, m2, CFG).holds


def shifted(m, t):
    return M(*[s.shift(t) for s in m.segs])


class TestTranslationInvariance:
    """Pair sets and coefficient keys are canonical indices, which a common
    translation keeps, so a translate gets the same verdict, witness and all."""

    @settings(max_examples=150, deadline=None)
    @given(multisegments(("0", "a")), st.integers(-5, 5))
    def test_gls(self, m, t):
        assert check_gls(shifted(m, t), CFG) == check_gls(m, CFG)

    @settings(max_examples=150, deadline=None)
    @given(multisegments(("0", "a")), multisegments(("0", "a")), st.integers(-5, 5))
    def test_lc(self, m, m2, t):
        assert check_lc(shifted(m, t), shifted(m2, t), CFG) == check_lc(m, m2, CFG)


class TestVerdictMemo:
    """The verdict memo against recomputation from scratch."""

    def test_hit_equals_recomputed_verdict(self):
        # 200 one- and two-line pairs; at p = 3 many verdicts are FALSE with
        # a bound, at the default prime most are TRUE with a witness
        for cfg in (CFG, RankConfig(prime=3)):
            for lines in (1, 2):
                gen = GenParams(max_segments=6, lines=lines, seed=lines)
                for index in range(100):
                    m, m2 = gen_ms(gen, 2 * index), gen_ms(gen, 2 * index + 1)
                    for check, args in ((check_gls, (m,)), (check_lc, (m, m2))):
                        first = check(*args, cfg)
                        hits = conditions._decide.cache_info().hits
                        hit = check(*args, cfg)
                        assert hit is first
                        assert conditions._decide.cache_info().hits == hits + 1
                        conditions._decide.cache_clear()
                        fresh = check(*args, cfg)
                        # compares every field, the witness's values included
                        assert fresh is not hit and fresh == hit

    def test_certify_is_inert(self):
        # configurations that differ only in `certify` are one configuration
        on = RankConfig(certify=True)
        assert on == CFG and hash(on) == hash(CFG)
        m = M(S(1, 2), S(0, 1))
        conditions._decide.cache_clear()
        first = check_gls(m, CFG)
        assert check_gls(m, on) is first
        assert conditions._decide.cache_info().hits == 1

    def test_suite_json_same_cold_and_warm(self):
        # cold: neither the verdict memo nor the instance memo holds an entry
        def suite_json(seed):
            out = io.StringIO()
            assert run(["suite", "all", "--seed", str(seed), "--format", "json"], out=out) == 0
            return out.getvalue()

        conditions._decide.cache_clear()
        harness.gen_ms.cache_clear()
        cold = suite_json(0)
        assert conditions._decide.cache_info().currsize > 0
        assert harness.gen_ms.cache_info().currsize > 0
        assert suite_json(0) == cold
        pins = {
            0: "f98bae2af3ac35c660489a99a7938e56515b8d2a6b24a2cd4b3bb5dff6d07068",
            7: "75b66c6e3210d7bf4df47e5c610db494b2037d80b976b462b00a4dfe5109e78b",
            20191111: "df2be7cfff45c44f527f7083c85b1c4ee74d2fadc6c236be24f0621ee0d3b74d",
        }
        got = {seed: cold if seed == 0 else suite_json(seed) for seed in pins}
        assert {seed: hashlib.sha256(t.encode()).hexdigest() for seed, t in got.items()} == pins

    def test_threads_share_the_memo(self):
        # more threads than cores and more distinct checks than memo
        # entries, so hits, misses and evictions interleave
        gen = GenParams(max_segments=5, seed=5)
        corpus = [(gen_ms(gen, 2 * i), gen_ms(gen, 2 * i + 1)) for i in range(150)]
        conditions._decide.cache_clear()
        want = [(check_gls(m, CFG), check_lc(m, m2, CFG)) for m, m2 in corpus]
        conditions._decide.cache_clear()
        got = {}

        def work(k):
            got[k] = [(check_gls(m, CFG), check_lc(m, m2, CFG)) for m, m2 in corpus[k:] + corpus[:k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in (0, 37, 74, 111)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, results in got.items():
            assert results == want[k:] + want[:k]
        info = conditions._decide.cache_info()
        assert info.hits + info.misses == 4 * 2 * len(corpus)
