"""Condition matrices and the randomized verdict protocol."""

import io
import json
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mseg import conditions
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
from mseg.linalg import MERSENNE61, RankConfig, rank_exact, sample_coeffs
from mseg.segments import Multisegment, Segment
from mseg.zelevinsky import pairset_x, pairset_x_cross, pairset_y, pairset_y_cross


def S(b, e, line="0"):
    return Segment(line, b, e)


def M(*segs):
    return Multisegment(tuple(segs))


LECLERC = M(S(1, 2), S(-1, 1), S(0, 0), S(-2, -1))
CFG = RankConfig()


def random_ms(rng, max_segments=5, box=4, max_len=4, lines=("0",)):
    k = rng.randint(0, max_segments)
    segs = []
    for _ in range(k):
        b = rng.randint(-box, box)
        segs.append(S(b, min(b + rng.randint(1, max_len) - 1, box), rng.choice(lines)))
    return M(*segs)


def sampled(m, seed=0):
    xs = tuple(sorted(pairset_x(m)))
    return CoeffVector(xs, sample_coeffs(xs, MERSENNE61, seed, 1))


def gls_reference(m, lam):
    """The GLS rows of m for lam, dense over all of Y, from the definition.

    Row (i, j) collects, for every index k, a +lam[k, j] contribution at
    column (i, k) when (k, j) is a precedence pair and (i, k) a shifted one,
    and a -lam[i, k] contribution at column (k, j) in the mirrored case.
    """
    xs = sorted(pairset_x(m))
    xset = set(xs)
    col = {pair: c for c, pair in enumerate(sorted(pairset_y(m)))}
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
    x1, x2 = set(pairset_x(m)), set(pairset_x(m2))
    col = {pair: c for c, pair in enumerate(sorted(pairset_y_cross(m, m2)))}
    rows = []
    for i, j in sorted(pairset_x_cross(m, m2)):
        row = [0] * len(col)
        for k in range(1, len(m2) + 1):
            if (k, j) in x2 and (i, k) in col:
                row[col[(i, k)]] += lam2.get(k, j)
        for k in range(1, len(m) + 1):
            if (i, k) in x1 and (k, j) in col:
                row[col[(k, j)]] -= lam.get(i, k)
        rows.append(row)
    return rows


def multisegments(lines):
    return st.lists(
        st.builds(
            lambda line, b, length: S(b, b + length, line),
            st.sampled_from(lines),
            st.integers(-3, 3),
            st.integers(0, 3),
        ),
        max_size=5,
    ).map(lambda segs: M(*segs))


def dense(m, m2, blocks):
    """Place lc_matrix's line blocks into the |X| x |Y| matrix of sorted pairs."""
    xs = sorted(pairset_x_cross(m, m2))
    ys = sorted(pairset_y_cross(m, m2))

    def line(pair):
        return m.seg(pair[0]).line

    lines = sorted({line(x) for x in xs})
    assert len(blocks) == len(lines)
    out = {x: [0] * len(ys) for x in xs}
    for ln, block in zip(lines, blocks):
        rows = [x for x in xs if line(x) == ln]
        cols = [c for c, y in enumerate(ys) if line(y) == ln]
        assert len(block) == len(rows)
        for x, row in zip(rows, block):
            for c, v in row.items():
                out[x][cols[c]] = v
    return [out[x] for x in xs]


class TestGlsMatrix:
    """The GLS rows are the LC(m, m) rows with one vector on both sides."""

    def test_single_row_example(self):
        m = M(S(1, 2), S(0, 1))
        lam = CoeffVector(((2, 1),), {(2, 1): 1})
        # columns in sorted pair order: (1,1), (2,1), (2,2)
        assert lc_matrix(m, m, lam, lam) == [[{0: -1, 2: 1}]]
        assert gls_reference(m, lam) == [[-1, 0, 1]]

    def test_zero_coefficients_zero_row(self):
        m = M(S(1, 2), S(0, 1))
        lam = CoeffVector(((2, 1),), {})
        assert dense(m, m, lc_matrix(m, m, lam, lam)) == [[0, 0, 0]]

    def test_single_segment_no_rows(self):
        m = M(S(0, 3))
        assert lc_matrix(m, m, CoeffVector((), {}), CoeffVector((), {})) == []

    def test_support_mismatch(self):
        m = M(S(1, 2), S(0, 1))
        with pytest.raises(SupportMismatchError):
            lc_matrix(m, m, CoeffVector((), {}), CoeffVector((), {}))

    def test_cross_line_entries_vanish(self):
        m = M(S(0, 1), S(1, 2), S(0, 1, "a"), S(1, 2, "a"))
        lam = sampled(m)
        ref = gls_reference(m, lam)
        xs = sorted(pairset_x(m))
        ys = sorted(pairset_y(m))
        for r, (i, _) in enumerate(xs):
            for c, (a, _) in enumerate(ys):
                if m.seg(i).line != m.seg(a).line:
                    assert ref[r][c] == 0
        assert dense(m, m, lc_matrix(m, m, lam, lam)) == ref


class TestLcMatrix:
    def test_one_by_zero(self):
        g = lc_matrix(M(S(0, 0)), M(S(1, 1)), CoeffVector((), {}), CoeffVector((), {}))
        assert g == [[{}]]

    def test_empty_rows(self):
        g = lc_matrix(M(S(0, 0)), M(S(5, 5)), CoeffVector((), {}), CoeffVector((), {}))
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
            xs = tuple(sorted(pairset_x(ms)))
            values = data.draw(st.lists(st.integers(-9, 9), min_size=len(xs), max_size=len(xs)))
            return CoeffVector(xs, dict(zip(xs, values)))

        lam, lam2 = coeffs(m), coeffs(m2)
        assert dense(m, m2, lc_matrix(m, m2, lam, lam2)) == lc_reference(m, m2, lam, lam2)
        if set(lam.support) != set(lam2.support):
            with pytest.raises(SupportMismatchError):
                lc_matrix(m, m2, lam2, lam)

    def test_leclerc_self_rows(self):
        lam = sampled(LECLERC, seed=1)
        g = lc_matrix(LECLERC, LECLERC, lam, lam)
        assert sum(len(block) for block in g) == len(lam.support) == 4


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
        xs = len(pairset_x(LECLERC))
        # coefficients are drawn from [1, p-1], so each trial misses with
        # probability at most |X|/(p-1)
        assert v.false_verdict_bound == Fraction(xs, CFG.prime - 1) ** CFG.trials
        # its one block is structurally full (rank 3 by cancelling terms),
        # so every trial runs and the FALSE stays probabilistic
        assert not v.certified and v.witness is None and v.trials_run == CFG.trials

    def test_bound_at_most_one(self):
        # at p = 2 every coefficient is 1 and |X| = 8 > p - 1: the bound is
        # capped at 1, while the exact rank at the default prime proves TRUE
        m = parse_mseg("[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]")
        v = check_gls(m, RankConfig(prime=2))
        assert v.holds is False and v.trials_run == 8
        assert v.false_verdict_bound == 1
        v = check_gls(m, RankConfig(certify=True))
        assert v.holds and v.certified

    def test_certified_witness_has_full_exact_rank(self):
        cfg = RankConfig(certify=True)
        m = M(S(1, 2), S(0, 1))
        v = check_gls(m, cfg)
        assert v.holds and v.certified
        blocks = lc_matrix(m, m, v.witness, v.witness)
        assert sum(rank_exact(block) for block in blocks) == len(pairset_x(m))

    def test_certify_long_ladder(self):
        # 126 segments give one block of 166 rows and 418 nonzeros, the size
        # of the benchmark's certified ladder
        rng = random.Random(0)
        segs = [S(0, 2)]
        while len(segs) < 126:
            s = segs[-1]
            b = rng.randint(s.b + 1, s.e + 1)
            segs.append(S(b, rng.randint(s.e + 1, s.e + 4)))
        m = M(*segs)
        assert m.is_ladder()
        v = check_gls(m, RankConfig(certify=True))
        assert v.holds and v.certified
        blocks = lc_matrix(m, m, v.witness, v.witness)
        assert [len(rows) for rows in blocks] == [166]
        assert all(rank_exact(rows) == len(rows) for rows in blocks)

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
        v = check_lc(M(S(0, 0)), M(S(1, 1)), CFG)
        assert v.holds is False and v.certified and v.false_verdict_bound == 0

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


def is_hall_violator(m, m2, witness):
    """The witness (block, rows) names rows of that symbolic block of
    LC(m, m2) whose terms lie in fewer columns than there are rows."""
    block, rows = witness
    _, terms = conditions._layout(m, m2)[2][block]
    return len({term[0] for r in rows for term in terms[r]}) < len(rows)


class TestStructuralFalse:
    """FALSE certified by a Hall violator once trial 1 has failed."""

    def test_same_verdicts_as_the_trials_alone(self, monkeypatch):
        # 300 one- and two-line instances each for GLS and LC, against the
        # protocol with the structural step disabled: every trial, as before
        cases = []
        for lines in (1, 2):
            gen = GenParams(max_segments=8, coord_range=3, lines=lines, seed=10 + lines)
            for index in range(150):
                m, m2 = gen_ms(gen, 2 * index), gen_ms(gen, 2 * index + 1)
                cases += [(check_gls, (m,), (m, m)), (check_lc, (m, m2), (m, m2))]

        def verdicts():
            conditions._decide.cache_clear()
            return [check(*args, CFG) for check, args, _ in cases]

        new = verdicts()
        with monkeypatch.context() as patched:
            patched.setattr(conditions, "hall_violator", lambda rows, ncols: None)
            old = verdicts()
        conditions._decide.cache_clear()
        structural = 0
        for (_, _, pair), v, ref in zip(cases, new, old):
            assert v.holds == ref.holds
            if v.holds or not v.certified or v.trials_run == 0:
                assert v == ref  # TRUE, pigeonhole and structurally full FALSE
                continue
            structural += 1
            assert v.trials_run == 1 and v.false_verdict_bound == 0
            assert not ref.certified and ref.trials_run == CFG.trials
            assert is_hall_violator(*pair, v.witness)
        assert structural >= 50

    def test_large_benchmark_falses_certified(self):
        trials = []
        for instances in json.loads(LARGE.read_text()).values():
            for inst in instances:
                ms = [parse_mseg(text) for text in inst["inputs"]]
                v = (check_gls if inst["kind"] == "gls" else check_lc)(*ms, CFG)
                assert v.holds == inst["holds"]
                if v.holds:
                    continue
                assert v.certified and v.false_verdict_bound == 0
                trials.append(v.trials_run)
                if v.trials_run:
                    assert is_hall_violator(ms[0], ms[-1], v.witness)
        # one lc_n64 pair is FALSE by pigeonhole, before any trial
        assert sorted(trials) == [0, 1, 1, 1, 1, 1, 1]


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

    def test_bound_capped_at_one(self):
        # at p = 2 both sides of LC(m, m) are all ones, which is the GLS
        # matrix of Leclerc's example: each direction fails with bound 1
        cfg = RankConfig(prime=2, trials=1)
        lc = check_lc(LECLERC, LECLERC, cfg)
        assert lc.holds is False and lc.false_verdict_bound == 1
        v, _, _ = check_ig(LECLERC, LECLERC, cfg)
        assert v.holds is False and v.false_verdict_bound == 1


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


class TestVerdictMemo:
    """The verdict memo against recomputation from scratch."""

    def test_hit_equals_recomputed_verdict(self):
        # 200 one- and two-line pairs; at p = 3 many verdicts are FALSE with
        # a bound, at the default prime most are TRUE with a witness
        for cfg in (CFG, RankConfig(prime=3, certify=True)):
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

    def test_suite_json_same_cold_and_warm(self):
        def suite_json():
            out = io.StringIO()
            assert run(["suite", "all", "--seed", "0", "--format", "json"], out=out) == 0
            return out.getvalue()

        conditions._decide.cache_clear()
        cold = suite_json()
        assert conditions._decide.cache_info().currsize > 0
        assert suite_json() == cold

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
