"""Rank routines on sparse rows and the deterministic sampler."""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from exact_rank import rank_exact
from hypothesis import given, settings, strategies as st

from mseg import conditions, linalg
from mseg.conditions import CoeffVector, check_gls, lc_matrix
from mseg.errors import TooLargeError
from mseg.harness import GenParams, gen_ms
from mseg.linalg import (
    MAX_TRIALS,
    MERSENNE61,
    RankConfig,
    hall_violator,
    rank_mod_p,
    sample_coeffs,
    unique_matching,
)
from mseg.segments import Multisegment, Segment
from mseg.zelevinsky import cross_pairs

P = MERSENNE61


def sparse(dense):
    """Sparse rows (column -> entry) of a dense list of rows."""
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def random_dense(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def transpose(dense, cols):
    return [[row[c] for row in dense] for c in range(cols)]


class TestRankModP:
    def test_examples(self):
        assert rank_mod_p(sparse([[1, 0], [0, 1]]), P) == 2
        assert rank_mod_p(sparse([[1, 0], [0, 1]]), 97) == 2
        assert rank_mod_p(sparse([[1, 2], [2, 4]]), P) == 1
        assert rank_mod_p([], P) == 0
        assert rank_mod_p([{}] * 7, P) == 0
        assert rank_mod_p([{5: 0, 9: P}], P) == 0  # explicit zeros mod p

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            rank_mod_p(sparse([[1]]), 91)

    def test_negative_entries_reduced(self):
        assert rank_mod_p(sparse([[-1, 1], [1, -1]]), P) == 1


class TestRankExact:
    def test_examples(self):
        assert rank_exact(sparse([[1, 0], [0, 1]])) == 2
        assert rank_exact(sparse([[2, 4], [3, 6]])) == 1
        assert rank_exact(sparse([[1, 0], [0, 0]])) == 1
        assert rank_exact([]) == 0
        assert rank_exact([{}, {3: 0}]) == 0

    def test_known_rank_by_construction(self):
        # outer-product structure: rank is the number of independent factors
        rng = random.Random(1)
        for _ in range(30):
            n, k = rng.randint(1, 6), rng.randint(0, 3)
            us = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            vs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            dense = [[sum(us[t][i] * vs[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
            assert rank_exact(sparse(dense)) <= k


class TestKernelAgreement:
    def test_modular_never_exceeds_exact(self):
        rng = random.Random(2)
        for _ in range(200):
            a = sparse(random_dense(rng, rng.randint(0, 6), rng.randint(0, 6)))
            assert rank_mod_p(a, P) <= rank_exact(a)

    def test_equal_on_small_entries(self):
        # entries far below p: specialization cannot lose rank here
        rng = random.Random(3)
        for _ in range(200):
            a = sparse(random_dense(rng, rng.randint(0, 6), rng.randint(0, 6)))
            assert rank_mod_p(a, P) == rank_exact(a)

    def test_p_degenerate_case(self):
        a = sparse([[1, 0], [0, P]])
        assert rank_exact(a) == 2
        assert rank_mod_p(a, P) == 1

    def test_invariance_under_permutation_and_transpose(self):
        rng = random.Random(4)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            dense = random_dense(rng, rows, cols)
            rp = list(range(rows))
            cp = list(range(cols))
            rng.shuffle(rp)
            rng.shuffle(cp)
            a = sparse(dense)
            b = sparse([[dense[r][c] for c in cp] for r in rp])
            t = sparse(transpose(dense, cols))
            assert rank_exact(a) == rank_exact(b) == rank_exact(t)
            assert rank_mod_p(a, P) == rank_mod_p(b, P) == rank_mod_p(t, P)


# sparse rows over scattered column numbers, as the condition matrices have them
def sparse_rows(entries):
    row = st.dictionaries(st.integers(0, 40), entries, max_size=8)
    return st.lists(row, max_size=6)


def rational_rank(rows):
    """Rank by Gauss-Jordan elimination over Fraction, the slow reference."""
    cols = sorted({c for row in rows for c in row})
    m = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def field_rank(rows, p):
    """Rank over GF(p) by dense Gauss-Jordan elimination with Fermat
    inverses, the slow reference."""
    cols = sorted({c for row in rows for c in row})
    m = [[row.get(c, 0) % p for c in cols] for row in rows]
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


HUGE_OR_UNIT = st.integers(-(1 << 70), 1 << 70) | st.sampled_from([-1, 1])


@st.composite
def deficient_rows(draw):
    """8-24 sparse rows over scattered columns, some of them integer
    combinations of others, in shuffled order."""
    row = st.dictionaries(st.integers(0, 60), HUGE_OR_UNIT, min_size=1, max_size=6)
    base = draw(st.lists(row, min_size=4, max_size=16))
    rows = list(base)
    for _ in range(draw(st.integers(4, 8))):
        combo = {}
        for r in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            f = draw(st.integers(-3, 3).filter(bool))
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + f * v
        rows.append({c: v for c, v in combo.items() if v})
    return draw(st.permutations(rows))


class TestSparseRows:
    @given(sparse_rows(st.integers(-(1 << 70), 1 << 70)), st.sampled_from([2, 3, 97, P]))
    def test_mod_p_never_exceeds_exact(self, rows, p):
        assert rank_mod_p(rows, p) <= rank_exact(rows)

    @given(sparse_rows(st.integers(-9, 9)))
    def test_mod_p_equals_exact_on_small_entries(self, rows):
        # at most 6 rows with |entries| <= 9: every nonzero minor is below
        # 9^6 * 6^3 < P in size (Hadamard), so none vanishes modulo P
        assert rank_mod_p(rows, P) == rank_exact(rows)

    @given(sparse_rows(st.integers(-(1 << 70), 1 << 70) | st.integers(-2, 2)))
    def test_exact_matches_rational_elimination(self, rows):
        assert rank_exact(rows) == rational_rank(rows)

    @settings(deadline=None)
    @given(deficient_rows())
    def test_exact_matches_rational_elimination_with_deficits(self, rows):
        assert rank_exact(rows) == rational_rank(rows)

    def test_exact_matches_rational_elimination_on_condition_blocks(self):
        # GLS(m) and LC(m, m2) matrices of one- and two-line multisegments;
        # coefficients at p = 3 are 1 or 2, which makes deficits common
        deficient = 0
        for lines in (1, 2):
            gen = GenParams(max_segments=8, lines=lines, seed=lines)
            for index in range(40):
                m, m2 = gen_ms(gen, 2 * index), gen_ms(gen, 2 * index + 1)
                xs, xs2 = cross_pairs(m, m), cross_pairs(m2, m2)
                for p in (3, P):
                    lam = CoeffVector(sample_coeffs(xs, p, index, 1))
                    lam2 = CoeffVector(sample_coeffs(xs2, p, index, 1, stream=1))
                    for rows in (lc_matrix(m, m, lam, lam), lc_matrix(m, m2, lam, lam2)):
                        rank = rank_exact(rows)
                        assert rank == rational_rank(rows)
                        deficient += rank < len(rows)
        assert deficient >= 20

    @given(
        st.lists(st.dictionaries(st.integers(0, 12), st.integers(-30, 30), max_size=6), max_size=12),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_mod_p_matches_field_elimination_at_tiny_primes(self, rows, p):
        # dependencies mod p are common here, so many pivots are inverted
        # and many rows cancel; reducing the rows mod p first changes nothing
        reduced = [{c: v % p for c, v in row.items() if v % p} for row in rows]
        rank = rank_mod_p(rows, p)
        assert rank == rank_mod_p(reduced, p) == field_rank(rows, p)
        assert rank <= rank_exact(rows)

    @given(sparse_rows(st.integers(-9, 9)))
    def test_inputs_untouched(self, rows):
        before = [dict(r) for r in rows]
        rank_mod_p(rows, 97)
        rank_exact(rows)
        assert rows == before


def neighbours(rows, subset):
    return set().union(*(rows[r] for r in subset))


def matchings_by_columns(rows):
    """The number of matchings of every row to distinct columns, by the set
    of columns they use."""
    counts = Counter()

    def extend(k, used):
        if k == len(rows):
            counts[frozenset(used)] += 1
            return
        for c in rows[k]:
            if c not in used:
                extend(k + 1, used | {c})

    extend(0, frozenset())
    return counts


def hall_deficiency(rows):
    """max(0, max over row sets S of |S| - |N(S)|), by trying every S: the
    number of rows no matching can cover (Koenig-Ore), so 0 exactly when a
    matching covers every row (Hall's theorem)."""
    return max(
        [0]
        + [
            k - len(neighbours(rows, subset))
            for k in range(1, len(rows) + 1)
            for subset in combinations(range(len(rows)), k)
        ]
    )


@st.composite
def planted_patterns(draw):
    """0-8 rows of column sets in [0, 8); sometimes a planted Hall violator:
    a set of rows whose columns all lie in fewer columns than it has rows."""
    ncols = draw(st.integers(0, 8))
    cols = st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols)
    rows = draw(st.lists(cols, max_size=8))
    if rows and draw(st.booleans()):
        planted = draw(st.sets(st.sampled_from(range(len(rows))), min_size=1))
        room = draw(st.sets(st.integers(0, 7), max_size=len(planted) - 1))
        for r in planted:
            rows[r] = {c for c in rows[r] if c in room}
    return rows


def is_matching(rows, matched):
    """matched[r] is a column of row r, and no two rows share one."""
    return len(matched) == len(rows) == len(set(matched)) and all(
        c in row for row, c in zip(rows, matched)
    )


def structure(rows):
    """(R, False) for the Hall violator R of the rows, else (None, unique):
    whether the matching the search found is the only one onto its columns."""
    found, matched = hall_violator(rows)
    if found is not None:
        assert matched is None
        return found, False
    assert is_matching(rows, matched)
    return None, unique_matching(rows, matched)


class TestHallViolator:
    def test_examples(self):
        assert hall_violator([]) == (None, [])
        assert hall_violator([[0, 1], [0]]) == (None, [1, 0])  # needs one augmenting step
        assert hall_violator([[0, 1], [0, 1]]) == (None, [0, 1])
        assert structure([]) == (None, True)
        assert structure([[0, 1], [0]]) == (None, True)
        assert structure([[0, 1], [0, 1]]) == (None, False)  # two matchings
        assert hall_violator([[0], [0]]) == ((0, 1), None)
        assert hall_violator([[0, 1], [1, 2], [0, 2], [0, 1, 2]]) == ((0, 1, 2, 3), None)
        assert hall_violator([[5], []]) == ((1,), None)

    def test_uniqueness_of_a_given_matching(self):
        # the peel judges the matching it is given, on the pattern it is given:
        # both matchings of a 2 x 2 all-ones block have the other as a rival,
        # and a pattern without the rival's entries leaves each unique
        assert not unique_matching([[0, 1], [0, 1]], [0, 1])
        assert not unique_matching([[0, 1], [0, 1]], [1, 0])
        assert unique_matching([[0], [0, 1]], [0, 1])
        assert unique_matching([[0, 1], [1]], [0, 1])
        # a column no row is matched to takes no part
        assert unique_matching([[0, 2], [1, 2]], [0, 1])

    def test_rows_after_a_violator_are_not_taken(self):
        taken = []

        def rows():
            for row in ([0], [0], [1]):
                taken.append(row)
                yield row

        assert hall_violator(rows()) == ((0, 1), None)
        assert taken == [[0], [0]]

    def test_long_augmenting_paths_without_recursion(self):
        # row k holds columns k and k+1 and takes column k; a final row [0]
        # then shifts all 2,000 rows along one path, deeper than the default
        # recursion limit.  Row 2,000 now holds column 0, so a second [0]
        # row is blocked by it alone.  The matching is unique: its
        # alternating graph is one path through all 2,001 rows
        chain = [[k, k + 1] for k in range(2000)] + [[0]]
        assert hall_violator(chain) == (None, [k + 1 for k in range(2000)] + [0])
        assert structure(chain) == (None, True)
        assert structure(chain + [[0]]) == ((2000, 2001), False)
        assert structure(chain[:-1] + [[0, 2000]]) == (None, False)

    @settings(deadline=None, max_examples=300)
    @given(planted_patterns())
    def test_violator_exactly_when_no_covering_matching(self, rows):
        found, unique = structure(rows)
        deficiency = hall_deficiency(rows)
        assert (found is None) == (deficiency == 0)
        if found is None:
            counts = matchings_by_columns(rows)
            if sum(counts.values()) == 1:
                assert unique
            if unique:
                # some column set has one matching; its minor is a signed
                # product of entries, so even all-ones rows are independent
                assert 1 in counts.values()
                assert rank_mod_p([dict.fromkeys(row, 1) for row in rows], 2) == len(rows)
            return
        assert not unique
        assert len(neighbours(rows, found)) < len(found)
        # a violator makes every matrix with this pattern rank deficient
        entries = random.Random(len(rows))
        matrix = [{c: entries.randint(1, 9) for c in row} for row in rows]
        assert rank_exact(matrix) < len(rows)
        # one entry at a new column, in a row of the violator, covers it
        fresh = 8  # planted_patterns draws columns from 0 to 7
        covered = [set(row) for row in rows]
        covered[found[-1]].add(fresh)
        assert len(neighbours(covered, found)) >= len(found)
        again = hall_violator(covered)[0]
        assert again != found
        if deficiency == 1:
            assert again is None

    @settings(deadline=None, max_examples=300)
    @given(planted_patterns())
    def test_any_hashable_column_labels(self, rows):
        # the same patterns with each column c relabelled as the pair (c, -c),
        # every row kept in its order: the same violator, matching and uniqueness
        ordered = [list(row) for row in rows]
        pairs = [[(c, -c) for c in row] for row in ordered]
        found, matched = hall_violator(ordered)
        relabelled = None if matched is None else [(c, -c) for c in matched]
        assert hall_violator(pairs) == (found, relabelled)
        assert structure(pairs) == structure(ordered)


class TestSampler:
    def test_empty(self):
        assert sample_coeffs([], P, 0, 1) == {}

    @pytest.mark.parametrize("p", [91, 4, 1, 0])
    def test_requires_prime(self, p):
        with pytest.raises(ValueError):
            sample_coeffs([], p, 0, 1)

    def test_deterministic(self):
        keys = [(1, 2), (2, 3), (4, 1)]
        assert sample_coeffs(keys, P, 11, 3) == sample_coeffs(keys, P, 11, 3)

    def test_trials_differ_statistically(self):
        # across 10^4 draws consecutive trials must virtually never agree
        keys = [(i, j) for i in range(1, 101) for j in range(1, 101)]
        a = sample_coeffs(keys, P, 9, 1)
        b = sample_coeffs(keys, P, 9, 2)
        agree = sum(1 for k in keys if a[k] == b[k])
        assert agree <= 2

    def test_streams_differ(self):
        keys = [(1, 2), (3, 4)]
        assert sample_coeffs(keys, P, 0, 1, stream=0) != sample_coeffs(
            keys, P, 0, 1, stream=1
        )

    def test_values_nonzero_in_range(self):
        for p in (2, 3, 97, P):
            vals = sample_coeffs([(i, 0) for i in range(200)], p, 1, 1)
            assert all(1 <= v <= p - 1 for v in vals.values())

    @pytest.mark.parametrize(
        "seed, stream, want",
        [
            (0, 0, {(1, 2): 614764658428570732, (1, 5): 1049529130653436208,
                    (-3, 2): 491156311210459334, (3,): 1199636316947566867}),
            (0, 1, {(1, 2): 159863172809256416, (1, 5): 928499126834765577,
                    (-3, 2): 1197218485298289596, (3,): 956684676188473649}),
            (20191111, 0, {(1, 2): 1168082833512278411, (1, 5): 1743311897868345308,
                           (-3, 2): 1679089177926556044, (3,): 2112065202125869062}),
            (20191111, 1, {(1, 2): 241917828716744382, (1, 5): 29017179922483299,
                           (-3, 2): 628796580223414673, (3,): 2051775212788232854}),
        ],
    )
    def test_pinned_values(self, seed, stream, want):
        # the documented derivation, value by value; keys come unsorted and
        # share first components, and one key has a single component
        keys = [(7, 1), (2, 4), (1, 5), (3,), (-3, 2), (2, 3), (1, 2)]
        got = sample_coeffs(keys, P, seed, 1, stream)
        assert len(got) == len(keys) and {k: got[k] for k in want} == want
        small = sample_coeffs(keys, 97, 5, 3, 1)
        assert [small[k] for k in sorted(keys)] == [19, 54, 7, 85, 90, 67, 82]


MASK64 = (1 << 64) - 1


def ref_mix(x):
    # splitmix64: add the golden gamma, xor-shift-multiply twice, xor-shift
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def ref_value(key, p, seed, trial, stream):
    """The value of the linalg docstring's formula, from nothing of linalg."""
    h = ref_mix(seed & MASK64)
    h = ref_mix(h ^ (trial & MASK64))
    h = ref_mix(h ^ (stream & MASK64))
    for part in key:
        h = ref_mix(h ^ (part & MASK64))
    span = p - 1
    limit = (1 << 64) - (1 << 64) % span
    while h >= limit:
        h = ref_mix(h)
    return 1 + h % span


class TestDrawTable:
    """Drawn values are memoised, and every value is the formula's."""

    # keys of length 0 to 3, runs of equal first parts, negative parts and a
    # part past 64 bits
    KEYS = [(), (5,), (-4,), (1,), (1, 2), (1, 2, 3), (1, 5), (2, 1), (-3, 2), (2**64 + 3, 1)]
    KEYS += [(7, 0, -1)]

    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        linalg._stream.cache_clear()
        linalg._draw.cache_clear()
        yield
        linalg._stream.cache_clear()
        linalg._draw.cache_clear()

    def check(self, keys, p, seed, trial, stream=0):
        got = sample_coeffs(keys, p, seed, trial, stream)
        assert got == {k: ref_value(k, p, seed, trial, stream) for k in keys}
        return got

    def count_mixes(self, monkeypatch):
        mixed = []
        monkeypatch.setattr(linalg, "_mix64", lambda x: mixed.append(x) or ref_mix(x))
        return mixed

    @pytest.mark.parametrize("p", [2, 3, 97, MERSENNE61])
    def test_first_and_repeated_draws(self, p, monkeypatch):
        first = self.check(self.KEYS, p, 11, 1)
        # a repeated key is read back from the memo: no mixing at all
        mixed = self.count_mixes(monkeypatch)
        assert self.check(self.KEYS[::-1], p, 11, 1) == first and mixed == []
        # misses among hits
        self.check([(1, 1), (1, 2), (1, 3), (5,), (6,)], p, 11, 1)
        assert len(mixed) >= 2

    @pytest.mark.parametrize("p", [2, 3, 97, MERSENNE61])
    def test_draws_past_a_full_table(self, p, monkeypatch):
        # keys pushed out of the memo by as many others as it holds are
        # drawn afresh, to the same values
        first = self.check(self.KEYS, p, 3, 2, 1)
        sample_coeffs([(1000 + i,) for i in range(linalg._draw.cache_info().maxsize)], p, 3, 2, 1)
        mixed = self.count_mixes(monkeypatch)
        assert self.check(self.KEYS, p, 3, 2, 1) == first and mixed

    @pytest.mark.parametrize("p", [2, 3, 97, MERSENNE61])
    def test_streams_and_trials_keep_apart(self, p):
        draws = [self.check(self.KEYS, p, 0, t, s) for t in (1, 2) for s in (0, 1)]
        if p == MERSENNE61:  # at a small prime values agree by chance
            for key in self.KEYS:
                assert len({d[key] for d in draws}) == 4

    def test_threads_share_the_tables(self):
        # more threads than cores draw overlapping keys from the same fresh
        # streams; every value is the formula's
        keys = [(i, j) for i in range(12) for j in range(12)]
        want = {
            (t, s): {k: ref_value(k, MERSENNE61, 4, t, s) for k in keys}
            for t in (1, 2) for s in (0, 1)
        }
        got = {}

        def work(n):
            order = keys[n * 17:] + keys[: n * 17]
            got[n] = [
                (ts, sample_coeffs(order[: 60 + 10 * n], MERSENNE61, 4, *ts)) for ts in want
            ] + [(ts, sample_coeffs(order, MERSENNE61, 4, *ts)) for ts in want]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 6
        for draws in got.values():
            for ts, drawn in draws:
                assert drawn == {k: want[ts][k] for k in drawn}

    def test_no_table_passes_its_bound(self):
        # a 126-segment ladder, built as in test_certify_long_ladder
        rng = random.Random(0)
        segs = [Segment("0", 0, 2)]
        while len(segs) < 126:
            s = segs[-1]
            b = rng.randint(s.b + 1, s.e + 1)
            segs.append(Segment("0", b, rng.randint(s.e + 1, s.e + 4)))
        m = Multisegment(tuple(segs))
        cfg = RankConfig()
        conditions._decide.cache_clear()
        v = check_gls(m, cfg)
        assert v.holds and v.trials_run == 1
        assert v.witness.values == {
            k: ref_value(k, cfg.prime, cfg.seed, 1, 0) for k in cross_pairs(m, m)
        }
        info = linalg._draw.cache_info()
        assert len(v.witness.values) <= info.currsize <= info.maxsize


class TestRankConfig:
    def test_defaults(self):
        cfg = RankConfig()
        assert cfg.prime == P and cfg.trials == 8 and not cfg.certify

    def test_validation(self):
        with pytest.raises(ValueError):
            RankConfig(trials=0)
        with pytest.raises(ValueError):
            RankConfig(prime=91)

    def test_trials_capped(self):
        assert RankConfig(trials=MAX_TRIALS).trials == MAX_TRIALS
        with pytest.raises(TooLargeError):
            RankConfig(trials=MAX_TRIALS + 1)
        # a bound printed at the cap has a denominator dividing (p-1)^trials,
        # within Python's default limit of 4,300 digits for every p < 2^64
        assert len(str((2**64 - 2) ** MAX_TRIALS)) < 4300
