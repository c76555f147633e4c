"""The dense-orbit conditions GLS(m), LC(m, m2) and IG(m, m2).

Each condition asks whether a family of coefficient-dependent row vectors is
linearly independent for some choice of coefficients.  Since independence is
an open condition, a single random evaluation of full rank proves it: at
the integer witness some maximal minor is nonzero mod p, so it is a nonzero
integer and the rank over the rationals is full as well.  TRUE therefore
comes with a witness and is certified.  FALSE is proved when it can be
cheaply, before any random trial, by structural rank: a Hall violator, rows
whose terms cover fewer columns than there are rows (more rows than columns
always give one).  Otherwise failure across independent trials refutes it
with an explicit Schwartz-Zippel style error bound.

Every entry is one monomial, so the pattern alone settles two cases
(Edmonds 1967): a Hall violator makes the rows deficient everywhere, and a
unique matching of them makes them full at every nonzero draw.  The
matching therefore runs first, on rows built as the search reaches them.
When it is not unique, the same argument is tried on a sparser pattern: at
coefficients 1 on the keys of the matched entries and 0 elsewhere, a
matching that stays unique leaves a minor of +-1, so TRUE holds with that
0/1 witness, over the rationals and modulo every prime.  Elimination mod p
runs only when neither settles the rank.

Rows are indexed by cross precedence pairs (an X set), line by line,
columns by cross shifted precedence pairs (a Y set): X and Y are the one
relation :func:`~mseg.segments.precedes` at shifts 0 and 1.  A column is
keyed by its Y pair and tested only by the rows that could hold it, so no
check lists Y.  GLS(m) is LC(m, m) with one coefficient vector on both
sides, so one builder and one protocol serve both, through one term
function.  Rows of distinct lines share no column, so one matching search
and one elimination never mix lines, and a check ranks one matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .errors import NotApplicableError, SupportMismatchError, read_only
from .linalg import (
    RankConfig,
    Row,
    hall_violator,
    mix_stream,
    rank_mod_p,
    sample_coeffs,
    unique_matching,
)
from .segments import Multisegment, precedes
from .zelevinsky import cross_pairs


class CoeffVector:
    """Integer coordinates keyed by the index pairs of an X set; absent keys are zero.

    Not a tuple, so a GLS witness (one vector) and an LC witness (a pair of
    them) stay apart; unhashable, as its values are a dict.
    """

    __slots__ = ("values",)
    __setattr__ = __delattr__ = read_only
    __hash__ = None

    def __init__(self, values: Dict[Tuple[int, int], int]):
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"CoeffVector(values={self.values!r})"

    def __reduce__(self):
        return CoeffVector, (self.values,)

    def get(self, i: int, j: int) -> int:
        return self.values.get((i, j), 0)


class Verdict(NamedTuple):
    """Outcome of a randomized condition check.

    ``false_verdict_bound`` bounds the probability that a reported FALSE is
    wrong; it is 0 for TRUE and for deterministic FALSE (structural rank).
    ``certified``, derived from it, means the verdict does not rest on a
    random evaluation: only a FALSE after failed trials does.  A GLS or LC
    FALSE proved deterministically is decided before any trial, so its
    ``trials_run`` is 0, and so is that of a TRUE with no rows or with a
    0/1 witness.

    The witness of TRUE is the coefficient vector (GLS) or pair (LC) where
    the rows are independent.  A key absent from it is zero: with no rows
    it has no keys, and a 0/1 witness (``trials_run`` 0) is 1 on the keys of
    a matching's entries and absent elsewhere.  A trial's witness has every
    key of X(m) (and of X(m2) for LC).  The
    witness of a structural FALSE is ``rows``: sorted indices into the rows
    of :func:`lc_matrix`, all on one line, whose terms cover fewer columns
    than there are rows, a Hall violator.  A probabilistic FALSE carries
    None.
    """

    holds: bool
    witness: Optional[object]
    trials_run: int
    false_verdict_bound: Fraction

    @property
    def certified(self) -> bool:
        return self.false_verdict_bound == 0


Pair = Tuple[int, int]
# One term of a symbolic row: (side, coefficient key), the entry -lam[key]
# on side 0 and +lam2[key] on side 1.  A check builds each term once and
# every row holding that coefficient shares it.
Term = Tuple[int, Pair]
# A symbolic row maps each of its columns, the Y pair (r, s) numbered
# r * (len(m2) + 1) + s, to its term, so iterating the row gives its column
# pattern.  The numbers sort as the pairs do.
SymRow = Dict[int, Term]
# The rows of a check, line by line (see _by_line).
Block = List[SymRow]
# Coefficients keyed by index pair, as CoeffVector.values.
Coeffs = Dict[Pair, int]

_ZERO, _ONE = Fraction(0), Fraction(1)


def _supports(
    m: Multisegment, m2: Multisegment, xs: List[Pair]
) -> Tuple[Tuple[Pair, ...], Tuple[Pair, ...]]:
    """Sorted X(m) and X(m2), given X(m, m2): for m2 identical to m (GLS)
    that is both, so no further walk is needed."""
    if m2 is m:
        x = tuple(xs)
        return x, x
    return tuple(cross_pairs(m, m)), tuple(cross_pairs(m2, m2))


def _by_line(m: Multisegment, xs: List[Pair]) -> List[Pair]:
    """The row order: X(m, m2) stably sorted by the line of each pair's
    first index, so each line keeps its sorted pair order.  It fixes the
    rows the Hall search reaches and the violator it returns."""
    segs = m.segs
    return sorted(xs, key=lambda pair: segs[pair[0] - 1].line)


def _row_terms(
    m: Multisegment, m2: Multisegment, x1: Tuple[Pair, ...], x2: Tuple[Pair, ...]
) -> Callable[[int, int], SymRow]:
    """The term function of LC(m, m2): row (i, j) -> its symbolic row.

    Row (i, j) holds +lam2[s, j] at column (i, s) for every precedence pair
    (s, j) of m2, and -lam[i, r] at column (r, j) for every precedence pair
    (i, r) of m, wherever that column is a cross shifted pair: a pair of
    Y(m, m2), where a segment of m precedes the right shift of one of m2.
    Each candidate column is asked that one :func:`precedes` question, so Y
    is never listed, and a row costs the precedence pairs leaving i in m
    and entering j in m2.  The columns of a row are distinct (the two kinds
    meet only if (i, i) were in X(m)), so no term overwrites another.  Each
    coefficient's term is built here once, and the rows share it; columns
    are numbered as the rows are built (see :data:`SymRow`).
    """
    segs, segs2 = m.segs, m2.segs
    width = len(m2) + 1
    into: Dict[int, List[Term]] = {}  # j -> the terms (1, (s, j)) of X(m2)
    for key in x2:
        into.setdefault(key[1], []).append((1, key))
    out: Dict[int, List[Term]] = {}  # i -> the terms (0, (i, r)) of X(m)
    for key in x1:
        out.setdefault(key[0], []).append((0, key))

    def terms(i: int, j: int) -> SymRow:
        d, d2 = segs[i - 1], segs2[j - 1]
        found: SymRow = {}
        for term in into.get(j, ()):
            s = term[1][0]
            if precedes(d, segs2[s - 1], 1):
                found[i * width + s] = term
        for term in out.get(i, ()):
            r = term[1][1]
            if precedes(segs[r - 1], d2, 1):
                found[r * width + j] = term
        return found

    return terms


def lc_matrix(
    m: Multisegment, m2: Multisegment, lam: CoeffVector, lam2: CoeffVector
) -> List[Row]:
    """Row vectors of the LC condition for the coefficient pair (lam, lam2).

    Returns the rows in the order of :func:`_by_line`, line by line, each a
    sparse row keyed by the Y pair of each column: ``{(r, s): entry}``.
    With m2 = m and lam2 = lam the rows are those of the GLS condition for
    lam.  The rows are built by the steps of :func:`_decide`: the
    :func:`cross_pairs` walk for X(m, m2), the supports X(m) and X(m2), the
    row order, and the term function of :func:`_row_terms`, whose column
    numbers are decoded back into Y pairs here.  A key of lam outside X(m),
    or of lam2 outside X(m2), raises :class:`SupportMismatchError` before
    any row is built.
    """
    xs = cross_pairs(m, m2)
    x1, x2 = _supports(m, m2, xs)
    if lam.values.keys() - x1 or lam2.values.keys() - x2:
        raise SupportMismatchError("a coefficient key is outside the X set of its side")
    terms = _row_terms(m, m2, x1, x2)
    rows = _rows([terms(i, j) for i, j in _by_line(m, xs)], lam.values, lam2.values)
    width = len(m2) + 1
    return [{divmod(c, width): entry for c, entry in row.items()} for row in rows]


def _rows(block: Block, lam: Coeffs, lam2: Coeffs) -> List[Row]:
    """The symbolic rows instantiated at lam (side 0) and lam2 (side 1);
    keys absent from a map are zero."""
    return [
        {c: lam2.get(key, 0) if side else -lam.get(key, 0) for c, (side, key) in r.items()}
        for r in block
    ]


# ---------------------------------------------------------------------------
# randomized full-row-rank protocol
# ---------------------------------------------------------------------------


def _on_demand(
    pairs: List[Pair], terms: Callable[[int, int], SymRow], built: List[SymRow]
) -> Iterator[SymRow]:
    """The rows of the pairs, each built when it is asked for and kept in
    ``built``."""
    for i, j in pairs:
        row = terms(i, j)
        built.append(row)
        yield row


def _witness(lam: Coeffs, lam2: Coeffs, shared):
    """The TRUE witness: one vector when shared, else the pair."""
    return CoeffVector(lam) if shared else (CoeffVector(lam), CoeffVector(lam2))


# Matchings the sparse step tries after the search's own, each from a
# reordered search, before it leaves the rows to the trials.  Of 6,000
# random one-line checks (GLS and LC, 2 to 8 segments a side in [0, 6]), 777
# had a matching that is not unique, 764 of them TRUE.  The search's own
# matching decided 703 of those; up to 8 more matchings decided 751, and up
# to 32 more 758.  Each check that stays open pays for every retry.
SPARSE_RETRIES = 8


def _sparse_witness(
    block: Block, matched: List[Pair], pairs: List[Pair], seed: int, shared: bool
) -> Optional[Tuple[Coeffs, Coeffs]]:
    """The 0/1 witness (lam, lam2) of a matching that stays unique where
    only the keys of its entries are nonzero, or None.

    Let S be the coefficients of the matched entries: a term's ``key`` when
    ``shared`` (GLS, whose one vector is lam), else the whole term.
    At 1 on S and 0 elsewhere each row keeps only its terms keyed in S; if
    the same matching is the only one of those rows onto its columns, the
    minor on them is a single signed product of ones, +-1, and the rows are
    independent over the rationals and modulo every prime (Edmonds 1967).
    The search's matching is tried first, then up to :data:`SPARSE_RETRIES`
    others, each found by :func:`_reordered` in an order drawn from
    (seed, attempt).
    """
    key = 1 if shared else slice(None)  # a term's key, or the term itself
    for attempt in range(SPARSE_RETRIES + 1):
        if attempt:
            matched = _reordered(block, pairs, seed, attempt)
        keys = {row[c][key] for row, c in zip(block, matched)}
        kept = [[c for c, term in row.items() if term[key] in keys] for row in block]
        if unique_matching(kept, matched):
            sides: Tuple[Coeffs, Coeffs] = ({}, {})
            for k in sorted(keys):
                side, pair = (0, k) if shared else k
                sides[side][pair] = 1
            return sides
    return None


def _reordered(block: Block, pairs: List[Pair], seed: int, attempt: int) -> List[Pair]:
    """A perfect matching of the rows, from the search run again with the
    rows in the order of a hash of (seed, attempt, pair), and each row's
    columns reversed on odd attempts."""
    base = mix_stream(seed, attempt)
    order = sorted(range(len(block)), key=lambda r: mix_stream(base, *pairs[r]))
    flip = attempt % 2
    _, found = hall_violator([list(reversed(block[r])) if flip else block[r] for r in order])
    matched: List[Pair] = [None] * len(block)
    for r, c in zip(order, found):
        matched[r] = c
    return matched


# Verdicts are pure in (inputs, cfg), and the suites ask for the same check
# many times: of the 13,029 checks of `mseg suite all` at seed 0, 7,784
# repeat an earlier one.  On one usable CPU it runs its suites in lockstep in
# one process, so an LRU memo of 16 entries catches 6,161 of those repeats,
# 256 catch 6,772, 1,024 catch 7,464 and 4,096 catch 7,777.  Fanned out over
# two CPUs by windows of the instance index space, each process asks for
# every suite's checks on the instances of its windows: the parent's memo of
# 256 caught 3,620 of its 6,652 checks, and the worker's 3,781-4,090 of
# 6,737-7,306 in ten runs (a worker draws past a suite's stop until it
# learns of it), so the two missed 5,988-6,248 times.  With the suites
# run one after another, a 4,096-entry memo took another 8 % off the suite's
# time but raised its peak RSS from 26.5 to 29.2 MB, above the 26.9 MB it had
# without a memo.
# Callers share the memoised Verdict objects and must not mutate them.
@lru_cache(maxsize=256)
def _decide(m: Multisegment, m2: Multisegment, cfg: RankConfig, shared: bool) -> Verdict:
    """The randomized protocol for LC(m, m2), or for GLS(m) when ``shared``.

    With ``shared`` (and m2 = m) one stream-0 vector stands on both sides and
    is itself the witness; otherwise the sides draw from streams 0 and 1 and
    the witness is the pair.  It walks X(m, m2), then X(m) and X(m2) if
    there are rows, and never lists Y.  Deterministic steps come first,
    cheapest first, and draw no coefficient:

    * no rows is trivially independent, at the zero vector;
    * rows with a Hall violator never are, nor more rows than columns among
      them: FALSE in 0 trials, with the violator as witness.  The search of
      :func:`hall_violator` takes the rows as the term function builds
      them, in the order of :func:`_by_line`, and stops at the first
      violator: rows it never reaches are never built;
    * rows whose matching is unique (:func:`unique_matching`) have a minor
      that is a signed product of coefficients, nonzero at every draw, so
      they have full rank at every trial and no elimination runs;
    * otherwise :func:`_sparse_witness` looks for a matching that stays unique
      at 1 on the keys of its entries and 0 elsewhere: TRUE in 0 trials,
      with that 0/1 witness.

    Otherwise each trial runs :func:`rank_mod_p` once on the rows the search
    built, instantiated by :func:`_rows` as in :func:`lc_matrix`; no row is
    copied.  A trial is still drawn when the matching is unique, so such a
    TRUE carries the first trial's coefficients as its witness.
    """
    xs = cross_pairs(m, m2)
    if not xs:
        return Verdict(True, _witness({}, {}, shared), 0, _ZERO)
    x1, x2 = _supports(m, m2, xs)
    terms = _row_terms(m, m2, x1, x2)
    built: List[SymRow] = []
    pairs = _by_line(m, xs)
    hall, matched = hall_violator(_on_demand(pairs, terms, built))
    if hall is not None:
        return Verdict(False, hall, 0, _ZERO)
    unique = unique_matching(built, matched)
    if not unique:
        ones = _sparse_witness(built, matched, pairs, cfg.seed, shared)
        if ones is not None:
            return Verdict(True, _witness(*ones, shared), 0, _ZERO)
    for t in range(1, cfg.trials + 1):
        lam = lam2 = sample_coeffs(x1, cfg.prime, cfg.seed, t, stream=0)
        if not shared:
            lam2 = sample_coeffs(x2, cfg.prime, cfg.seed, t, stream=1)
        if unique or rank_mod_p(_rows(built, lam, lam2), cfg.prime) == len(built):
            return Verdict(True, _witness(lam, lam2, shared), t, _ZERO)
    # Rows are linear in the coefficients, so a nonzero maximal minor has
    # degree at most |X|; with coefficients uniform over the p-1 values of
    # [1, p-1] it vanishes with probability at most |X|/(p-1) per trial.
    bound = min(_ONE, Fraction(len(xs), cfg.prime - 1) ** cfg.trials)
    return Verdict(False, None, cfg.trials, bound)


def check_gls(m: Multisegment, cfg: RankConfig = RankConfig()) -> Verdict:
    """Decide GLS(m) by randomized full-rank testing of LC(m, m) with one
    coefficient vector on both sides."""
    return _decide(m, m, cfg, shared=True)


def check_lc(
    m: Multisegment, m2: Multisegment, cfg: RankConfig = RankConfig()
) -> Verdict:
    """Decide LC(m, m2); the two coefficient vectors are sampled on
    independent streams so the diagonal case m2 = m stays generic."""
    return _decide(m, m2, cfg, shared=False)


def union_bound(bounds: Iterable[Fraction]) -> Fraction:
    """Bound on the chance that any of several FALSE verdicts is wrong: the
    sum of their bounds (the union bound), capped at 1.  Nearly every bound
    of a suite is 0, so only the others are added."""
    return min(_ONE, sum((b for b in bounds if b), _ZERO))


def check_ig(
    m: Multisegment, m2: Multisegment, cfg: RankConfig = RankConfig()
) -> Tuple[Verdict, Verdict, Verdict]:
    """IG(m, m2): the conjunction of LC both ways.

    Returns the IG verdict with the two LC verdicts it combines:
    ``(IG(m, m2), LC(m, m2), LC(m2, m))``.  The IG witness is the pair of
    LC witnesses when both hold, else None.  A certified LC FALSE on either
    side certifies IG FALSE, with bound 0; otherwise the two bounds add,
    capped at 1.
    """
    fwd, rev = check_lc(m, m2, cfg), check_lc(m2, m, cfg)
    holds = fwd.holds and rev.holds
    if any(not v.holds and v.certified for v in (fwd, rev)):
        bound = _ZERO
    else:
        bound = union_bound((fwd.false_verdict_bound, rev.false_verdict_bound))
    ig = Verdict(
        holds,
        (fwd.witness, rev.witness) if holds else None,
        fwd.trials_run + rev.trials_run,
        bound,
    )
    return ig, fwd, rev


def li_for_good(
    m: Multisegment, m2: Multisegment, cfg: RankConfig = RankConfig()
) -> Verdict:
    """An LI verdict for pairs where one side is a ladder.

    Ladders are good: for them the representation-theoretic embedding
    condition agrees with LC.  When only m2 is a ladder the dual symmetry
    of LC transports goodness to the pair, so the same LC verdict applies.
    """
    if not (m.is_ladder() or m2.is_ladder()):
        raise NotApplicableError("neither multisegment is a ladder")
    return check_lc(m, m2, cfg)
