"""The dense-orbit conditions GLS(m), LC(m, m2) and IG(m, m2).

Each condition asks whether a family of coefficient-dependent row vectors is
linearly independent for some choice of coefficients.  Since independence is
an open condition, a single random evaluation of full rank proves it: at
the integer witness some maximal minor of every block is nonzero mod p, so
it is a nonzero integer and the rank over the rationals is full as well.
TRUE therefore comes with a witness and is certified.  FALSE is proved when
it can be cheaply, before any random trial: by pigeonhole (a line block with
more rows than columns) or by structural rank (a Hall violator: rows of one
block whose terms cover fewer columns than there are rows).  Otherwise
failure across independent trials refutes it with an explicit
Schwartz-Zippel style error bound.

Every entry of a block is one monomial, so its pattern alone settles two
cases (Edmonds 1967): a Hall violator makes it deficient everywhere, and a
unique matching of its rows makes it full at every nonzero draw.  The
matching therefore runs first, on rows built as the search reaches them;
elimination mod p runs only on blocks the pattern leaves open.

Rows are indexed by cross precedence pairs (an X set), columns by cross
shifted precedence pairs (a Y set), both in canonical sorted pair order.
GLS(m) is LC(m, m) with one coefficient vector on both sides, so one builder
and one protocol serve both: :func:`lc_matrix` and the protocol build a
condition's line blocks by the same steps, through one term function.  Pairs
on distinct lines never interact, so the matrices are block diagonal per line
and ranks are computed blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import NotApplicableError, SupportMismatchError
from .linalg import RankConfig, Row, hall_violator, rank_mod_p, sample_coeffs
from .segments import Multisegment
from .zelevinsky import cross_pairs


@dataclass(frozen=True)
class CoeffVector:
    """Integer coordinates over a set of index pairs; absent keys are zero."""

    support: Tuple[Tuple[int, int], ...]
    values: Dict[Tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(sorted(self.support)))
        extra = set(self.values) - set(self.support)
        if extra:
            raise SupportMismatchError(f"values outside support: {sorted(extra)}")

    def get(self, i: int, j: int) -> int:
        return self.values.get((i, j), 0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a randomized condition check.

    ``false_verdict_bound`` bounds the probability that a reported FALSE is
    wrong; it is 0 for TRUE and for deterministic FALSE (pigeonhole or
    structural rank).  ``certified``, derived from it, means the verdict
    does not rest on a random evaluation: only a FALSE after failed trials
    does.  A GLS or LC FALSE proved deterministically is decided before
    any trial, so its ``trials_run`` is 0.

    The witness of TRUE is the coefficient vector (GLS) or pair (LC).  The
    witness of a structural FALSE is ``(block, rows)``: the index of a line
    block and a set of its row indices whose terms cover fewer columns than
    there are rows, a Hall violator.  Other FALSE verdicts carry None.
    """

    holds: bool
    witness: Optional[object]
    trials_run: int
    false_verdict_bound: Fraction

    @property
    def certified(self) -> bool:
        return self.false_verdict_bound == 0


Pair = Tuple[int, int]
# One term of a symbolic row: (side, coefficient key, sign), the entry
# sign * lam[key] on side 0 and sign * lam2[key] on side 1.
Term = Tuple[int, Pair, int]
# A symbolic row maps each of its columns to its term, so iterating the row
# gives its column pattern.
SymRow = Dict[int, Term]
# A line block: its rows, in sorted pair order.
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
    return tuple(cross_pairs(m, m)[0]), tuple(cross_pairs(m2, m2)[0])


def _lines(
    m: Multisegment, xs: List[Pair], ys: List[Pair]
) -> Tuple[Dict[Pair, int], Dict[str, int], Dict[str, List[Pair]]]:
    """The column map of Y(m, m2), the column count of each line, and the
    rows X(m, m2) of each line, in sorted pair order.  Columns are
    numbered from 0 per line."""
    segs = m.segs
    col: Dict[Pair, int] = {}
    width: Dict[str, int] = {}
    for pair in ys:
        line = segs[pair[0] - 1].line
        c = col[pair] = width.get(line, 0)
        width[line] = c + 1
    rows: Dict[str, List[Pair]] = {}
    for pair in xs:
        rows.setdefault(segs[pair[0] - 1].line, []).append(pair)
    return col, width, rows


def _row_terms(
    col: Dict[Pair, int], x1: Tuple[Pair, ...], x2: Tuple[Pair, ...]
) -> Callable[[int, int], SymRow]:
    """The term function of LC(m, m2): row (i, j) -> its symbolic row.

    Row (i, j) holds +lam2[s, j] at column (i, s) for every precedence pair
    (s, j) of m2, and -lam[i, r] at column (r, j) for every precedence pair
    (i, r) of m, wherever that column is a cross shifted pair.  The columns
    of a row are distinct (the two kinds meet only if (i, i) were in X(m)),
    so no term overwrites another.  Each candidate term costs one probe of
    the column map, so a row costs the precedence pairs leaving i in m and
    entering j in m2.
    """
    into: Dict[int, List[Pair]] = {}  # j -> the pairs (s, j) of X(m2)
    for key in x2:
        into.setdefault(key[1], []).append(key)
    out: Dict[int, List[Pair]] = {}  # i -> the pairs (i, r) of X(m)
    for key in x1:
        out.setdefault(key[0], []).append(key)

    def terms(i: int, j: int) -> SymRow:
        found = {
            c: (1, key, 1) for key in into.get(j, ()) if (c := col.get((i, key[0]))) is not None
        }
        for key in out.get(i, ()):
            c = col.get((key[1], j))
            if c is not None:
                found[c] = (0, key, -1)
        return found

    return terms


def lc_matrix(
    m: Multisegment, m2: Multisegment, lam: CoeffVector, lam2: CoeffVector
) -> List[List[Row]]:
    """Row vectors of the LC condition for the coefficient pair (lam, lam2).

    Returns the line blocks with rows, in line order, each a list of sparse
    rows (column within the line -> entry).  With m2 = m and lam2 = lam the
    rows are those of the GLS condition for lam.  The blocks are built by
    the steps of :func:`_decide`: one :func:`cross_pairs` walk, the
    supports (checked against lam and lam2 before any row is built), the
    lines, and the term function of :func:`_row_terms`.
    """
    xs, ys = cross_pairs(m, m2)
    x1, x2 = _supports(m, m2, xs)
    if set(lam.support) != set(x1):
        raise SupportMismatchError("first support must equal the X set of m")
    if set(lam2.support) != set(x2):
        raise SupportMismatchError("second support must equal the X set of m2")
    col, _, rows = _lines(m, xs, ys)
    terms = _row_terms(col, x1, x2)
    blocks = ([terms(i, j) for i, j in rows[line]] for line in sorted(rows))
    return _rows(blocks, lam.values, lam2.values)


def _rows(blocks: Iterable[Block], lam: Coeffs, lam2: Coeffs) -> List[List[Row]]:
    """The symbolic line blocks instantiated at lam (side 0) and lam2 (side
    1); keys absent from a map are zero."""
    sides = (lam, lam2)
    return [
        [{c: sign * sides[side].get(key, 0) for c, (side, key, sign) in r.items()} for r in rows]
        for rows in blocks
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


def _witness(x1: Tuple[Pair, ...], x2: Tuple[Pair, ...], lam: Coeffs, lam2: Coeffs, shared):
    """The TRUE witness: one vector over X(m) when shared, else the pair."""
    return CoeffVector(x1, lam) if shared else (CoeffVector(x1, lam), CoeffVector(x2, lam2))


# Verdicts are pure in (inputs, cfg), and the suites ask for the same check
# many times: of the 13,029 checks of `mseg suite all` at seed 0, 7,784
# repeat an earlier one.  An LRU memo of 16 entries catches 5,732 of those
# repeats, 256 catch 6,320, 1,024 catch 6,739 and 4,096 catch 7,764.  A
# 4,096-entry memo took another 8 % off the suite's time but raised its peak
# RSS from 26.5 to 29.2 MB, above the 26.9 MB it had without a memo.
# Callers share the memoised Verdict objects and must not mutate them.
@lru_cache(maxsize=256)
def _decide(m: Multisegment, m2: Multisegment, cfg: RankConfig, shared: bool) -> Verdict:
    """The randomized protocol for LC(m, m2), or for GLS(m) when ``shared``.

    With ``shared`` (and m2 = m) one stream-0 vector stands on both sides and
    is itself the witness; otherwise the sides draw from streams 0 and 1 and
    the witness is the pair.  Deterministic steps come first, cheapest
    first, and draw no coefficient:

    * no rows is trivially independent, decided before any column map;
    * a line block with more rows than columns never is (pigeonhole),
      decided from the counts per line;
    * nor is a block with a Hall violator, which proves FALSE with the
      violator as witness.  The search of :func:`hall_violator` takes the
      block's rows as the term function builds them, block by block in line
      order, and stops at the first violator: rows and blocks it never
      reaches are never built.  Both FALSEs report 0 trials;
    * a block whose matching is unique has a minor that is a signed product
      of coefficients, nonzero at every draw, so it has full rank at every
      trial and its elimination is skipped.

    The trials then run :func:`rank_mod_p` on the other blocks only, each
    instantiated by :func:`_rows` as in :func:`lc_matrix`.  A trial is still
    drawn when every block was skipped, so TRUE always carries the first
    trial's coefficients as its witness.
    """
    xs, ys = cross_pairs(m, m2)
    if not xs:
        return Verdict(True, _witness(*_supports(m, m2, xs), {}, {}, shared), 0, _ZERO)
    col, width, rows = _lines(m, xs, ys)
    if any(len(pairs) > width.get(line, 0) for line, pairs in rows.items()):
        return Verdict(False, None, 0, _ZERO)
    x1, x2 = _supports(m, m2, xs)
    terms = _row_terms(col, x1, x2)
    blocks: List[Block] = []  # the blocks whose rank a trial must compute
    for index, line in enumerate(sorted(rows)):
        built: List[SymRow] = []
        hall, unique = hall_violator(_on_demand(rows[line], terms, built), width[line])
        if hall is not None:
            return Verdict(False, (index, hall), 0, _ZERO)
        if not unique:
            blocks.append(built)
    for t in range(1, cfg.trials + 1):
        lam = lam2 = sample_coeffs(x1, cfg.prime, cfg.seed, t, stream=0)
        if not shared:
            lam2 = sample_coeffs(x2, cfg.prime, cfg.seed, t, stream=1)
        if all(rank_mod_p(block, cfg.prime) == len(block) for block in _rows(blocks, lam, lam2)):
            return Verdict(True, _witness(x1, x2, lam, lam2, shared), t, _ZERO)
    # Rows are linear in the coefficients, so a nonzero maximal minor has
    # degree at most |X|; with coefficients uniform over the p-1 values of
    # [1, p-1] it vanishes with probability at most |X|/(p-1) per trial.
    # |X| counts the rows of every block, the skipped ones included.
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
