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

Rows are indexed by cross precedence pairs (an X set), columns by cross
shifted precedence pairs (a Y set), both in canonical sorted pair order.
GLS(m) is LC(m, m) with one coefficient vector on both sides, so one builder
and one protocol serve both.  Pairs on distinct lines never interact, so the
matrices are block diagonal per line and ranks are computed blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

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


# One term of a symbolic row: (column, side, coefficient key, sign).  The
# entry at the column is sign * lam[key] on side 0 and sign * lam2[key] on
# side 1; the columns of one row are distinct.
Term = Tuple[int, int, Tuple[int, int], int]
# A line block: its column count and its rows, each a tuple of terms.
Block = Tuple[int, Tuple[Tuple[Term, ...], ...]]
# Sorted X(m), sorted X(m2) and the line blocks of LC(m, m2).
Layout = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], Tuple[Block, ...]]
# Coefficients keyed by index pair, as CoeffVector.values.
Coeffs = Dict[Tuple[int, int], int]


def _layout(m: Multisegment, m2: Multisegment) -> Layout:
    """Sorted X(m), sorted X(m2) and the line blocks of LC(m, m2).

    One :func:`cross_pairs` walk over (m, m2) gives the rows X(m, m2) and the
    columns Y(m, m2), already sorted.  For m2 identical to m (GLS) that X is
    also X(m) and X(m2), so one walk does; otherwise X(m) and X(m2) take a
    walk each.

    Row (i, j) of a block holds +lam2[s, j] at column (i, s) for every
    precedence pair (s, j) of m2, and -lam[i, r] at column (r, j) for every
    precedence pair (i, r) of m, wherever that column is a cross shifted
    pair.  Each candidate term costs one probe of the column map, so a row
    costs the precedence pairs leaving i in m and entering j in m2.
    Blocks come in line order; a block's rows and columns follow sorted
    pair order, columns numbered from 0 per line.  Lines with columns but
    no rows are left out.

    Not cached: a check reads its layout once, in :func:`_decide`, and a
    repeated check stops at that function's verdict memo.
    """
    xs, ys = cross_pairs(m, m2)
    if m2 is m:
        x1 = x2 = tuple(xs)
    else:
        x1, x2 = tuple(cross_pairs(m, m)[0]), tuple(cross_pairs(m2, m2)[0])
    segs = m.segs
    col: Dict[Tuple[int, int], int] = {}
    width: Dict[str, int] = {}
    for pair in ys:
        line = segs[pair[0] - 1].line
        c = col[pair] = width.get(line, 0)
        width[line] = c + 1
    into: Dict[int, List[Tuple[int, int]]] = {}  # j -> the pairs (s, j) of X(m2)
    for key in x2:
        into.setdefault(key[1], []).append(key)
    out: Dict[int, List[Tuple[int, int]]] = {}  # i -> the pairs (i, r) of X(m)
    for key in x1:
        out.setdefault(key[0], []).append(key)
    rows: Dict[str, List[Tuple[Term, ...]]] = {}
    for i, j in xs:
        terms = [
            (c, 1, key, 1) for key in into.get(j, ()) if (c := col.get((i, key[0]))) is not None
        ]
        terms += [
            (c, 0, key, -1) for key in out.get(i, ()) if (c := col.get((key[1], j))) is not None
        ]
        rows.setdefault(segs[i - 1].line, []).append(tuple(terms))
    blocks = tuple((width.get(line, 0), tuple(rows[line])) for line in sorted(rows))
    return x1, x2, blocks


def lc_matrix(
    m: Multisegment, m2: Multisegment, lam: CoeffVector, lam2: CoeffVector
) -> List[List[Row]]:
    """Row vectors of the LC condition for the coefficient pair (lam, lam2).

    Returns the line blocks with rows, in line order, each a list of sparse
    rows (column within the line -> entry).  With m2 = m and lam2 = lam the
    rows are those of the GLS condition for lam.
    """
    x1, x2, blocks = _layout(m, m2)
    if set(lam.support) != set(x1):
        raise SupportMismatchError("first support must equal the X set of m")
    if set(lam2.support) != set(x2):
        raise SupportMismatchError("second support must equal the X set of m2")
    return _rows(blocks, lam.values, lam2.values)


def _rows(blocks: Tuple[Block, ...], lam: Coeffs, lam2: Coeffs) -> List[List[Row]]:
    """The symbolic line blocks instantiated at lam (side 0) and lam2 (side
    1); keys absent from a map are zero."""
    sides = (lam, lam2)
    return [
        [{c: sign * sides[side].get(key, 0) for c, side, key, sign in terms} for terms in block]
        for _, block in blocks
    ]


# ---------------------------------------------------------------------------
# randomized full-row-rank protocol
# ---------------------------------------------------------------------------


def _structural_deficit(blocks: Tuple[Block, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The first block with a Hall violator and the violator's rows, or None.

    Every entry of a symbolic block is one monomial, so a block whose rows
    cannot be matched to distinct columns has no nonzero maximal minor for
    any coefficients: its rank is deficient everywhere.
    """
    for index, (cols, rows) in enumerate(blocks):
        hall = hall_violator([[term[0] for term in terms] for terms in rows], cols)
        if hall is not None:
            return index, hall
    return None


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
    the witness is the pair.  Deterministic shortcuts, all taken before any
    coefficient is drawn: no rows is trivially independent; a line block
    with more rows than columns never is (pigeonhole); nor is a block with
    a Hall violator, which proves FALSE with the violator as witness.  Both
    FALSEs report 0 trials.  Only when every block's rows can be matched to
    distinct columns (TRUE, or FALSE only through cancelling terms) do the
    random trials run.
    """
    x1, x2, blocks = _layout(m, m2)

    def witness(lam: Coeffs, lam2: Coeffs):
        return CoeffVector(x1, lam) if shared else (CoeffVector(x1, lam), CoeffVector(x2, lam2))

    if not blocks:
        return Verdict(True, witness({}, {}), 0, Fraction(0))
    if any(len(rows) > cols for cols, rows in blocks):
        return Verdict(False, None, 0, Fraction(0))
    hall = _structural_deficit(blocks)
    if hall is not None:
        return Verdict(False, hall, 0, Fraction(0))
    for t in range(1, cfg.trials + 1):
        lam = lam2 = sample_coeffs(x1, cfg.prime, cfg.seed, t, stream=0)
        if not shared:
            lam2 = sample_coeffs(x2, cfg.prime, cfg.seed, t, stream=1)
        if all(rank_mod_p(rows, cfg.prime) == len(rows) for rows in _rows(blocks, lam, lam2)):
            return Verdict(True, witness(lam, lam2), t, Fraction(0))
    # Rows are linear in the coefficients, so a nonzero maximal minor has
    # degree at most |X|; with coefficients uniform over the p-1 values of
    # [1, p-1] it vanishes with probability at most |X|/(p-1) per trial.
    nrows = sum(len(rows) for _, rows in blocks)
    bound = min(Fraction(1), Fraction(nrows, cfg.prime - 1) ** cfg.trials)
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
    return min(Fraction(1), sum((b for b in bounds if b), Fraction(0)))


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
        bound = Fraction(0)
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
