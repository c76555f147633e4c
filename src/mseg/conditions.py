"""The dense-orbit conditions GLS(m), LC(m, m2) and IG(m, m2).

Each condition asks whether a family of coefficient-dependent row vectors is
linearly independent for some choice of coefficients.  Since independence is
an open condition, a single random evaluation of full rank proves it.  TRUE
therefore comes with a witness, optionally certified by an exact rational
rank.  FALSE is proved when it can be cheaply: by pigeonhole (a line block
with more rows than columns), or, once the first trial has failed, by
structural rank (a Hall violator: rows of one block whose terms cover fewer
columns than there are rows).  Otherwise failure across independent trials
refutes it with an explicit Schwartz-Zippel style error bound.

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
from .linalg import RankConfig, Row, hall_violator, rank_exact, rank_mod_p, sample_coeffs
from .segments import Multisegment
from .zelevinsky import pairset_x, pairset_x_cross, pairset_y_cross


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

    ``certified`` means the verdict does not rest on a random evaluation:
    either an exact rational rank confirmed the witness, or the falsity was
    forced deterministically (pigeonhole or structural rank).
    ``false_verdict_bound`` bounds the probability that a reported FALSE is
    wrong; it is 0 for TRUE and for deterministic FALSE.

    The witness of TRUE is the coefficient vector (GLS) or pair (LC).  The
    witness of a structural FALSE is ``(block, rows)``: the index of a line
    block and a set of its row indices whose terms cover fewer columns than
    there are rows, a Hall violator.  Other FALSE verdicts carry None.
    """

    holds: bool
    certified: bool
    witness: Optional[object]
    trials_run: int
    false_verdict_bound: Fraction


# One term of a symbolic row: (column, side, coefficient key, sign).  The
# entry at the column is sign * lam[key] on side 0 and sign * lam2[key] on
# side 1; the columns of one row are distinct.
Term = Tuple[int, int, Tuple[int, int], int]
# A line block: its column count and its rows, each a tuple of terms.
Block = Tuple[int, Tuple[Tuple[Term, ...], ...]]
# Sorted X(m), sorted X(m2) and the line blocks of LC(m, m2).
Layout = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], Tuple[Block, ...]]


# A check reads its layout once in _decide and once per trial in lc_matrix,
# and a check of the same inputs under another configuration (certify) reads
# it again; repeated checks stop at the verdict memo below, so a few entries
# suffice.  At seed 0, `mseg suite all` hits 2,061 of 8,595 calls, the
# acceptance workload 5,990 of 16,926, and the large benchmark instances 9
# of 17, one of them the certify check of the 126-segment ladder.
@lru_cache(maxsize=16)
def _layout(m: Multisegment, m2: Multisegment) -> Layout:
    """Sorted X(m), sorted X(m2) and the line blocks of LC(m, m2).

    Row (i, j) of a block holds +lam2[s, j] at column (i, s) for every
    precedence pair (s, j) of m2, and -lam[i, r] at column (r, j) for every
    precedence pair (i, r) of m, wherever that column is a cross shifted
    pair.  Blocks come in line order; a block's rows and columns follow
    sorted pair order, columns numbered from 0 per line.  Lines with
    columns but no rows are left out.
    """
    x1 = tuple(sorted(pairset_x(m)))
    x2 = x1 if m2 is m else tuple(sorted(pairset_x(m2)))
    segs = m.segs
    col: Dict[Tuple[int, int], int] = {}
    width: Dict[str, int] = {}
    for pair in sorted(pairset_y_cross(m, m2)):
        line = segs[pair[0] - 1].line
        col[pair] = width.get(line, 0)
        width[line] = col[pair] + 1
    into: Dict[int, List[Tuple[int, int]]] = {}  # j -> the pairs (s, j) of X(m2)
    for key in x2:
        into.setdefault(key[1], []).append(key)
    out: Dict[int, List[Tuple[int, int]]] = {}  # i -> the pairs (i, r) of X(m)
    for key in x1:
        out.setdefault(key[0], []).append(key)
    rows: Dict[str, List[Tuple[Term, ...]]] = {}
    for i, j in sorted(pairset_x_cross(m, m2)):
        terms = [(col[i, key[0]], 1, key, 1) for key in into.get(j, ()) if (i, key[0]) in col]
        terms += [(col[key[1], j], 0, key, -1) for key in out.get(i, ()) if (key[1], j) in col]
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
    sides = (lam.values, lam2.values)
    return [
        [{c: sign * sides[side].get(key, 0) for c, side, key, sign in terms} for terms in block]
        for _, block in blocks
    ]


# ---------------------------------------------------------------------------
# randomized full-row-rank protocol
# ---------------------------------------------------------------------------


def _full_row_rank(blocks: List[List[Row]], p: Optional[int]) -> bool:
    """All blocks have full row rank, modulo p or exactly when p is None."""
    for rows in blocks:
        rank = rank_exact(rows) if p is None else rank_mod_p(rows, p)
        if rank != len(rows):
            return False
    return True


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
    the witness is the pair.  Deterministic shortcuts: no rows is trivially
    independent; a line block with more rows than columns never is (checked
    before any trial).  When trial 1 fails, every block is tested for a
    Hall violator before trial 2: one proves FALSE after that single trial,
    with the violator as witness.  Blocks whose rows can be matched to
    distinct columns (TRUE, or FALSE only through cancelling terms) go on
    to the remaining trials.
    """
    x1, x2, blocks = _layout(m, m2)

    def witness(lam: CoeffVector, lam2: CoeffVector):
        return lam if shared else (lam, lam2)

    if not blocks:
        empty = witness(CoeffVector(x1, {}), CoeffVector(x2, {}))
        return Verdict(True, True, empty, 0, Fraction(0))
    if any(len(rows) > cols for cols, rows in blocks):
        return Verdict(False, True, None, 0, Fraction(0))
    for t in range(1, cfg.trials + 1):
        lam = CoeffVector(x1, sample_coeffs(x1, cfg.prime, cfg.seed, t, stream=0))
        lam2 = lam
        if not shared:
            lam2 = CoeffVector(x2, sample_coeffs(x2, cfg.prime, cfg.seed, t, stream=1))
        mat = lc_matrix(m, m2, lam, lam2)
        if _full_row_rank(mat, cfg.prime):
            certified = cfg.certify and _full_row_rank(mat, None)
            return Verdict(True, certified, witness(lam, lam2), t, Fraction(0))
        if t == 1:
            hall = _structural_deficit(blocks)
            if hall is not None:
                return Verdict(False, True, hall, 1, Fraction(0))
    # Rows are linear in the coefficients, so a nonzero maximal minor has
    # degree at most |X|; with coefficients uniform over the p-1 values of
    # [1, p-1] it vanishes with probability at most |X|/(p-1) per trial.
    nrows = sum(len(rows) for _, rows in blocks)
    bound = min(Fraction(1), Fraction(nrows, cfg.prime - 1) ** cfg.trials)
    return Verdict(False, False, None, cfg.trials, bound)


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
    sum of their bounds (the union bound), capped at 1."""
    return min(Fraction(1), sum(bounds, Fraction(0)))


def check_ig(
    m: Multisegment, m2: Multisegment, cfg: RankConfig = RankConfig()
) -> Tuple[Verdict, Verdict, Verdict]:
    """IG(m, m2): the conjunction of LC both ways; bounds add, capped at 1.

    Returns the IG verdict with the two LC verdicts it combines:
    ``(IG(m, m2), LC(m, m2), LC(m2, m))``.  The IG witness is the pair of
    LC witnesses when both hold, else None.
    """
    fwd, rev = check_lc(m, m2, cfg), check_lc(m2, m, cfg)
    holds = fwd.holds and rev.holds
    ig = Verdict(
        holds,
        fwd.certified and rev.certified,
        (fwd.witness, rev.witness) if holds else None,
        fwd.trials_run + rev.trials_run,
        union_bound((fwd.false_verdict_bound, rev.false_verdict_bound)),
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
