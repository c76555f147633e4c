"""Independent re-verification of TRUE witnesses.

The benchmark does not trust the program under test to check its own
witnesses.  This module rebuilds the GLS / LC condition matrix straight from
the definitions (precedence and shifted precedence on canonical positions)
and computes its rank over GF(p) by sparse elimination.  A witness is valid
when that rank equals the number of rows: full rank modulo p forces full
rank over the rationals, so the TRUE verdict is proved.

Only the segment coordinates of the inputs (``line``, ``b``, ``e`` of each
segment in canonical order) and the witness values are read from ``mseg``
objects; the pair sets, the matrix and its rank are all computed here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Seg = Tuple[str, int, int]


def _precedes(d: Seg, d2: Seg) -> bool:
    return d[0] == d2[0] and d[1] < d2[1] <= d[2] + 1 and d2[2] > d[2]


def _shifted_precedes(d: Seg, d2: Seg) -> bool:
    return d[0] == d2[0] and d[1] <= d2[1] <= d[2] <= d2[2]


def _pairs(a: Sequence[Seg], b: Sequence[Seg], rel, skip_diagonal: bool):
    return {
        (i, j)
        for i in range(1, len(a) + 1)
        for j in range(1, len(b) + 1)
        if not (skip_diagonal and i == j) and rel(a[i - 1], b[j - 1])
    }


def _full_row_rank(rows: List[Dict[Tuple[int, int], int]], p: int) -> bool:
    """True when the sparse rows are linearly independent over GF(p)."""
    pivots: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        else:
            return False
    return True


def gls_witness_ok(m: Sequence[Seg], lam: Dict[Tuple[int, int], int], p: int) -> bool:
    """Does the coefficient vector lam make the GLS(m) rows independent?"""
    xs = _pairs(m, m, _precedes, True)
    ys = _pairs(m, m, _shifted_precedes, False)
    if set(lam) != xs:
        return False
    n = len(m)
    rows = []
    for i, j in sorted(xs):
        row: Dict[Tuple[int, int], int] = {}
        for k in range(1, n + 1):
            if (k, j) in xs and (i, k) in ys:
                row[(i, k)] = row.get((i, k), 0) + lam[(k, j)]
            if (i, k) in xs and (k, j) in ys:
                row[(k, j)] = row.get((k, j), 0) - lam[(i, k)]
        rows.append(row)
    return _full_row_rank(rows, p)


def lc_witness_ok(
    m: Sequence[Seg],
    m2: Sequence[Seg],
    lam: Dict[Tuple[int, int], int],
    lam2: Dict[Tuple[int, int], int],
    p: int,
) -> bool:
    """Does the coefficient pair (lam, lam2) make the LC(m, m2) rows independent?"""
    xs = _pairs(m, m2, _precedes, False)
    if not xs:
        return True  # no rows: independent for every coefficient choice
    x1 = _pairs(m, m, _precedes, True)
    x2 = _pairs(m2, m2, _precedes, True)
    if set(lam) != x1 or set(lam2) != x2:
        return False
    ys = _pairs(m, m2, _shifted_precedes, False)
    rows = []
    for i, j in sorted(xs):
        row: Dict[Tuple[int, int], int] = {}
        for s in range(1, len(m2) + 1):
            if (s, j) in x2 and (i, s) in ys:
                row[(i, s)] = row.get((i, s), 0) + lam2[(s, j)]
        for r in range(1, len(m) + 1):
            if (i, r) in x1 and (r, j) in ys:
                row[(r, j)] = row.get((r, j), 0) - lam[(i, r)]
        rows.append(row)
    return _full_row_rank(rows, p)


def witness_ok(kind: str, msegs, witness, p: int) -> bool:
    """Check a GLS ("gls") or LC ("lc") witness for the given multisegments."""
    segs = [[(s.line, s.b, s.e) for s in m] for m in msegs]
    if kind == "gls":
        return gls_witness_ok(segs[0], witness.values, p)
    lam, lam2 = witness
    return lc_witness_ok(segs[0], segs[1], lam.values, lam2.values, p)
