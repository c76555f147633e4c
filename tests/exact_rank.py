"""Exact rational rank of sparse integer rows: the tests' oracle.

A TRUE verdict is proved by its rank modulo p (a nonzero minor mod p is a
nonzero integer), so the package needs no exact arithmetic.  The tests
keep this second, independent arithmetic to check ``rank_mod_p`` and the
condition matrices against.
"""

from math import gcd
from typing import Dict, List

Row = Dict[int, int]


def _primitive(row: Row) -> Row:
    """The row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def rank_exact(rows: List[Row]) -> int:
    """Rank of the sparse rows over the rationals, by sparse elimination over
    the integers.

    Each step takes the shortest remaining row as the pivot row (the first
    such in input order) and its entry of smallest absolute value as the
    pivot, ties to the lowest column.  Only the rows that are nonzero in the
    pivot column change: ``row <- (a/g)*row - (f/g)*pivot_row`` with a the
    pivot, f the row's entry and g = gcd(a, f); each is then divided by its
    content (the gcd of its entries), and rows that vanish are dropped.  Rows
    missing the pivot column are never touched, so no step rescales the
    whole matrix.  After k steps a remaining row is, up to sign, a vector of
    order-(k+1) minors of the input divided by their gcd, so its entries are
    bounded by those minors.  On fully dense input this is slower than
    Bareiss elimination (about 1.4x at 60x60); the condition blocks are
    1-10 % dense, where it is far faster.
    """
    live = [{c: v for c, v in row.items() if v} for row in rows]
    live = [_primitive(row) for row in live if row]
    rank = 0
    while live:
        piv = live.pop(min(range(len(live)), key=lambda k: len(live[k])))
        col = min(piv, key=lambda c: (abs(piv[c]), c))
        a = piv[col]
        rank += 1
        kept = []
        for row in live:
            f = row.get(col)
            if f is not None:
                g = gcd(a, f)
                a_g, f_g = a // g, f // g
                row = {c: a_g * v for c, v in row.items()}
                for c, v in piv.items():
                    row[c] = row.get(c, 0) - f_g * v
                row = {c: v for c, v in row.items() if v}
                if not row:
                    continue
                row = _primitive(row)
            kept.append(row)
        live = kept
    return rank
