"""Rank computation and deterministic coefficient sampling.

* :func:`rank_mod_p` -- elimination over a prime field, by leading column,
  of sparse rows, one ``dict`` (column -> integer) per row; absent columns
  are zero and column numbers only need to be comparable.
* :func:`hall_violator` -- structural (term) rank: whether the rows, taken
  one at a time, can be matched to distinct columns of their pattern, a
  Hall violator when they cannot, and whether the matching is unique.

Coefficient sampling is a fixed, documented 64-bit mixing generator
(splitmix64 finalizer chain) so verdicts reproduce across platforms:

    h = mix(seed); h = mix(h ^ trial); h = mix(h ^ stream)
    value(key) = 1 + fold(h, key parts) reduced into [1, p-1]

where ``mix`` is splitmix64 (add golden gamma, xor-shift-multiply twice,
final xor-shift) and the reduction rejects the bias range so values are
exactly uniform over [1, p-1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from .errors import TooLargeError

Row = Dict[int, int]

MERSENNE61 = (1 << 61) - 1
_MASK64 = (1 << 64) - 1

# Largest trial count of a RankConfig.  A probabilistic FALSE prints its
# exact bound (|X|/(p-1))^trials, whose denominator divides (p-1)^trials; at
# 200 trials and p < 2^64 that is at most 200 * 19.27 < 3,854 digits, under
# Python's 4,300-digit limit on int-to-str conversion, for a sum of two such
# bounds too.  A FALSE check runs every trial, so its work stays within 25
# times that of the default 8 trials.
MAX_TRIALS = 200


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the listed bases decide all n < 3.3e24.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _checked_prime(p: int) -> int:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


@dataclass(frozen=True)
class RankConfig:
    """Parameters of the randomized full-rank protocol.

    ``certify`` has no effect and takes no part in equality or hashing, so
    configurations that differ only in it share one verdict: a TRUE witness
    is an integer vector at which some maximal minor of every block is
    nonzero mod p, hence a nonzero integer, so every TRUE is already exact.
    It remains only because `msegbench` still builds configurations with it.
    """

    prime: int = MERSENNE61
    trials: int = 8
    seed: int = 0
    certify: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.trials > MAX_TRIALS:
            raise TooLargeError(f"more than {MAX_TRIALS} trials")
        if self.prime < 2:
            raise ValueError("prime must be at least 2")
        if self.prime >= 1 << 64:
            raise ValueError("prime must fit in 64 bits")
        _checked_prime(self.prime)


def rank_mod_p(rows: List[Row], p: int) -> int:
    """Rank of the sparse rows over the field with p elements.

    Each row is reduced against the pivots found so far, always at its
    leftmost nonzero column, until it vanishes or leads at a new pivot
    column.  Elimination only adds columns right of the current lead, so a
    heap of candidate columns finds the next lead.  A new pivot row is
    scaled by the inverse of its lead, ``pow(f, -1, p)`` (extended Euclid;
    p is checked prime, so it equals Fermat's ``f ** (p - 2)``).
    """
    _checked_prime(p)
    pivots: Dict[int, Row] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        heap = sorted(row)
        while heap:
            lead = heappop(heap)
            f = row.get(lead)
            if f is None:  # cancelled by an earlier elimination step
                continue
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(f, -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            for c, v in piv.items():
                old = row.get(c)
                if old is None:
                    row[c] = -f * v % p
                    heappush(heap, c)
                else:
                    new = (old - f * v) % p
                    if new:
                        row[c] = new
                    else:
                        del row[c]
    return len(pivots)


def hall_violator(
    rows: Iterable[Collection[int]], ncols: int
) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """Structural rank of the rows: ``(None, unique)`` when they can be
    matched to distinct columns, else ``(R, False)`` for a Hall violator R,
    row indices whose columns N(R) number fewer than R.

    Each row is a collection of the columns of its pattern, numbered from 0
    to ncols - 1.  Rows are taken from the iterable one at a time and
    matched in order, each by a breadth-first augmenting-path search (no
    recursion, so large blocks need no raised recursion limit).  When the
    search from a row reaches no free column, the rows it reached are
    returned at once, and no later row is taken: their columns are exactly
    the columns reached, each matched to one of those rows other than the
    start, so |N(R)| = |R| - 1.  No matching then covers every row, every
    maximal minor of a matrix with this pattern has an empty Leibniz
    expansion, and the rows are dependent whatever the entries (Edmonds
    1967; Hall's theorem).

    ``unique`` says whether the final matching is the only one of the rows
    onto its columns: it is when no alternating cycle exists, that is when
    the graph with an edge from each row to the owner of every other
    matched column in its pattern is acyclic.  The minor on those columns
    then has a single Leibniz term, the signed product of the matched
    entries, so it is nonzero wherever they all are.

    The search state is kept in lists indexed by column and shared by all
    searches: a per-search table raised the peak memory of a 382-row block.
    """
    owner = [-1] * ncols  # column -> the row matched to it, -1 when free
    matched: List[int] = []  # row -> its column
    search = [-1] * ncols  # column -> the last search that reached it
    via = [0] * ncols  # column -> the row that search reached it from
    taken: List[Collection[int]] = []
    for start, row in enumerate(rows):
        taken.append(row)
        matched.append(-1)
        reached = [start]
        free = -1
        for u in reached:  # the list grows while it is walked: a queue
            for c in taken[u]:
                if search[c] == start:
                    continue
                search[c] = start
                via[c] = u
                if owner[c] < 0:
                    free = c
                    break
                reached.append(owner[c])
            if free >= 0:
                break
        if free < 0:
            return tuple(sorted(reached)), False
        c = free
        while c >= 0:  # flip the path back to the start, which was unmatched
            u = via[c]
            prev = matched[u]
            owner[c] = u
            matched[u] = c
            c = prev
    # Kahn's peeling: a row that no other row points at leaves with its edges
    into = [0] * len(taken)
    edges = [[v for c in row if (v := owner[c]) != u and v >= 0] for u, row in enumerate(taken)]
    for targets in edges:
        for v in targets:
            into[v] += 1
    ready = [u for u, n in enumerate(into) if not n]
    for u in ready:
        for v in edges[u]:
            into[v] -= 1
            if not into[v]:
                ready.append(v)
    return None, len(ready) == len(taken)


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------


def _mix64(x: int) -> int:
    # splitmix64: golden-gamma increment then the xor-multiply finalizer.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_stream(*parts: int) -> int:
    """Fold integers into one 64-bit state; the package-wide derivation."""
    h = 0
    for part in parts:
        h = _mix64(h ^ (part & _MASK64))
    return h


def sample_coeffs(
    keys: Iterable[Tuple[int, ...]],
    p: int,
    seed: int,
    trial: int,
    stream: int = 0,
) -> Dict[Tuple[int, ...], int]:
    """Deterministic nonzero field values, one per key.

    Identical (seed, trial, stream) reproduce the same map; ``stream``
    separates coefficient vectors sampled within one trial (two sides of a
    pair condition draw from streams 0 and 1).
    """
    _checked_prime(p)
    base = mix_stream(seed, trial, stream)
    span = p - 1
    limit = (_MASK64 + 1) - ((_MASK64 + 1) % span)
    out: Dict[Tuple[int, ...], int] = {}
    for key in sorted(keys):
        h = base
        for part in key:
            h = _mix64(h ^ (part & _MASK64))
        while h >= limit:  # reject the biased tail so values are uniform
            h = _mix64(h)
        out[key] = 1 + h % span
    return out
