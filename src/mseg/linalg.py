"""Rank computation and deterministic coefficient sampling.

* :func:`rank_mod_p` -- elimination over a prime field, by leading column,
  of sparse rows, one ``dict`` (column -> integer) per row; absent columns
  are zero and column numbers only need to be comparable.
* :func:`hall_violator` -- structural (term) rank: a matching of the rows,
  taken one at a time, to distinct columns of their pattern, or a Hall
  violator when there is none.  Its columns are any hashable labels, so it
  needs no column count.
* :func:`unique_matching` -- whether a matching is the only one of the rows
  onto its columns, for the pattern it was found on or any pattern that
  still holds its entries.

Coefficient sampling is a fixed, documented 64-bit mixing generator
(splitmix64 finalizer chain) so verdicts reproduce across platforms:

    h = mix(seed); h = mix(h ^ trial); h = mix(h ^ stream)
    value(key) = 1 + fold(h, key parts) reduced into [1, p-1]

where ``mix`` is splitmix64 (add golden gamma, xor-shift-multiply twice,
final xor-shift) and the reduction rejects the bias range so values are
exactly uniform over [1, p-1].  A process draws each key once per
(p, seed, trial, stream) while its bounded table of drawn values holds it,
and reads it back from there; the value is the formula's either way.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from typing import Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .errors import TooLargeError, read_only

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


class RankConfig:
    """Parameters of the randomized full-rank protocol.

    ``certify`` has no effect and takes no part in equality or hashing, so
    configurations that differ only in it share one verdict: a TRUE witness
    is an integer vector at which some maximal minor of the condition matrix
    is nonzero mod p, hence a nonzero integer, so every TRUE is already exact.
    It remains only because `msegbench` still builds configurations with it.
    """

    __slots__ = ("prime", "trials", "seed", "certify")
    __setattr__ = __delattr__ = read_only

    def __init__(
        self, prime: int = MERSENNE61, trials: int = 8, seed: int = 0, certify: bool = False
    ):
        if trials < 1:
            raise ValueError("trials must be positive")
        if trials > MAX_TRIALS:
            raise TooLargeError(f"more than {MAX_TRIALS} trials")
        if prime < 2:
            raise ValueError("prime must be at least 2")
        if prime >= 1 << 64:
            raise ValueError("prime must fit in 64 bits")
        _checked_prime(prime)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "certify", certify)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.prime, self.trials, self.seed) == (other.prime, other.trials, other.seed)

    def __hash__(self) -> int:
        return hash((self.prime, self.trials, self.seed))

    def __repr__(self) -> str:
        return (
            f"RankConfig(prime={self.prime!r}, trials={self.trials!r}, "
            f"seed={self.seed!r}, certify={self.certify!r})"
        )

    def __reduce__(self):
        return RankConfig, (self.prime, self.trials, self.seed, self.certify)


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
    rows: Iterable[Collection[Hashable]],
) -> Tuple[Optional[Tuple[int, ...]], Optional[List[Hashable]]]:
    """Structural rank of the rows: ``(None, matched)`` when they can be
    matched to distinct columns, ``matched[r]`` the column of row r, else
    ``(R, None)`` for a Hall violator R, row indices whose columns N(R)
    number fewer than R.

    Each row is a collection of the columns of its pattern, any hashable
    labels other than None.  Rows are taken from the iterable one at a time
    and matched in order, each by a breadth-first augmenting-path search (no
    recursion, so many rows need no raised recursion limit).  When the
    search from a row reaches no free column, the rows it reached are
    returned at once, and no later row is taken: their columns are exactly
    the columns reached, each matched to one of those rows other than the
    start, so |N(R)| = |R| - 1.  No matching then covers every row, every
    maximal minor of a matrix with this pattern has an empty Leibniz
    expansion, and the rows are dependent whatever the entries (Edmonds
    1967; Hall's theorem).  Rows outnumbering the columns are such a case:
    the search fails by the row after the last column is taken.

    The search state is kept in dicts keyed by column and shared by all
    searches: a per-search table raised the peak memory of a 382-row matrix.
    """
    owner: Dict[Hashable, int] = {}  # column -> the row matched to it
    matched: List[Hashable] = []  # row -> its column
    search: Dict[Hashable, int] = {}  # column -> the last search that reached it
    via: Dict[Hashable, int] = {}  # column -> the row that search reached it from
    taken: List[Collection[Hashable]] = []
    for start, row in enumerate(rows):
        taken.append(row)
        matched.append(None)
        reached = [start]
        free = None
        for u in reached:  # the list grows while it is walked: a queue
            for c in taken[u]:
                if search.get(c) == start:
                    continue
                search[c] = start
                via[c] = u
                v = owner.get(c)
                if v is None:
                    free = c
                    break
                reached.append(v)
            if free is not None:
                break
        if free is None:
            return tuple(sorted(reached)), None
        c = free
        while c is not None:  # flip the path back to the start, which was unmatched
            u = via[c]
            prev = matched[u]
            owner[c] = u
            matched[u] = c
            c = prev
    return None, matched


def unique_matching(rows: Sequence[Collection[Hashable]], matched: Sequence[Hashable]) -> bool:
    """Whether ``matched``, row r to column ``matched[r]`` (a matching of
    the rows, as :func:`hall_violator` returns it), is the only matching of
    the rows onto its columns.

    It is when no alternating cycle exists, that is when the graph with an
    edge from each row to the owner of every other matched column in its
    pattern is acyclic, which Kahn's peeling decides.  The minor on those
    columns then has a single Leibniz term, the signed product of the
    matched entries, so it is nonzero wherever they all are.  Columns that
    no row is matched to take no part.
    """
    owner = dict(zip(matched, range(len(matched))))
    into = [0] * len(rows)
    edges = [[v for c in row if (v := owner.get(c, u)) != u] for u, row in enumerate(rows)]
    for targets in edges:
        for v in targets:
            into[v] += 1
    # a row that no other row points at leaves with its edges
    ready = [u for u, n in enumerate(into) if not n]
    for u in ready:
        for v in edges[u]:
            into[v] -= 1
            if not into[v]:
                ready.append(v)
    return len(ready) == len(rows)


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


# Keys are index pairs, so the checks of a run draw few distinct keys many
# times: one `acceptance` pass of the benchmark draws 11,302 values for 226
# distinct (stream, key).  Each (p, seed, trial, stream) therefore keeps a
# table of the values it has drawn, holding at most TABLE_KEYS of them, and
# the 64 most recently used streams are kept: at most 8,192 values in all.
# The bounds are not tuned: the pass fills 19 tables, the largest with 46
# keys, so 64 keys a table catch the same 11,076 repeats and 32 catch 11,057.
# A table is written without a lock: every write stores the one value the
# formula gives for its key, so a reader sees that value or none.  (Writers
# racing at the bound may each add a value past it.)
TABLE_KEYS = 128


@lru_cache(maxsize=64)
def _stream_table(
    p: int, seed: int, trial: int, stream: int
) -> Tuple[int, int, int, Dict[Tuple[int, ...], int]]:
    """The state of stream (seed, trial, stream) over [1, p-1]: its base
    state, p - 1, the rejection limit, and its table of drawn values."""
    _checked_prime(p)
    span = p - 1
    return mix_stream(seed, trial, stream), span, (_MASK64 + 1) - ((_MASK64 + 1) % span), {}


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
    pair condition draw from streams 0 and 1).  A key is drawn once per
    table of its stream.
    """
    base, span, limit, table = _stream_table(p, seed, trial, stream)
    out: Dict[Tuple[int, ...], int] = {}
    for key in sorted(keys):
        value = table.get(key)
        if value is None:
            h = base
            for part in key:
                h = _mix64(h ^ (part & _MASK64))
            while h >= limit:  # reject the biased tail so values are uniform
                h = _mix64(h)
            value = 1 + h % span
            if len(table) < TABLE_KEYS:
                table[key] = value
        out[key] = value
    return out
