"""Segments and multisegments on labeled integer lines.

A segment is a nonempty integer interval ``[b, e]`` on a named line; it is
the set of consecutive twist exponents ``{b, b+1, ..., e}``.  A multisegment
is a finite multiset of segments, stored in a canonical strictly descending
order so that 1-based positional indices are reproducible everywhere
downstream (pair sets, matchings, matrices).

Segments on distinct lines never interact: precedence, linking and all the
derived conditions decompose over the lines.  The only place lines are compared
is the global total order (label lexicographic, then coordinates), which
exists solely to make maxima well defined.

The ``str`` of a point, segment or multisegment is the text form every record
prints; ``parse_rho`` and ``parse_mseg`` below read it back exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List, NamedTuple, Optional

from .errors import (
    EmptyMultisegmentError,
    EmptySegmentError,
    ParseError,
    TooLargeError,
    read_only,
)

DEFAULT_LINE = "0"


class CuspidalPoint(NamedTuple):
    """A point on a labeled line: the exponent of a twist on that line.

    Ordering is (line, pos) lexicographic; within a line the successor of a
    point is the point one step to the right.
    """

    line: str
    pos: int

    def __str__(self) -> str:
        if self.line == DEFAULT_LINE:
            return str(self.pos)
        return f"{self.line}:{self.pos}"


class Segment:
    """A nonempty integer interval ``[b, e]`` on a labeled line.

    Immutable, and not a tuple: it has its own order (see ``sort_key``) and
    its ``len`` is its length.
    """

    __slots__ = ("line", "b", "e")
    __setattr__ = __delattr__ = read_only

    def __init__(self, line: str, b: int, e: int):
        if b > e:
            raise EmptySegmentError(f"segment [{b},{e}] is empty")
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "e", e)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.line == other.line and self.b == other.b and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.line, self.b, self.e))

    def __repr__(self) -> str:
        return f"Segment(line={self.line!r}, b={self.b!r}, e={self.e!r})"

    def __reduce__(self):
        return Segment, (self.line, self.b, self.e)

    # -- basic geometry ----------------------------------------------------

    def __len__(self) -> int:
        return self.e - self.b + 1

    def begin_point(self) -> CuspidalPoint:
        return CuspidalPoint(self.line, self.b)

    def end_point(self) -> CuspidalPoint:
        return CuspidalPoint(self.line, self.e)

    def contains(self, point: CuspidalPoint) -> bool:
        return point.line == self.line and self.b <= point.pos <= self.e

    def points(self) -> Iterator[CuspidalPoint]:
        for pos in range(self.b, self.e + 1):
            yield CuspidalPoint(self.line, pos)

    # -- surgeries ---------------------------------------------------------

    def drop_last(self) -> Optional["Segment"]:
        """[b, e-1], or None if the segment is a singleton."""
        if self.b == self.e:
            return None
        return Segment(self.line, self.b, self.e - 1)

    def drop_first(self) -> Optional["Segment"]:
        """[b+1, e], or None if the segment is a singleton."""
        if self.b == self.e:
            return None
        return Segment(self.line, self.b + 1, self.e)

    def extend_left(self) -> "Segment":
        return Segment(self.line, self.b - 1, self.e)

    def shift(self, n: int) -> "Segment":
        return Segment(self.line, self.b + n, self.e + n)

    def dual(self) -> "Segment":
        """Reflection [-e, -b]; the line label is kept (see module notes)."""
        return Segment(self.line, -self.e, -self.b)

    # -- total order -------------------------------------------------------

    def sort_key(self) -> tuple:
        """Key for the total order: line label, then end, then begin.

        Within one line this is the usual order by end with ties broken so
        that for equal ends the longer segment is smaller.
        """
        return (self.line, self.e, self.b)

    def __lt__(self, other: "Segment") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Segment") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Segment") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Segment") -> bool:
        return self.sort_key() >= other.sort_key()

    def __str__(self) -> str:
        label = "" if self.line == DEFAULT_LINE else f"{self.line}:"
        return f"{label}[{self.b},{self.e}]"


def precedes(d: Segment, d2: Segment, shift: int = 0) -> bool:
    """Whether d precedes d2 moved right by ``shift``.

    At shift 0 this is the linking relation of the X pairs: d starts strictly
    before d2, d2 ends strictly after d, and d2 begins no later than one past
    the end of d.  At shift 1 it is b <= b2 <= e <= e2 on a common line, the
    relation of the shifted pairs Y.
    """
    return d.line == d2.line and d.b < d2.b + shift <= d.e + 1 and d2.e + shift > d.e


class Multisegment:
    """A finite multiset of segments in canonical descending order.

    The canonical order is strictly descending in the total order with equal
    segments adjacent.  It guarantees that whenever i < j the segment at
    position i does not precede the one at position j, which is the
    enumeration convention every downstream construction relies on.
    Positions are 1-based.

    Multisegments key every cache of the condition checks, so the hash of
    the canonical tuple is computed once, at construction.
    """

    __slots__ = ("segs", "_hash")
    __setattr__ = __delattr__ = read_only

    def __init__(self, segs: tuple = ()):
        ordered = tuple(sorted(segs, key=Segment.sort_key, reverse=True))
        object.__setattr__(self, "segs", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.segs == other.segs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Multisegment(segs={self.segs!r})"

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ between
        # processes, so the cached hash must not travel with a pickle
        return Multisegment, (self.segs,)

    # -- container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return len(self.segs)

    def __bool__(self) -> bool:
        return bool(self.segs)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segs)

    def seg(self, i: int) -> Segment:
        """The segment at 1-based canonical position i."""
        return self.segs[i - 1]

    def __add__(self, other: "Multisegment") -> "Multisegment":
        return Multisegment(self.segs + other.segs)

    def __str__(self) -> str:
        if not self.segs:
            return "0"
        return "+".join(str(s) for s in self.segs)

    # -- derived data ----------------------------------------------------------

    def lines(self) -> tuple:
        """Line labels present, in descending label order (canonical order)."""
        seen = []
        for s in self.segs:
            if s.line not in seen:
                seen.append(s.line)
        return tuple(seen)

    def supp(self) -> Counter:
        """Multiset of points covered, with multiplicities."""
        c: Counter = Counter()
        for s in self.segs:
            for pt in s.points():
                c[pt] += 1
        return c

    def dual(self) -> "Multisegment":
        return Multisegment(tuple(s.dual() for s in self.segs))

    def max_end(self) -> CuspidalPoint:
        """The largest segment end in the global point order."""
        if not self.segs:
            raise EmptyMultisegmentError("zero multisegment has no maximum")
        return max(s.end_point() for s in self.segs)

    def is_ladder(self) -> bool:
        """True when the canonical list is a chain under precedence.

        Since precedence is strictly increasing for the total order, a chain
        exists iff consecutive canonical entries are linked downward.
        """
        return all(
            precedes(self.segs[i + 1], self.segs[i])
            for i in range(len(self.segs) - 1)
        )


def ms_filter(m: Multisegment, kind: str, d: Segment) -> Multisegment:
    """Sub-multisegment selected by one of the closure-compatible filters.

    kind:
      ``ge_seg``   -- segments >= d in the total order
      ``end_in``   -- segments whose end lies in d
      ``begin_in`` -- segments whose begin lies in d
    """
    if kind == "ge_seg":
        keep = [s for s in m.segs if s >= d]
    elif kind == "end_in":
        keep = [s for s in m.segs if d.contains(s.end_point())]
    elif kind == "begin_in":
        keep = [s for s in m.segs if d.contains(s.begin_point())]
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    return Multisegment(tuple(keep))


# ---------------------------------------------------------------------------
# text form: the inverse of ``str``; the grammar is in the ``mseg.cli`` docstring
# ---------------------------------------------------------------------------

# Most segments an expression may denote, multiplicities expanded (the CLI
# caps `suite --max-segments` at it too).  It bounds neither memory nor time:
# no check lists Y pairs, so `check gls "2048*[0,0]"` ends in 0.01 s, but
# `check gls "1024*[0,0]+[1,1]"` has 1,024 rows of 1,024 terms (about
# 180 MB), and `check gls "32*[0,1]+32*[1,2]"` (64 segments) takes 3 s on a
# 2-core Xeon VM while 128 segments of that family did not finish in 115 s.
MAX_SEGMENTS = 4096

# the digits of UINT and INT: str.isdigit also accepts "²" and "٣"
_DIGITS = frozenset("0123456789")


class _Scanner:
    def __init__(self, text: str):
        self.text = text.replace("−", "-")
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return _literal(self.text[start : self.pos], start)


def _literal(text: str, position: int) -> int:
    """The value of an integer literal; Python refuses to convert more than
    ``sys.get_int_max_str_digits()`` digits."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("integer literal too long", position) from None


def _parse_term(sc: _Scanner, count: int) -> List[Segment]:
    """The segments of one term; ``count`` segments precede it."""
    sc.skip_ws()
    mult = 1
    label = DEFAULT_LINE
    if sc.peek() != "[":
        start = sc.pos
        w = sc.word()
        if not w:
            raise ParseError("expected a segment", sc.pos)
        if sc.peek() == "*":
            if not _DIGITS.issuperset(w):
                raise ParseError("multiplicity must be a nonnegative integer", start)
            mult = _literal(w, start)
            sc.expect("*")
            if sc.peek() != "[":
                w2 = sc.word()
                if not w2 or sc.peek() != ":":
                    raise ParseError("expected a segment after '*'", sc.pos)
                label = w2
                sc.expect(":")
        elif sc.peek() == ":":
            label = w
            sc.expect(":")
        else:
            raise ParseError("expected '*' or ':' after a name", sc.pos)
    sc.expect("[")
    b = sc.integer()
    sc.expect(",")
    e = sc.integer()
    sc.expect("]")
    if b > e:
        raise EmptySegmentError(f"segment [{b},{e}] is empty")
    if count + mult > MAX_SEGMENTS:
        raise TooLargeError(f"more than {MAX_SEGMENTS} segments")
    return [Segment(label, b, e)] * mult


def parse_mseg(text: str) -> Multisegment:
    """Parse an expression into a multisegment; '0' denotes the zero one."""
    if text.strip() == "0":
        return Multisegment()
    sc = _Scanner(text)
    segs: List[Segment] = []
    segs.extend(_parse_term(sc, 0))
    while True:
        sc.skip_ws()
        if sc.pos == len(sc.text):
            break
        sc.expect("+")
        segs.extend(_parse_term(sc, len(segs)))
    return Multisegment(tuple(segs))


def parse_rho(text: str) -> CuspidalPoint:
    """Parse a point, LABEL:INT with the label elidable (then DEFAULT_LINE)."""
    sc = _Scanner(text)
    label = sc.word()
    if label and sc.peek() == ":":
        sc.expect(":")
    else:
        label, sc.pos = DEFAULT_LINE, 0
    pos = sc.integer()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("expected LABEL:INT for a point", sc.pos)
    return CuspidalPoint(label, pos)
