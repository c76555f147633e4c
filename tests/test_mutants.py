"""How well the suites catch defects of the decision code.

Each mutant replaces one step of :mod:`mseg.conditions` with a wrong one.
The table pins, for each, the violations that ``mseg suite all`` at seed 0
reports, by check, at the default shape and at a deeper one.  A mutant
with no violation at either shape is an escape: no suite tells it apart
from the correct code, and it stays in the table with its reason until a
suite change kills it (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).
"""

import io
import json
from collections import Counter

import pytest

import mseg.conditions
import mseg.fanout
from mseg.cli import run
from mseg.segments import precedes

_row_terms = mseg.conditions._row_terms


def _minus_at_shift_0(m, m2, x1, x2):
    """The -lam column (r, j) kept where seg_r precedes seg2_j itself, not
    its right shift."""
    terms = _row_terms(m, m2, x1, x2)
    segs, segs2, width = m.segs, m2.segs, len(m2) + 1

    def mutant(i, j):
        found = {c: term for c, term in terms(i, j).items() if term[0] == 1}
        for key in x1:
            r = key[1]
            if key[0] == i and precedes(segs[r - 1], segs2[j - 1]):
                found[r * width + j] = (0, key)
        return found

    return mutant


def _minus_dropped(m, m2, x1, x2):
    """Only the +lam2 terms of each row."""
    terms = _row_terms(m, m2, x1, x2)
    return lambda i, j: {c: term for c, term in terms(i, j).items() if term[0] == 1}


def _first_keys_taken(block, matched, pairs, seed, shared):
    """The 0/1 witness on the keys of the first matching, unique or not."""
    key = 1 if shared else slice(None)
    sides = ({}, {})
    for k in sorted({row[c][key] for row, c in zip(block, matched)}):
        side, pair = (0, k) if shared else k
        sides[side][pair] = 1
    return sides


INVOLUTION = "invariances/gls-involution-invariance"
DUAL = "invariances/lc-dual-symmetry"
SHAPES = {"default": [], "deep": ["--max-segments", "8", "--range", "6"]}

# name: (the patched function of mseg.conditions, its replacement,
#        {shape: violations by check})
MUTANTS = {
    "correct": (None, None, {"default": {}, "deep": {}}),
    "minus columns at shift 0": (
        "_row_terms",
        _minus_at_shift_0,
        {"default": {INVOLUTION: 41, DUAL: 6}, "deep": {INVOLUTION: 74, DUAL: 11}},
    ),
    "minus terms dropped": (
        "_row_terms",
        _minus_dropped,
        {"default": {INVOLUTION: 41, DUAL: 6}, "deep": {INVOLUTION: 74, DUAL: 11}},
    ),
    # escape: it changes no verdict of the default suites, and at the deep
    # shape it turns only the 16 distinct FALSEs by elimination TRUE, which
    # no check reports
    "0/1 witness without its uniqueness test": (
        "_sparse_witness",
        _first_keys_taken,
        {"default": {}, "deep": {}},
    ),
    # escape: the same verdicts change as for the mutant above
    "every perfect matching unique": (
        "unique_matching",
        lambda rows, matched: True,
        {"default": {}, "deep": {}},
    ),
}


# the names the test patches, as the correct code binds them
ORIGINALS = {name: getattr(mseg.conditions, name) for name, _, _ in MUTANTS.values() if name}
USABLE_CPUS = mseg.fanout.usable_cpus


def _violations(argv):
    """The violations `mseg suite all` reports, counted by check."""
    out, err = io.StringIO(), io.StringIO()
    assert run(["suite", "all", "--format", "json", *argv], out, err) == 0 and not err.getvalue()
    return dict(Counter(v["property"] for v in json.loads(out.getvalue())["outputs"]["violations"]))


@pytest.mark.parametrize("mutant", MUTANTS)
def test_suites_catch_mutant(mutant, monkeypatch):
    name, replacement, want = MUTANTS[mutant]
    got = {}
    with monkeypatch.context() as patch:
        # one process sees every draw, and the verdict memo holds no verdict
        # of other code before or after
        patch.setattr(mseg.fanout, "usable_cpus", lambda: [None])
        if name:
            patch.setattr(mseg.conditions, name, replacement)
        try:
            for shape, argv in SHAPES.items():
                mseg.conditions._decide.cache_clear()
                got[shape] = _violations(argv)
        finally:
            mseg.conditions._decide.cache_clear()
    assert got == want
    assert mseg.fanout.usable_cpus is USABLE_CPUS
    assert all(getattr(mseg.conditions, n) is f for n, f in ORIGINALS.items())
