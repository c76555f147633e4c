"""The contract of the ten value types: immutable, picklable, exact reprs.

Four are slotted classes that are not tuples (``Segment``, ``Multisegment``,
``RankConfig``, ``CoeffVector``); the other six are named tuples.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mseg.conditions import CoeffVector, Verdict
from mseg.errors import TooLargeError
from mseg.harness import GenParams, PropertyReport
from mseg.linalg import RankConfig
from mseg.segments import MAX_SEGMENTS, CuspidalPoint, Multisegment, Segment
from mseg.zelevinsky import DerivativeResult, Matching

SEG = Segment("a", 0, 2)
MS = Multisegment((Segment("0", 0, 1), SEG, Segment("0", 1, 3)))
VECTOR = CoeffVector({(2, 1): 5, (3, 1): 7})

# one value of each type, with the name of one of its fields
VALUES = [
    (CuspidalPoint("a", 3), "pos"),
    (SEG, "b"),
    (MS, "segs"),
    (RankConfig(prime=97, trials=3, seed=4, certify=True), "seed"),
    (VECTOR, "values"),
    (Verdict(True, (VECTOR, CoeffVector({})), 1, Fraction(0)), "holds"),
    (Matching(frozenset({(2, 1)}), frozenset({3}), frozenset()), "pairs"),
    (DerivativeResult(1, MS, frozenset({2}), frozenset()), "mu"),
    (GenParams(max_segments=3, lines=2, seed=9), "seed"),
    (PropertyReport("s", 4, 2, [{"x": 1}], Fraction(1, 8), {"c": 2}, ("c", 2, 3)), "name"),
]
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, attr", VALUES, ids=IDS)
class TestEveryType:
    def test_pickle_round_trip(self, value, attr):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value)
            assert back == value and repr(back) == repr(value)

    def test_deepcopy_round_trip(self, value, attr):
        for back in (copy.deepcopy(value), copy.copy(value)):
            assert type(back) is type(value)
            assert back == value and repr(back) == repr(value)

    def test_fields_and_attributes_are_read_only(self, value, attr):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")
        assert repr(value) == before

    def test_keyword_construction_matches_positional(self, value, attr):
        if isinstance(value, tuple):
            fields = value._asdict()
        else:
            fields = {name: getattr(value, name) for name in type(value).__slots__ if name[0] != "_"}
        again = type(value)(**fields)
        assert again == value and repr(again) == repr(value)
        assert type(value)(*fields.values()) == value


class TestReprs:
    def test_pins(self):
        assert repr(SEG) == "Segment(line='a', b=0, e=2)"
        assert repr(RankConfig()) == (
            "RankConfig(prime=2305843009213693951, trials=8, seed=0, certify=False)"
        )
        assert repr(VECTOR) == "CoeffVector(values={(2, 1): 5, (3, 1): 7})"
        assert repr(Verdict(False, None, 8, Fraction(1, 4))) == (
            "Verdict(holds=False, witness=None, trials_run=8, "
            "false_verdict_bound=Fraction(1, 4))"
        )


class TestSlottedClasses:
    def test_certify_is_out_of_equality_and_hash(self):
        assert RankConfig(certify=True) == RankConfig()
        assert hash(RankConfig(certify=True)) == hash(RankConfig())
        assert RankConfig(seed=1) != RankConfig()
        assert "certify=True" in repr(RankConfig(certify=True))

    def test_not_equal_to_their_fields(self):
        assert SEG != ("a", 0, 2)
        assert MS != (MS.segs,) and MS != MS.segs
        assert VECTOR != (VECTOR.values,) and VECTOR != VECTOR.values
        assert RankConfig() != (RankConfig().prime, 8, 0)

    def test_coeff_vector_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(VECTOR)

    def test_equal_segments_hash_equal(self):
        assert hash(Segment("a", 0, 2)) == hash(SEG) == hash(("a", 0, 2))
        assert hash(Multisegment((SEG, Segment("0", 0, 1)))) == hash(
            Multisegment((Segment("0", 0, 1), SEG))
        )


class TestNamedTuples:
    def test_equal_to_their_fields(self):
        assert CuspidalPoint("a", 3) == ("a", 3)
        assert tuple(Matching(frozenset())) == (frozenset(), frozenset(), frozenset())

    def test_gen_params_validates(self):
        for kwargs in ({"max_segments": -1}, {"coord_range": -1}):
            with pytest.raises(ValueError):
                GenParams(**kwargs)
        with pytest.raises(ValueError):
            GenParams()._replace(max_segments=-1)
        with pytest.raises(ValueError):
            GenParams(-1)
        assert GenParams()._replace(seed=3) == GenParams(seed=3)
        # a draw holds up to max_segments segments: capped as the parser is
        with pytest.raises(TooLargeError, match=f"^more than {MAX_SEGMENTS} segments$"):
            GenParams(max_segments=MAX_SEGMENTS + 1)
        with pytest.raises(TooLargeError):
            GenParams()._replace(max_segments=MAX_SEGMENTS + 1)
        assert GenParams(max_segments=MAX_SEGMENTS).max_segments == MAX_SEGMENTS
