"""Generators and property suites: determinism, passing runs, replay."""

import hashlib
import io
import itertools
import json
import random
import zlib
from fractions import Fraction
from inspect import signature

import pytest

import mseg.checks
import mseg.fanout
import mseg.harness
from mseg import cli
from mseg.checks import _violation
from mseg.conditions import Verdict
from mseg.harness import (
    CHECK_INPUTS,
    CHECKS,
    SUITES,
    GenParams,
    _below,
    _draw_split,
    gen_ladder,
    gen_ms,
    replay_violation,
    run_check,
)
from mseg.linalg import RankConfig
from mseg.segments import CuspidalPoint, Multisegment, Segment, precedes

P = GenParams(seed=77)
CFG = RankConfig()

# Shapes whose draws reach every generator path: several lines (the line
# name), long ladders, wide boxes and large split blocks.  DRAWS_SHA256 is
# the sha256 of the text of gen_ms, gen_ladder and the four blocks of
# _draw_split at indices 0-299 for each, one line each, as drawn through
# random.Random.randint and randrange before the draws read getrandbits.
DRAW_SHAPES = (
    GenParams(8, 10, 5, 1, 31),
    GenParams(128, 200, 4, 1, 7),
    GenParams(8, 10, 5, 3, 1),
    GenParams(128, 32, 8, 4, 4128),
)
DRAWS_SHA256 = "fd56a76017d4088ad2b14739464e4ebcb8f8b4ff3539a12d88392a816f5c9cc6"


def S(b, e):
    return Segment("0", b, e)


def M(*segs):
    return Multisegment(tuple(segs))


def holds(name, **inputs):
    """The check met its hypothesis and the statement held."""
    result = run_check(name, CFG, inputs)
    return result is not None and result[0] is None


class TestHandTracedInstances:
    def test_mm_minus_inconsistent_pair_is_consistent(self):
        # LC false, and the reduction fails to commute: both sides agree
        assert holds("mm-minus", m=M(S(0, 0)), m2=M(S(1, 1)))

    def test_mm_minus_consistent_pair(self):
        # LC vacuously true; reduced comparison also true
        assert holds("mm-minus", m=M(S(0, 0)), m2=M(S(0, 1)))

    def test_mm_minus_hypothesis_rejects_equal_max(self):
        assert run_check("mm-minus", CFG, {"m": M(S(0, 1)), "m2": M(S(1, 1))}) is None

    def test_sumofseg_doubled_segment(self):
        # n = 2 copies of one segment: X sets stay empty, all conditions hold
        assert holds("sumofseg", m=M(S(0, 0)), m2=M(S(0, 0)))

    def test_rhoext_frontier_example(self):
        assert holds("rhoext", m=M(S(0, 2)), m2=M(S(0, 0), S(1, 1)), rho=CuspidalPoint("0", 0))

    def test_rhoext_trivial_when_derivative_fixes_m(self):
        # no unmatched beginnings at rho: derivative leaves m unchanged
        assert holds(
            "rhoext", m=M(S(0, 1), S(1, 2)), m2=M(S(5, 6)), rho=CuspidalPoint("0", 0)
        )


class TestSplitdisjHypothesis:
    def test_walk_equals_the_segment_pair_loop(self, monkeypatch):
        # every pair of sums of at most two segments on two lines in [0, 2]:
        # the check reaches its first LC call exactly when no segment of the
        # first sum, nor its shift one step left, precedes one of the second
        def old_loop(first, second):
            return not any(
                precedes(a, b) or precedes(a.shift(-1), b) for a in first for b in second
            )

        calls = []

        def fake_lc(m, m2, cfg):
            calls.append((m, m2))
            return Verdict(False, None, 0, Fraction(0))

        monkeypatch.setattr(mseg.checks, "check_lc", fake_lc)
        segs = [Segment(line, b, e) for line in ("0", "a") for b in range(3) for e in range(b, 3)]
        box = [M(*c) for k in range(3) for c in itertools.combinations_with_replacement(segs, k)]
        passed = 0
        for first in box:
            for second in box:
                calls.clear()
                m1, m1p = M(*first.segs[:1]), M(*first.segs[1:])
                m2, m2p = M(*second.segs[1:]), M(*second.segs[:1])
                assert CHECKS["splitdisj"](CFG, m1, m1p, m2, m2p) is None
                assert bool(calls) == old_loop(first, second)
                passed += bool(calls)
        assert len(box) ** 2 == 8281 and 0 < passed < 8281


class TestGenerators:
    def test_deterministic(self):
        for i in range(20):
            assert gen_ms(P, i) == gen_ms(P, i)
            assert gen_ladder(P, i) == gen_ladder(P, i)

    def test_different_indices_vary(self):
        outs = {str(gen_ms(P, i)) for i in range(40)}
        assert len(outs) > 10

    def test_zero_segments(self):
        p0 = GenParams(max_segments=0, seed=1)
        assert all(gen_ms(p0, i) == Multisegment() for i in range(10))

    def test_ladders_are_ladders(self):
        for i in range(100):
            lad = gen_ladder(P, i)
            assert len(lad) >= 1 and lad.is_ladder()

    def test_coordinates_in_box(self):
        for i in range(50):
            for s in gen_ms(P, i):
                assert -P.coord_range <= s.b <= s.e <= P.coord_range

    def test_draws_pinned(self):
        h = hashlib.sha256()
        for p in DRAW_SHAPES:
            for i in range(300):
                for m in (gen_ms(p, i), gen_ladder(p, i), *_draw_split(p, 0, i).values()):
                    h.update(f"{m}\n".encode())
        assert h.hexdigest() == DRAWS_SHA256

    def test_below_is_randrange(self):
        # the same values as randrange on the same stream: the smallest
        # sizes, both sides of powers of two, and sizes past 2**64, where
        # getrandbits returns more than one machine word
        sizes = [1, 2, 3]
        sizes += [2**k + d for k in (2, 3, 5, 8, 31, 32, 53, 63, 64) for d in (-1, 0, 1)]
        sizes += [2**64 + 1, 2**65 - 1, 3 * 2**70 + 5]
        for seed in range(100):
            mine, theirs = random.Random(seed), random.Random(seed)
            for n in sizes:
                got = [_below(mine, n) for _ in range(3)]
                assert got == [theirs.randrange(n) for _ in range(3)]

    def test_memo_equals_the_generator(self):
        # a miss and then a hit of the memo, against a fresh draw each time
        gen_ms.cache_clear()
        for lines in (1, 3):
            for seed in (0, 7, 41, 20191111):
                p = GenParams(max_segments=6, lines=lines, seed=seed)
                for i in range(60):
                    first = gen_ms(p, i)
                    assert gen_ms(p, i) is first
                    assert first == gen_ms.__wrapped__(p, i)
        assert gen_ms.cache_info().misses == 2 * 4 * 60

    def test_memo_catches_repeats_of_suite_all(self, monkeypatch):
        # `mseg suite all` at seed 0 asks for 2,702 distinct draws in 7,003
        # calls; on one usable CPU one process walks the windows of the index
        # space, so 2,048 entries catch all 4,301 repeats.  Of its 13,029
        # checks, the 256 verdicts of conditions._decide catch 7,239 repeats:
        # the README's memo table
        monkeypatch.setattr(mseg.fanout, "usable_cpus", lambda: [None])
        calls = []

        def recording(p, index):
            calls.append((p, index))
            return gen_ms(p, index)

        monkeypatch.setattr(mseg.harness, "gen_ms", recording)
        gen_ms.cache_clear()
        mseg.conditions._decide.cache_clear()
        assert cli.run(["suite", "all", "--seed", "0", "--format", "json"], out=io.StringIO()) == 0
        info = gen_ms.cache_info()
        assert len(calls) == 7003 and len(set(calls)) == 2702
        assert (info.hits, info.misses, info.currsize) == (4301, 2702, 2048)
        info = mseg.conditions._decide.cache_info()
        assert (info.hits, info.misses, info.currsize) == (7239, 5790, 256)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_stride_matches_the_draw_source(self, monkeypatch, name):
        # draw i reads every gen_ms index of [stride * i, stride * (i + 1))
        # and no other, but for the m2 of invariances at target + i.  A wrong
        # stride changes no output, only how the fan-out's windows split
        # instances between processes, so this is its only guard
        suite, read = SUITES[name], []
        monkeypatch.setattr(mseg.harness, "gen_ms", lambda p, index: read.append(index) or gen_ms(p, index))
        for i in range(64):
            read.clear()
            suite.draw(P, suite.target, i)
            own = range(suite.stride * i, suite.stride * (i + 1))
            outside = [j for j in read if j not in own]
            assert outside == ([suite.target + i] if name == "invariances" else []), (name, i)
            if read:  # splitdisj reads none: stride 1
                assert sorted(set(read) - set(outside)) == list(own), (name, i)


class TestSuitesPass:
    def test_mm_minus(self):
        rep = SUITES["mm-minus"](P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_splitdisj(self):
        rep = SUITES["splitdisj"](P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_gedelta(self):
        rep = SUITES["gedelta"](P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_3ms(self):
        rep = SUITES["3ms"](P, CFG, instances=40)
        assert rep.passed
        assert all(rep.details[f"part{k}"] >= 40 for k in (2, 3, 4, 5))

    def test_sumofseg(self):
        rep = SUITES["sumofseg"](P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_rhoext(self):
        rep = SUITES["rhoext"](P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_invariances(self):
        rep = SUITES["invariances"](P, CFG, instances=40)
        assert rep.passed

    def test_registry_complete(self):
        assert set(SUITES) == {
            "mm-minus",
            "splitdisj",
            "gedelta",
            "3ms",
            "sumofseg",
            "rhoext",
            "invariances",
        }

    def test_every_check_runs_in_exactly_one_suite(self):
        runs = [check for suite in SUITES.values() for check in suite.checks]
        assert sorted(runs) == sorted(CHECKS)

    def test_check_inputs_are_the_check_parameters(self):
        for name, check in CHECKS.items():
            assert CHECK_INPUTS[name] == tuple(signature(check).parameters)[1:]

    def test_each_draw_holds_the_inputs_of_its_checks(self):
        # some early draw at seed 0 holds every input a check of the suite names,
        # and no draw holds an input that none of them names
        p = GenParams(seed=0)
        for suite in SUITES.values():
            draws = [d for i in range(20) if (d := suite.draw(p, suite.target, i)) is not None]
            named = {key for check in suite.checks for key in CHECK_INPUTS[check]}
            assert draws and all(set(d) <= named for d in draws)
            for check in suite.checks:
                assert any(set(CHECK_INPUTS[check]) <= set(d) for d in draws), check

    @pytest.mark.parametrize("name", ["mm-minus", "invariances"])
    @pytest.mark.parametrize("instances", [0, -3])
    def test_nonpositive_instances_raise(self, name, instances):
        # a run that tests nothing must not report a pass
        with pytest.raises(ValueError, match="instances must be positive"):
            SUITES[name](GenParams(), CFG, instances=instances)

    def test_short_of_target_is_recorded(self):
        # no pair of zero multisegments meets the frontier hypothesis
        rep = SUITES["mm-minus"](GenParams(max_segments=0), CFG, instances=5)
        assert rep.passed and rep.hypothesis_satisfied == 0
        assert rep.instances_generated == 1000 and rep.shortfall == ("mm-minus", 0, 5)
        assert "shortfall" not in rep.to_dict()
        assert SUITES["mm-minus"](P, CFG, instances=5).shortfall is None
        # a fixed-draw suite: no draw of zero multisegments holds a rho, so
        # half its checks never run
        invariances = SUITES["invariances"]
        rep = invariances(GenParams(max_segments=0), CFG)
        assert rep.passed and rep.instances_generated == rep.hypothesis_satisfied == 200
        assert rep.shortfall == ("invariances/mw-delta-minimal", 0, 1)
        assert len(rep.details) == len(invariances.checks) == 12
        assert sorted(name for name, n in rep.details.items() if n == 0) == [
            "best-matching-maximal",
            "derivative-soc-supp",
            "frontier-inequality",
            "frontier-map",
            "matching-unmatched-equivalence",
            "mw-delta-minimal",
        ]
        # at seed 0, 20 draws meet every hypothesis but frontier-map's
        rep = invariances(GenParams(seed=0), CFG, instances=20)
        assert rep.passed and rep.hypothesis_satisfied == 20
        assert rep.shortfall == ("invariances/frontier-map", 0, 1)
        assert [name for name, n in rep.details.items() if n == 0] == ["frontier-map"]
        assert invariances(GenParams(seed=0), CFG, instances=25).shortfall is None


# sha256 of each suite's compact report JSON at its default target, with
# GenParams(seed=s) and RankConfig(); pinned per suite, so a new suite leaves
# these valid
REPORT_SHA256 = {
    (0, "3ms"): "e9619445641aeed74cc712dca69be138194eda43fb9acd9183458ebd82384a03",
    (0, "gedelta"): "1feaec971cb8ddb442eb76f7bcacaa99360f69d285c3438e5efcf0fe1cbb0bb1",
    (0, "invariances"): "082921d7ad82f6bffa6e3441c1260fcda982a53da817297ce4da892beee1df82",
    (0, "mm-minus"): "e998ba92c4b8666fb94666c723566ad900de4011b7e183837365f705fbe92271",
    (0, "rhoext"): "8c1a35acdcd889663a87c7abb212e9a64ab931501883f103f1d00d0b22cf95e5",
    (0, "splitdisj"): "f7fcaec28ea6775552a85f04b5a2f329d092febf14f67b5b0572bf0258321d87",
    (0, "sumofseg"): "336190404d3c1923838c8b165be37df70fd6c272fbed8c24f0d41d860f442c74",
    (7, "3ms"): "e6aec4a0b0c9e2971ce10e80b2f8e3c786db107a1fa805ede6ce354a5d232e34",
    (7, "gedelta"): "5076ca4d9f1b8287a83b41e5fcf16f893c57212690f1c76f4b54491f65e76d86",
    (7, "invariances"): "5fe3e598c65d02914a2bee0d747079bcb99189f3db44e84679dd03eb8f8833dd",
    (7, "mm-minus"): "5a22ad83fd84dd77754608b86022d032cdf5b850c7d9c2a1633abe7511bc0bf5",
    (7, "rhoext"): "a792ee1960203c0ce649e2d7b5ecd4daa74fe84efd924a3b3d930cf42a76e13b",
    (7, "splitdisj"): "7bbc6e5897e9abd6a2f23dd56cd0313d3c7d689af968312348433668a3fc9e38",
    (7, "sumofseg"): "db1f09ccef96d7a95ec8c199be94a86aa4fe579f9de3c56fda294f96a70cc4e4",
}


@pytest.mark.parametrize("seed, name", sorted(REPORT_SHA256))
def test_report_bytes_pinned(seed, name):
    rep = SUITES[name](GenParams(seed=seed), CFG)
    text = json.dumps(rep.to_dict(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed, name]


class TestDeterminismAndReports:
    def test_suite_deterministic(self):
        a = SUITES["gedelta"](P, CFG, instances=25)
        b = SUITES["gedelta"](P, CFG, instances=25)
        assert a.violations == b.violations
        assert a.instances_generated == b.instances_generated
        assert a.accumulated_bound == b.accumulated_bound

    def test_report_dict_shape(self):
        rep = SUITES["mm-minus"](P, CFG, instances=10)
        d = rep.to_dict()
        assert d["passed"] is True and d["violations"] == []
        assert isinstance(d["accumulated_bound"], str)

    def test_invariance_hypothesis_counts(self):
        # each guard of an invariance check decides how often the check runs;
        # pinned at seed 0, so a changed guard shows here
        rep = SUITES["invariances"](GenParams(seed=0), CFG)
        assert rep.details == {
            "mw-involution": 200,
            "mw-delta-minimal": 161,
            "y-diagonal": 200,
            "pairset-decomposition": 200,
            "frontier-map": 40,
            "best-matching-maximal": 161,
            "matching-unmatched-equivalence": 161,
            "derivative-soc-supp": 161,
            "frontier-inequality": 104,
            "gls-involution-invariance": 200,
            "lc-dual-symmetry": 200,
            "gls-implies-lc-self": 200,
        }

    def test_bound_accumulates(self):
        rep = SUITES["mm-minus"](P, CFG, instances=40)
        # instances with false verdicts contribute a positive, tiny bound
        assert rep.accumulated_bound >= 0
        assert rep.accumulated_bound < Fraction(1, 10**20)


class TestReplay:
    def test_real_violations_replay(self):
        # the statement holds on this instance
        assert holds("mm-minus", m=M(S(0, 0)), m2=M(S(1, 1)))

        # a synthetic record replays through the parser and reports False
        fake = _violation(
            "mm-minus",
            {"m": "[0,0]", "m2": "[1,1]"},
            {},
            Fraction(0),
        )
        assert replay_violation(fake, CFG) is False

    def test_replay_unknown_property(self):
        with pytest.raises(ValueError):
            replay_violation({"property": "nope", "inputs": {}}, CFG)

    def test_replay_inputs_that_do_not_fit_the_check(self):
        for inputs in ({"m": "[0,0]"}, {"m": "[0,0]", "m2": "[1,1]", "rho": "0"}):
            record = {"property": "mm-minus", "inputs": inputs}
            with pytest.raises(ValueError, match="takes the inputs m, m2"):
                replay_violation(record, CFG)

    @pytest.mark.parametrize("delta", ["0", "2*[0,1]", "[0,1]+[2,3]"])
    def test_replay_delta_that_is_not_one_segment(self, delta):
        # no segment, and two equal or distinct ones, are refused alike
        record = {"property": "gedelta", "inputs": {"m": "[0,0]", "m2": "[1,1]", "delta": delta}}
        with pytest.raises(ValueError, match="delta must be exactly one segment"):
            replay_violation(record, CFG)

    def test_every_check_replays_its_violations(self, monkeypatch):
        # flip the verdicts, and the outcomes of the checks that use no
        # verdict, on a fixed fifth of the inputs, so that every check
        # reports violations; then replay each record by itself
        def flipped(*values):
            return zlib.crc32(" ".join(str(v) for v in values).encode()) % 5 == 0

        def flipping(check):
            def fake(*args):
                v = check(*args)
                if flipped(*args[:-1]):
                    return v._replace(holds=not v.holds)
                return v

            return fake

        def flipping_outcome(check):
            def fake(cfg, **inputs):
                outcome = check(cfg, **inputs)
                if outcome is None or outcome[2] or not flipped(*inputs.values()):
                    return outcome
                held, detail, verdicts = outcome
                return not held, detail, verdicts

            return fake

        monkeypatch.setattr(mseg.checks, "check_gls", flipping(mseg.checks.check_gls))
        monkeypatch.setattr(mseg.checks, "check_lc", flipping(mseg.checks.check_lc))
        for name, check in list(CHECKS.items()):
            monkeypatch.setitem(CHECKS, name, flipping_outcome(check))
        gen = GenParams(seed=11)
        violations = [
            v for suite in SUITES.values() for v in suite(gen, CFG, instances=40).violations
        ]
        assert len(CHECKS) == 21
        assert {v["property"] for v in violations} == set(CHECKS)
        assert all(replay_violation(v, CFG) for v in violations)

    def test_held_identity_replays_false(self):
        record = _violation("invariances/mw-involution", {"m": "[0,1]"}, {}, Fraction(0))
        assert replay_violation(record, CFG) is False

    def test_planted_involution_fault_is_reported_and_replays(self, monkeypatch):
        # the plain dual is not the Moeglin-Waldspurger involution
        monkeypatch.setattr(mseg.checks, "mw_dual", Multisegment.dual)
        rep = SUITES["invariances"](P, CFG, instances=40)
        found = [v for v in rep.violations if v["property"] == "invariances/mw-involution"]
        assert found and not rep.passed
        assert all(replay_violation(v, CFG) for v in found)
