"""Generators and property suites: determinism, passing runs, replay."""

import dataclasses
import zlib
from fractions import Fraction

import pytest

import mseg.harness
from mseg.harness import (
    CHECKS,
    SUITES,
    GenParams,
    gen_ladder,
    gen_ms,
    prop_3ms,
    prop_gedelta,
    prop_mm_minus,
    prop_rhoext_geom,
    prop_splitdisj,
    prop_sumofseg_geom,
    replay_violation,
    run_check,
    suite_invariances,
    _violation,
)
from mseg.linalg import RankConfig
from mseg.segments import CuspidalPoint, Multisegment, Segment

P = GenParams(seed=77)
CFG = RankConfig()


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


class TestSuitesPass:
    def test_mm_minus(self):
        rep = prop_mm_minus(P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_splitdisj(self):
        rep = prop_splitdisj(P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_gedelta(self):
        rep = prop_gedelta(P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_3ms(self):
        rep = prop_3ms(P, CFG, instances=40)
        assert rep.passed
        assert all(rep.details[f"part{k}"] >= 40 for k in (2, 3, 4, 5))

    def test_sumofseg(self):
        rep = prop_sumofseg_geom(P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_rhoext(self):
        rep = prop_rhoext_geom(P, CFG, instances=60)
        assert rep.passed and rep.hypothesis_satisfied == 60

    def test_invariances(self):
        rep = suite_invariances(P, CFG, instances=40)
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


class TestDeterminismAndReports:
    def test_suite_deterministic(self):
        a = prop_gedelta(P, CFG, instances=25)
        b = prop_gedelta(P, CFG, instances=25)
        assert a.violations == b.violations
        assert a.instances_generated == b.instances_generated
        assert a.accumulated_bound == b.accumulated_bound

    def test_report_dict_shape(self):
        rep = prop_mm_minus(P, CFG, instances=10)
        d = rep.to_dict()
        assert d["passed"] is True and d["violations"] == []
        assert isinstance(d["accumulated_bound"], str)

    def test_invariance_hypothesis_counts(self):
        # each guard of an invariance check decides how often the check runs;
        # pinned at seed 0, so a changed guard shows here
        rep = suite_invariances(GenParams(seed=0), CFG)
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
        rep = prop_mm_minus(P, CFG, instances=40)
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
                    return dataclasses.replace(v, holds=not v.holds)
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

        monkeypatch.setattr(mseg.harness, "check_gls", flipping(mseg.harness.check_gls))
        monkeypatch.setattr(mseg.harness, "check_lc", flipping(mseg.harness.check_lc))
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
        monkeypatch.setattr(mseg.harness, "mw_dual", Multisegment.dual)
        rep = suite_invariances(P, CFG, instances=40)
        found = [v for v in rep.violations if v["property"] == "invariances/mw-involution"]
        assert found and not rep.passed
        assert all(replay_violation(v, CFG) for v in found)
