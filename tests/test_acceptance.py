"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  A module fixture records every TRUE verdict produced
during criteria 1-6 (including those inside the property suites); criterion
9 re-runs each and checks its witness by exact rational rank, an arithmetic
the package does not use (criterion 3 does the same for its ladders).
"""

import sys
import time
from itertools import combinations_with_replacement

import pytest
from exact_rank import rank_exact

import mseg.harness
from mseg.conditions import check_gls, check_lc, lc_matrix
from mseg.harness import SUITES, GenParams, gen_ladder, gen_ms
from mseg.linalg import RankConfig
from mseg.segments import CuspidalPoint, Multisegment, Segment
from mseg.zelevinsky import (
    best_matching,
    enumerate_maximal_matchings,
    matching_equivalent,
    mw_dual,
)


def S(b, e):
    return Segment("0", b, e)


def M(*segs):
    return Multisegment(tuple(segs))


LECLERC = M(S(1, 2), S(-1, 1), S(0, 0), S(-2, -1))
FIVE_SEG = M(S(1, 3), S(-2, 2), S(-1, 1), S(0, 0), S(-3, -1))
SIX_SEG = M(S(2, 4), S(-2, 3), S(-1, 2), S(0, 1), S(-4, 0), S(-3, -1))

DEFAULT = RankConfig()

# every TRUE verdict seen while recording is re-checked exactly in criterion 9
_TRUE_VERDICTS: dict = {}
_RECORDING = True


def _record(key, verdict):
    if _RECORDING and verdict.holds:
        _TRUE_VERDICTS[key] = None
    return verdict


@pytest.fixture(scope="module", autouse=True)
def _recording_checks():
    """Wrap check_gls and check_lc where this module and the suites look
    them up, so every TRUE verdict they return is recorded."""
    gls, lc = check_gls, check_lc

    def recording_gls(m, cfg=DEFAULT):
        return _record(("gls", m), gls(m, cfg))

    def recording_lc(m, m2, cfg=DEFAULT):
        return _record(("lc", m, m2), lc(m, m2, cfg))

    with pytest.MonkeyPatch.context() as mp:
        for module in (mseg.harness, sys.modules[__name__]):
            mp.setattr(module, "check_gls", recording_gls)
            mp.setattr(module, "check_lc", recording_lc)
        yield


def _exact_full_rank(m, m2, lam, lam2) -> bool:
    """Every line block of LC(m, m2) at (lam, lam2) has full row rank over
    the rationals."""
    return all(rank_exact(rows) == len(rows) for rows in lc_matrix(m, m2, lam, lam2))


def _report(num: int, ok: bool, elapsed: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s) - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_leclerc():
    t0 = time.perf_counter()
    gls = check_gls(LECLERC, DEFAULT)
    lc = check_lc(LECLERC, LECLERC, DEFAULT)
    dt = time.perf_counter() - t0
    ok = gls.holds is False and lc.holds is True and dt < 1.0
    _report(1, ok, dt, f"Leclerc example: gls={gls.holds} lc_self={lc.holds}")


def test_criterion_2_multiplicity_examples():
    t0 = time.perf_counter()
    v5 = check_lc(FIVE_SEG, FIVE_SEG, DEFAULT)
    dt5 = time.perf_counter() - t0
    t1 = time.perf_counter()
    v6 = check_lc(SIX_SEG, SIX_SEG, DEFAULT)
    dt6 = time.perf_counter() - t1
    ok = v5.holds is False and v6.holds is False and dt5 < 1.0 and dt6 < 1.0
    _report(
        2,
        ok,
        dt5 + dt6,
        f"high-multiplicity self products: lc5={v5.holds} lc6={v6.holds}",
    )


def test_criterion_3_ladders_certified():
    p = GenParams(max_segments=8, coord_range=10, max_length=5, seed=31)
    t0 = time.perf_counter()
    failures = 0
    for i in range(200):
        m = gen_ladder(p, i)
        v = check_gls(m, DEFAULT)
        if not (v.holds and _exact_full_rank(m, m, v.witness, v.witness)):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 30.0
    _report(3, ok, dt, f"200 ladders certified, failures={failures}")


def test_criterion_4_involution():
    p = GenParams(max_segments=8, coord_range=8, max_length=5, seed=41)
    t0 = time.perf_counter()
    failures = 0
    for i in range(1000):
        m = gen_ms(p, i)
        md = mw_dual(m)
        if mw_dual(md) != m or md.supp() != m.supp():
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 10.0
    _report(4, ok, dt, f"1000 involutions, failures={failures}")


def test_criterion_5_invariances():
    p = GenParams(max_segments=6, coord_range=5, max_length=4, seed=51)
    t0 = time.perf_counter()
    violations = 0
    for i in range(500):
        m = gen_ms(p, i)
        a = check_gls(m, DEFAULT)
        b = check_gls(m.dual(), DEFAULT)
        c = check_gls(mw_dual(m), DEFAULT)
        if not (a.holds == b.holds == c.holds):
            violations += 1
    for i in range(500):
        m = gen_ms(p, 1000 + 2 * i)
        m2 = gen_ms(p, 1001 + 2 * i)
        if check_lc(m, m2, DEFAULT).holds != check_lc(m2.dual(), m.dual(), DEFAULT).holds:
            violations += 1
    for i in range(500):
        m = gen_ms(p, 3000 + i)
        if check_gls(m, DEFAULT).holds and not check_lc(m, m, DEFAULT).holds:
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120.0
    _report(5, ok, dt, f"involution/dual/self invariances, violations={violations}")


def test_criterion_6_proposition_suites():
    p = GenParams(max_segments=4, coord_range=4, max_length=4, seed=61)
    t0 = time.perf_counter()
    runs = [
        SUITES["mm-minus"](p, DEFAULT, instances=300),
        SUITES["gedelta"](p, DEFAULT, instances=200),
        SUITES["3ms"](p, DEFAULT, instances=200),
        SUITES["splitdisj"](p, DEFAULT, instances=200),
        SUITES["sumofseg"](p, DEFAULT, instances=200),
        SUITES["rhoext"](p, DEFAULT, instances=300),
    ]
    dt = time.perf_counter() - t0
    bad = [r.name for r in runs if not r.passed or r.hypothesis_satisfied < 200]
    three = next(r for r in runs if r.name == "3ms")
    if any(three.details[f"part{k}"] < 200 for k in (2, 3, 4, 5)):
        bad.append("3ms-parts")
    ok = not bad and dt < 300.0
    detail = ", ".join(f"{r.name}:{r.hypothesis_satisfied}" for r in runs)
    _report(6, ok, dt, f"suites clean ({detail})" + (f" BAD={bad}" if bad else ""))


def test_criterion_7_matching_oracle_exhaustive():
    global _RECORDING
    _RECORDING = False  # criteria 1-6 are complete; stop collecting
    t0 = time.perf_counter()
    box = [S(b, e) for b in range(0, 4) for e in range(b, 4)]
    rhos = [CuspidalPoint("0", k) for k in range(-1, 4)]
    disagreements = 0
    count = 0
    for k in range(0, 6):
        for combo in combinations_with_replacement(box, k):
            m = M(*combo)
            for rho in rhos:
                count += 1
                best = best_matching(m, rho)
                for other in enumerate_maximal_matchings(m, rho):
                    if not matching_equivalent(m, best.a_set, other.a_set):
                        disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and dt < 60.0
    _report(7, ok, dt, f"{count} exhaustive matching instances, disagreements={disagreements}")


def test_criterion_8_seed_stability():
    p = GenParams(max_segments=5, coord_range=4, max_length=4, seed=81)
    t0 = time.perf_counter()
    singles = [gen_ms(p, i) for i in range(100)]
    pairs = [(gen_ms(p, 200 + 2 * i), gen_ms(p, 201 + 2 * i)) for i in range(100)]
    base_gls = [check_gls(m, DEFAULT).holds for m in singles]
    base_lc = [check_lc(m, m2, DEFAULT).holds for m, m2 in pairs]
    discrepancies = 0
    for seed in (101, 202, 303, 404, 505):
        cfg = RankConfig(seed=seed)
        got_gls = [check_gls(m, cfg).holds for m in singles]
        got_lc = [check_lc(m, m2, cfg).holds for m, m2 in pairs]
        if got_gls != base_gls or got_lc != base_lc:
            discrepancies += 1
    dt = time.perf_counter() - t0
    ok = discrepancies == 0
    _report(8, ok, dt, f"200-instance corpus x 5 seeds, discrepancies={discrepancies}")


def test_criterion_9_exact_rank_cross_check():
    t0 = time.perf_counter()
    if not _TRUE_VERDICTS:
        # standalone run: rebuild a representative corpus
        p = GenParams(max_segments=8, coord_range=10, max_length=5, seed=31)
        _TRUE_VERDICTS[("lc", LECLERC, LECLERC)] = None
        for i in range(50):
            _TRUE_VERDICTS[("gls", gen_ladder(p, i))] = None
    disagreements = 0
    for key in _TRUE_VERDICTS:
        if key[0] == "gls":
            m = m2 = key[1]
            v = check_gls(m, DEFAULT)
            lams = (v.witness, v.witness)
        else:
            m, m2 = key[1], key[2]
            v = check_lc(m, m2, DEFAULT)
            lams = v.witness
        if not (v.holds and _exact_full_rank(m, m2, *lams)):
            disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0
    _report(
        9,
        ok,
        dt,
        f"{len(_TRUE_VERDICTS)} true verdicts re-checked by exact rank, "
        f"disagreements={disagreements}",
    )
