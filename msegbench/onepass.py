"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 msegbench/onepass.py WORKLOAD SEED TRACE

A fresh interpreter per pass keeps the ``lru_cache``s in ``mseg.conditions``
(and any later memo) cold, as they are for a user's ``mseg`` run.  ``mseg``
is imported from the checkout's ``src/``; that import is the set-up time.
The pass is timed, then its outputs are checked outside the timed region,
and one JSON line with the measurements goes to stdout.  An untraced pass
also reports the machine's speed over the pass (``speed.py``), and its
times leave out the reference chunks that measured it.

Every call into mseg goes through a module attribute at call time
(``mseg.harness.gen_ms(...)``), so the tracer's wrappers see it.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)
from speed import Sampler  # noqa: E402

# Untraced passes sample the machine's speed from before the import on, and
# time with a clock that leaves the samples out; traced passes run unsampled.
SAMPLER = Sampler() if sys.argv[3] == "0" else None
if SAMPLER:
    SAMPLER.start()
clock = SAMPLER.clock if SAMPLER else time.perf_counter
_t0 = clock()
import mseg  # noqa: E402
import mseg.cli  # noqa: E402

SETUP_S = clock() - _t0

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from itertools import combinations_with_replacement  # noqa: E402

from tracer import Tracer  # noqa: E402
from witness import witness_ok  # noqa: E402

# ---------------------------------------------------------------------------
# suite: `mseg suite all` at its defaults, in-process
# ---------------------------------------------------------------------------

# default instance target of each suite; 3ms counts each of its parts
SUITE_TARGETS = {
    "3ms": 300,
    "gedelta": 200,
    "invariances": 200,
    "mm-minus": 300,
    "rhoext": 300,
    "splitdisj": 200,
    "sumofseg": 200,
}


def _suite_problems(rc, text, err):
    if rc != 0 or err:
        return [f"exit code {rc}: {err.strip()}"]
    res = json.loads(text)
    problems = []
    if res["verdict"] is not True or res["outputs"]["violations"]:
        problems.append("suite reported violations")
    reports = {r["name"]: r for r in res["outputs"]["suites"]}
    if set(reports) != set(SUITE_TARGETS):
        problems.append(f"suites run: {sorted(reports)}")
    for name, target in SUITE_TARGETS.items():
        r = reports.get(name, {})
        if not r.get("passed"):
            problems.append(f"{name} did not pass")
        if name == "3ms":
            short = [k for k, v in r.get("details", {}).items() if v < target]
            if len(r.get("details", {})) != 4 or short:
                problems.append(f"3ms parts below {target}: {short}")
        elif r.get("hypothesis_satisfied", 0) < target:
            problems.append(f"{name} satisfied {r.get('hypothesis_satisfied')} < {target}")
    return problems


def run_suite(seed, tracer):
    out, err = io.StringIO(), io.StringIO()
    argv = ["suite", "all", "--seed", str(seed), "--format", "json"]
    t0 = clock()
    rc = mseg.cli.run(argv, out=out, err=err)
    wall = clock() - t0
    try:
        problems = _suite_problems(rc, out.getvalue(), err.getvalue())
    except (ValueError, KeyError, TypeError) as e:
        problems = [f"unreadable output: {e!r}"]
    return wall, {}, [("suite", problems)], out.getvalue()


# ---------------------------------------------------------------------------
# acceptance: the nine criteria of tests/test_acceptance.py, without pytest
# ---------------------------------------------------------------------------


def _ms(*pairs):
    return mseg.Multisegment(tuple(mseg.Segment("0", b, e) for b, e in pairs))


class Acceptance:
    """Same GenParams, seeds and pass conditions as the test, no time limits.

    The rank checks use RankConfig(seed=SEED), which is the test's DEFAULT
    at the default workload seed 0.  Criterion 9 re-certifies the TRUE
    verdicts of the direct checks in criteria 1-5; the test also collects the
    checks inside criterion 6's suites through a verdict observer, which this
    workload does not use.
    """

    def __init__(self, seed):
        self.cfg = mseg.RankConfig(seed=seed)
        self.certify = mseg.RankConfig(seed=seed, certify=True)
        self.true_verdicts = {}

    def gls(self, m, cfg=None):
        v = mseg.conditions.check_gls(m, cfg or self.cfg)
        if v.holds:
            self.true_verdicts[("gls", m)] = None
        return v

    def lc(self, m, m2, cfg=None):
        v = mseg.conditions.check_lc(m, m2, cfg or self.cfg)
        if v.holds:
            self.true_verdicts[("lc", m, m2)] = None
        return v

    def c1(self):
        leclerc = _ms((1, 2), (-1, 1), (0, 0), (-2, -1))
        gls, lc = self.gls(leclerc), self.lc(leclerc, leclerc)
        return gls.holds is False and lc.holds is True, f"gls={gls.holds} lc={lc.holds}"

    def c2(self):
        five = _ms((1, 3), (-2, 2), (-1, 1), (0, 0), (-3, -1))
        six = _ms((2, 4), (-2, 3), (-1, 2), (0, 1), (-4, 0), (-3, -1))
        v5, v6 = self.lc(five, five), self.lc(six, six)
        return v5.holds is False and v6.holds is False, f"lc5={v5.holds} lc6={v6.holds}"

    def c3(self):
        p = mseg.GenParams(max_segments=8, coord_range=10, max_length=5, seed=31)
        failures = 0
        for i in range(200):
            v = self.gls(mseg.harness.gen_ladder(p, i), self.certify)
            failures += not (v.holds and v.certified)
        return failures == 0, f"failures={failures}"

    def c4(self):
        p = mseg.GenParams(max_segments=8, coord_range=8, max_length=5, seed=41)
        failures = 0
        for i in range(1000):
            m = mseg.harness.gen_ms(p, i)
            md = mseg.zelevinsky.mw_dual(m)
            failures += mseg.zelevinsky.mw_dual(md) != m or md.supp() != m.supp()
        return failures == 0, f"failures={failures}"

    def c5(self):
        p = mseg.GenParams(max_segments=6, coord_range=5, max_length=4, seed=51)
        gen, mw_dual = mseg.harness.gen_ms, mseg.zelevinsky.mw_dual
        violations = 0
        for i in range(500):
            m = gen(p, i)
            a, b, c = self.gls(m), self.gls(m.dual()), self.gls(mw_dual(m))
            violations += not (a.holds == b.holds == c.holds)
        for i in range(500):
            m, m2 = gen(p, 1000 + 2 * i), gen(p, 1001 + 2 * i)
            violations += self.lc(m, m2).holds != self.lc(m2.dual(), m.dual()).holds
        for i in range(500):
            m = gen(p, 3000 + i)
            violations += self.gls(m).holds and not self.lc(m, m).holds
        return violations == 0, f"violations={violations}"

    def c6(self):
        h = mseg.harness
        p = mseg.GenParams(max_segments=4, coord_range=4, max_length=4, seed=61)
        runs = [
            h.prop_mm_minus(p, self.cfg, instances=300),
            h.prop_gedelta(p, self.cfg, instances=200),
            h.prop_3ms(p, self.cfg, instances=200),
            h.prop_splitdisj(p, self.cfg, instances=200),
            h.prop_sumofseg_geom(p, self.cfg, instances=200),
            h.prop_rhoext_geom(p, self.cfg, instances=300),
        ]
        bad = [r.name for r in runs if not r.passed or r.hypothesis_satisfied < 200]
        three = next(r for r in runs if r.name == "3ms")
        if any(three.details[f"part{k}"] < 200 for k in (2, 3, 4, 5)):
            bad.append("3ms-parts")
        return not bad, ", ".join(f"{r.name}:{r.hypothesis_satisfied}" for r in runs)

    def c7(self):
        z = mseg.zelevinsky
        box = [mseg.Segment("0", b, e) for b in range(0, 4) for e in range(b, 4)]
        rhos = [mseg.CuspidalPoint("0", k) for k in range(-1, 4)]
        disagreements = count = 0
        for k in range(0, 6):
            for combo in combinations_with_replacement(box, k):
                m = mseg.Multisegment(combo)
                for rho in rhos:
                    count += 1
                    best = z.best_matching(m, rho)
                    for other in z.enumerate_maximal_matchings(m, rho):
                        disagreements += not z.matching_equivalent(m, best.a_set, other.a_set)
        return disagreements == 0, f"{count} instances, disagreements={disagreements}"

    def c8(self):
        gen, check_gls, check_lc = (
            mseg.harness.gen_ms,
            mseg.conditions.check_gls,
            mseg.conditions.check_lc,
        )
        p = mseg.GenParams(max_segments=5, coord_range=4, max_length=4, seed=81)
        singles = [gen(p, i) for i in range(100)]
        pairs = [(gen(p, 200 + 2 * i), gen(p, 201 + 2 * i)) for i in range(100)]
        base_gls = [check_gls(m, self.cfg).holds for m in singles]
        base_lc = [check_lc(m, m2, self.cfg).holds for m, m2 in pairs]
        discrepancies = 0
        for seed in (101, 202, 303, 404, 505):
            cfg = mseg.RankConfig(seed=seed)
            got_gls = [check_gls(m, cfg).holds for m in singles]
            got_lc = [check_lc(m, m2, cfg).holds for m, m2 in pairs]
            discrepancies += got_gls != base_gls or got_lc != base_lc
        return discrepancies == 0, f"discrepancies={discrepancies}"

    def c9(self):
        c = mseg.conditions
        disagreements = 0
        for key in self.true_verdicts:
            if key[0] == "gls":
                v = c.check_gls(key[1], self.certify)
            else:
                v = c.check_lc(key[1], key[2], self.certify)
            disagreements += not (v.holds and v.certified)
        return disagreements == 0, f"{len(self.true_verdicts)} re-certified, disagreements={disagreements}"


def run_acceptance(seed, tracer):
    acc = Acceptance(seed)
    wall = 0.0
    parts, ops, details = {}, [], []
    for num in range(1, 10):
        t0 = clock()
        try:
            ok, detail = getattr(acc, f"c{num}")()
        except Exception as e:  # a criterion that raises is a failed op
            ok, detail = False, f"raised {e!r}"
        dt = clock() - t0
        wall += dt
        parts[f"criterion_{num}_s"] = dt
        ops.append((f"criterion {num}", [] if ok else [detail]))
        details.append(f"{num}:{ok}:{detail}")
    return wall, parts, ops, "\n".join(details)


# ---------------------------------------------------------------------------
# large: single check_gls / check_lc calls on big multisegments
# ---------------------------------------------------------------------------

# class -> (instance set in large.json, certify)
LARGE_CLASSES = {
    "gls_false_n64": ("gls_false_n64", False),
    "gls_false_n128": ("gls_false_n128", False),
    "gls_true_n128": ("gls_true_n128", False),
    "gls_certify_n128": ("gls_true_n128", True),
    "lc_n64": ("lc_n64", False),
    "gls_lines4_n128": ("gls_lines4_n128", False),
}


def prepare_large(seed):
    """The (class, kind, inputs, config, reference verdict) of every check."""
    with open(os.path.join(_HERE, "large.json")) as f:
        instances = json.load(f)
    work = []
    for cls, (source, certify) in LARGE_CLASSES.items():
        cfg = mseg.RankConfig(seed=seed, certify=certify)
        for inst in instances[source]:
            msegs = [mseg.cli.parse_mseg(text) for text in inst["inputs"]]
            work.append((cls, inst["kind"], msegs, cfg, inst["holds"]))
    return work


def run_large(work, tracer):
    parts = {cls: 0.0 for cls in LARGE_CLASSES}
    layers = {}
    results = []
    checks = {"gls": mseg.conditions.check_gls, "lc": mseg.conditions.check_lc}
    for cls, kind, msegs, cfg, _ in work:
        before = dict(tracer.self_s) if tracer else None
        t0 = clock()
        try:
            results.append(checks[kind](*msegs, cfg))
        except Exception as e:  # a check that raises is a failed op
            results.append(e)
        parts[cls] += clock() - t0
        if tracer:
            spent = layers.setdefault(cls, {})
            for layer, s in tracer.self_s.items():
                spent[layer] = spent.get(layer, 0.0) + s - before.get(layer, 0.0)
    wall = sum(parts.values())
    ops, digest = [], []
    for (cls, kind, msegs, cfg, want), v in zip(work, results):
        if isinstance(v, Exception):
            ops.append((cls, [f"raised {v!r}"]))
            continue
        problems = []
        if v.holds != want:
            problems.append(f"verdict {v.holds}, reference {want}")
        if cfg.certify and not v.certified:
            problems.append("not certified")
        if v.holds and not witness_ok(kind, msegs, v.witness, cfg.prime):
            problems.append("witness rejected")
        ops.append((cls, problems))
        digest.append(f"{cls}:{v.holds}:{v.certified}:{v.trials_run}:{v.false_verdict_bound}:{v.witness!r}")
    parts = {f"{cls}_s": s for cls, s in parts.items()}
    if tracer:
        parts["layers"] = layers
    return wall, parts, ops, "\n".join(digest)


# workload -> (make the pass's input from the seed, untraced; run the pass)
WORKLOADS = {
    "suite": (int, run_suite),
    "acceptance": (int, run_acceptance),
    "large": (prepare_large, run_large),
}


def main():
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    prepare, run = WORKLOADS[workload]
    inputs = prepare(seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        wall, parts, ops, outputs = run(inputs, tracer)
    finally:
        if tracer:
            tracer.remove()
    if SAMPLER:
        SAMPLER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "chunk_s": SAMPLER.chunk_s() if SAMPLER else None,
        "peak_rss_mb": peak_rss_mb,
        "parts": parts,
        "ops": len(ops),
        "failures": [f"{name}: {'; '.join(p)}" for name, p in ops if p],
        "digest": hashlib.sha256(outputs.encode()).hexdigest(),
        "mseg_file": mseg.__file__,
        "kernel": getattr(mseg, "KERNEL", None),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result))


if __name__ == "__main__":
    main()
