"""Regenerate ``large.json``: the fixed instance set of the ``large`` workload.

Instances are drawn from ``GenParams`` families (rejection on the segment
count) and stored as canonical expressions, so the workload's inputs do not
change when the generators do.  Each instance carries a reference verdict:
TRUE only when an exact certification and the independent witness check in
``witness.py`` agree, FALSE only when two coefficient seeds both fail all
their trials.

    PYTHONPATH=src python3 msegbench/make_large.py > msegbench/large.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mseg import GenParams, RankConfig, check_gls, check_lc, gen_ladder, gen_ms
from witness import witness_ok

# class -> (generator, GenParams, accepted segment counts, instances, kind)
FAMILIES = {
    "gls_false_n64": (gen_ms, GenParams(64, 32, 8, 1, seed=64), (64, 64), 1, "gls"),
    "gls_false_n128": (gen_ms, GenParams(128, 64, 8, 1, seed=128), (128, 128), 1, "gls"),
    "gls_true_n128": (gen_ladder, GenParams(128, 200, 4, 1, seed=7), (120, 128), 1, "gls"),
    "lc_n64": (gen_ms, GenParams(64, 32, 8, 1, seed=264), (64, 64), 2, "lc"),
    "gls_lines4_n128": (gen_ms, GenParams(128, 32, 8, 4, seed=4128), (128, 128), 3, "gls"),
}


def _draw(gen, params, sizes, count):
    lo, hi = sizes
    index = 0
    while count:
        m = gen(params, index)
        index += 1
        if lo <= len(m) <= hi:
            count -= 1
            yield m


def _reference(kind, msegs):
    check = check_gls if kind == "gls" else check_lc
    first = check(*msegs, RankConfig(seed=0))
    second = check(*msegs, RankConfig(seed=1))
    if first.holds != second.holds:
        raise SystemExit(f"seeds disagree on {kind} {[str(m) for m in msegs]}")
    if not first.holds:
        return False
    if not check(*msegs, RankConfig(certify=True)).certified:
        raise SystemExit(f"exact certification failed on {[str(m) for m in msegs]}")
    if not witness_ok(kind, msegs, first.witness, RankConfig().prime):
        raise SystemExit(f"witness rejected on {[str(m) for m in msegs]}")
    return True


def main():
    out = {}
    for name, (gen, params, sizes, count, kind) in FAMILIES.items():
        per = 2 if kind == "lc" else 1
        drawn = list(_draw(gen, params, sizes, count * per))
        groups = [drawn[k : k + per] for k in range(0, len(drawn), per)]
        out[name] = [
            {"kind": kind, "inputs": [str(m) for m in g], "holds": _reference(kind, g)}
            for g in groups
        ]
        print(f"{name}: {[i['holds'] for i in out[name]]}", file=sys.stderr)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
