"""mseg benchmark: end-to-end timings per workload, per-layer timings traced.

    python3 msegbench/run.py --workload suite|acceptance|large \
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a checkout.  Passes run one at a time (closed loop, one
client), each in a fresh interpreter that imports ``mseg`` from the
checkout's ``src/``, until ``--seconds`` have been spent.  Every pass checks
its outputs.  The last line of stdout is the summary JSON; the line before
it holds every pass and the machine details.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
set-up (``import mseg, mseg.cli``) and pass time, both normalised to the
machine's nominal speed by ``speed.py``, of peak RSS, and the share of
operations whose output checked out.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracer.py``, the
tracing overhead, and on ``large`` the normalised untraced time of each
instance class.  See README.md for the workloads and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from speed import normalise  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "acceptance", "large")
DEFAULT_SEED = 0
HELD_OUT_SEED = 20191111  # for re-checking a claim on a seed it was not tuned on
LARGE_CLASSES = (
    "gls_false_n64_s",
    "gls_false_n128_s",
    "gls_true_n128_s",
    "gls_certify_n128_s",
    "lc_n64_s",
    "gls_lines4_n128_s",
)
RUN_LIMIT_S = 170  # a run must end within 180 s whatever --seconds says


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mseg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _one_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "onepass.py"), workload, str(seed), "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["traced"] = trace
    return result


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s")


def _counters(result: dict) -> dict:
    return {k: v for k, v in result["layers"].items() if not _is_time(k)}


def _layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics: median times over the traced passes, exact counts."""
    metrics = {}
    for name, value in traced[0]["layers"].items():
        if _is_time(name):
            metrics[name] = (statistics.median([r["layers"][name] for r in traced]), "s")
        else:
            metrics[name] = (value, "ratio" if name.endswith("_rate") else "count")
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    unattributed = [
        r["wall_s"] - sum(v for k, v in r["layers"].items() if k.endswith(".s")) - r["layers"]["trace.hook_s"]
        for r in traced
    ]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median([r["wall_s"] for r in plain]), "s")
    metrics["trace.unattributed_s"] = (statistics.median(unattributed), "s")
    for name in LARGE_CLASSES:
        metrics[name] = (_median_normalised(plain, lambda r: r["parts"].get(name, 0.0)), "s")
    return metrics


def _median_normalised(passes: list, seconds) -> float:
    """Median over untraced passes of a time at the machine's nominal speed."""
    return statistics.median([normalise(seconds(r), r["chunk_s"]) for r in passes])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes until `seconds` are spent; returns (summary, details)."""
    start = time.perf_counter()
    passes = []
    durations = {False: [], True: []}
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.perf_counter() - start
        t0 = time.perf_counter()
        passes.append(_one_pass(workload, seed, traced, RUN_LIMIT_S - elapsed))
        durations[traced].append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        following = trace and len(passes) % 2 == 1
        expected = statistics.median(durations[following] or durations[traced])
        if len(passes) >= (2 if trace else 1) and elapsed + expected > seconds:
            break

    src = str(SRC)
    problems = sorted({p for r in passes for p in r["failures"]})
    if len({r["digest"] for r in passes}) != 1:
        problems.append("outputs differ between passes of one seed")
    foreign = sorted({r["mseg_file"] for r in passes if not r["mseg_file"].startswith(src)})
    if foreign:
        problems.append(f"mseg imported from outside the checkout: {foreign}")
    attempted = sum(r["ops"] for r in passes)
    failed = sum(len(r["failures"]) for r in passes)
    plain = [r for r in passes if not r["traced"]]

    if not trace:
        metrics = {
            "setup_s": (_median_normalised(plain, lambda r: r["setup_s"]), "s"),
            "wall_s": (_median_normalised(plain, lambda r: r["wall_s"]), "s"),
            "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in plain]), "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced = [r for r in passes if r["traced"]]
        metrics = _layer_metrics(plain, traced)
        metrics["error_rate"] = (failed / attempted, "ratio")
        if any(_counters(r) != _counters(traced[0]) for r in traced):
            problems.append("trace counters differ between passes of one seed")

    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    first = passes[0]
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "mseg_file": first["mseg_file"],
        "kernel": first["kernel"],
        **_machine(),
        "problems": problems,
        "absent": next((r["absent"] for r in passes if r["traced"]), []),
        "passes": passes,
    }
    return summary, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the details and summary to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "mseg" / "__init__.py").is_file():
        print(f"error: no mseg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(json.dumps({**details, "summary": summary}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
