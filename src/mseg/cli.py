"""Command-line surface: parse multisegment expressions, run checks and
suites, print text or stable JSON.

Expression grammar (whitespace ignored, ``-`` and the unicode minus accepted):

    mseg  := '0' | term ('+' term)*
    term  := (UINT '*')? seg
    seg   := (LABEL ':')? '[' INT ',' INT ']'
    point := (LABEL ':')? INT

UINT is ASCII digits, no more than Python converts to an int (4300 by
default), and INT an optional '-' before them; a LABEL is letters, digits
and '_'.  The default line label is "0"; multiplicities expand, up to
MAX_SEGMENTS segments in all.  Canonical output is the '+'-joined
descending order, which round-trips through the parser.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .conditions import (
    CoeffVector,
    check_gls,
    check_ig,
    check_lc,
    li_for_good,
    union_bound,
)
from .errors import (
    EmptySegmentError,
    MsegError,
    NotApplicableError,
    ParseError,
    TooLargeError,
)
from .harness import SUITES, GenParams, Suite, SuiteRun
from .linalg import MERSENNE61, RankConfig
from .segments import parse_mseg, parse_rho
from .zelevinsky import derivative, mw_dual, mw_step, soc_cuspidal

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
# The reader closed the output pipe before the record was written, as a shell
# reports a process that SIGPIPE ended (128 + 13); never 1, which
# --exit-code-verdict gives FALSE.
EXIT_PIPE = 141

# Largest instance target of `suite --trials`.  A suite draws up to 200
# candidates per instance, so its work stays within 50 times that of its
# default target of 200 to 300 instances.
MAX_INSTANCES = 10_000


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _coeffs_json(vec: CoeffVector, prefix: str = "") -> dict:
    return {f"{prefix}({i},{j})": v for (i, j), v in sorted(vec.values.items())}


def _lc_json(witness: Tuple[CoeffVector, CoeffVector]) -> dict:
    """An LC witness: each side's coefficients, keyed by m: and m2:."""
    lam, lam2 = witness
    return {**_coeffs_json(lam, "m:"), **_coeffs_json(lam2, "m2:")}


def emit_json(result: dict) -> str:
    """Serialize in the fixed key order; byte-identical for identical runs."""
    ordered = {
        "command": result["command"],
        "inputs": result["inputs"],
        "verdict": result["verdict"],
        "certified": result["certified"],
        "trials": result["trials"],
        "false_verdict_bound": result["false_verdict_bound"],
        "witness": result["witness"],
        "prime": result["prime"],
        "seed": result["seed"],
        "outputs": result["outputs"],
    }
    return json.dumps(ordered, separators=(",", ":"), sort_keys=False)


def _result(
    command: str,
    inputs: List[str],
    cfg: RankConfig,
    verdict: Optional[bool] = None,
    certified: bool = False,
    trials: int = 0,
    bound: Fraction = Fraction(0),
    witness: Optional[dict] = None,
    outputs: Optional[dict] = None,
) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "certified": certified,
        "trials": trials,
        "false_verdict_bound": _frac_str(bound),
        "witness": witness,
        "prime": cfg.prime,
        "seed": cfg.seed,
        "outputs": outputs or {},
    }


def _print_text(result: dict, out) -> None:
    print(f"command: {result['command']}", file=out)
    for s in result["inputs"]:
        print(f"input: {s}", file=out)
    if result["verdict"] is not None:
        print(f"verdict: {str(result['verdict']).lower()}", file=out)
        print(f"certified: {str(result['certified']).lower()}", file=out)
        print(f"trials: {result['trials']}", file=out)
        print(f"false_verdict_bound: {result['false_verdict_bound']}", file=out)
    for key, val in result["outputs"].items():
        if key == "violations":
            for rec in val:
                print(f"violation: {json.dumps(rec)}", file=out)
        else:
            print(f"{key}: {val if isinstance(val, str) else json.dumps(val)}", file=out)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mseg", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, handler, verdict=False, **kw) -> argparse.ArgumentParser:
        # only a command with a verdict can turn it into the exit code
        child = sub.add_parser(name, **kw)
        child.set_defaults(handler=handler)
        child.add_argument("--format", choices=("text", "json"), default="text")
        if verdict:
            child.add_argument("--exit-code-verdict", action="store_true")
        return child

    chk = command("check", _check, verdict=True, help="decide a condition on one or two multisegments")
    # only `check` runs rank checks
    chk.add_argument("--prime", type=int, default=MERSENNE61)
    chk.add_argument("--trials", type=int, default=8)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("condition", choices=("gls", "lc", "ig", "li"))
    chk.add_argument("mseg", nargs="+")

    mw = command("mw", _mw, help="apply the involution")
    mw.add_argument("mseg")

    red = command("reduce", _reduce, help="one involution step: reduction and stripped segment")
    red.add_argument("mseg")

    der = command("derivative", _derivative, help="left derivative and socle at a point")
    der.add_argument("--rho", required=True, help="point as LABEL:INT (label elidable)")
    der.add_argument("mseg")

    lad = command("ladder", _ladder, verdict=True, help="is the multisegment a ladder?")
    lad.add_argument("mseg")

    ste = command("suite", _suite, verdict=True, help="run a property suite")
    ste.add_argument("name", choices=sorted(SUITES) + ["all"])
    ste.add_argument("--trials", type=int, default=None, help="instance target")
    ste.add_argument("--seed", type=int, default=0, help="generation seed")
    ste.add_argument("--max-segments", type=int, default=4)
    ste.add_argument("--range", type=int, default=4, dest="coord_range")
    ste.add_argument("--prime", type=int, default=MERSENNE61)

    return ap


def _cfg_from(args) -> RankConfig:
    if args.command == "suite":
        # the suite-local --trials/--seed steer generation, not the rank checks
        if args.trials is not None and args.trials < 1:
            raise ValueError("trials must be positive")
        if args.trials is not None and args.trials > MAX_INSTANCES:
            raise TooLargeError(f"more than {MAX_INSTANCES} trials")
        if args.max_segments < 0 or args.coord_range < 0:
            raise ValueError("sizes must be nonnegative")
        return RankConfig(prime=args.prime)
    if args.command != "check":
        # no rank check runs; the output still reports the default prime and seed
        return RankConfig()
    return RankConfig(prime=args.prime, trials=args.trials, seed=args.seed)


# One handler per subcommand, bound by `build_parser`: each takes the parsed
# arguments and the rank configuration and returns the command's record.  They
# look library functions up as module globals at call time, so replacing one
# in this module (a test double, a tracing wrapper) reaches every command.


def _check(args, cfg: RankConfig) -> dict:
    cond = args.condition
    want = 1 if cond == "gls" else 2
    if len(args.mseg) != want:
        raise ParseError(f"'check {cond}' takes {want} multisegment(s)", 0)
    msegs = [parse_mseg(s) for s in args.mseg]
    command, inputs = f"check {cond}", [str(m) for m in msegs]
    # only a TRUE witness (coefficients) is printed; a FALSE prints null
    witness, outputs = None, {}
    if cond == "gls":
        v = check_gls(msegs[0], cfg)
        if v.holds:
            witness = _coeffs_json(v.witness)
    elif cond == "ig":
        # IG reports both LC verdicts beside its own
        v, fwd, rev = check_ig(msegs[0], msegs[1], cfg)
        outputs = {"lc_forward": fwd.holds, "lc_reverse": rev.holds}
        if v.holds:
            # the witnesses `check lc m m2` and `check lc m2 m` print
            witness = {"lc_forward": _lc_json(fwd.witness), "lc_reverse": _lc_json(rev.witness)}
    else:
        try:
            v = (li_for_good if cond == "li" else check_lc)(msegs[0], msegs[1], cfg)
        except NotApplicableError:
            return _result(command, inputs, cfg, outputs={"reason": "neither input is a ladder"})
        if v.holds:
            witness = _lc_json(v.witness)
    verdict = v.holds
    if not v.holds and v.false_verdict_bound == 1:
        # failed trials whose error bound is 1 decide nothing
        verdict = None
        outputs = {**outputs, "reason": "inconclusive: the FALSE bound is 1 at this prime"}
    return _result(
        command,
        inputs,
        cfg,
        verdict=verdict,
        certified=v.certified,
        trials=v.trials_run,
        bound=v.false_verdict_bound,
        witness=witness,
        outputs=outputs,
    )


def _mw(args, cfg: RankConfig) -> dict:
    m = parse_mseg(args.mseg)
    return _result("mw", [str(m)], cfg, outputs={"mw": str(mw_dual(m))})


def _reduce(args, cfg: RankConfig) -> dict:
    m = parse_mseg(args.mseg)
    if not m:
        # the step strips a segment, so the zero multisegment has none
        raise ParseError("'reduce' takes a nonzero multisegment, not 0", 0)
    delta, reduced = mw_step(m)
    return _result("reduce", [str(m)], cfg, outputs={"reduced": str(reduced), "delta": str(delta)})


def _derivative(args, cfg: RankConfig) -> dict:
    m = parse_mseg(args.mseg)
    rho = parse_rho(args.rho)
    dv = derivative(m, rho)
    outputs = {
        "rho": str(rho),
        "mu": dv.mu,
        "derivative": str(dv.derived),
        "soc": str(soc_cuspidal(m, rho)),
    }
    return _result("derivative", [str(m)], cfg, outputs=outputs)


def _ladder(args, cfg: RankConfig) -> dict:
    m = parse_mseg(args.mseg)
    return _result("ladder", [str(m)], cfg, verdict=m.is_ladder(), certified=True)


def _suite(args, cfg: RankConfig) -> dict:
    gen = GenParams(max_segments=args.max_segments, coord_range=args.coord_range, seed=args.seed)
    names = sorted(SUITES) if args.name == "all" else [args.name]
    # without --trials (None) each suite draws its own default instance target
    suites = [SUITES[name] for name in names]
    if all(isinstance(s, Suite) for s in suites):
        from .fanout import fan_out  # only `suite` loads it

        reports = fan_out([SuiteRun(s, gen, cfg, args.trials) for s in suites])
    else:  # an entry that is only callable, such as a tracer's wrapper: one call each
        reports = [s(gen, cfg, args.trials) for s in suites]
    outputs = {
        "suites": [r.to_dict() for r in reports],
        "violations": [v for r in reports for v in r.violations],
    }
    verdict = all(r.passed for r in reports)
    short = [r.shortfall for r in reports if r.shortfall]
    if verdict and short:
        # a suite that ran out of draws short of its target decides nothing
        verdict = None
        outputs["reason"] = "inconclusive: " + "; ".join(
            f"{check} met its hypothesis {count} of {floor} times" for check, count, floor in short
        )
    return _result(
        "suite",
        names,
        cfg,
        verdict=verdict,
        trials=sum(r.instances_generated for r in reports),
        bound=union_bound(r.accumulated_bound for r in reports),
        outputs=outputs,
    )


def run(argv: List[str], out=None, err=None) -> int:
    """Execute one command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse prints usage errors and --help itself; keep them on our streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK

    try:
        cfg = _cfg_from(args)
    except ValueError as e:
        print(f"error: {e}", file=err)
        return EXIT_PARSE

    try:
        result = args.handler(args, cfg)
    except (ParseError, EmptySegmentError, TooLargeError) as e:
        print(f"error: {e}", file=err)
        return EXIT_PARSE
    except MsegError as e:
        print(f"error: {e}", file=err)
        return EXIT_INTERNAL
    except Exception as e:
        print(f"internal error: {e}", file=err)
        return EXIT_INTERNAL

    try:
        if args.format == "json":
            print(emit_json(result), file=out)
        else:
            _print_text(result, out)
        out.flush()
    except BrokenPipeError:
        return EXIT_PIPE

    if getattr(args, "exit_code_verdict", False):
        return EXIT_OK if result["verdict"] is True else EXIT_FALSE
    return EXIT_OK


def main() -> None:  # pragma: no cover
    code = run(sys.argv[1:])
    if code == EXIT_PIPE:
        # the interpreter flushes stdout once more at exit: send that nowhere,
        # or it reports the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
