"""Command-line surface: parse multisegment expressions, run checks and
suites, print text or stable JSON.

Expression grammar (whitespace ignored, ``-`` and the unicode minus accepted):

    mseg  := '0' | term ('+' term)*
    term  := (UINT '*')? seg
    seg   := (LABEL ':')? '[' INT ',' INT ']'

The default line label is "0"; multiplicities expand, up to MAX_SEGMENTS
segments in all.  Canonical output is the '+'-joined descending order, which
round-trips through the parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .conditions import (
    CoeffVector,
    Verdict,
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
from .harness import SUITES, GenParams, PropertyReport
from .linalg import MERSENNE61, RankConfig
from .segments import CuspidalPoint, Multisegment, Segment, sli_sufficient
from .zelevinsky import derivative, mw_dual, mw_step, soc_cuspidal

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

# Largest multisegment an expression may denote; far above the 128-segment
# inputs that still decide in seconds, far below what exhausts memory.
MAX_SEGMENTS = 4096

# Largest instance target of `suite --trials`.  A suite draws up to 200
# candidates per instance, so its work stays within 50 times that of its
# default target of 200 to 300 instances.
MAX_INSTANCES = 10_000


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


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
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])


def _parse_term(sc: _Scanner, count: int) -> List[Segment]:
    """The segments of one term; ``count`` segments precede it."""
    sc.skip_ws()
    mult = 1
    label = "0"
    if sc.peek() != "[":
        start = sc.pos
        w = sc.word()
        if not w:
            raise ParseError("expected a segment", sc.pos)
        if sc.peek() == "*":
            if not w.isdigit():
                raise ParseError("multiplicity must be a nonnegative integer", start)
            mult = int(w)
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
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "0":
        save = sc.pos
        sc.pos += 1
        sc.skip_ws()
        if sc.pos == len(sc.text):
            return Multisegment()
        sc.pos = save
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
    """LABEL:INT, with the label elidable (then line "0")."""
    text = text.strip().replace("−", "-")
    if ":" in text:
        label, _, num = text.rpartition(":")
    else:
        label, num = "0", text
    try:
        pos = int(num)
    except ValueError:
        raise ParseError("expected LABEL:INT for a point", 0) from None
    if not label:
        raise ParseError("empty line label", 0)
    return CuspidalPoint(label, pos)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _witness_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    if isinstance(witness, CoeffVector):
        return {f"({i},{j})": v for (i, j), v in sorted(witness.values.items())}
    if isinstance(witness, tuple) and len(witness) == 2:
        lam, lam2 = witness
        if isinstance(lam, CoeffVector) and isinstance(lam2, CoeffVector):
            out = {}
            for (i, j), v in sorted(lam.values.items()):
                out[f"m:({i},{j})"] = v
            for (i, j), v in sorted(lam2.values.items()):
                out[f"m2:({i},{j})"] = v
            return out
    return None


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
    witness=None,
    outputs: Optional[dict] = None,
) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "certified": certified,
        "trials": trials,
        "false_verdict_bound": _frac_str(bound),
        "witness": _witness_json(witness),
        "prime": cfg.prime,
        "seed": cfg.seed,
        "outputs": outputs or {},
    }


def _from_verdict(command: str, inputs: List[str], cfg: RankConfig, v: Verdict, outputs=None) -> dict:
    # only a TRUE witness (coefficients) is printed; a FALSE prints null
    return _result(
        command,
        inputs,
        cfg,
        verdict=v.holds,
        certified=v.certified,
        trials=v.trials_run,
        bound=v.false_verdict_bound,
        witness=v.witness if v.holds else None,
        outputs=outputs,
    )


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
            print(f"{key}: {val}", file=out)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mseg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, rank=False, verdict=False, **kw) -> argparse.ArgumentParser:
        # only `check` runs rank checks, and only a command with a verdict
        # can turn it into the exit code
        child = sub.add_parser(name, **kw)
        if rank:
            child.add_argument("--prime", type=int, default=MERSENNE61)
            child.add_argument("--trials", type=int, default=8)
            child.add_argument("--seed", type=int, default=0)
            child.add_argument("--certify", action="store_true")
        child.add_argument("--format", choices=("text", "json"), default="text")
        if verdict:
            child.add_argument("--exit-code-verdict", action="store_true")
        return child

    chk = command(
        "check", rank=True, verdict=True, help="decide a condition on one or two multisegments"
    )
    chk.add_argument("condition", choices=("gls", "lc", "ig", "li"))
    chk.add_argument("mseg", nargs="+")

    mw = command("mw", help="apply the involution")
    mw.add_argument("mseg")

    red = command("reduce", help="one involution step: reduction and stripped segment")
    red.add_argument("mseg")

    der = command("derivative", help="left derivative and socle at a point")
    der.add_argument("--rho", required=True, help="point as LABEL:INT (label elidable)")
    der.add_argument("mseg")

    lad = command("ladder", verdict=True, help="is the multisegment a ladder?")
    lad.add_argument("mseg")

    sli = command("sli", verdict=True, help="simple sufficient independence test for a pair")
    sli.add_argument("mseg", nargs=2)

    ste = sub.add_parser("suite", help="run a property suite")
    ste.add_argument("name", choices=sorted(SUITES) + ["all"])
    ste.add_argument("--trials", type=int, default=None, help="instance target")
    ste.add_argument("--seed", type=int, default=0, help="generation seed")
    ste.add_argument("--max-segments", type=int, default=4)
    ste.add_argument("--range", type=int, default=4, dest="coord_range")
    ste.add_argument("--prime", type=int, default=MERSENNE61)
    ste.add_argument("--certify", action="store_true")
    ste.add_argument("--format", choices=("text", "json"), default="text")
    ste.add_argument("--exit-code-verdict", action="store_true")

    return ap


def _cfg_from(args) -> RankConfig:
    if args.command == "suite":
        # the suite-local --trials/--seed steer generation, not the rank checks
        if args.trials is not None and args.trials < 1:
            raise ValueError("trials must be positive")
        if args.trials is not None and args.trials > MAX_INSTANCES:
            raise TooLargeError(f"more than {MAX_INSTANCES} trials")
        return RankConfig(prime=args.prime, certify=args.certify)
    if args.command != "check":
        # no rank check runs; the output still reports the default prime and seed
        return RankConfig()
    return RankConfig(
        prime=args.prime, trials=args.trials, seed=args.seed, certify=args.certify
    )


def _run_check(args, cfg: RankConfig) -> dict:
    cond = args.condition
    want = 1 if cond == "gls" else 2
    if len(args.mseg) != want:
        raise ParseError(f"'check {cond}' takes {want} multisegment(s)", 0)
    msegs = [parse_mseg(s) for s in args.mseg]
    inputs = [str(m) for m in msegs]
    if cond == "gls":
        return _from_verdict("check gls", inputs, cfg, check_gls(msegs[0], cfg))
    if cond == "lc":
        return _from_verdict("check lc", inputs, cfg, check_lc(msegs[0], msegs[1], cfg))
    if cond == "ig":
        v, fwd, rev = check_ig(msegs[0], msegs[1], cfg)
        outputs = {"lc_forward": fwd.holds, "lc_reverse": rev.holds}
        res = _from_verdict("check ig", inputs, cfg, v, outputs)
        res["witness"] = None
        return res
    try:
        v = li_for_good(msegs[0], msegs[1], cfg)
    except NotApplicableError:
        return _result(
            "check li",
            inputs,
            cfg,
            verdict=None,
            outputs={"reason": "neither input is a ladder"},
        )
    return _from_verdict("check li", inputs, cfg, v)


def _run_suite(args, cfg: RankConfig) -> Tuple[dict, bool]:
    gen = GenParams(
        max_segments=args.max_segments,
        coord_range=args.coord_range,
        seed=args.seed,
    )
    names = sorted(SUITES) if args.name == "all" else [args.name]
    reports: List[PropertyReport] = []
    for name in names:
        fn = SUITES[name]
        if args.trials is not None:
            reports.append(fn(gen, cfg, instances=args.trials))
        else:
            reports.append(fn(gen, cfg))
    passed = all(r.passed for r in reports)
    bound = union_bound(r.accumulated_bound for r in reports)
    outputs = {
        "suites": [r.to_dict() for r in reports],
        "violations": [v for r in reports for v in r.violations],
    }
    res = _result(
        "suite",
        names,
        cfg,
        verdict=passed,
        certified=False,
        trials=sum(r.instances_generated for r in reports),
        bound=bound,
        outputs=outputs,
    )
    return res, passed


def run(argv: List[str], out=None, err=None) -> int:
    """Execute one command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK

    try:
        cfg = _cfg_from(args)
    except ValueError as e:
        print(f"error: {e}", file=err)
        return EXIT_PARSE

    try:
        if args.command == "check":
            result = _run_check(args, cfg)
        elif args.command == "mw":
            m = parse_mseg(args.mseg)
            result = _result("mw", [str(m)], cfg, outputs={"mw": str(mw_dual(m))})
        elif args.command == "reduce":
            m = parse_mseg(args.mseg)
            delta, reduced = mw_step(m)
            result = _result(
                "reduce",
                [str(m)],
                cfg,
                outputs={"reduced": str(reduced), "delta": str(delta)},
            )
        elif args.command == "derivative":
            m = parse_mseg(args.mseg)
            rho = parse_rho(args.rho)
            dv = derivative(m, rho)
            result = _result(
                "derivative",
                [str(m)],
                cfg,
                outputs={
                    "rho": str(rho),
                    "mu": dv.mu,
                    "derivative": str(dv.derived),
                    "soc": str(soc_cuspidal(m, rho)),
                },
            )
        elif args.command == "ladder":
            m = parse_mseg(args.mseg)
            result = _result("ladder", [str(m)], cfg, verdict=m.is_ladder(), certified=True)
        elif args.command == "sli":
            m = parse_mseg(args.mseg[0])
            m2 = parse_mseg(args.mseg[1])
            result = _result(
                "sli", [str(m), str(m2)], cfg, verdict=sli_sufficient(m, m2), certified=True
            )
        elif args.command == "suite":
            result, _ = _run_suite(args, cfg)
        else:  # pragma: no cover
            raise MsegError(f"unknown command {args.command}")
    except (ParseError, EmptySegmentError, TooLargeError) as e:
        print(f"error: {e}", file=err)
        return EXIT_PARSE
    except MsegError as e:
        print(f"error: {e}", file=err)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover
        print(f"internal error: {e}", file=err)
        return EXIT_INTERNAL

    if args.format == "json":
        print(emit_json(result), file=out)
    else:
        _print_text(result, out)

    if getattr(args, "exit_code_verdict", False):
        return EXIT_OK if result["verdict"] is True else EXIT_FALSE
    return EXIT_OK


def main() -> None:  # pragma: no cover
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
