"""Parsing, formatting, subcommands, JSON schema and exit codes."""

import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import mseg
import mseg.cli
import mseg.fanout
from mseg.cli import MAX_INSTANCES, MAX_SEGMENTS, SUITES, emit_json, parse_mseg, parse_rho, run
from mseg.conditions import Verdict
from mseg.errors import EmptySegmentError, MsegError, ParseError, TooLargeError
from mseg.harness import SuiteRun
from mseg.linalg import MAX_TRIALS, MERSENNE61
from mseg.segments import CuspidalPoint, Multisegment, Segment
from mseg.zelevinsky import cross_pairs


# labels as the grammar spells them; "0" is the default line, printed bare
LABELS = st.just("0") | st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True)
LABELLED_MULTISEGMENTS = st.lists(
    st.builds(
        lambda line, b, length: Segment(line, b, b + length),
        LABELS,
        st.integers(-20, 20),
        st.integers(0, 6),
    ),
    max_size=6,
).map(lambda segs: Multisegment(tuple(segs)))


LECLERC = "[1,2]+[-1,1]+[0,0]+[-2,-1]"
# TRUE over the rationals, with a matching that is not unique: its failed
# trials at p = 2 once printed a bound of 1, and a 0/1 witness now proves it
TRUE_OPEN = "[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]"
# LC([2,3]+[0,2]+[-1,2], [3,3]+[3,3]+[2,2]) is FALSE over the rationals with
# rows that match; one such pair on each line makes LC FALSE both ways
IG_CANCELLING = (
    "a:[2,3]+a:[0,2]+a:[-1,2]+b:[3,3]+b:[3,3]+b:[2,2]",
    "a:[3,3]+a:[3,3]+a:[2,2]+b:[2,3]+b:[0,2]+b:[-1,2]",
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestParse:
    def test_leclerc_expression(self):
        m = parse_mseg("[1,2]+[-1,1]+[0,0]+[-2,-1]")
        assert len(m) == 4
        assert str(m) == "[1,2]+[-1,1]+[0,0]+[-2,-1]"

    def test_multiplicity(self):
        assert str(parse_mseg("2*[0,0]")) == "[0,0]+[0,0]"
        assert str(parse_mseg("0*[0,0]")) == "0"
        assert str(parse_mseg("2*a:[0,1]")) == "a:[0,1]+a:[0,1]"

    def test_size_guard(self):
        assert len(parse_mseg(f"{MAX_SEGMENTS}*[0,0]")) == MAX_SEGMENTS
        with pytest.raises(TooLargeError):
            parse_mseg(f"{MAX_SEGMENTS + 1}*[0,0]")
        with pytest.raises(TooLargeError):  # the running count, not one term
            parse_mseg(f"[1,1]+{MAX_SEGMENTS}*[0,0]")

    def test_labels(self):
        m = parse_mseg("a:[0,1]+b:[0,1]")
        assert len(m) == 2
        assert {s.line for s in m} == {"a", "b"}

    def test_zero(self):
        assert parse_mseg("0") == Multisegment()
        assert parse_mseg(" 0 ") == Multisegment()
        assert str(Multisegment()) == "0"

    def test_whitespace_and_unicode_minus(self):
        assert parse_mseg(" [ 1 , 2 ] + [0,1] ") == parse_mseg("[1,2]+[0,1]")
        assert parse_mseg("[−2,−1]") == parse_mseg("[-2,-1]")

    def test_digit_label(self):
        m = parse_mseg("0:[1,2]")
        assert m.seg(1) == Segment("0", 1, 2)
        assert str(m) == "[1,2]"

    def test_errors_carry_positions(self):
        # one input for each message of the grammar
        nines = "9" * 5000
        for parse, text, message, pos in [
            (parse_mseg, "", "expected a segment", 0),
            (parse_mseg, "[1,2]++[0,1]", "expected a segment", 6),
            (parse_mseg, "a[0,1]", "expected '*' or ':' after a name", 1),
            (parse_mseg, "a*[0,1]", "multiplicity must be a nonnegative integer", 0),
            (parse_mseg, "2*a[0,1]", "expected a segment after '*'", 3),
            (parse_mseg, "a:(0,1)", "expected '['", 2),
            (parse_mseg, "[1;2]", "expected ','", 2),
            (parse_mseg, "[1,2", "expected ']'", 4),
            (parse_mseg, "[1,2][0,1]", "expected '+'", 5),
            (parse_mseg, "[x,2]", "expected an integer", 1),
            (parse_mseg, f"[0,{nines}]", "integer literal too long", 3),
            (parse_rho, "3 4", "expected LABEL:INT for a point", 2),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == f"{message} (at position {pos})"
            assert exc.value.position == pos
        with pytest.raises(EmptySegmentError, match=r"^segment \[3,1\] is empty$"):
            parse_mseg("[3,1]")
        with pytest.raises(TooLargeError, match=f"^more than {MAX_SEGMENTS} segments$"):
            parse_mseg(f"{MAX_SEGMENTS + 1}*[0,0]")

    def test_empty_segment_rejected(self):
        # an empty segment is named before a multiplicity past MAX_SEGMENTS
        for text in ("[3,1]", "5000*[3,1]", "[1,1]+4096*[3,1]"):
            with pytest.raises(EmptySegmentError, match=r"^segment \[3,1\] is empty$"):
                parse_mseg(text)

    def test_round_trip_corpus(self):
        # canonical strings must round-trip; 10^4 random expressions
        rng = random.Random(99)
        for _ in range(10_000):
            k = rng.randint(0, 4)
            segs = []
            for _ in range(k):
                line = rng.choice(["0", "a", "b2"])
                b = rng.randint(-9, 9)
                segs.append(Segment(line, b, b + rng.randint(0, 5)))
            m = Multisegment(tuple(segs))
            assert parse_mseg(str(m)) == m

    @given(LABELLED_MULTISEGMENTS)
    def test_round_trip_generated(self, m):
        assert parse_mseg(str(m)) == m

    def test_parse_rho(self):
        assert parse_rho("0") == CuspidalPoint("0", 0)
        assert parse_rho("-3") == CuspidalPoint("0", -3)
        assert parse_rho("a:-1") == CuspidalPoint("a", -1)
        with pytest.raises(ParseError):
            parse_rho("a:b")
        # whitespace is ignored around the label, as in a segment
        assert parse_rho(" a : 3") == CuspidalPoint("a", 3)

    def test_integers_are_ascii_digits(self):
        # str.isdigit accepts superscripts and other scripts' digits; the
        # grammar takes 0-9 only, and every refusal is a ParseError, exit 2
        for text in ("²*[0,1]", "[¹,2]", "[0,٣]", "٣*[0,1]"):
            with pytest.raises(ParseError):
                parse_mseg(text)
            code, out, err = invoke(["check", "gls", text])
            assert code == 2 and not out and err.startswith("error: ")
        for text in ("1_0", "+3", "٣", "a:²", "a:", ":3", "a:3:4", "3 4"):
            with pytest.raises(ParseError):
                parse_rho(text)
            code, out, err = invoke(["derivative", "--rho", text, "[0,1]"])
            assert code == 2 and not out and err.startswith("error: ")

    def test_overlong_integer_literals(self):
        # past Python's int conversion limit a literal is a parse error at
        # its position, not an internal error
        nines = "9" * 5000
        for text, pos in ((f"{nines}*[0,1]", 0), (f"[0,{nines}]", 3)):
            with pytest.raises(ParseError) as exc:
                parse_mseg(text)
            assert exc.value.position == pos
            code, out, err = invoke(["check", "gls", text])
            assert code == 2 and not out and err.startswith("error: ")
        with pytest.raises(ParseError) as exc:
            parse_rho(nines)
        assert exc.value.position == 0
        code, out, err = invoke(["derivative", "--rho", nines, "[0,1]"])
        assert code == 2 and not out and err.startswith("error: ")

    @given(st.builds(CuspidalPoint, LABELS, st.integers(-(10**6), 10**6)))
    def test_rho_round_trip(self, rho):
        assert parse_rho(str(rho)) == rho


class TestSubcommands:
    def test_check_gls_leclerc(self):
        code, out, _ = invoke(["check", "gls", "[1,2]+[-1,1]+[0,0]+[-2,-1]"])
        assert code == 0 and "verdict: false" in out

    def test_false_bound_at_most_one(self):
        # Leclerc's example: FALSE over the rationals, with rows that match
        m = LECLERC
        _, out, _ = invoke(["check", "gls", m, "--prime", "2", "--format", "json"])
        data = json.loads(out)
        # capped at 1, so the failed trials are reported as inconclusive
        assert data["verdict"] is None and data["false_verdict_bound"] == "1/1"
        # every TRUE is certified: full rank mod p at an integer witness is
        # full rank over the rationals, at p = 2 too
        for prime in ([], ["--prime", "2"]):
            _, out, _ = invoke(["check", "gls", TRUE_OPEN, *prime, "--format", "json"])
            data = json.loads(out)
            assert data["verdict"] is True and data["certified"] is True

    def test_check_lc_false(self):
        code, out, _ = invoke(["check", "lc", "[0,0]", "[1,1]"])
        assert code == 0 and "verdict: false" in out

    def test_false_witness_null(self):
        # structural FALSE (a Hall violator before any trial; for [0,0]
        # against [1,1], one row with no column) and probabilistic FALSE all
        # print a null witness
        cases = {
            ("lc", "[1,3]+[0,1]+[0,0]", "[1,3]"): (True, 0, "0/1"),
            ("lc", "[0,0]", "[1,1]"): (True, 0, "0/1"),
            ("gls", "[1,2]+[-1,1]+[0,0]+[-2,-1]"): (False, 8, None),
        }
        for argv, (certified, trials, bound) in cases.items():
            _, out, _ = invoke(["check", *argv, "--format", "json"])
            data = json.loads(out)
            assert data["verdict"] is False and data["witness"] is None
            assert data["certified"] is certified and data["trials"] == trials
            assert bound is None or data["false_verdict_bound"] == bound
        _, out, _ = invoke(["check", "lc", "[1,3]+[0,1]+[0,0]", "[1,3]"])
        assert "certified: true\ntrials: 0\nfalse_verdict_bound: 0/1" in out

    def test_check_ig_outputs(self):
        code, out, _ = invoke(["check", "ig", "[0,0]", "[1,1]", "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is False
        assert data["outputs"] == {"lc_forward": False, "lc_reverse": True}

    @pytest.mark.parametrize(
        "m, m2",
        [
            ("[1,1]+[0,0]", "[1,1]+[0,0]"),
            ("[2,3]+[2,3]+[-1,1]", "[3,3]+[1,3]+[-1,1]"),
            ("[2,3]+[1,3]+[-2,-1]", "[1,3]+[-1,1]+[-2,-1]+[-2,-2]"),
            ("a:[1,2]+a:[0,1]+[1,1]+[0,0]", "b:[0,0]+[1,1]+[0,0]"),
        ],
    )
    def test_check_ig_witness_is_both_lc_witnesses(self, m, m2):
        def witness(*argv):
            return json.loads(invoke(["check", *argv, "--format", "json"])[1])["witness"]

        forward, reverse = witness("lc", m, m2), witness("lc", m2, m)
        assert forward is not None and reverse is not None
        assert witness("ig", m, m2) == {"lc_forward": forward, "lc_reverse": reverse}

    def test_text_prints_json_values(self, monkeypatch):
        # an output that is not a string prints as JSON, not as a Python
        # repr; the violations print one record a line
        _, out, _ = invoke(["check", "ig", "[0,0]", "[1,1]"])
        assert out.endswith("verdict: false\ncertified: true\ntrials: 0\nfalse_verdict_bound: 0/1\n"
                            "lc_forward: false\nlc_reverse: true\n")
        argv = ["suite", "gedelta", "--trials", "3"]
        for failing in (False, True):
            if failing:
                monkeypatch.setitem(mseg.harness.CHECKS, "gedelta", lambda cfg, **inputs: (False, {}, ()))
            want = json.loads(invoke([*argv, "--format", "json"])[1])["outputs"]
            lines = invoke(argv)[1].splitlines()
            assert "suites: " + json.dumps(want["suites"]) in lines
            assert [s for s in lines if s.startswith("violation: ")] == [
                "violation: " + json.dumps(v) for v in want["violations"]
            ]
            assert bool(want["violations"]) is failing

    def test_check_ig_false_has_no_witness(self):
        _, out, _ = invoke(["check", "ig", "[0,0]", "[1,1]", "--format", "json"])
        assert json.loads(out)["witness"] is None

    def test_check_ig_bound_one_is_inconclusive(self):
        # each direction holds one line where LC is FALSE over the rationals
        # with rows that match: at p = 2 each fails its one trial at bound 1
        m, m2 = IG_CANCELLING
        argv = ["check", "ig", m, m2, "--prime", "2", "--trials", "1", "--format", "json"]
        _, out, _ = invoke(argv)
        data = json.loads(out)
        assert data["verdict"] is None and data["false_verdict_bound"] == "1/1"
        assert data["outputs"] == {
            "lc_forward": False,
            "lc_reverse": False,
            "reason": "inconclusive: the FALSE bound is 1 at this prime",
        }

    def test_check_li_gated(self):
        code, out, _ = invoke(
            ["check", "li", "[0,1]+[0,2]", "[0,1]+[0,2]", "--format", "json"]
        )
        data = json.loads(out)
        assert code == 0 and data["verdict"] is None
        assert "ladder" in data["outputs"]["reason"]

    def test_false_bound_one_is_inconclusive(self):
        # at p = 2 every coefficient is 1, so the failed trials decide nothing
        m = LECLERC
        reason = "inconclusive: the FALSE bound is 1 at this prime"
        code, out, _ = invoke(["check", "gls", m, "--prime", "2", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["verdict"] is None and data["certified"] is False
        assert data["trials"] == 8 and data["false_verdict_bound"] == "1/1"
        assert data["witness"] is None and data["outputs"] == {"reason": reason}
        code, out, _ = invoke(["check", "gls", m, "--prime", "2", "--exit-code-verdict"])
        assert code == 1
        assert out == f"command: check gls\ninput: {m}\nreason: {reason}\n"
        code, out, _ = invoke(["check", "gls", TRUE_OPEN, "--format", "json"])
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_false_bound_one_is_inconclusive_for_lc(self):
        # a 4 x 4 block whose terms cancel: FALSE at every prime, with a
        # bound of (4/2)^8 capped at 1 when p = 3
        pair = ["[1,1]+[0,0]+[0,0]", "[1,1]+[1,1]+[0,0]"]
        _, out, _ = invoke(["check", "lc", *pair, "--prime", "3", "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is None and data["false_verdict_bound"] == "1/1"
        assert data["outputs"]["reason"].startswith("inconclusive")
        _, out, _ = invoke(["check", "lc", *pair, "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is False and data["outputs"] == {}
        assert Fraction(data["false_verdict_bound"]) < 1

    def test_mw(self):
        code, out, _ = invoke(["mw", "[0,0]+[1,1]"])
        assert code == 0 and "mw: [0,1]" in out

    def test_reduce(self):
        _, out, _ = invoke(["reduce", "[1,2]+[0,1]"])
        assert "reduced: [1,1]+[0,0]" in out and "delta: [1,2]" in out

    def test_derivative(self):
        _, out, _ = invoke(["derivative", "--rho", "0", "[0,1]+[0,2]"])
        assert "mu: 2" in out and "derivative: [1,2]+[1,1]" in out

    def test_ladder(self):
        _, out, _ = invoke(["ladder", "[1,2]+[0,1]"])
        assert "verdict: true" in out
        _, out, _ = invoke(["ladder", "[0,1]+[0,2]"])
        assert "verdict: false" in out

    def test_suite(self):
        code, out, _ = invoke(
            ["suite", "gedelta", "--trials", "15", "--seed", "5", "--format", "json"]
        )
        data = json.loads(out)
        assert code == 0 and data["verdict"] is True
        assert data["outputs"]["suites"][0]["hypothesis_satisfied"] == 15

    def test_suite_bounds_at_most_one(self):
        # at p = 2 every probabilistic FALSE has bound 1; their sums are
        # capped.  No suite check is FALSE over the rationals with rows that
        # match, so a bound of 1 here comes from a TRUE that only the trials
        # could show: at seed 6, GLS of the involution of
        # [0,1]+[-1,1]+[-1,1]+[0,0]+[-3,-1]+[-4,-1], which no 0/1 witness
        # of the sparse step proves
        argv = ["suite", "all", "--prime", "2", "--seed", "6", "--trials", "20"]
        argv += ["--max-segments", "6"]
        _, out, _ = invoke(argv + ["--format", "json"])
        data = json.loads(out)
        bounds = [data["false_verdict_bound"]]
        bounds += [s["accumulated_bound"] for s in data["outputs"]["suites"]]
        bounds += [v["false_verdict_bound"] for v in data["outputs"]["violations"]]
        assert data["false_verdict_bound"] == "1/1" and len(bounds) > 8
        assert all(Fraction(b) <= 1 for b in bounds)

    def test_suite_short_of_its_target_is_inconclusive(self, monkeypatch):
        # no pair of zero multisegments meets the hypothesis of mm-minus or
        # rhoext, so their draws run out with nothing tested; no draw of the
        # fixed-draw invariances suite holds a rho, so some of its checks never run
        argv = ["suite", "mm-minus", "--max-segments", "0", "--trials", "5", "--format", "json"]
        code, out, _ = invoke(argv + ["--exit-code-verdict"])
        data = json.loads(out)
        assert code == 1 and data["verdict"] is None
        assert list(data["outputs"]) == ["suites", "violations", "reason"]
        assert data["outputs"]["reason"] == "inconclusive: mm-minus met its hypothesis 0 of 5 times"
        argv[1] = "all"
        data = json.loads(invoke(argv)[1])
        assert data["verdict"] is None and data["outputs"]["reason"] == (
            "inconclusive: invariances/mw-delta-minimal met its hypothesis 0 of 1 times; "
            "mm-minus met its hypothesis 0 of 5 times; "
            "rhoext met its hypothesis 0 of 5 times"
        )
        # a violation in another suite still gives FALSE
        monkeypatch.setitem(mseg.harness.CHECKS, "gedelta", lambda cfg, **inputs: (False, {}, ()))
        data = json.loads(invoke(argv)[1])
        assert data["verdict"] is False and "reason" not in data["outputs"]

    @pytest.mark.parametrize(
        "seed, trials, max_segments", [(0, 12, 4), (7, 12, 4), (0, 5, 0)]
    )
    def test_suite_all_equals_each_suite_alone(self, monkeypatch, seed, trials, max_segments):
        # walked together in one process the suites share the memos mid-run;
        # every draw and check is pure, so each report is that of the suite
        # run alone, shortfall included (at --max-segments 0 three checks
        # fall short)
        gen = mseg.GenParams(max_segments=max_segments, seed=seed)
        cfg = mseg.RankConfig()
        alone = []
        for name in sorted(SUITES):
            mseg.conditions._decide.cache_clear()
            mseg.harness.gen_ms.cache_clear()
            alone.append(SUITES[name](gen, cfg, instances=trials))
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        runs = [SuiteRun(SUITES[name], gen, cfg, trials) for name in sorted(SUITES)]
        assert mseg.fanout.fan_out(runs) == alone
        if max_segments == 0:
            short = [r.shortfall[0] for r in alone if r.shortfall]
            assert short == ["invariances/mw-delta-minimal", "mm-minus", "rhoext"]
        argv = ["suite", "all", "--seed", str(seed), "--trials", str(trials)]
        argv += ["--max-segments", str(max_segments), "--format", "json"]
        outputs = json.loads(invoke(argv)[1])["outputs"]
        assert outputs["suites"] == [r.to_dict() for r in alone]
        assert outputs["violations"] == [v for r in alone for v in r.violations]

    def test_suite_all_walks_the_blocks_on_one_cpu(self, monkeypatch):
        # on one usable CPU, this process makes the draws of block 0, 1, ...
        # in the order of mseg.fanout.block, each suite's up to its stop; an
        # entry that is only callable runs whole in its turn
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        order = []

        def recorded(suite):
            def draw(p, target, i):
                order.append((suite.name, i))
                return suite.draw(p, target, i)

            return suite._replace(draw=draw)

        argv = ["suite", "all", "--trials", "6", "--format", "json"]
        want = invoke(argv)[1]
        names = sorted(SUITES)
        for name in names:
            monkeypatch.setitem(SUITES, name, recorded(SUITES[name]))
        assert invoke(argv)[1] == want
        stops = {s["name"]: s["instances_generated"] for s in json.loads(want)["outputs"]["suites"]}
        walk = []
        for draws in _blocks(names, mseg.GenParams(), 6):
            draws = [(name, i) for name, i in draws if i < stops[name]]
            if not draws:
                break
            walk += draws
        assert order == walk and len(walk) == sum(stops.values())
        wrapped = SUITES["gedelta"]
        monkeypatch.setitem(SUITES, "gedelta", lambda *args, **kwargs: wrapped(*args, **kwargs))
        assert invoke(argv)[1] == want

    def test_check_wrong_arity(self):
        code, _, err = invoke(["check", "gls", "[0,0]", "[1,1]"])
        assert code == 2 and "error" in err


def _cpus(n):
    # n unnamed CPUs: the fan-out forks on any machine, and pins nothing
    return lambda: [None] * n


def _on_cpus(monkeypatch, call):
    """What ``call()`` returns with 1, 2 and 3 usable CPUs; no child is left
    after any."""
    seen = []
    for n in (1, 2, 3):
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(n))
        seen.append(call())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return seen


def _fds():
    """The descriptors open in this process, or None where /proc/self/fd is
    missing."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.fixture
def forks(monkeypatch):
    """The forks made in this process, counted."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def from_workers():
    """(send, taken): ``send()`` in a forked worker writes a byte that
    ``taken()`` in this process reads back, so a test knows a worker got as
    far as it."""
    parent = os.getpid()
    read, write = os.pipe()
    os.set_blocking(read, False)

    def send():
        if os.getpid() != parent:
            os.write(write, b".")

    def taken():
        try:
            return len(os.read(read, 64))
        except BlockingIOError:
            return 0

    yield send, taken
    os.close(read), os.close(write)


def _blocks(names, p, instances=None):
    """The draws of blocks 0, 1, ... of a fan-out of the suites ``names``, as
    ``mseg.fanout.block`` lays them out: a list of (suite, draw) pairs each."""
    runs = [SuiteRun(SUITES[name], p, mseg.RankConfig(), instances) for name in names]
    for b in itertools.count():
        yield [(names[r], i) for r, i in mseg.fanout.block(runs, b)]


def _pair_in_block_one(name, names, p, instances):
    """The inputs (m, m2) of the first draw of suite ``name`` in block 1 of a
    fan-out of the suites ``names`` that no earlier draw repeats: the first
    worker computes it."""
    draw = SUITES[name].draw
    blocks = _blocks(names, p, instances)
    seen = {tuple(draw(p, 0, i).values()) for suite, i in next(blocks) if suite == name}
    for i in [i for suite, i in next(blocks) if suite == name]:
        pair = tuple(draw(p, 0, i).values())
        if pair not in seen:
            return pair
        seen.add(pair)
    raise AssertionError("every draw of block 1 repeats an earlier one")


class TestFanOut:
    """A suite run over several CPUs, by blocks of draws, gives what it gives
    in one process."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seed", "0"],
            ["--seed", "7"],
            ["--trials", "12"],
            ["--max-segments", "0", "--trials", "5"],
            ["--prime", "2", "--seed", "6", "--trials", "20", "--max-segments", "6"],
        ],
    )
    def test_same_bytes(self, monkeypatch, forks, extra):
        # at --max-segments 0 three checks fall short: the reason is the same.
        # The --prime 2 case has one FALSE bound, 1 at draw 8 of invariances,
        # in block 0; test_bounds_from_workers has bounds sent by workers
        argv = ["suite", "all", "--format", "json", *extra]
        outputs, made = zip(*_on_cpus(monkeypatch, lambda: (invoke(argv), len(forks))))
        assert outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == 0
        assert made == (0, 1, 3)  # so far: none, then one worker, then two
        if extra[0] == "--max-segments":
            assert json.loads(outputs[0][1])["verdict"] is None
        for name in sorted(SUITES):
            argv[1] = name
            one, two, three = _on_cpus(monkeypatch, lambda: invoke(argv))
            assert one == two == three, name

    @pytest.mark.parametrize(
        "params, instances",
        [
            (mseg.GenParams(seed=0), None),
            (mseg.GenParams(seed=7), None),
            (mseg.GenParams(), 12),
            (mseg.GenParams(max_segments=0), 5),
        ],
    )
    def test_suite_called_alone(self, monkeypatch, params, instances):
        for name, suite in SUITES.items():
            cfg = mseg.RankConfig()
            one, two, three = _on_cpus(monkeypatch, lambda: suite(params, cfg, instances))
            assert one == two == three, name

    def test_fixed_draw_suite(self, monkeypatch, forks):
        # 200 draws span several blocks; one block of draws leaves no worker a share
        for trials, want in ((200, (0, 1, 3)), (mseg.fanout.BLOCK, (0, 0, 0))):
            forks.clear()
            argv = ["suite", "invariances", "--trials", str(trials), "--format", "json"]
            outputs, made = zip(*_on_cpus(monkeypatch, lambda: (invoke(argv), len(forks))))
            assert outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == 0
            assert made == want

    def test_injected_violation(self, monkeypatch):
        # forked workers inherit the patched CHECKS entry
        def broken(cfg, m, m2):
            return False, {"injected": True}, ()

        monkeypatch.setitem(mseg.harness.CHECKS, "sumofseg", broken)
        for name in ("all", "sumofseg"):
            argv = ["suite", name, "--trials", "12", "--format", "json"]
            one, two, three = _on_cpus(monkeypatch, lambda: invoke(argv))
            assert one == two == three
            data = json.loads(one[1])
            assert data["verdict"] is False and data["outputs"]["violations"]
            assert {v["property"] for v in data["outputs"]["violations"]} == {"sumofseg"}

    def test_bounds_from_workers(self, monkeypatch):
        # the probabilistic FALSE bounds of the real suites are 1 and rare, so
        # two checks get an extra verdict on each draw: sumofseg one of a
        # proper fraction, mm-minus one of bound 1 and a violation where
        # 7 len(m) + len(m2) is a multiple of 9.  The workers send the bounds
        # as (numerator, denominator), and the parent sums them exactly
        def bounded(check, bound):
            def wrapped(cfg, m, m2):
                outcome = check(cfg, m=m, m2=m2)
                if outcome is None:
                    return None
                held, detail, verdicts = outcome
                b = bound(7 * len(m) + len(m2))
                return held and b < 1, detail, (*verdicts, Verdict(False, None, 8, b))

            return wrapped

        checks = mseg.harness.CHECKS
        monkeypatch.setitem(checks, "sumofseg", bounded(checks["sumofseg"], lambda n: Fraction(1, 10_000 + n)))
        monkeypatch.setitem(checks, "mm-minus", bounded(checks["mm-minus"], lambda n: Fraction(n % 9 == 0)))
        for names in (["sumofseg"], ["mm-minus"], sorted(SUITES)):
            argv = ["suite", names[0] if len(names) == 1 else "all", "--trials", "40", "--format", "json"]
            one, two, three = _on_cpus(monkeypatch, lambda: invoke(argv))
            assert one == two == three
            outputs = json.loads(one[1])["outputs"]
            bounds = {s["name"]: Fraction(s["accumulated_bound"]) for s in outputs["suites"]}
            violations = [(v["property"], v["false_verdict_bound"]) for v in outputs["violations"]]
            if "sumofseg" in names:
                assert 0 < bounds["sumofseg"] < Fraction(40, 10_000)
            if "mm-minus" in names:
                assert bounds["mm-minus"] == 1 and violations and set(violations) == {("mm-minus", "1")}

    def test_check_that_raises(self, monkeypatch, from_workers):
        # the check raises on one draw of block 1: the worker computing it
        # ends, and the parent computes the block and raises the same error
        send, taken = from_workers
        check = mseg.harness.CHECKS["mm-minus"]
        bad = _pair_in_block_one("mm-minus", ["mm-minus"], mseg.GenParams(), 60)

        def raising(cfg, m, m2):
            if (m, m2) == bad:
                send()
                raise MsegError(f"injected failure at {m} and {m2}")
            return check(cfg, m=m, m2=m2)

        monkeypatch.setitem(mseg.harness.CHECKS, "mm-minus", raising)
        argv = ["suite", "mm-minus", "--trials", "60"]
        one, two, three = _on_cpus(monkeypatch, lambda: (invoke(argv), taken()))
        assert one[0] == two[0] == three[0]
        assert one[0][:2] == (3, "") and one[0][2].startswith("error: injected failure at ")
        assert (one[1], two[1], three[1]) == (0, 1, 1)

    def test_child_that_exits_early(self, monkeypatch, from_workers):
        # a worker ends cleanly at one draw of block 1, sending nothing more:
        # the parent computes the blocks it would have sent
        send, taken = from_workers
        check = mseg.harness.CHECKS["mm-minus"]
        bad = _pair_in_block_one("mm-minus", sorted(SUITES), mseg.GenParams(), 60)

        def exiting(cfg, m, m2):
            if (m, m2) == bad and os.getpid() != parent:
                send()
                os._exit(0)
            return check(cfg, m=m, m2=m2)

        parent = os.getpid()
        monkeypatch.setitem(mseg.harness.CHECKS, "mm-minus", exiting)
        argv = ["suite", "all", "--trials", "60", "--format", "json"]
        one, two, three = _on_cpus(monkeypatch, lambda: (invoke(argv), taken()))
        assert one[0] == two[0] == three[0] and one[0][0] == 0
        assert (one[1], two[1], three[1]) == (0, 1, 1)

    def test_wrapped_entry_stays_in_process(self, monkeypatch):
        # a SUITES entry that is only callable, such as a tracer's wrapper, is
        # called once, in this process, and sees the report
        argv = ["suite", "all", "--trials", "6", "--format", "json"]
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(2))
        want = invoke(argv)
        wrapped, calls = SUITES["gedelta"], []

        def wrapper(*args, **kwargs):
            calls.append(os.getpid())
            return wrapped(*args, **kwargs)

        monkeypatch.setitem(SUITES, "gedelta", wrapper)
        assert invoke(argv) == want and calls == [os.getpid()]

    def test_second_thread_makes_no_fork(self, monkeypatch):
        # forking a process that runs other threads can deadlock the child
        argv = ["suite", "all", "--trials", "12", "--format", "json"]
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))

        def both():  # the command, and a suite called from the library
            return invoke(argv), SUITES["mm-minus"](mseg.GenParams(), mseg.RankConfig(), 12)

        want = both()
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(2))
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            assert both() == want
        finally:
            release.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()

    def test_more_workers_than_cores(self, monkeypatch):
        # five workers on a machine of fewer cores each take their credits
        # and send every fifth block: the bytes of one process
        argv = ["suite", "all", "--trials", "40", "--format", "json"]
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        want = invoke(argv)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(6))
        assert invoke(argv) == want and want[0] == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_inside_a_draw_is_not_waited_for(self, monkeypatch, from_workers):
        # mm-minus at --trials 4 stops at draw 37, in block 2, which this
        # process computes once the worker sleeps at draw 48, the first of
        # block 3, started on its second credit: the worker is ended, not
        # waited for
        send, taken = from_workers
        argv = ["suite", "mm-minus", "--trials", "4", "--format", "json"]
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        want = invoke(argv)
        assert json.loads(want[1])["trials"] == 38
        parent, outcome, asleep = os.getpid(), mseg.harness.SuiteRun.outcome, []

        def sleeping(run, i):
            if os.getpid() != parent and i == 3 * mseg.fanout.BLOCK:
                send()
                time.sleep(5)
            elif os.getpid() == parent and i == 2 * mseg.fanout.BLOCK:
                for _ in range(500):  # up to 5 s for the worker to fall asleep
                    if taken():
                        asleep.append(i)
                        break
                    time.sleep(0.01)
            return outcome(run, i)

        monkeypatch.setattr(mseg.harness.SuiteRun, "outcome", sleeping)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(2))
        start = time.monotonic()
        assert invoke(argv) == want and want[0] == 0
        assert time.monotonic() - start < 2.5 and asleep
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_that_fails(self, monkeypatch):
        # on three CPUs the second fork fails: one worker computes blocks 1,
        # 4, 7, ... and this process the others, with the bytes of one
        # process, no child left and no descriptor left open
        argv = ["suite", "all", "--trials", "40", "--format", "json"]
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        want = invoke(argv)
        calls, fork = [], os.fork

        def failing():
            calls.append(1)
            if len(calls) == 2:
                raise OSError("injected fork failure")
            return fork()

        monkeypatch.setattr(os, "fork", failing)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(3))
        fds = _fds()
        assert invoke(argv) == want and want[0] == 0
        assert len(calls) == 2 and _fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pin_that_fails(self, monkeypatch, forks):
        # named CPUs that the kernel refuses to pin to: every process runs
        # unpinned, with the bytes of one process
        argv = ["suite", "all", "--trials", "40", "--format", "json"]
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        want = invoke(argv)
        refused = []

        def refuse(pid, cpus):
            refused.append(set(cpus))
            raise OSError("injected affinity failure")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", lambda: [0, 1, 2])
        assert invoke(argv) == want and want[0] == 0
        assert refused == [{0}, {0, 1, 2}] and len(forks) == 2

    def test_parent_share_is_fixed(self, monkeypatch):
        # the parent computes its own blocks, b = 0 mod P, and every run it
        # folds is live there, so it makes the same draws on every call: a
        # traced pass counts the same work each time
        made = []
        outcome = mseg.harness.SuiteRun.outcome

        def recorded(run, i):
            made.append((run.suite.name, i))
            return outcome(run, i)

        monkeypatch.setattr(mseg.harness.SuiteRun, "outcome", recorded)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(3))
        shares = []
        for _ in range(2):
            made.clear()
            assert invoke(["suite", "all", "--format", "json"])[0] == 0
            shares.append(list(made))
        assert shares[0] == shares[1] and shares[0]
        where = {}
        for b, draws in enumerate(_blocks(sorted(SUITES), mseg.GenParams())):
            where.update(dict.fromkeys(draws, b))
            if where.keys() >= set(shares[0]):
                break
        assert {where[draw] % 3 for draw in shares[0]} == {0}

    @pytest.mark.parametrize("procs", [2, 3])
    def test_no_instance_is_split(self, monkeypatch, procs):
        # each gen_ms index that the draws of `suite all` read lies in the
        # blocks of one process, so each instance is drawn once, but for the
        # m2 of invariances at target + i: walked here block by block up to
        # each run's stop, without forking
        gen, cfg, names = mseg.GenParams(), mseg.RankConfig(), sorted(SUITES)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        stops = {
            name: report.instances_generated
            for name, report in zip(names, mseg.fanout.fan_out([SuiteRun(SUITES[n], gen, cfg) for n in names]))
        }
        owner, split, read = {}, set(), []
        gen_ms = mseg.harness.gen_ms
        monkeypatch.setattr(mseg.harness, "gen_ms", lambda p, index: read.append(index) or gen_ms(p, index))
        for b, draws in enumerate(_blocks(names, gen)):
            draws = [(name, i) for name, i in draws if i < stops[name]]
            if not draws:
                break
            for name, i in draws:
                suite = SUITES[name]
                read.clear()
                suite.draw(gen, suite.target, i)
                for j in read:
                    if name == "invariances" and j == suite.target + i:
                        continue
                    if owner.setdefault(j, b % procs) != b % procs:
                        split.add(j)
        assert len(owner) > 2000 and not split

    def test_worker_waits_for_credits(self, monkeypatch):
        # the parent sleeps at its first draw, and the worker still computes
        # only the draws of its blocks up to AHEAD blocks past each run's
        # last; unbounded, it would run on until its pipe filled
        names, gen, parent = sorted(SUITES), mseg.GenParams(), os.getpid()
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(1))
        reports = mseg.fanout.fan_out([SuiteRun(SUITES[name], gen, mseg.RankConfig(), 40) for name in names])
        last = {name: report.instances_generated - 1 for name, report in zip(names, reports)}
        ahead = 2 * mseg.fanout.AHEAD  # blocks, every other one the worker's
        stop, layout = {}, []
        for b, draws in enumerate(_blocks(names, gen, 40)):
            layout.append(draws)
            stop.update((name, b) for name, i in draws if i == last[name])
            if len(stop) == len(names) and b > max(stop.values()) + ahead:
                break
        bound = sum(b <= stop[name] + ahead for b in range(1, len(layout), 2) for name, _ in layout[b])
        read, write = os.pipe()
        os.set_blocking(read, False)
        outcome = mseg.harness.SuiteRun.outcome

        def counted(run, i):
            if os.getpid() != parent:
                os.write(write, b".")
            elif (run.suite.name, i) == (names[0], 0):
                time.sleep(0.3)
            return outcome(run, i)

        monkeypatch.setattr(mseg.harness.SuiteRun, "outcome", counted)
        monkeypatch.setattr(mseg.fanout, "usable_cpus", _cpus(2))
        argv = ["suite", "all", "--trials", "40", "--format", "json"]
        try:
            assert invoke(argv)[0] == 0
            made = len(os.read(read, 1 << 16))
        finally:
            os.close(read), os.close(write)
        assert 0 < made <= bound


# pairs on one or two lines with small coordinates, so segments link often
TWO_LINE_MULTISEGMENTS = st.lists(
    st.builds(
        lambda line, b, length: Segment(line, b, b + length),
        st.sampled_from(["0", "a"]),
        st.integers(-2, 3),
        st.integers(0, 3),
    ),
    max_size=4,
).map(lambda segs: Multisegment(tuple(segs)))


class TestNoRowLc:
    """`check lc` holds with the zero witness exactly when LC(m, m2) has no
    rows: no segment of m precedes one of m2, so no coefficient is drawn.
    An open TRUE decided by its 0/1 witness also takes 0 trials, but its
    witness has keys."""

    def test_examples(self):
        for argv, code, trials in (
            (["[1,2]", "[0,1]"], 0, 0),
            (["[0,1]", "[1,2]"], 1, 0),  # a Hall violator: certified FALSE
            (["0", "[1,2]+[0,1]"], 0, 0),
            (["[0,0]", "[1,1]+[0,0]"], 0, 1),  # X(m, m2) is not empty, yet LC holds
        ):
            got, out, _ = invoke(["check", "lc", *argv, "--format", "json", "--exit-code-verdict"])
            data = json.loads(out)
            assert got == code and data["certified"] and data["trials"] == trials

    @given(TWO_LINE_MULTISEGMENTS, TWO_LINE_MULTISEGMENTS)
    def test_true_iff_lc_has_no_rows(self, m, m2):
        # the only TRUE with the zero witness is LC with no rows
        _, out, _ = invoke(["check", "lc", str(m), str(m2), "--format", "json"])
        data = json.loads(out)
        assert (data["verdict"] is True and data["witness"] == {}) == (not cross_pairs(m, m2))
        if data["verdict"] is True and data["witness"] == {}:
            assert data["trials"] == 0


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, _, err = invoke(["check", "gls", "[1,2"])
        assert code == 2 and "error" in err
        code, _, _ = invoke(["check", "gls", "[3,1]"])
        assert code == 2

    def test_verdict_exit_codes(self):
        code, _, _ = invoke(["check", "gls", "[1,2]+[0,1]", "--exit-code-verdict"])
        assert code == 0
        code, _, _ = invoke(
            ["check", "gls", "[1,2]+[-1,1]+[0,0]+[-2,-1]", "--exit-code-verdict"]
        )
        assert code == 1

    def test_flags_a_command_does_not_read_are_2(self):
        # only `check` runs rank checks; only `ladder` of these commands has
        # a verdict to turn into the exit code
        commands = {
            ("mw", "[0,0]"): True,
            ("reduce", "[1,2]+[0,1]"): True,
            ("derivative", "--rho", "0", "[0,1]"): True,
            ("ladder", "[1,2]+[0,1]"): False,
        }
        for command, no_verdict in commands.items():
            removed = [["--prime", "4"], ["--trials", "0"], ["--seed", "1"], ["--certify"]]
            if no_verdict:
                removed.append(["--exit-code-verdict"])
            for flags in removed:
                code, out, _ = invoke([*command, *flags])
                assert code == 2 and not out
            code, out, _ = invoke([*command, "--format", "json"])
            assert code == 0 and json.loads(out)["prime"] == MERSENNE61
        assert invoke(["ladder", "[1,2]+[0,1]", "--exit-code-verdict"])[0] == 0
        assert invoke(["ladder", "[0,1]+[0,2]", "--exit-code-verdict"])[0] == 1
        # no command reads --certify: every TRUE is certified without it
        for argv in (["check", "gls", "[1,2]+[0,1]"], ["suite", "gedelta"]):
            code, out, _ = invoke([*argv, "--certify"])
            assert code == 2 and not out

    def test_usage_errors_and_help_use_the_given_streams(self, capsys):
        code, out, err = invoke(["mw", "[0,0]", "--seed", "1"])
        assert code == 2 and not out
        assert "unrecognized arguments: --seed 1" in err
        code, out, err = invoke(["--help"])
        assert code == 0 and out.startswith("usage: mseg") and not err
        # the grammar keeps one production a line
        lines = out.splitlines()
        assert "    mseg  := '0' | term ('+' term)*" in lines
        assert "    point := (LABEL ':')? INT" in lines
        real = capsys.readouterr()
        assert real.out == "" and real.err == ""

    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_internal_error_is_3(self, monkeypatch):
        # a library error that no input check caught is the program's fault
        def fail(*args, **kwargs):
            raise MsegError("broken")

        monkeypatch.setattr(mseg.cli, "mw_dual", fail)
        code, out, err = invoke(["mw", "[0,0]"])
        assert code == 3 and not out and err == "error: broken\n"

    def test_reduce_of_zero_is_2(self):
        # the step strips a segment; the zero multisegment is rejected input
        for text in ("0", " 0 "):
            code, out, err = invoke(["reduce", text, "--format", "json"])
            assert code == 2 and not out
            assert err == "error: 'reduce' takes a nonzero multisegment, not 0 (at position 0)\n"

    def test_prime_out_of_range_is_2(self):
        messages = {
            "0": "prime must be at least 2",
            "1": "prime must be at least 2",
            str(1 << 64): "prime must fit in 64 bits",
        }
        for command in (["check", "gls", "[0,0]"], ["suite", "gedelta", "--trials", "2"]):
            for prime, message in messages.items():
                code, out, err = invoke([*command, "--prime", prime, "--format", "json"])
                assert code == 2 and not out and err == f"error: {message}\n"

    def test_too_large_is_2(self):
        # an input is refused before it is expanded, and an involution at
        # its 4,097th segment, which the parser would refuse
        for argv in (["check", "gls", "1000000000*[0,0]"], ["mw", f"[0,{MAX_SEGMENTS}]"], ["mw", "[0,1000000000000]"]):
            start = time.perf_counter()
            code, out, err = invoke(argv)
            assert code == 2 and "error" in err and not out
            assert time.perf_counter() - start < 1.0
        # 4,096 singletons: canonical output that round-trips
        _, out, _ = invoke(["mw", f"[0,{MAX_SEGMENTS - 1}]", "--format", "json"])
        dual = json.loads(out)["outputs"]["mw"]
        assert len(parse_mseg(dual)) == MAX_SEGMENTS
        _, out, _ = invoke(["mw", dual, "--format", "json"])
        assert json.loads(out)["outputs"]["mw"] == f"[0,{MAX_SEGMENTS - 1}]"

    def test_nonpositive_trials_is_2(self):
        for command in (["check", "gls", "[0,0]"], ["suite", "gedelta"]):
            for trials in ("0", "-3"):
                code, out, err = invoke(command + ["--trials", trials, "--format", "json"])
                assert code == 2 and not out
                assert err == "error: trials must be positive\n"

    def test_trials_above_cap_is_2(self, monkeypatch):
        # refused before any check or suite runs
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(mseg.cli, "check_gls", refuse)
        monkeypatch.setitem(SUITES, "gedelta", refuse)
        caps = {("check", "gls", "[0,0]"): MAX_TRIALS, ("suite", "gedelta"): MAX_INSTANCES}
        for command, cap in caps.items():
            code, out, err = invoke([*command, "--trials", str(cap + 1), "--format", "json"])
            assert code == 2 and not out
            assert err == f"error: more than {cap} trials\n"

    def test_negative_suite_sizes_are_2(self):
        for flag in ("--max-segments", "--range"):
            code, out, err = invoke(["suite", "gedelta", flag, "-1", "--format", "json"])
            assert code == 2 and not out
            assert err == "error: sizes must be nonnegative\n"

    def test_max_segments_above_cap_is_2(self, monkeypatch):
        # refused before any instance is drawn
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setitem(SUITES, "gedelta", refuse)
        argv = ["suite", "gedelta", "--max-segments", str(MAX_SEGMENTS + 1), "--format", "json"]
        code, out, err = invoke(argv)
        assert code == 2 and not out
        assert err == f"error: more than {MAX_SEGMENTS} segments\n"

    def test_trials_at_cap_accepted(self):
        code, out, _ = invoke(["check", "gls", "[0,0]", "--trials", str(MAX_TRIALS), "--format", "json"])
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_false_bound_printed_at_trial_cap(self):
        # (|X|/(p-1))^trials in full, |X| = 4 here: about 18.4 digits a
        # trial at the default prime, within Python's int-to-str limit
        leclerc = "[1,2]+[-1,1]+[0,0]+[-2,-1]"
        code, out, err = invoke(["check", "gls", leclerc, "--trials", str(MAX_TRIALS), "--format", "json"])
        assert code == 0 and not err
        data = json.loads(out)
        assert data["verdict"] is False and data["trials"] == MAX_TRIALS
        num, den = map(int, data["false_verdict_bound"].split("/"))
        assert Fraction(num, den) == Fraction(4, MERSENNE61 - 1) ** MAX_TRIALS

    def test_bad_rho_is_2(self):
        code, _, _ = invoke(["derivative", "--rho", "a:b", "[0,1]"])
        assert code == 2


# Calls pinned by their exit code and by substrings of stdout, found in this
# order; each ends within 20 s.  Byte-for-byte pins are in
# TestJson.test_records_byte_for_byte.
SMOKE = {
    "gedelta": (["suite", "gedelta", "--trials", "20", "--exit-code-verdict"], 0, []),
    "invariances": (["suite", "invariances", "--trials", "25", "--exit-code-verdict"], 0, []),
    "all": (["suite", "all", "--trials", "25", "--exit-code-verdict"], 0, []),
    # at 20 draws one invariances check never meets its hypothesis, and the
    # reason names it
    "invariances-short": (
        ["suite", "invariances", "--trials", "20", "--format", "json"],
        0,
        ['"verdict":null', "invariances/frontier-map met its hypothesis 0 of 1 times"],
    ),
    # 4,096 rows whose matching is not unique: TRUE by the 0/1 witness, with
    # no elimination
    "open-4096-rows": (
        ["check", "gls", "64*[0,1]+64*[1,2]", "--format", "json"],
        0,
        ['"verdict":true,"certified":true,"trials":0'],
    ),
    # 2,048 equal segments: no row, so TRUE from a walk that never lists
    # their 2,048^2 Y pairs
    "equal-2048": (
        ["check", "gls", "2048*[0,0]", "--format", "json"],
        0,
        ['"verdict":true,"certified":true,"trials":0,"false_verdict_bound":"0/1","witness":{}'],
    ),
    # the involution of a multisegment on three lines strips them from one list
    "mw-three-lines": (
        ["mw", "b:[0,2]+b:[1,3]+a:[0,0]+a:[1,1]+[2,2]", "--format", "json"],
        0,
        ['"mw":"b:[2,3]+b:[1,2]+b:[0,1]+a:[0,1]+[2,2]"'],
    ),
    # one certified LC FALSE certifies IG FALSE, whatever the other side's bound
    "ig-certified-false": (
        ["check", "ig", "2*[1,2]+[2,3]+[2,3]", "[2,2]+[2,4]+[-1,0]", "--prime", "2", "--format", "json"],
        0,
        ['"certified":true'],
    ),
    # pair order across lines pins the witness keys
    "two-line-witness": (
        ["check", "gls", "a:[1,2]+a:[0,1]+b:[1,2]+b:[0,1]", "--format", "json"],
        0,
        ['"witness":{"(2,1)":874121439593548569,"(4,3)":1403048218288039046}'],
    ),
    # Leclerc's cancelling example next to a second line stays FALSE after all trials
    "leclerc-two-lines": (
        ["check", "gls", "a:[1,2]+a:[-1,1]+a:[0,0]+a:[-2,-1]+b:[0,1]+b:[1,2]", "--format", "json"],
        0,
        ['"verdict":false', '"trials":8'],
    ),
    # IG reports both LC directions, forward first
    "ig-outputs": (
        ["check", "ig", "[0,0]", "[1,1]", "--format", "json"],
        0,
        ['"outputs":{"lc_forward":false,"lc_reverse":true}'],
    ),
    # LI on a pair with a ladder is LC
    "li-ladder": (
        ["check", "li", "[1,2]+[0,1]", "[2,3]", "--format", "json"],
        0,
        ['"verdict":false'],
    ),
}


@pytest.mark.parametrize("argv, code, parts", SMOKE.values(), ids=SMOKE.keys())
def test_smoke(argv, code, parts):
    start = time.perf_counter()
    got, out, _ = invoke(argv)
    assert time.perf_counter() - start < 20
    assert got == code
    pos = 0
    for part in parts:
        pos = out.find(part, pos)
        assert pos >= 0, part
        pos += len(part)


class TestClosedPipe:
    """A reader that closes the pipe early ends the command with EXIT_PIPE,
    never 1 (FALSE under --exit-code-verdict), and without a traceback."""

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_stream_raising_broken_pipe(self, fmt):
        err = io.StringIO()
        argv = ["check", "gls", "[1,2]+[0,1]", "--format", fmt, "--exit-code-verdict"]
        assert run(argv, self.ClosedPipe(), err) == mseg.cli.EXIT_PIPE == 141
        assert err.getvalue() == ""

    def test_process_with_a_closed_pipe(self):
        src = os.path.dirname(os.path.dirname(mseg.__file__))
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the record is written
        try:
            done = subprocess.run(
                [sys.executable, "-m", "mseg.cli", "check", "gls", "[1,2]+[0,1]", "--format", "json"],
                env=dict(os.environ, PYTHONPATH=src), stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert done.returncode == 141 and done.stderr == b""


class TestJson:
    def test_bytes_independent_of_hash_seed(self):
        # string hashes differ between processes; no output may depend on them
        src = os.path.dirname(os.path.dirname(mseg.__file__))
        commands = [
            ["suite", "invariances", "--trials", "60", "--format", "json"],
            ["check", "lc", "[1,2]+[0,1]+a:[1,2]+a:[0,1]+a:[2,3]",
             "[0,1]+[1,2]+[2,3]+a:[0,0]+a:[1,2]", "--format", "json"],
        ]
        for argv in commands:
            outs = set()
            for hash_seed in ("0", "987654"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
                done = subprocess.run(
                    [sys.executable, "-m", "mseg.cli", *argv],
                    env=env, capture_output=True, check=True,
                )
                outs.add(done.stdout)
            assert len(outs) == 1 and outs.pop()

    def test_schema_fields_in_order(self):
        _, out, _ = invoke(["check", "gls", "[1,2]+[0,1]", "--format", "json"])
        data = json.loads(out)
        assert list(data) == [
            "command",
            "inputs",
            "verdict",
            "certified",
            "trials",
            "false_verdict_bound",
            "witness",
            "prime",
            "seed",
            "outputs",
        ]
        assert data["witness"] == {"(2,1)": data["witness"]["(2,1)"]}
        assert data["false_verdict_bound"] == "0/1"

    def test_byte_identical(self):
        runs = [
            invoke(["check", "lc", "[1,2]", "[0,1]", "--format", "json"])[1]
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_records_byte_for_byte(self):
        # one record of each shape; the witness keys name the condition run
        default = '"prime":2305843009213693951,"seed":0'
        none = '"verdict":null,"certified":false,"trials":0,"false_verdict_bound":"0/1","witness":null'
        lc_witness = '{"m:(2,1)":874121439593548569,"m2:(2,1)":709221631589824909}'
        true_at_1 = '"verdict":true,"certified":true,"trials":1,"false_verdict_bound":"0/1"'
        lc_true = f'{true_at_1},"witness":{lc_witness},{default},"outputs":{{}}}}'
        pair = '"inputs":["[1,1]+[0,0]","[1,1]+[0,0]"]'
        no_row = '"verdict":true,"certified":true,"trials":0,"false_verdict_bound":"0/1","witness":{}'
        hall = '"verdict":false,"certified":true,"trials":0,"false_verdict_bound":"0/1","witness":null'
        ladder = "[3,4]+[2,3]+[1,2]+[0,1]"
        rows_26 = "[1,1]+[1,1]+[1,1]+[0,0]+[0,0]+[-1,0]+[-1,0]+[-2,-1]+[-2,-1]+[-3,-3]+[-3,-3]+[-4,-4]"
        records = {
            ("check", "gls", "[1,2]+[0,1]"):
                '{"command":"check gls","inputs":["[1,2]+[0,1]"],"verdict":true,"certified":true,'
                '"trials":1,"false_verdict_bound":"0/1","witness":{"(2,1)":874121439593548569},'
                f'{default},"outputs":{{}}}}',
            ("check", "lc", "[1,1]+[0,0]", "[1,1]+[0,0]"): f'{{"command":"check lc",{pair},{lc_true}',
            ("check", "li", "[1,1]+[0,0]", "[1,1]+[0,0]"): f'{{"command":"check li",{pair},{lc_true}',
            ("check", "ig", "[1,1]+[0,0]", "[1,1]+[0,0]"):
                f'{{"command":"check ig",{pair},"verdict":true,"certified":true,"trials":2,'
                f'"false_verdict_bound":"0/1","witness":{{"lc_forward":{lc_witness},'
                f'"lc_reverse":{lc_witness}}},{default},'
                '"outputs":{"lc_forward":true,"lc_reverse":true}}',
            ("check", "li", "[0,1]+[0,2]", "[0,1]+[0,2]"):
                f'{{"command":"check li","inputs":["[0,2]+[0,1]","[0,2]+[0,1]"],{none},{default},'
                '"outputs":{"reason":"neither input is a ladder"}}',
            ("check", "gls", LECLERC, "--prime", "2"):
                '{"command":"check gls","inputs":["[1,2]+[-1,1]+[0,0]+[-2,-1]"],'
                '"verdict":null,"certified":false,"trials":8,"false_verdict_bound":"1/1",'
                '"witness":null,"prime":2,"seed":0,'
                '"outputs":{"reason":"inconclusive: the FALSE bound is 1 at this prime"}}',
            ("check", "gls", TRUE_OPEN, "--prime", "2"):
                '{"command":"check gls","inputs":["[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]"],'
                '"verdict":true,"certified":true,"trials":0,"false_verdict_bound":"0/1",'
                '"witness":{"(5,3)":1,"(6,3)":1,"(6,4)":1},"prime":2,"seed":0,"outputs":{}}',
            ("mw", "[0,2]+[1,3]"):
                f'{{"command":"mw","inputs":["[1,3]+[0,2]"],{none},{default},'
                '"outputs":{"mw":"[2,3]+[1,2]+[0,1]"}}',
            ("reduce", "[0,2]+[1,3]"):
                f'{{"command":"reduce","inputs":["[1,3]+[0,2]"],{none},{default},'
                '"outputs":{"reduced":"[1,2]+[0,1]","delta":"[2,3]"}}',
            ("derivative", "--rho", "0", "[0,2]+[1,3]+[0,0]"):
                f'{{"command":"derivative","inputs":["[1,3]+[0,2]+[0,0]"],{none},{default},'
                '"outputs":{"rho":"0","mu":1,"derivative":"[1,3]+[0,2]",'
                '"soc":"[1,3]+[0,2]+[0,0]+[0,0]"}}',
            ("ladder", "[1,2]+[0,1]"):
                '{"command":"ladder","inputs":["[1,2]+[0,1]"],"verdict":true,"certified":true,'
                f'"trials":0,"false_verdict_bound":"0/1","witness":null,{default},"outputs":{{}}}}',
            # a ladder's matching is unique, so it is TRUE at trial 1 even
            # where every coefficient is 1
            ("check", "gls", ladder, "--prime", "2"):
                f'{{"command":"check gls","inputs":["{ladder}"],{true_at_1},'
                '"witness":{"(2,1)":1,"(3,1)":1,"(3,2)":1,"(4,2)":1,"(4,3)":1},'
                '"prime":2,"seed":0,"outputs":{}}',
            ("check", "gls", ladder, "--prime", "3"):
                f'{{"command":"check gls","inputs":["{ladder}"],{true_at_1},'
                '"witness":{"(2,1)":1,"(3,1)":2,"(3,2)":1,"(4,2)":2,"(4,3)":2},'
                '"prime":3,"seed":0,"outputs":{}}',
            # a trial witness at the largest 64-bit prime, where p - 1 is nearest 2^64
            ("check", "gls", "[1,2]+[0,1]", "--prime", "18446744073709551557"):
                f'{{"command":"check gls","inputs":["[1,2]+[0,1]"],{true_at_1},'
                '"witness":{"(2,1)":17015022504089406219},'
                '"prime":18446744073709551557,"seed":0,"outputs":{}}',
            # the Hall violator sits on the second line in row order, after a
            # first line whose rows match
            ("check", "gls", "a:[1,2]+a:[0,1]+b:[4,6]+b:[2,5]+b:[1,2]+b:[3,4]+b:[0,3]"):
                '{"command":"check gls",'
                '"inputs":["b:[4,6]+b:[2,5]+b:[3,4]+b:[0,3]+b:[1,2]+a:[1,2]+a:[0,1]"],'
                f'{hall},{default},"outputs":{{}}}}',
            # one line has a unique matching and the other an open one: one
            # matrix, decided whole by a 0/1 witness on the keys of its
            # matched entries, in no trial
            ("check", "gls", "1:[3,3]+1:[1,2]+1:[-1,2]+1:[-3,0]+[3,3]+[0,2]"):
                '{"command":"check gls","inputs":["1:[3,3]+1:[1,2]+1:[-1,2]+1:[-3,0]+[3,3]+[0,2]"],'
                '"verdict":true,"certified":true,"trials":0,"false_verdict_bound":"0/1",'
                f'"witness":{{"(2,1)":1,"(4,2)":1,"(4,3)":1,"(6,5)":1}},{default},"outputs":{{}}}}',
            # 26 rows that neither matching settles: TRUE at trial 1, ranked
            # by elimination mod p
            ("check", "gls", rows_26):
                f'{{"command":"check gls","inputs":["{rows_26}"],{true_at_1},"witness":{{'
                '"(4,1)":544360350376336225,"(4,2)":656127392458927150,"(4,3)":1403048218288039046,'
                '"(5,1)":1866421385928098242,"(5,2)":1947484515901454588,"(5,3)":346922472396365310,'
                '"(6,1)":1884984045201848729,"(6,2)":636109828413780006,"(6,3)":830175670399485387,'
                '"(7,1)":2138544073415356576,"(7,2)":1572978923345916518,"(7,3)":1648382407443190436,'
                '"(8,4)":1013396596923738460,"(8,5)":812381136877568589,"(8,6)":2179864945685375222,'
                '"(8,7)":1322064077904864836,"(9,4)":1312781756621076835,"(9,5)":1546121541019315770,'
                '"(9,6)":377000860302001811,"(9,7)":1781030867022508148,"(10,8)":1935932629577555755,'
                '"(10,9)":1840061047787186592,"(11,8)":635972336031539373,"(11,9)":743853852016129917,'
                '"(12,10)":1835069190921023753,"(12,11)":67482694587535204},'
                f'{default},"outputs":{{}}}}',
            # the whole LC line where each side has a line the other lacks
            ("check", "lc", "c:[1,2]+c:[0,1]+a:[1,1]+a:[0,0]", "b:[1,2]+b:[0,1]+a:[1,1]+a:[0,0]"):
                '{"command":"check lc",'
                '"inputs":["c:[1,2]+c:[0,1]+a:[1,1]+a:[0,0]","b:[1,2]+b:[0,1]+a:[1,1]+a:[0,0]"],'
                f'{true_at_1},"witness":{{"m:(2,1)":874121439593548569,'
                '"m:(4,3)":1403048218288039046,"m2:(2,1)":709221631589824909,'
                f'"m2:(4,3)":992135246467772477}},{default},"outputs":{{}}}}',
            # segments on different lines never precede each other: no rows
            ("check", "lc", "a:[0,1]+[2,3]", "b:[1,2]+[0,1]"):
                '{"command":"check lc","inputs":["a:[0,1]+[2,3]","b:[1,2]+[0,1]"],'
                f'{no_row},{default},"outputs":{{}}}}',
            # no rows although m has a precedence pair: the zero witness, printed {}
            ("check", "lc", "[1,1]+[0,0]", "[5,5]"):
                f'{{"command":"check lc","inputs":["[1,1]+[0,0]","[5,5]"],{no_row},{default},'
                '"outputs":{}}',
            # one row and no column: a Hall violator
            ("check", "lc", "[0,0]", "[1,1]"):
                f'{{"command":"check lc","inputs":["[0,0]","[1,1]"],{hall},{default},"outputs":{{}}}}',
        }
        for argv, line in records.items():
            assert invoke([*argv, "--format", "json"]) == (0, line + "\n", "")

    def test_outputs_carry_mw(self):
        _, out, _ = invoke(["mw", "[0,0]+[1,1]", "--format", "json"])
        data = json.loads(out)
        assert data["outputs"] == {"mw": "[0,1]"} and data["verdict"] is None

    def test_emit_json_stable(self):
        base = {
            "command": "x",
            "inputs": [],
            "verdict": None,
            "certified": False,
            "trials": 0,
            "false_verdict_bound": "0/1",
            "witness": None,
            "prime": 3,
            "seed": 0,
            "outputs": {},
        }
        assert emit_json(base) == emit_json(dict(reversed(base.items())))
