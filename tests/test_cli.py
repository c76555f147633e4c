"""Parsing, formatting, subcommands, JSON schema and exit codes."""

import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import mseg
import mseg.cli
from mseg.cli import MAX_INSTANCES, MAX_SEGMENTS, SUITES, emit_json, parse_mseg, parse_rho, run
from mseg.errors import EmptySegmentError, MsegError, ParseError, TooLargeError
from mseg.linalg import MAX_TRIALS, MERSENNE61
from mseg.segments import CuspidalPoint, Multisegment, Segment


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
        with pytest.raises(EmptySegmentError):
            parse_mseg("[3,1]")

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
        m = "[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]"
        _, out, _ = invoke(["check", "gls", m, "--prime", "2", "--format", "json"])
        data = json.loads(out)
        # capped at 1, so the failed trials are reported as inconclusive
        assert data["verdict"] is None and data["false_verdict_bound"] == "1/1"
        # every TRUE is certified: full rank mod p at an integer witness is
        # full rank over the rationals
        _, out, _ = invoke(["check", "gls", m, "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is True and data["certified"] is True

    def test_check_lc_false(self):
        code, out, _ = invoke(["check", "lc", "[0,0]", "[1,1]"])
        assert code == 0 and "verdict: false" in out

    def test_false_witness_null(self):
        # structural (Hall violator before any trial), pigeonhole and
        # probabilistic FALSE all print a null witness
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

    def test_check_ig_bound_one_is_inconclusive(self):
        # at p = 2 both sides of LC(m, m) are all ones, the GLS matrix of
        # Leclerc's example: each direction fails its one trial at bound 1
        m = "[1,2]+[-1,1]+[0,0]+[-2,-1]"
        argv = ["check", "ig", m, m, "--prime", "2", "--trials", "1", "--format", "json"]
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
        m = "[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]"
        reason = "inconclusive: the FALSE bound is 1 at this prime"
        code, out, _ = invoke(["check", "gls", m, "--prime", "2", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["verdict"] is None and data["certified"] is False
        assert data["trials"] == 8 and data["false_verdict_bound"] == "1/1"
        assert data["witness"] is None and data["outputs"] == {"reason": reason}
        code, out, _ = invoke(["check", "gls", m, "--prime", "2", "--exit-code-verdict"])
        assert code == 1
        assert out == f"command: check gls\ninput: {m}\nreason: {reason}\n"
        code, out, _ = invoke(["check", "gls", m, "--format", "json"])
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

    def test_ladder_and_sli(self):
        _, out, _ = invoke(["ladder", "[1,2]+[0,1]"])
        assert "verdict: true" in out
        _, out, _ = invoke(["sli", "[1,2]", "[0,1]"])
        assert "verdict: true" in out
        _, out, _ = invoke(["sli", "[0,1]", "[1,2]"])
        assert "verdict: false" in out

    def test_suite(self):
        code, out, _ = invoke(
            ["suite", "gedelta", "--trials", "15", "--seed", "5", "--format", "json"]
        )
        data = json.loads(out)
        assert code == 0 and data["verdict"] is True
        assert data["outputs"]["suites"][0]["hypothesis_satisfied"] == 15

    def test_suite_bounds_at_most_one(self):
        # at p = 2 every probabilistic FALSE has bound 1; their sums are capped
        argv = ["suite", "all", "--prime", "2", "--seed", "3", "--trials", "20"]
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

    def test_check_wrong_arity(self):
        code, _, err = invoke(["check", "gls", "[0,0]", "[1,1]"])
        assert code == 2 and "error" in err


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
        # only `check` runs rank checks; only `ladder` and `sli` of these
        # commands have a verdict to turn into the exit code
        commands = {
            ("mw", "[0,0]"): True,
            ("reduce", "[1,2]+[0,1]"): True,
            ("derivative", "--rho", "0", "[0,1]"): True,
            ("ladder", "[1,2]+[0,1]"): False,
            ("sli", "[1,2]", "[0,1]"): False,
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
        assert invoke(["sli", "[0,1]", "[1,2]", "--exit-code-verdict"])[0] == 1
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
        start = time.perf_counter()
        code, out, err = invoke(["check", "gls", "1000000000*[0,0]"])
        assert code == 2 and "error" in err and not out
        assert time.perf_counter() - start < 1.0  # refused before expanding

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
        lc_true = (
            '"verdict":true,"certified":true,"trials":1,"false_verdict_bound":"0/1",'
            '"witness":{"m:(2,1)":874121439593548569,"m2:(2,1)":709221631589824909},'
            f'{default},"outputs":{{}}}}'
        )
        pair = '"inputs":["[1,1]+[0,0]","[1,1]+[0,0]"]'
        records = {
            ("check", "gls", "[1,2]+[0,1]"):
                '{"command":"check gls","inputs":["[1,2]+[0,1]"],"verdict":true,"certified":true,'
                '"trials":1,"false_verdict_bound":"0/1","witness":{"(2,1)":874121439593548569},'
                f'{default},"outputs":{{}}}}',
            ("check", "lc", "[1,1]+[0,0]", "[1,1]+[0,0]"): f'{{"command":"check lc",{pair},{lc_true}',
            ("check", "li", "[1,1]+[0,0]", "[1,1]+[0,0]"): f'{{"command":"check li",{pair},{lc_true}',
            ("check", "ig", "[1,1]+[0,0]", "[1,1]+[0,0]"):
                f'{{"command":"check ig",{pair},"verdict":true,"certified":true,"trials":2,'
                f'"false_verdict_bound":"0/1","witness":null,{default},'
                '"outputs":{"lc_forward":true,"lc_reverse":true}}',
            ("check", "li", "[0,1]+[0,2]", "[0,1]+[0,2]"):
                f'{{"command":"check li","inputs":["[0,2]+[0,1]","[0,2]+[0,1]"],{none},{default},'
                '"outputs":{"reason":"neither input is a ladder"}}',
            ("check", "gls", "[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]", "--prime", "2"):
                '{"command":"check gls","inputs":["[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]"],'
                '"verdict":null,"certified":false,"trials":8,"false_verdict_bound":"1/1",'
                '"witness":null,"prime":2,"seed":0,'
                '"outputs":{"reason":"inconclusive: the FALSE bound is 1 at this prime"}}',
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
            ("sli", "[0,1]", "[1,2]"):
                '{"command":"sli","inputs":["[0,1]","[1,2]"],"verdict":false,"certified":true,'
                f'"trials":0,"false_verdict_bound":"0/1","witness":null,{default},"outputs":{{}}}}',
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
