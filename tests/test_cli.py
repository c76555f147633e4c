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
from mseg.errors import EmptySegmentError, ParseError, TooLargeError
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
        for text, pos in [("[1,2", 4), ("[x,2]", 1), ("[1,2]++[0,1]", 6), ("", 0)]:
            with pytest.raises(ParseError) as exc:
                parse_mseg(text)
            assert exc.value.position == pos

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


class TestSubcommands:
    def test_check_gls_leclerc(self):
        code, out, _ = invoke(["check", "gls", "[1,2]+[-1,1]+[0,0]+[-2,-1]"])
        assert code == 0 and "verdict: false" in out

    def test_false_bound_at_most_one(self):
        m = "[4,4]+[4,4]+[2,4]+[2,4]+[-1,2]+[1,1]"
        _, out, _ = invoke(["check", "gls", m, "--prime", "2", "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is False and data["false_verdict_bound"] == "1/1"
        _, out, _ = invoke(["check", "gls", m, "--certify", "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is True and data["certified"] is True

    def test_check_lc_false(self):
        code, out, _ = invoke(["check", "lc", "[0,0]", "[1,1]"])
        assert code == 0 and "verdict: false" in out

    def test_false_witness_null(self):
        # structural (Hall violator after one trial), pigeonhole and
        # probabilistic FALSE all print a null witness
        cases = {
            ("lc", "[1,3]+[0,1]+[0,0]", "[1,3]"): (True, 1, "0/1"),
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
        assert "certified: true\ntrials: 1\nfalse_verdict_bound: 0/1" in out

    def test_check_ig_outputs(self):
        code, out, _ = invoke(["check", "ig", "[0,0]", "[1,1]", "--format", "json"])
        data = json.loads(out)
        assert data["verdict"] is False
        assert data["outputs"] == {"lc_forward": False, "lc_reverse": True}

    def test_check_li_gated(self):
        code, out, _ = invoke(
            ["check", "li", "[0,1]+[0,2]", "[0,1]+[0,2]", "--format", "json"]
        )
        data = json.loads(out)
        assert code == 0 and data["verdict"] is None
        assert "ladder" in data["outputs"]["reason"]

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

    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_internal_error_is_3(self):
        # reduce of the zero multisegment violates the operation's domain
        code, _, err = invoke(["reduce", "0"])
        assert code == 3 and "error" in err

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
