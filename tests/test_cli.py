"""Command-line interface: round trips, formats, and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repfn import cli
from repfn.cli import main

S1_DOC = '{"boundaries": [4, 5, 7], "tail": {"a": 3, "k": 2, "i0": 0}, "leading_gap": true}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "eval", "--set", S1_DOC, "--n", "100", "--k", "2")
        assert code == 0
        assert out.strip() == "14"

    def test_checked_against_oracle(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--set", S1_DOC, "--n", "100", "--k", "2", "--check"
        )
        assert code == 0
        assert out.strip() == "14"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--set", S1_DOC, "--n", "100", "--k", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["count"] == "14"

    def test_explicit_weights(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--set", S1_DOC, "--n", "100", "--w1", "1", "--w2", "1"
        )
        assert code == 0
        assert int(out.strip()) >= 0

    def test_oracle_agrees(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--set", S1_DOC, "--n", "321", "--k", "2", "--check", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["count"], doc["oracle"]) == ("44", "44")

    def test_check_mismatch_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_weighted", lambda s, n, w: 15)
        code, out, err = run(capsys, "eval", "--set", S1_DOC, "--n", "100", "--k", "2", "--check")
        assert (code, out, err) == (1, "", "error: closed form 15 != oracle 14\n")

    def test_set_from_file(self, capsys, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(S1_DOC)
        code, out, _ = run(capsys, "eval", "--set", str(p), "--n", "100", "--k", "2")
        assert code == 0
        assert out.strip() == "14"

    def test_weight_error_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--set", S1_DOC, "--n", "5", "--w1", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: repfn eval [-h] --set SET --n N [--k K] [--w1 W1] [--w2 W2] [--check]\n"
            "                  [--format {human,json}]\n"
            "repfn eval: error: weights required: --k K or --w1 W1 --w2 W2\n"
        )

    def test_weights_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--set", S1_DOC, "--n", "10", "--k", "2", "--w1", "1"])
        assert exc.value.code == 2


class TestClassic:
    def test_variants(self, capsys):
        doc = '{"boundaries": [0, 3]}'
        for variant, expected in (("R1", "3"), ("R2", "1"), ("R3", "2")):
            code, out, _ = run(
                capsys, "classic", "--set", doc, "--n", "2", "--variant", variant
            )
            assert code == 0
            assert out.strip() == expected


class TestGenAndDetect:
    def test_gen_emits_set_document(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "4,5,7", "--a", "3", "--k", "2", "--limit", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["boundaries"] == [4, 5, 7, 8, 10, 14, 16, 20, 28]
        assert doc["tail"] == {"a": 3, "k": 2, "i0": 0}

    def test_gen_round_trips_into_other_commands(self, capsys):
        _, gen_out, _ = run(capsys, "gen", "--seed", "4,5,7", "--a", "3", "--k", "2", "--limit", "100")
        code, out, _ = run(capsys, "select-g", "--set", gen_out)
        assert code == 0
        assert out.strip() == "T=40 g=7"

    def test_detect_from_boundaries(self, capsys):
        code, out, _ = run(capsys, "detect", "--boundaries", "3,4,5,7,8,10,14", "--k", "2")
        assert code == 0
        assert out.strip() == "a=3 k=2 i0=1"

    def test_detect_from_set_doc(self, capsys):
        # stored boundaries are the evidence; a bare three-value seed is too
        # little for the period-3 law, an expanded document suffices
        code, out, _ = run(capsys, "detect", "--set", S1_DOC, "--k", "2")
        assert code == 0
        assert out.strip() == "none"
        _, gen_out, _ = run(capsys, "gen", "--seed", "4,5,7", "--a", "3", "--k", "2", "--limit", "100")
        code, out, _ = run(capsys, "detect", "--set", gen_out, "--k", "2")
        assert code == 0
        assert out.strip() == "a=3 k=2 i0=0"

    def test_detect_none(self, capsys):
        code, out, _ = run(capsys, "detect", "--boundaries", "4,5,7,11", "--k", "2")
        assert code == 0
        assert out.strip() == "none"

    def test_detect_json(self, capsys):
        code, out, _ = run(
            capsys, "detect", "--boundaries", "1,2,4,8", "--k", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"tail": {"a": 1, "k": 2, "i0": 0}}

    def test_detect_requires_exactly_one_source(self, capsys):
        for sources in ([], ["--boundaries", "1,2", "--set", S1_DOC]):
            with pytest.raises(SystemExit) as exc:
                main(["detect", "--k", "2", *sources])
            assert exc.value.code == 2
            assert capsys.readouterr().err == (
                "usage: repfn detect [-h] [--boundaries BOUNDARIES] [--set SET] --k K\n"
                "                    [--format {human,json}]\n"
                "repfn detect: error: give exactly one of --boundaries or --set\n"
            )


class TestStructureCommands:
    def test_select_g_json(self, capsys):
        code, out, _ = run(capsys, "select-g", "--set", S1_DOC, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"T": "40", "g": 7}

    def test_decompose_human(self, capsys):
        code, out, _ = run(capsys, "decompose", "--set", S1_DOC, "--n", "1000000", "--g", "7")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["m"] == "7751"
        assert lines["r"] == "121"
        assert lines["s"] == "10"
        assert lines["ell"] == "2"

    def test_decompose_json(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--set", S1_DOC, "--n", "516", "--g", "7", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["m"], doc["r"], doc["s"], doc["ell"]) == ("4", "0", 0, 0)

    def test_intersect(self, capsys):
        code, out, _ = run(capsys, "intersect", "--k", "8", "--l", "32", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"nonempty": True, "dependent": True, "d": 2, "p": 3, "q": 5}
        code, out, _ = run(capsys, "intersect", "--k", "2", "--l", "4", "--format", "json")
        assert json.loads(out)["nonempty"] is False


class TestWitnesses:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "witnesses", "--set", S1_DOC, "--n", "100000000", "--g", "7")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["case"] == "I"
        assert lines["side"] == "set"
        assert lines["pairs_checked"] == "3993"
        assert lines["guaranteed"] == "74771/26"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "witnesses", "--set", S1_DOC, "--n", "100000000", "--g", "7", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["q_lo"] == "0" and doc["q_hi"] == "3992"
        assert doc["pairs_checked"] == "3993"

    def test_empty_family(self, capsys):
        code, out, _ = run(
            capsys, "witnesses", "--set", S1_DOC, "--n", "1000000", "--g", "7", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs_checked"] == "0"
        assert doc["q_lo"] is None


class TestVerifyAndScan:
    def test_verify_human(self, capsys):
        code, out, _ = run(
            capsys, "verify-psi", "--set", S1_DOC, "--k", "2", "--n-lo", "100", "--n-hi", "120"
        )
        assert code == 0
        assert "equal: 0/21" in out
        assert "first_violation: 100" in out

    def test_verify_json_with_series(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-psi", "--set", S1_DOC, "--k", "2",
            "--n-lo", "100", "--n-hi", "105", "--per-n", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["equal_count"] == "0"
        assert len(doc["per_n"]) == 6

    def test_scan_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--set", S1_DOC, "--k", "2",
            "--n-lo", "600", "--n-hi", "620", "--g", "7", "--stride", "10", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,r_A,r_comp,ratio_num,ratio_den"
        assert lines[1] == "600,92,95,23,150"
        assert len(lines) == 4

    def test_scan_json(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--set", S1_DOC, "--k", "2",
            "--n-lo", "600", "--n-hi", "620", "--g", "7", "--stride", "10", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["trivial_ceiling"] == "1/2"
        assert doc["theoretical_floor"] == "1/33280"
        assert len(doc["points"]) == 3

    @pytest.mark.parametrize(
        "k, g, message",
        [
            ("0", "7", "ratio k must be at least 2, got 0"),
            ("1", "7", "ratio k must be at least 2, got 1"),
            ("2", "-1", "exponent g must be odd and positive, got -1"),
            ("2", "2", "exponent g must be odd and positive, got 2"),
        ],
    )
    def test_scan_checks_k_and_g_on_an_empty_window(self, capsys, k, g, message):
        code, out, err = run(
            capsys, "scan", "--set", S1_DOC, "--k", k, "--n-lo", "12", "--n-hi", "11", "--g", g
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out, err = run(capsys, "decompose", "--set", S1_DOC, "--n", "100", "--g", "7")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--set", S1_DOC])  # missing --n
        assert exc.value.code == 2

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_oracle_is_not_a_subcommand(self, capsys):
        # the reference count is `eval --check`
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--set", S1_DOC, "--n", "321", "--k", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1" * 4301, "value has a 4301-digit integer; integers are limited to 4300 digits"),
            ("x", "invalid int value: 'x'"),
            ("x" + "1" * 4301, "invalid int value: 'x%s'" % ("1" * 4301)),
            # int() itself reports the digit limit here, before it reaches the x
            ("1" * 4301 + "x", "invalid int value: '%sx'" % ("1" * 4301)),
        ],
        ids=["past-the-digit-limit", "not-an-integer", "long-non-integer", "long-trailing-junk"],
    )
    def test_bad_integer_option_is_two(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--set", S1_DOC, "--n", value, "--k", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: repfn eval [-h] --set SET --n N [--k K] [--w1 W1] [--w2 W2] [--check]\n"
            "                  [--format {human,json}]\n"
            f"repfn eval: error: argument --n: {message}\n"
        )

    def test_bad_set_document_is_one(self, capsys):
        code, _, err = run(capsys, "eval", "--set", '{"boundaries": [5, 4]}', "--n", "10", "--k", "2")
        assert code == 1
        assert "error:" in err

    def test_set_naming_a_directory_is_one(self, capsys):
        here = str(Path(__file__).parent)
        code, out, err = run(capsys, "eval", "--set", here, "--n", "1", "--k", "2")
        assert (code, out, err) == (1, "", f"error: cannot read set file {here}: Is a directory\n")

    def test_missing_set_file_is_one(self, capsys):
        code, _, err = run(capsys, "eval", "--set", "no/such/set.json", "--n", "1", "--k", "2")
        assert (code, err) == (1, "error: set file not found: no/such/set.json\n")

    def test_overlong_set_path_is_one(self, capsys):
        path = "a" * 5000  # longer than any file name the system accepts
        code, out, err = run(capsys, "eval", "--set", path, "--n", "5", "--k", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read set file ")
        assert err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_long_missing_path_is_cut_at_200_characters(self, capsys):
        for path in ("no/" * 66 + "ab", "no/" * 66 + "abc"):  # 200 and 201 characters
            code, out, err = run(capsys, "eval", "--set", path, "--n", "1", "--k", "2")
            shown = path if len(path) <= 200 else path[:200] + "..."
            assert (code, out, err) == (1, "", f"error: set file not found: {shown}\n")

    def test_deeply_nested_set_document_is_one(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOC)
        for source in (DEEP_DOC, str(path)):
            code, out, err = run(capsys, "eval", "--set", source, "--n", "5", "--k", "2")
            assert (code, out, err) == (1, "", "error: set document is nested too deeply\n")

    def test_empty_integer_list_is_one(self, capsys):
        code, out, err = run(capsys, "detect", "--boundaries", ",", "--k", "2")
        assert (code, out, err) == (1, "", "error: empty integer list\n")

    def test_warning_is_one_plain_line(self, capsys):
        # g = 1 is below S1's threshold: the library warns, the CLI prints one line
        code, out, err = run(
            capsys, "witnesses", "--set", S1_DOC, "--n", "1000", "--g", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["pairs_checked"] == "1"
        assert err == (
            "warning: k^g = 2 does not exceed the threshold T = 40; "
            "the family may be invalid or empty\n"
        )

    def test_warning_comes_before_the_error(self, capsys):
        code, out, err = run(capsys, "witnesses", "--set", S1_DOC, "--n", "10", "--g", "1")
        assert (code, out) == (1, "")
        assert err == (
            "warning: k^g = 2 does not exceed the threshold T = 40; "
            "the family may be invalid or empty\n"
            "error: n = 10 too small: quotient m = 3 sits below t_0 = 4, "
            "off the boundary lattice\n"
        )

    # 4301 digits is one past Python's default int-string limit
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["eval", "--set", '{"boundaries": [%s]}' % ("1" * 4301), "--n", "5", "--k", "2"], "set document"),
            (["detect", "--boundaries", "1" * 4301, "--k", "2"], "integer list"),
            (["gen", "--seed", "4," + "1" * 4301, "--a", "3", "--k", "2", "--limit", "10"], "integer list"),
        ],
    )
    def test_integer_past_the_digit_limit_is_one(self, capsys, argv, where):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {where} has a 4301-digit integer; integers are limited to 4300 digits\n"

    def test_long_non_integer_list_item_keeps_the_int_error(self, capsys):
        item = "x" + "1" * 4301
        with pytest.raises(ValueError, match="invalid literal") as own:
            int(item)
        code, out, err = run(capsys, "detect", "--boundaries", f"4,{item}", "--k", "2")
        assert (code, out, err) == (1, "", f"error: {own.value}\n")

    def test_long_list_item_with_trailing_junk_is_not_an_integer(self, capsys):
        # int() reports the digit limit here, before it reaches the x
        item = "1" * 4301 + "x"
        code, out, err = run(capsys, "detect", "--boundaries", f"4,{item}", "--k", "2")
        assert (code, out) == (1, "")
        assert err == f"error: invalid literal for int() with base 10: '{'1' * 199}\n"

    def test_unknown_set_key_is_one(self, capsys):
        doc = '{"boundaries": [4, 5, 7], "tial": {"a": 3, "k": 2}}'
        code, out, err = run(capsys, "eval", "--set", doc, "--n", "100", "--k", "2")
        assert (code, out) == (1, "")
        assert err == (
            "error: set document has an unknown key 'tial'; known keys: boundaries, leading_gap, tail\n"
        )


# a set whose threshold T = 4*(t_3 - t_0) has about 17,200 digits
HUGE_T_DOC = json.dumps({"boundaries": [10**4299], "tail": {"a": 1, "k": 10**4299}})
# nested past json.loads' recursion limit on Python 3.10 to 3.13
DEEP_DOC = '{"boundaries": ' + "[" * 10**5 + "]" * 10**5 + "}"
EMPTY_SCAN = ["scan", "--set", S1_DOC, "--k", "2", "--n-lo", "10", "--n-hi", "5", "--g"]


class TestOutputDigitLimit:
    """An output integer past the 4300-digit limit is one plain error line, and
    an exponent that makes one is refused before k^g is built."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                [*EMPTY_SCAN, "14301"],
                "floor constant C has more than 4300 digits; integers are limited to 4300 digits",
            ),
            ([*EMPTY_SCAN, "100000001"], "exponent g = 100000001 gives k^g more than 4300 digits"),
            (
                ["select-g", "--set", HUGE_T_DOC],
                "threshold T has more than 4300 digits; integers are limited to 4300 digits",
            ),
            (
                ["witnesses", "--set", HUGE_T_DOC, "--n", "5", "--g", "1"],
                "threshold T has more than 4300 digits; integers are limited to 4300 digits",
            ),
        ],
        ids=["scan-floor", "scan-exponent", "select-g", "witnesses-warning"],
    )
    def test_past_the_limit_is_one(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_floor_of_4300_digits_prints(self, capsys):
        # C = 2^8 * (2^g + 2) has 4300 digits at g = 14275 and 4301 at g = 14277
        code, out, _ = run(capsys, *EMPTY_SCAN, "14275", "--format", "json")
        assert code == 0
        assert json.loads(out)["theoretical_floor"] == f"1/{2**8 * (2**14275 + 2)}"
        assert run(capsys, *EMPTY_SCAN, "14277")[0] == 1


class TestWorkCaps:
    # one past each cap; without the caps each of these runs for seconds
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["eval", "--set", S1_DOC, "--n", "10000001", "--k", "2", "--check"],
                "--check is capped at n <= 10000000 (the oracle is O(n))",
            ),
            (
                ["verify-psi", "--set", S1_DOC, "--k", "2", "--n-lo", "1000000", "--n-hi", "1010000"],
                "the window is capped at 10000 points",
            ),
            (
                [
                    "scan", "--set", S1_DOC, "--k", "2",
                    "--n-lo", "1000000", "--n-hi", "1030000", "--g", "7", "--stride", "3",
                ],
                "the window is capped at 10000 points",
            ),
        ],
        ids=["eval-check", "verify-psi", "scan"],
    )
    def test_one_past_the_cap_is_one(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_the_cap_itself_is_allowed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CHECK_MAX_N", 100)
        monkeypatch.setattr(cli, "WINDOW_MAX_POINTS", 3)
        window = ["--set", S1_DOC, "--k", "2", "--n-lo", "600"]
        scan = ["scan", *window, "--g", "7", "--stride", "10"]
        for argv, code in (
            (["eval", "--set", S1_DOC, "--n", "100", "--k", "2", "--check"], 0),
            (["eval", "--set", S1_DOC, "--n", "101", "--k", "2", "--check"], 1),
            (["verify-psi", *window, "--n-hi", "602"], 0),
            (["verify-psi", *window, "--n-hi", "603"], 1),
            ([*scan, "--n-hi", "629"], 0),
            ([*scan, "--n-hi", "630"], 1),
        ):
            assert run(capsys, *argv)[0] == code, argv


DYADIC_DOC = '{"boundaries": [1], "tail": {"a": 1, "k": 2, "i0": 0}}'


class TestPinnedOutput:
    """Exact stdout of the human and json renderings, byte for byte."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("classic", "--set", S1_DOC, "--n", "100", "--variant", "R2"), "9\n"),
            (
                ("classic", "--set", S1_DOC, "--n", "100", "--variant", "R1", "--format", "json"),
                '{\n  "n": "100",\n  "variant": "R1",\n  "count": "19"\n}\n',
            ),
            (
                ("eval", "--set", S1_DOC, "--n", "321", "--k", "2", "--format", "json"),
                '{\n  "n": "321",\n  "w1": 1,\n  "w2": 2,\n  "count": "44"\n}\n',
            ),
            (
                ("eval", "--set", S1_DOC, "--n", "100", "--k", "2", "--check", "--format", "json"),
                '{\n  "n": "100",\n  "w1": 1,\n  "w2": 2,\n  "count": "14",\n  "oracle": "14"\n}\n',
            ),
            (
                (
                    "verify-psi", "--set", S1_DOC, "--k", "2",
                    "--n-lo", "100", "--n-hi", "103", "--per-n",
                ),
                "equal: 0/4\n"
                "first_violation: 100\n"
                "n=100 r_set=14 r_comp=17\n"
                "n=101 r_set=14 r_comp=17\n"
                "n=102 r_set=15 r_comp=18\n"
                "n=103 r_set=15 r_comp=18\n",
            ),
            (
                ("verify-psi", "--set", DYADIC_DOC, "--k", "2", "--n-lo", "11", "--n-hi", "11"),
                "equal: 1/1\nfirst_violation: none\n",
            ),
            (
                (
                    "scan", "--set", S1_DOC, "--k", "2",
                    "--n-lo", "600", "--n-hi", "620", "--g", "7", "--stride", "10",
                ),
                "n=600 r_set=92 r_comp=95 ratio=23/150 (0.153333333)\n"
                "n=610 r_set=93 r_comp=96 ratio=93/610 (0.152459016)\n"
                "n=620 r_set=88 r_comp=91 ratio=22/155 (0.141935483)\n"
                "min_ratio: 22/155\n"
                "theoretical_floor: 1/33280 (0.000030048)\n"
                "trivial_ceiling: 1/2\n",
            ),
            (("intersect", "--k", "2", "--l", "3"), "empty (multiplicatively independent)\n"),
            (("intersect", "--k", "8", "--l", "32"), "nonempty (d=2, p=3, q=5)\n"),
            (("intersect", "--k", "2", "--l", "4"), "empty (d=2, p=1, q=2)\n"),
            (("detect", "--boundaries", "4,5,7,11", "--k", "2"), "none\n"),
            (
                ("detect", "--boundaries", "4,5,7,11", "--k", "2", "--format", "json"),
                '{\n  "tail": null\n}\n',
            ),
            (("select-g", "--set", S1_DOC), "T=40 g=7\n"),
        ],
    )
    def test_stdout(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected, "")


# -- fuzzing: any document, any small arguments, exit code 0, 1 or 2 ----------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
SMALL = st.integers(-2, 40)
SET_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "boundaries": st.one_of(
            st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True).map(sorted),
            st.lists(SMALL, max_size=6),
            JSON_VALUES,
        ),
        "tail": st.one_of(
            st.fixed_dictionaries(
                {"a": SMALL | JSON_VALUES, "k": SMALL | JSON_VALUES},
                optional={"i0": SMALL | JSON_VALUES},
            ),
            JSON_VALUES,
        ),
        "leading_gap": st.booleans() | JSON_VALUES,
    },
)
SET_ARGS = st.one_of(
    st.sampled_from([S1_DOC, DYADIC_DOC, '{"boundaries": [0, 3, 9]}']),
    SET_DOCS.map(json.dumps),
    st.sampled_from(["{", "{}", "[1]", "no/such/set.json"]),
)


@st.composite
def argvs(draw) -> list[str]:
    def num(lo: int = -3, hi: int = 3000) -> str:
        return str(draw(st.integers(lo, hi)))

    def ratio() -> str:
        return draw(st.sampled_from(["2", "3", "4", "2", "1", "0", "-2"]))

    def odd() -> str:
        return draw(st.sampled_from(["1", "3", "5", "7", "1", "0", "2", "-1"]))

    cmd = draw(st.sampled_from(
        ["eval", "classic", "detect", "gen", "select-g", "decompose",
         "witnesses", "verify-psi", "scan", "intersect"]
    ))
    set_ = ["--set", draw(SET_ARGS)]
    n_lo = draw(st.integers(12, 60) | st.sampled_from([-1, 0, 1]))
    window = ["--n-lo", str(n_lo), "--n-hi", str(n_lo + draw(st.integers(-2, 12)))]
    argv = {
        "eval": [
            *set_, "--n", num(),
            *(["--k", ratio()] if draw(st.booleans()) else ["--w1", ratio(), "--w2", ratio()]),
        ],
        "classic": [*set_, "--n", num(), "--variant", draw(st.sampled_from(["R1", "R2", "R3"]))],
        "detect": [*draw(st.sampled_from([set_, ["--boundaries", "4,5,7,8,10,14"]])), "--k", ratio()],
        "gen": [
            "--seed", draw(st.sampled_from(["4,5,7", "1", "3,4,5"]) | st.lists(SMALL, max_size=5).map(
                lambda seed: ",".join(map(str, seed)) or "x"
            )),
            "--a", odd(), "--k", ratio(), "--limit", num(),
        ],
        "select-g": set_,
        "decompose": [*set_, "--n", num(), "--g", odd()],
        "witnesses": [*set_, "--n", num(), "--g", odd()],
        "verify-psi": [*set_, "--k", ratio(), *window],
        "scan": [*set_, "--k", ratio(), *window, "--g", odd(), "--stride", draw(st.sampled_from(["1", "3", "0", "-1"]))],
        "intersect": ["--k", num(-2, 1000), "--l", num(-2, 1000)],
    }[cmd]
    if cmd == "eval" and draw(st.booleans()):
        argv.append("--check")
    if cmd not in ("gen", "intersect") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["human", "json", "csv"]))]
    if draw(st.sampled_from([False] * 9 + [True])):  # a missing argument: usage error
        del argv[draw(st.integers(0, len(argv) - 1))]
    return [cmd, *argv]


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, a usage error included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(argvs())
@example([
    "eval", "--set", str(Path(__file__).parent), "--n", "1", "--k", "2",
])
@example(["eval", "--set", "a" * 5000, "--n", "5", "--k", "2"])
@example(["decompose", "--set", S1_DOC, "--n", "100", "--g", "100000001"])
@example(["witnesses", "--set", S1_DOC, "--n", "100", "--g", "100000001"])
@example(["eval", "--set", '{"boundaries": [4, 5, 7], "tial": {"a": 3, "k": 2}}', "--n", "100", "--k", "2"])
@example(["scan", "--set", S1_DOC, "--k", "0", "--n-lo", "12", "--n-hi", "11", "--g", "7"])
@example(["scan", "--set", S1_DOC, "--k", "2", "--n-lo", "12", "--n-hi", "11", "--g", "-1"])
@example([*EMPTY_SCAN, "14301"])
@example([*EMPTY_SCAN, "100000001"])
@example(["select-g", "--set", HUGE_T_DOC])
@example(["eval", "--set", DEEP_DOC, "--n", "5", "--k", "2"])
@settings(max_examples=200, deadline=None)
def test_fuzzed_invocations_exit_0_1_or_2(argv):
    code, _, err = invoke(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err


@given(argvs())
@example([*EMPTY_SCAN, "14301"])
@example([*EMPTY_SCAN, "100000001"])
@example(["select-g", "--set", HUGE_T_DOC])
@example(["witnesses", "--set", HUGE_T_DOC, "--n", "5", "--g", "1"])
@settings(max_examples=100, deadline=None)
def test_no_stderr_names_the_int_limit_setter(argv):
    # Python's own digit-limit error names sys.set_int_max_str_digits(), which a
    # command-line user cannot call
    assert "set_int_max_str_digits" not in invoke(argv)[2]
