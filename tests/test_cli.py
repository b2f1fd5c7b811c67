import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etensor import cli as cli_module
from etensor import golden
from etensor import states as states_module
from etensor.cli import main
from etensor.ketparse import parse_ket, save_ket_json, state_from_dict, state_to_dict
from etensor.states import PartyStructure, StateVector, ghz_state, random_state
from etensor.tensor import (TensorReport, component, full_tensor, report_to_dict,
                            separability_scan)
from test_ketparse import reference_round_floats

EPR_EXPR = "(|0,0> + |1,1>)/sqrt(2)"
W3_EXPR = "(|1,0,0> + |0,1,0> + |0,0,1>)/sqrt(3)"
GHZ_EXPR = "(|0,0,0> + |1,1,1>)/sqrt(2)"
HGHZ_EXPR = "(|0,0,0> + |1,0,0> + |0,1,1> - |1,1,1>)/2"
NESTED_EXPR = golden.NESTED_KET


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCompute:
    def test_w3_full_report(self, capsys):
        doc = run_json(capsys, "compute", "--expr", W3_EXPR)
        values = {tuple(c["subset"]): c["value"] for c in doc["components"]}
        expected = 0.816496580927726
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert values[pair] == pytest.approx(expected, abs=1e-12)
        assert values[(1, 2, 3)] == 0.0
        assert doc["dims"] == [2, 2, 2]
        assert doc["norm_constants"]["2"] == 4.0

    def test_fifteen_digit_output(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--expr", W3_EXPR)
        assert code == 0
        assert "0.816496580927726" in out

    def test_ket_file(self, capsys, tmp_path):
        path = tmp_path / "w3.ket"
        path.write_text(W3_EXPR + "\n")
        doc = run_json(capsys, "compute", "--state", str(path), "--all")
        assert len(doc["components"]) == 4

    def test_ket_json_file(self, capsys, tmp_path):
        path = tmp_path / "ghz4.ket.json"
        save_ket_json(ghz_state(4), str(path))
        doc = run_json(capsys, "compute", "--state", str(path))
        values = {tuple(c["subset"]): c["value"] for c in doc["components"]}
        assert values[(1, 2, 3, 4)] == pytest.approx(1.0, abs=1e-12)
        assert values[(1, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_single_subset(self, capsys):
        doc = run_json(capsys, "compute", "--expr", W3_EXPR, "--subset", "1,2")
        assert len(doc["components"]) == 1
        assert doc["components"][0]["subset"] == [1, 2]

    def test_sizes_filter(self, capsys):
        doc = run_json(capsys, "compute", "--expr", NESTED_EXPR, "--sizes", "2")
        assert len(doc["components"]) == 6

    @pytest.mark.parametrize("sizes", ["", " ", "\t"])
    def test_empty_sizes_refused(self, capsys, sizes):
        # an empty value once read as "not given" and computed every size
        code, out, err = run_cli(capsys, "compute", "--expr", GHZ_EXPR,
                                 "--sizes", sizes)
        assert (code, out) == (1, "")
        assert err == "error: --sizes needs a comma list of subset sizes, got none\n"

    def test_norm_const_override(self, capsys):
        doc = run_json(capsys, "compute", "--expr", GHZ_EXPR,
                       "--subset", "1,2,3", "--norm-const", "3=16")
        assert doc["components"][0]["value"] == pytest.approx(2.0, abs=1e-12)
        assert doc["norm_constants"]["3"] == 16.0

    @pytest.mark.parametrize("command", [
        ["compute", "--norm-const", "2=1e999"],
        ["optimize", "--subset", "1,2,3", "--restarts", "1",
         "--norm-const", "3=1e999"],
    ])
    def test_infinite_norm_const_refused(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--expr", GHZ_EXPR)
        assert (code, out) == (1, "")
        assert err == ("error: normalization constants must be finite and "
                       "strictly positive\n")

    def test_table_matches_json(self, capsys):
        doc = run_json(capsys, "compute", "--expr", W3_EXPR)
        code, table, _ = run_cli(capsys, "compute", "--expr", W3_EXPR, "--table")
        assert code == 0
        for entry in doc["components"]:
            assert f"{entry['value']:.15g}" in table
        assert f"{doc['tensor_norm']:.15g}" in table

    def test_detached_flag(self, capsys):
        doc = run_json(
            capsys, "compute",
            "--expr", "(|0,1,1,0> + |1,0,0,1> + |0,1,1,1> + |1,0,0,0>)/2",
            "--detached",
        )
        assert doc["detached_parties"] == [4]

    @pytest.mark.parametrize("expr, detached", [
        (HGHZ_EXPR, []),
        ("(|0,0,0> + |0,1,1>)/sqrt(2)", [1]),
    ])
    def test_detached_parties_factor_out(self, capsys, expr, detached):
        # a party is reported when it factors out, whatever the components
        # in the input basis and the normalization constants
        for extra in ([], ["--norm-const", "2=9", "--sizes", "2"]):
            doc = run_json(capsys, "compute", "--expr", expr, "--detached", *extra)
            assert doc["detached_parties"] == detached

    @pytest.mark.parametrize("expr, row", [
        (HGHZ_EXPR, "detached  none"),
        ("(|0,0,0> + |0,1,1>)/sqrt(2)", "detached  1"),
        ("(|0,1,1,0> + |1,0,0,1> + |0,1,1,1> + |1,0,0,0>)/2", "detached  4"),
    ], ids=["none", "first", "last"])
    def test_detached_table_row(self, capsys, expr, row):
        # the table used to run the scan and print nothing of it
        code, out, err = run_cli(capsys, "compute", "--table", "--detached",
                                 "--expr", expr)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == row
        code, plain, _ = run_cli(capsys, "compute", "--table", "--expr", expr)
        assert code == 0 and "detached" not in plain
        assert len(out.splitlines()) == len(plain.splitlines()) + 1

    def test_detached_row_widens_the_label_column(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--table", "--detached",
                               "--expr", "(|0,0,0> + |0,1,1>)/sqrt(2)")
        assert code == 0
        assert out.splitlines() == [
            "subset    value", "1,2       0", "1,3       0", "2,3       1",
            "1,2,3     0", "norm      1", "detached  1"]

    def test_hadamard_ghz_expression_is_the_fixture(self):
        assert np.allclose(
            parse_ket(HGHZ_EXPR).amplitudes,
            golden.fixtures()("hadamard-ghz").amplitudes, atol=1e-15)

    def test_normalize_flag(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--expr", "|0,0> + |1,1>")
        assert code == 2
        assert "state error" in err
        doc = run_json(capsys, "compute", "--expr", "|0,0> + |1,1>",
                       "--normalize")
        assert doc["components"][0]["value"] == pytest.approx(1.0, abs=1e-12)


class TestErrorChannels:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--bogus")
        assert code == 2
        assert "usage" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--state", "/no/such/file.ket")
        assert code == 2
        assert err.startswith("io error")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.ket"
        path.write_text("(|0,0> + ")
        code, _, err = run_cli(capsys, "compute", "--state", str(path))
        assert code == 2
        assert err.startswith("parse error at 1:")

    def test_nan_amplitude_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "nan.ket.json"
        path.write_text(
            '{"dims": [2, 2], "amplitudes": ['
            '{"index": [0, 0], "re": NaN, "im": 0.0},'
            '{"index": [1, 1], "re": 0.7071067811865476, "im": 0.0}]}'
        )
        code, out, err = run_cli(capsys, "compute", "--state", str(path))
        assert code == 2
        assert "NaN" not in out
        assert err.startswith("state error")

    @pytest.mark.parametrize("document", [
        '{"dims": [2], "amplitudes": [{"index": [0], "re": 1%s, "im": 0.0}]}',
        '{"dims": [2, 1%s], "amplitudes": [{"index": [0, 0], "re": 1.0, "im": 0.0}]}',
    ], ids=["re", "dims"])
    def test_over_long_json_integer_is_exit_two(self, capsys, tmp_path, document):
        # int() refuses more than 4,300 decimal digits by default
        path = tmp_path / "long.ket.json"
        path.write_text(document % ("0" * 4999))
        code, out, err = run_cli(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: invalid JSON: Exceeds the limit (4300")
        assert "Traceback" not in err

    def test_non_list_amplitudes_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "null.ket.json"
        path.write_text('{"dims": [2, 2], "amplitudes": null}')
        code, _, err = run_cli(capsys, "compute", "--state", str(path))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("parse error: missing or invalid 'amplitudes'")

    def test_out_of_memory_is_exit_two(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, "full_tensor", exhausted)
        code, out, err = run_cli(capsys, "compute", "--expr", W3_EXPR)
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_computation_error_is_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--expr", EPR_EXPR,
                               "--subset", "1,2,3")
        assert code == 1
        assert err.startswith("error")

    def test_missing_state(self, capsys):
        code, _, err = run_cli(capsys, "compute")
        assert code == 1
        assert "--state" in err

    @pytest.mark.parametrize("expr, message", [
        ("²|0,0>+|1,1>", "parse error at 1:1: unexpected character '²'"),
        ("|0>/²", "parse error at 1:5: unexpected character '²'"),
        ("|²>", "parse error at 1:1: ket components must be integers, got |²>"),
        ("٣|0>", "parse error at 1:1: unexpected character '٣'"),
        ("sqrt(1" + "0" * 400 + ")|0>",
         "parse error at 1:1: number too large for a float"),
        ("1" * 5000 + "|0>",
         "parse error at 1:1: integer literal of 5,000 digits is too long"),
        ("sqrt(" + "1" * 5000 + ")|0>",
         "parse error at 1:6: integer literal of 5,000 digits is too long"),
        ("|0,0> + |1," + "1" * 5000 + ">",
         "parse error at 1:9: integer literal of 5,000 digits is too long"),
    ], ids=["leading", "divisor", "ket", "arabic-indic", "overflow",
            "long-coefficient", "long-sqrt", "long-ket"])
    def test_bad_number_is_a_parse_error(self, capsys, expr, message):
        code, out, err = run_cli(capsys, "compute", "--expr", expr, "--normalize")
        assert (code, out, err) == (2, "", message + "\n")

    # parties are 1-based on this surface, in errors as in arguments
    @pytest.mark.parametrize("argv, message", [
        (["measure", "--expr", GHZ_EXPR, "--party", "1", "--outcome", "5"],
         "outcome 5 out of range for party 1 of dimension 2"),
        (["measure", "--expr", GHZ_EXPR, "--party", "0", "--outcome", "0"],
         "party 0 out of range for 3 parties"),
        (["apply", "--expr", EPR_EXPR, "--party", "3", "--gate", "H"],
         "party 3 out of range for 2 parties"),
        (["compute", "--expr", EPR_EXPR, "--subset", "1,3"],
         "bad subset '1,3': out of range for 2 parties"),
        (["optimize", "--expr", EPR_EXPR, "--subset", "1,3"],
         "bad subset '1,3': out of range for 2 parties"),
        (["compute", "--expr", EPR_EXPR, "--subset", "1,1"],
         "bad subset '1,1': a party is named twice"),
        (["optimize", "--expr", EPR_EXPR, "--subset", "1,1"],
         "bad subset '1,1': a party is named twice"),
        (["regroup", "--expr", GHZ_EXPR, "--groups", "1,2|4"],
         "bad grouping '1,2|4': the blocks must cover all 3 parties exactly once"),
        (["oracle", "--kind", "purity", "--expr", GHZ_EXPR, "--split", "1|4"],
         "bad grouping '1|4': the blocks must cover all 3 parties exactly once"),
        (["oracle", "--kind", "wootters", "--expr", GHZ_EXPR, "--pair", "1,4"],
         "bad subset '1,4': out of range for 3 parties"),
        (["oracle", "--kind", "wootters", "--expr", "(|0,0,0> + |2,1,1>)/sqrt(2)",
          "--pair", "1,2"],
         "kept party 1 has dimension 3, but the two-qubit reduction requires "
         "qubits"),
    ], ids=["measure-outcome", "measure-party", "apply-party", "compute-range",
            "optimize-range", "compute-repeat", "optimize-repeat", "regroup",
            "purity-split", "wootters-range", "wootters-qutrit"])
    def test_parties_are_named_as_typed(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    # "{list}" is a .ket.json file that holds a JSON list
    @pytest.mark.parametrize("argv, code, message", [
        (["compute", "--expr", EPR_EXPR, "--subset", "1,x"], 1,
         "error: bad subset '1,x': expected comma-separated 1-based party numbers"),
        (["compute", "--expr", EPR_EXPR, "--subset", "0,2"], 1,
         "error: bad subset '0,2': party numbers are 1-based"),
        (["regroup", "--expr", GHZ_EXPR, "--groups", "1,x|2,3"], 1,
         "error: bad grouping '1,x|2,3': expected blocks like '1,2|3,4'"),
        (["optimize", "--expr", EPR_EXPR], 1,
         "error: provide --subset or --subsets"),
        (["oracle", "--kind", "dur"], 1, "error: oracle --kind dur needs --m"),
        (["oracle", "--kind", "purity", "--expr", GHZ_EXPR], 1,
         "error: oracle --kind purity needs --split"),
        (["oracle", "--kind", "wootters", "--expr", GHZ_EXPR], 1,
         "error: oracle --kind wootters needs --pair"),
        (["measure", "--expr", "(|0> + |1>)/sqrt(2)", "--party", "1",
          "--outcome", "0"], 1,
         "error: measuring the only party would leave no state"),
        (["compute", "--expr", "|>"], 2, "parse error at 1:1: empty ket"),
        (["compute", "--state", "{list}"], 2,
         "parse error: coefficient document must be a JSON object"),
    ], ids=["subset-not-a-number", "subset-zero", "grouping-not-a-number",
            "optimize-no-subset", "dur-no-m", "purity-no-split",
            "wootters-no-pair", "measure-only-party", "empty-ket",
            "json-list"])
    def test_refusal_is_one_line(self, capsys, tmp_path, argv, code, message):
        listed = tmp_path / "list.ket.json"
        listed.write_text("[1, 2]")
        argv = [str(listed) if arg == "{list}" else arg for arg in argv]
        assert run_cli(capsys, *argv) == (code, "", message + "\n")


def _ket(parties):
    return "|" + ",".join(map(str, parties)) + ">"


# texts near the grammar: small kets (at most 4 parties of dimension 4),
# scalars including integers past the float range, and stray characters
_fuzz_atoms = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(_ket),
    st.sampled_from(["+", "-", "*", "/", "(", ")", "sqrt(", "i", " ", "\n",
                     "0.5", ".", "|", ">", ",", "0", "2", "²", "|0110>", "x"]),
    st.integers(0, 10**400).map(str),
)


@st.composite
def _ket_sums(draw):
    arity = draw(st.integers(1, 4))
    kets = st.lists(st.integers(0, 3), min_size=arity, max_size=arity).map(_ket)
    coefficients = st.sampled_from(["", "-", "2", "0.5*", "i", "sqrt(3)", "1/3",
                                    "1" + "0" * 320, "0"])
    terms = draw(st.lists(st.tuples(coefficients, kets), min_size=1, max_size=4))
    return " + ".join(c + k for c, k in terms)


fuzz_texts = st.lists(_fuzz_atoms, max_size=8).map("".join) | _ket_sums()

# --norm-const D=VALUE texts: sizes in and out of range, values past the
# float range either way, zero, negatives and stray characters
_norm_const_texts = st.builds(
    "{}={}".format,
    st.integers(0, 4),
    st.one_of(
        st.sampled_from(["1e999", "-1e999", "0", "-1", "1e-400", "4", "1e308",
                         "5e-324", ".", "e", "1e", "--1", "nan", "inf", ""]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    ),
)


class TestFuzzedBoundary:
    """Any expression ends in exit 0, 1 or 2, never a traceback or NaN."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "NaN" not in out and "Infinity" not in out
        if code == 0:
            json.loads(out)
        else:
            assert out == ""

    @given(fuzz_texts, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_compute(self, text, normalize):
        self.check(["compute", "--expr", text, "--all"]
                   + ["--normalize"] * normalize)

    @given(_norm_const_texts)
    @settings(max_examples=60, deadline=None)
    def test_norm_const(self, entry):
        self.check(["compute", "--expr", GHZ_EXPR, "--all", "--norm-const", entry])

    def test_norm_const_near_the_largest_double(self, capsys):
        # an example test_norm_const found: 15 digits of this constant round
        # past the largest double, which printed "2": Infinity
        argv = ["compute", "--expr", GHZ_EXPR, "--all",
                "--norm-const", "2=1.7976931348623151e+308"]
        self.check(argv)
        doc = run_json(capsys, *argv)
        assert doc["norm_constants"]["2"] == 1.7976931348623151e308
        code, out, err = run_cli(capsys, *argv, "--table")
        assert code == 0 and err == ""
        values = [float(line.split()[-1]) for line in out.splitlines()[1:]]
        assert len(values) == 5 and all(map(math.isfinite, values))

    @given(fuzz_texts, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_apply(self, text, normalize):
        self.check(["apply", "--expr", text, "--party", "1", "--gate", "H"]
                   + ["--normalize"] * normalize)


def reference_table(doc: dict) -> str:
    """``compute --table`` as one ``print`` per line of ``report_to_dict``.

    With ``--detached`` the last row names the parties that factor out,
    and its label counts in the column's width.
    """
    out = io.StringIO()
    detached = doc.get("detached_parties")
    width = max([len("subset"), *(len(",".join(map(str, c["subset"])))
                                  for c in doc["components"]),
                 *([len("detached")] if detached is not None else [])])
    print(f"{'subset':<{width}}  value", file=out)
    for entry in doc["components"]:
        label = ",".join(map(str, entry["subset"]))
        print(f"{label:<{width}}  {entry['value']:.15g}", file=out)
    print(f"{'norm':<{width}}  {doc['tensor_norm']:.15g}", file=out)
    if detached is not None:
        print(f"{'detached':<{width}}  {','.join(map(str, detached)) or 'none'}",
              file=out)
    return out.getvalue()


# constants whose 15-digit display rounds past the largest double, differs
# from their repr, or is their repr
_DISPLAY_CONSTANTS = ["1.7976931348623151e+308", "0.30000000000000004", "16",
                      "1e-300", "2.5"]


@st.composite
def _compute_calls(draw):
    """A Haar or sparse state of 2-6 parties of dims 2-4, and compute flags."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6)
                .filter(lambda d: math.prod(d) <= 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = random_state(PartyStructure(tuple(dims)), rng).amplitudes.copy()
    if draw(st.booleans()):
        amplitudes[rng.random(amplitudes.size) < 0.7] = 0.0
        amplitudes[-1] = 1.0
    state = StateVector(PartyStructure(tuple(dims)), amplitudes, normalize=True)
    parties = range(1, len(dims) + 1)
    kind = draw(st.sampled_from(["all", "sizes", "subset"]))
    flags = []
    if kind == "all":
        flags += draw(st.sampled_from([[], ["--all"]]))
    elif kind == "sizes":
        sizes = draw(st.lists(st.integers(2, len(dims)), min_size=1, max_size=3))
        flags += ["--sizes", ",".join(map(str, sizes))]
    else:
        subset = st.lists(st.sampled_from(parties), min_size=2, unique=True)
        subsets = draw(st.lists(subset, min_size=1, max_size=4))
        subsets.append(draw(st.sampled_from(subsets)))  # a repeat
        for chosen in subsets:  # parties in the order drawn
            flags += ["--subset", ",".join(map(str, chosen))]
    for size in draw(st.lists(st.integers(2, len(dims)), max_size=2)):
        flags += ["--norm-const", f"{size}={draw(st.sampled_from(_DISPLAY_CONSTANTS))}"]
    flags += draw(st.sampled_from([[], ["--detached"]]))
    return state, flags


def _reference_report(state, flags):
    """``report_to_dict`` of the report ``compute`` makes for ``flags``."""
    args = cli_module._shared_parser().parse_args(["compute", *flags])
    scheme = cli_module._parse_norm_consts(args.norm_const or [])
    if args.subset:
        values = {}
        for text in args.subset:
            selector = cli_module._parse_subset(text, state.structure)
            values[selector] = component(state, selector, scheme)
        report = TensorReport(state.structure, scheme, values)
    else:
        sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else None
        report = full_tensor(state, scheme, sizes=sizes)
    doc = report_to_dict(report)
    if args.detached:
        doc["detached_parties"] = [
            i + 1 for i, flag in enumerate(separability_scan(state)) if flag]
    return doc


class TestReportWriters:
    """``compute`` JSON and ``--table`` against ``report_to_dict``."""

    @given(_compute_calls())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bytes_match_report_to_dict(self, call):
        state, flags = call
        doc = _reference_report(state, flags)
        with tempfile.TemporaryDirectory() as directory:
            path = f"{directory}/state.ket.json"
            save_ket_json(state, path)
            for table, want in ((False, json.dumps(reference_round_floats(doc),
                                                   indent=1) + "\n"),
                                (True, reference_table(doc))):
                out, err = io.StringIO(), io.StringIO()
                argv = ["compute", "--state", path, *flags] + ["--table"] * table
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert (code, err.getvalue()) == (0, "")
                assert out.getvalue() == want

    @pytest.mark.parametrize("constant", _DISPLAY_CONSTANTS)
    def test_display_constants(self, capsys, constant):
        flags = ["--subset", "2,1", "--subset", "1,2,3", "--subset", "1,2",
                 "--norm-const", f"2={constant}", "--norm-const", f"3={constant}"]
        doc = _reference_report(parse_ket(W3_EXPR), flags)
        code, out, _ = run_cli(capsys, "compute", "--expr", W3_EXPR, *flags)
        assert (code, out) == (0, json.dumps(reference_round_floats(doc), indent=1)
                               + "\n")
        code, out, _ = run_cli(capsys, "compute", "--expr", W3_EXPR, *flags,
                               "--table")
        assert (code, out) == (0, reference_table(doc))

    def test_table_is_one_write(self, monkeypatch):
        class Recorder(io.StringIO):
            calls = 0

            def write(self, text):
                Recorder.calls += 1
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["compute", "--expr", W3_EXPR, "--table"]) == 0
        assert Recorder.calls == 1


# Generated argv: a subcommand, its flags, and a state or gate file written
# for the call.  Each value has a valid strategy and a junk one.  A clean
# call draws only valid values, so that it reaches the computation; a
# hostile call draws each value from either.  States have at most four
# parties of dimension 3, optimize runs at most four restarts of 22
# iterations (a 30-digit count must be refused before any work), and no
# value asks for threads or large memory.
_FILE_STATES = [
    ghz_state(3), golden.fixtures()("w3"), parse_ket(NESTED_EXPR),
    parse_ket("(|0,0,0> + |1,1,1> + |2,2,1>)/sqrt(3)"),
]
_KET_TEXTS = [EPR_EXPR, W3_EXPR, GHZ_EXPR, HGHZ_EXPR, "0.6|0,0> + 0.8|1,1>",
              "(|0,0,0> + |1,1,1> + |2,2,1>)/sqrt(3)", "|0,1,2,0>"]


def _joined(values):
    return ",".join(map(str, values))


def _ints(low, high):
    return (st.integers(low, high).map(str),
            st.integers(low - 2, high + 2).map(str)
            | st.sampled_from(["", "x", "1.5", "-0", "9" * 30, "0x10"]))


_FLOATS = (st.floats(1e-12, 10).map(repr),
           st.floats(-10, 10).map(repr) | st.sampled_from(
               ["nan", "inf", "-inf", "1e999", "0", "1e-300", "", "x"]))
_PARTIES = (st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True).map(
                _joined),
            st.lists(st.integers(-1, 5), max_size=4).map(_joined)
            | st.sampled_from(["", ",", "1,,2", "a,b", "1;2", " 1, 2"]))
_NORM_CONSTS = (st.builds("{}={!r}".format, st.integers(2, 4),
                          st.floats(1e-3, 1e3)),
                _norm_const_texts)


@st.composite
def _groupings(draw):
    """Every party of 2 to 4 once, in blocks: ``2|1,3``."""
    parties = draw(st.permutations(range(1, draw(st.integers(2, 4)) + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, len(parties) - 1))))
    return "|".join(_joined(parties[a:b]) for a, b in
                    zip([0, *cuts], [*cuts, len(parties)]))


_GROUPS = (_groupings(),
           st.lists(_PARTIES[1], min_size=1, max_size=3).map("|".join)
           | st.sampled_from(["|", "1|1", "1,2|x"]))
_STATE_FILES = (
    st.sampled_from(_FILE_STATES).map(state_to_dict).map(json.dumps),
    st.fixed_dictionaries(
        {"dims": st.lists(st.integers(0, 3), max_size=4)},
        optional={"amplitudes": st.lists(st.fixed_dictionaries(
            {"index": st.lists(st.integers(-1, 3), max_size=4)},
            optional={"re": st.floats(-1, 1) | st.sampled_from(["", "x", "1e"]),
                      "im": st.floats(-1, 1)}), max_size=6)}).map(json.dumps)
    | st.sampled_from(["", "{", "[1, 2", "{}", "[]", '{"dims": "x"}',
                       '{"dims": [2], "amplitudes": 3}']))
_KET_FILES = (st.sampled_from(_KET_TEXTS), fuzz_texts | _STATE_FILES[0])
_matrices = st.lists(
    st.lists(st.integers(-2, 2) | st.floats(-2, 2) | st.just(1e400),
             min_size=1, max_size=3),
    min_size=1, max_size=3)
_GATE_FILES = (
    st.sampled_from([{"re": [[0, 1], [1, 0]]},
                     {"re": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]},
                     {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 1]]}]).map(
        json.dumps),
    st.fixed_dictionaries({"re": _matrices}, optional={"im": _matrices}).map(
        json.dumps)
    | st.sampled_from(["", "{", "not json", "[]", '{"re": "x"}', '{"im": [[1]]}',
                       '{"re": [[1' + "0" * 5000 + "]]}"]))


@st.composite
def _cli_calls(draw):
    """``(argv, files)``; argv names each file as ``{dir}/NAME``."""
    files = {}
    hostile = draw(st.booleans())

    def value(strategies):
        valid, junk = strategies
        return draw(junk if hostile and draw(st.booleans()) else valid)

    def flag(name, strategies):
        """``[name, value]``; a hostile call may leave it out."""
        return [name, value(strategies)] if value(
            (st.just(True), st.booleans())) else []

    command = draw(st.sampled_from(
        ["compute", "optimize", "measure", "apply", "regroup", "oracle",
         "paper-suite"]))
    if command == "paper-suite":
        return [command], files
    argv = [command]
    source = value((st.sampled_from(["expr", "state.ket", "state.ket.json",
                                     "state.txt"]),
                    st.sampled_from(["absent.ket", None])))
    if source == "expr":
        argv += ["--expr", value(_KET_FILES)]
    elif source is not None:
        if source != "absent.ket":
            files[source] = value(
                _STATE_FILES if source == "state.ket.json" else draw(
                    st.sampled_from([_STATE_FILES, _KET_FILES])))
        argv += ["--state", "{dir}/" + source]
    argv += ["--normalize"] * draw(st.booleans())
    norm_consts = [entry for _ in range(draw(st.integers(0, 2)))
                   for entry in ["--norm-const", value(_NORM_CONSTS)]]
    if command == "compute":
        argv += ["--all"] * draw(st.booleans())
        if draw(st.booleans()):
            argv += ["--sizes", value((
                st.lists(st.integers(2, 4), min_size=1, max_size=3).map(_joined),
                _PARTIES[1]))]
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--subset", value(_PARTIES)]
        argv += norm_consts
        argv += ["--table"] * draw(st.booleans())
        argv += ["--detached"] * draw(st.booleans())
    elif command == "optimize":
        if draw(st.booleans()):
            argv += ["--subset", value(_PARTIES)]
        else:
            argv += ["--subsets", value((
                st.lists(_PARTIES[0], min_size=1, max_size=3).map(";".join),
                st.lists(_PARTIES[1], max_size=3).map(";".join)))]
        if draw(st.booleans()):
            argv += ["--objective", value((st.sampled_from(["min", "mean"]),
                                           st.just("max")))]
        argv += ["--restarts", value(_ints(1, 2)), "--iters", value(_ints(1, 20))]
        for name in ("--step-tol", "--value-tol", "--seed"):
            if draw(st.booleans()):
                argv += [name, value(_ints(0, 2**40) if name == "--seed"
                                     else _FLOATS)]
        argv += norm_consts
        argv += ["--diagnostics"] * draw(st.booleans())
    elif command == "measure":
        argv += flag("--party", _ints(1, 4)) + flag("--outcome", _ints(0, 2))
    elif command == "apply":
        gate = value((
            st.sampled_from(["H", "U({dir}/gate.json)"]) | st.lists(
                _FLOATS[0], min_size=2, max_size=3).map(
                    lambda angles: f"PHASE({_joined(angles)})"),
            st.sampled_from(["X", "PHASE(", "U()", "U({dir}/absent.json)"])
            | st.lists(_FLOATS[1], max_size=4).map(
                lambda angles: f"PHASE({_joined(angles)})")))
        if "gate.json" in gate:
            files["gate.json"] = value(_GATE_FILES)
        argv += flag("--party", _ints(1, 4)) + flag("--gate", (st.just(gate),) * 2)
    elif command == "regroup":
        argv += flag("--groups", _GROUPS)
    else:
        kind = value((st.sampled_from(["concurrence", "purity", "wootters",
                                       "dur"]), st.just("other")))
        argv += flag("--kind", (st.just(kind),) * 2)
        if kind == "purity":
            argv += flag("--split", _GROUPS)
        elif kind == "wootters":
            argv += flag("--pair", _PARTIES)
        elif kind == "dur":
            argv += flag("--m", _ints(3, 10))
    return argv, files


class TestFuzzedArgv:
    """Generated argv and files end in exit 0, 1 or 2, never a traceback."""

    @given(_cli_calls())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cli_calls(self, tmp_path, call):
        argv, files = call
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "NaN" not in out and "Infinity" not in out
        if code == 0 and argv[0] != "paper-suite" and "--table" not in argv:
            json.loads(out)
        elif code:
            assert out == ""

    def test_table_of_one_party(self, capsys):
        # an example test_cli_calls found: a state of one party has no
        # components, and the table's width took max() of one number
        code, out, err = run_cli(capsys, "compute", "--expr", "|0>", "--table")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["subset  value", "norm    0"]

    def test_restarts_past_the_limit_are_refused(self, capsys):
        # an example test_cli_calls found: a 30-digit count overflowed while
        # spawning the seed streams, a traceback out of main
        code, out, err = run_cli(capsys, "optimize", "--expr", EPR_EXPR,
                                 "--subset", "1,2", "--restarts", "9" * 30,
                                 "--iters", "1")
        assert (code, out) == (1, "")
        assert err == "error: restarts must be between 1 and 10,000\n"

    @pytest.mark.parametrize("flag", ["--step-tol", "--value-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_tolerance_is_refused(self, capsys, flag, value):
        # NaN and infinite tolerances used to run and exit 0
        code, out, err = run_cli(capsys, "optimize", "--expr", W3_EXPR,
                                 "--subset", "1,2", "--restarts", "1", flag, value)
        assert (code, out) == (1, "")
        assert err == "error: tolerances must be finite and positive\n"


class TestParserReuse:
    """``main`` builds its parser only for argv the reader does not read, and
    shares it across calls; no call may see another's."""

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        real_build = cli_module.build_parser
        built = []

        def counted_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli_module, "build_parser", counted_build)
        cli_module._shared_parser.cache_clear()
        for _ in range(3):
            run_json(capsys, "oracle", "--kind", "dur", "--m", "4")
        assert built == []
        for _ in range(2):
            run_json(capsys, "oracle", "--kind", "dur", "--m=4")
        assert len(built) == 1
        assert cli_module._shared_parser() is cli_module._shared_parser()
        assert real_build() is not real_build()

    def test_append_subsets_do_not_carry_over(self, capsys):
        doc = run_json(capsys, "compute", "--expr", W3_EXPR,
                       "--subset", "1,2", "--subset", "1,3")
        assert len(doc["components"]) == 2
        doc = run_json(capsys, "compute", "--expr", W3_EXPR, "--subset", "2,3")
        assert [c["subset"] for c in doc["components"]] == [[2, 3]]

    def test_norm_consts_do_not_carry_over(self, capsys):
        doc = run_json(capsys, "compute", "--expr", GHZ_EXPR,
                       "--subset", "1,2,3", "--norm-const", "3=16")
        assert doc["components"][0]["value"] == pytest.approx(2.0, abs=1e-12)
        doc = run_json(capsys, "compute", "--expr", GHZ_EXPR,
                       "--subset", "1,2,3", "--norm-const", "2=9")
        assert doc["components"][0]["value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["norm_constants"]["3"] != 16.0

    def test_usage_error_goes_to_current_stderr(self, capsys):
        run_json(capsys, "oracle", "--kind", "dur", "--m", "4")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["measure", "--expr", EPR_EXPR, "--party", "1"])
        assert code == 2
        assert err.getvalue().startswith("usage: etensor measure")
        assert "required: --outcome" in err.getvalue()
        assert capsys.readouterr().err == ""


def _argv_outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _comparable(namespace):
    """``vars(namespace)`` with each value's type, and NaN equal to itself."""
    return {key: (type(value), "nan" if value != value else value)
            for key, value in vars(namespace).items()}


_COMMAND_NAMES = list(cli_module._COMMANDS)
_OPTION_NAMES = sorted({option.name for command in cli_module._COMMANDS.values()
                        for option in command.options})
_ODD_VALUES = ["", " 3", "-1", "nan", "1,2", "- 0.5*|0,0>", "é", "٣", "２", "3",
               "0", "1.5", "1e-3", "x", "H", "min", "dur", "--", EPR_EXPR]
_VALUES = st.sampled_from(_ODD_VALUES) | st.text(max_size=4)
_WORDS = st.one_of(
    st.sampled_from(_OPTION_NAMES),
    st.sampled_from([n for n in _OPTION_NAMES if len(n) > 3]).flatmap(  # abbreviations
        lambda name: st.integers(3, len(name) - 1).map(lambda k: name[:k])),
    st.builds("{}={}".format, st.sampled_from(_OPTION_NAMES), _VALUES),
    st.sampled_from(["-h", "--help", "--", "-", "stray", *_COMMAND_NAMES]),
    _VALUES,
)


@st.composite
def _option_argv(draw):
    """A subcommand and a run of its own options, each with a value drawn
    from its type or choices, or an odd one; required options most often."""
    name = draw(st.sampled_from(_COMMAND_NAMES))
    options = list(cli_module._COMMANDS[name].options)
    chosen = [o for o in options if o.required and draw(st.integers(0, 5))]
    if options:
        chosen += draw(st.lists(st.sampled_from(options), max_size=5))
    argv = [name]
    for option in draw(st.permutations(chosen)):
        argv.append(option.name)
        if option.action == "store_true":
            continue
        if option.choices:
            valid = st.sampled_from(option.choices)
        elif option.type is int:
            valid = st.integers(-3, 40).map(str)
        elif option.type is float:
            valid = st.floats(allow_nan=True).map(repr)
        else:
            valid = st.sampled_from([EPR_EXPR, "1,2", "1|2", "H", "/no/such.ket"])
        argv.append(draw(valid | _VALUES))
    return argv


_ARGV = _option_argv() | st.builds(
    lambda name, words: [name, *words],
    st.sampled_from([*_COMMAND_NAMES, "bogus", "-h"]), st.lists(_WORDS, max_size=8))

# argv that argparse reads by rules of its own, or refuses; each must give
# the exit code, stdout and stderr of a main that always calls argparse
_EDGE_ARGV = [
    [], ["-h"], ["bogus"], ["--help", "compute"], ["compute", "-h"],
    ["compute", "--he"],
    ["compute", "--expr", EPR_EXPR, "extra"],
    ["compute", "--", "--expr", EPR_EXPR],
    ["compute", "--sta", "x"],
    ["compute", f"--expr={EPR_EXPR}"],
    ["compute", "--expr"],
    ["compute", "--table=1", "--expr", EPR_EXPR],
    ["paper-suite", "extra"],
    ["optimize", "--expr", EPR_EXPR, "--subset", "1,2", "--restarts", "x"],
    ["optimize", "--expr", EPR_EXPR, "--subsets", "1,2", "--objective", "max"],
    ["optimize", "--expr", EPR_EXPR, "--subset", "1,2", "--restarts", "1",
     "--iters", "1", "--seed", "-3"],
    ["measure", "--expr", EPR_EXPR, "--party", "1"],
    ["apply", "--expr", EPR_EXPR, "--party", "1", "--gate"],
    ["regroup", "--expr", GHZ_EXPR, "--groups", "1,2|3", "--groups"],
    ["oracle", "--kind", "other", "--expr", EPR_EXPR],
    ["oracle", "--kind", "dur", "--m", "-1"],
    ["oracle", "--kind", "concurrence", "--normalize", "--expr",
     "- 0.5*|0,0> + |1,1>"],
    ["oracle", "--kind", "dur", "--m", "4", "--m"],
]

# the help texts as argparse prints them at 80 columns (Python 3.10-3.12)
HELP_TEXTS = {
    '': (
        'usage: etensor [-h]\n'
        '               {compute,optimize,measure,apply,regroup,oracle,paper-suite} ...\n'
        '\n'
        'entanglement tensor components of pure multipartite states\n'
        '\n'
        'positional arguments:\n'
        '  {compute,optimize,measure,apply,regroup,oracle,paper-suite}\n'
        '    compute             component values for subsets of parties\n'
        '    optimize            maximize components over local unitaries\n'
        '    measure             computational-basis measurement of one party\n'
        '    apply               apply a local gate\n'
        '    regroup             merge parties into blocks, e.g. --groups 1,2|3,4\n'
        '    oracle              independent concurrence reference values\n'
        '    paper-suite         run the built-in table of closed-form example states\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    'compute': (
        'usage: etensor compute [-h] [--state STATE] [--expr EXPR] [--normalize]\n'
        '                       [--all] [--sizes SIZES] [--subset SUBSET]\n'
        '                       [--norm-const D=VALUE] [--table] [--detached]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --state STATE         path to a .ket or .ket.json file\n'
        '  --expr EXPR           inline ket expression\n'
        '  --normalize           rescale unnormalized input instead of rejecting it\n'
        '  --all                 all subsets of every size (default)\n'
        '  --sizes SIZES         comma list of subset sizes\n'
        '  --subset SUBSET       one 1-based subset like 1,2 (repeatable)\n'
        '  --norm-const D=VALUE  override the normalization constant for size D\n'
        '  --table               aligned table instead of JSON\n'
        '  --detached            list the parties that factor out of the state\n'
    ),
    'optimize': (
        'usage: etensor optimize [-h] [--state STATE] [--expr EXPR] [--normalize]\n'
        '                        [--subset SUBSET] [--subsets SUBSETS]\n'
        '                        [--objective {min,mean}] [--restarts RESTARTS]\n'
        '                        [--iters ITERS] [--step-tol STEP_TOL]\n'
        '                        [--value-tol VALUE_TOL] [--seed SEED]\n'
        '                        [--norm-const D=VALUE] [--diagnostics]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --state STATE         path to a .ket or .ket.json file\n'
        '  --expr EXPR           inline ket expression\n'
        '  --normalize           rescale unnormalized input instead of rejecting it\n'
        '  --subset SUBSET       1-based subset like 2,3\n'
        '  --subsets SUBSETS     semicolon list of subsets for a joint search\n'
        '  --objective {min,mean}\n'
        '                        joint objective for --subsets\n'
        '  --restarts RESTARTS\n'
        '  --iters ITERS\n'
        '  --step-tol STEP_TOL\n'
        '  --value-tol VALUE_TOL\n'
        '  --seed SEED           default: $ETENSOR_SEED or 0\n'
        '  --norm-const D=VALUE\n'
        "  --diagnostics         add each restart's stop reason, iteration and\n"
        '                        evaluation counts and wall time\n'
    ),
    'measure': (
        'usage: etensor measure [-h] [--state STATE] [--expr EXPR] [--normalize]\n'
        '                       --party PARTY --outcome OUTCOME\n'
        '\n'
        'options:\n'
        '  -h, --help         show this help message and exit\n'
        '  --state STATE      path to a .ket or .ket.json file\n'
        '  --expr EXPR        inline ket expression\n'
        '  --normalize        rescale unnormalized input instead of rejecting it\n'
        '  --party PARTY\n'
        '  --outcome OUTCOME\n'
    ),
    'apply': (
        'usage: etensor apply [-h] [--state STATE] [--expr EXPR] [--normalize] --party\n'
        '                     PARTY --gate GATE\n'
        '\n'
        'options:\n'
        '  -h, --help     show this help message and exit\n'
        '  --state STATE  path to a .ket or .ket.json file\n'
        '  --expr EXPR    inline ket expression\n'
        '  --normalize    rescale unnormalized input instead of rejecting it\n'
        '  --party PARTY\n'
        '  --gate GATE    H, PHASE(p0,...,pN-1), or U(file.json)\n'
    ),
    'regroup': (
        'usage: etensor regroup [-h] [--state STATE] [--expr EXPR] [--normalize]\n'
        '                       --groups GROUPS\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --state STATE    path to a .ket or .ket.json file\n'
        '  --expr EXPR      inline ket expression\n'
        '  --normalize      rescale unnormalized input instead of rejecting it\n'
        '  --groups GROUPS\n'
    ),
    'oracle': (
        'usage: etensor oracle [-h] [--state STATE] [--expr EXPR] [--normalize] --kind\n'
        '                      {concurrence,purity,wootters,dur} [--split SPLIT]\n'
        '                      [--pair PAIR] [--m M]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --state STATE         path to a .ket or .ket.json file\n'
        '  --expr EXPR           inline ket expression\n'
        '  --normalize           rescale unnormalized input instead of rejecting it\n'
        '  --kind {concurrence,purity,wootters,dur}\n'
        '  --split SPLIT         bipartition for --kind purity\n'
        '  --pair PAIR           kept qubit pair for --kind wootters\n'
        '  --m M                 party count for --kind dur\n'
    ),
    'paper-suite': (
        'usage: etensor paper-suite [-h]\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
    ),
}


class TestArgvReader:
    """``main`` reads well-formed argv from the option table, not argparse."""

    @given(_ARGV)
    @settings(max_examples=400, deadline=None)
    def test_a_read_namespace_is_argparses(self, argv):
        read = cli_module._read_argv(argv)
        if read is None:
            return
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parsed = cli_module._shared_parser().parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse refused argv the reader read: {argv} "
                        f"(exit {exc.code})")
        assert _comparable(read) == _comparable(parsed)

    @pytest.mark.parametrize("argv", [
        ["paper-suite"],
        ["compute", "--expr", W3_EXPR, "--subset", "1,2", "--subset", "1,3",
         "--norm-const", "2=9", "--table", "--detached"],
        ["compute", "--state", "x.ket", "--normalize", "--all", "--sizes", "2,3"],
        ["optimize", "--expr", EPR_EXPR, "--subsets", "1,2;1,2", "--objective",
         "mean", "--restarts", "3", "--iters", "9", "--step-tol", "1e-6",
         "--value-tol", "nan", "--seed", "7", "--diagnostics", "--seed", "8"],
        ["measure", "--outcome", "0", "--party", "2", "--expr", EPR_EXPR],
        ["apply", "--expr", EPR_EXPR, "--party", "1", "--gate", "H"],
        ["regroup", "--expr", GHZ_EXPR, "--groups", "1,2|3"],
        ["oracle", "--kind", "wootters", "--expr", W3_EXPR, "--pair", "1,2"],
        ["oracle", "--kind", "dur", "--m", " 3"],
    ], ids=["paper-suite", "compute", "compute-state", "optimize", "measure",
            "apply", "regroup", "oracle", "oracle-dur"])
    def test_reads_well_formed_argv(self, argv):
        read = cli_module._read_argv(argv)
        assert read is not None
        assert _comparable(read) == _comparable(
            cli_module._shared_parser().parse_args(argv))

    def test_a_valid_call_does_not_reach_argparse(self, capsys, monkeypatch):
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        run_json(capsys, "compute", "--expr", W3_EXPR, "--subset", "1,2")
        assert calls == []
        assert run_cli(capsys, "compute", "--expr", W3_EXPR, "extra")[0] == 2
        assert calls

    @pytest.mark.parametrize("argv", _EDGE_ARGV)
    def test_edge_argv_as_argparse_alone(self, monkeypatch, argv):
        got = _argv_outcome(argv)
        monkeypatch.setattr(cli_module, "_read_argv", lambda argv: None)
        assert got == _argv_outcome(argv)

    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="argparse 3.13 wraps usage lines differently")
    @pytest.mark.parametrize("command", list(HELP_TEXTS))
    def test_help_text(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "-h"] if command else ["-h"]
        assert _argv_outcome(argv) == (0, HELP_TEXTS[command], "")


class TestInputBudget:
    def test_expression_over_budget_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(states_module, "MAX_TOTAL_DIM", 4)
        code, out, err = run_cli(capsys, "compute", "--expr", GHZ_EXPR)
        assert code == 2
        assert out == ""
        assert err == ("parse error: total dimension 8 exceeds the limit "
                       "of 4 amplitudes\n")
        assert run_cli(capsys, "compute", "--expr", EPR_EXPR)[0] == 0


class TestKernelWorkLimit:
    def test_oversized_request_is_exit_two(self, capsys):
        expr = "|" + ",".join(["0"] * 20) + ">"
        code, out, err = run_cli(capsys, "compute", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: subset sizes [2, 3,")
        assert "over the limit of 1,073,741,824" in err
        assert "Traceback" not in err


class TestOptimize:
    def test_ghz_rear_pair(self, capsys):
        doc = run_json(capsys, "optimize", "--expr", GHZ_EXPR,
                       "--subset", "2,3", "--restarts", "8", "--seed", "7")
        assert doc["best_value"] >= 0.9999
        assert doc["subsets"] == [[2, 3]]
        assert len(doc["restart_values"]) == 8
        assert len(doc["unitaries"]) == 3
        matrix = np.asarray(doc["unitaries"][0]["re"]) + 1j * np.asarray(
            doc["unitaries"][0]["im"]
        )
        assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(2))) < 1e-9

    def test_seed_determinism(self, capsys):
        args = ("optimize", "--expr", W3_EXPR, "--subset", "1,2",
                "--restarts", "4", "--seed", "13")
        first = run_json(capsys, *args)
        second = run_json(capsys, *args)
        assert first == second

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ETENSOR_SEED", "13")
        from_env = run_json(capsys, "optimize", "--expr", W3_EXPR,
                            "--subset", "1,2", "--restarts", "4")
        assert from_env["seed"] == 13
        explicit = run_json(capsys, "optimize", "--expr", W3_EXPR,
                            "--subset", "1,2", "--restarts", "4",
                            "--seed", "13")
        assert from_env["best_value"] == explicit["best_value"]

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch, value):
        # "abc" used to print int()'s message and exit 1
        monkeypatch.setenv("ETENSOR_SEED", value)
        code, out, err = run_cli(capsys, "optimize", "--expr", W3_EXPR,
                                 "--subset", "1,2", "--restarts", "1")
        assert (code, out) == (2, "")
        assert err == (f"error: ETENSOR_SEED must be a non-negative integer, "
                       f"got {value!r}\n")
        # an explicit --seed does not read the variable
        assert run_cli(capsys, "optimize", "--expr", W3_EXPR, "--subset", "1,2",
                       "--restarts", "1", "--iters", "1", "--seed", "3")[0] == 0

    def test_negative_seed_is_a_usage_error(self, capsys):
        # argparse reads "-1" as an int, which the optimizer refused with exit 1
        code, out, err = run_cli(capsys, "optimize", "--expr", W3_EXPR,
                                 "--subset", "1,2", "--restarts", "1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_simultaneous(self, capsys):
        doc = run_json(capsys, "optimize", "--expr", GHZ_EXPR,
                       "--subsets", "1,2;1,3;2,3", "--objective", "min",
                       "--restarts", "6", "--seed", "5")
        assert doc["best_value"] >= 1 - 1e-3
        assert doc["objective"] == "min"
        assert doc["subsets"] == [[1, 2], [1, 3], [2, 3]]

    def test_diagnostics(self, capsys):
        args = ("optimize", "--expr", W3_EXPR, "--subset", "1,2",
                "--restarts", "3", "--seed", "4", "--iters", "1")
        plain = run_json(capsys, *args)
        assert list(plain) == ["subsets", "objective", "seed", "restarts",
                               "best_value", "best_restart", "restart_values",
                               "unitaries"]
        doc = run_json(capsys, *args, "--diagnostics")
        records = doc.pop("diagnostics")
        assert doc["restart_values"] == plain["restart_values"]
        assert list(doc) == list(plain)
        assert len(records) == 3
        for record in records:
            assert list(record) == ["stop_reason", "iterations", "evaluations",
                                    "seconds"]
        # restart 0 starts at the W3 plateau; the Haar restarts hit the cap
        assert records[0]["stop_reason"] != "max_iters"
        assert [r["stop_reason"] for r in records[1:]] == ["max_iters"] * 2


class TestMeasure:
    def test_hadamard_ghz_branch(self, capsys):
        doc = run_json(capsys, "measure", "--expr", HGHZ_EXPR,
                       "--party", "1", "--outcome", "0")
        assert doc["probability"] == pytest.approx(0.5, abs=1e-12)
        branch = state_from_dict(doc["state"])
        assert branch.amplitude((0, 0)) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )
        assert doc["labels"] == ["2", "3"]

    def test_impossible_outcome(self, capsys):
        doc = run_json(capsys, "measure", "--expr", "|0,0>",
                       "--party", "1", "--outcome", "1")
        assert doc["probability"] == 0.0
        assert doc["state"] is None


class TestApply:
    def test_hadamard(self, capsys):
        doc = run_json(capsys, "apply", "--expr", GHZ_EXPR,
                       "--party", "1", "--gate", "H")
        state = state_from_dict(doc)
        assert state.amplitude((1, 1, 1)) == pytest.approx(-0.5, abs=1e-12)

    def test_phase(self, capsys):
        doc = run_json(capsys, "apply", "--expr", EPR_EXPR,
                       "--party", "2", "--gate", "PHASE(0,3.141592653589793)")
        state = state_from_dict(doc)
        assert state.amplitude((1, 1)).real == pytest.approx(
            -1 / math.sqrt(2), abs=1e-12
        )

    def test_unitary_file(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(
            {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        ))
        doc = run_json(capsys, "apply", "--expr", "|0,0>",
                       "--party", "1", "--gate", f"U({path})")
        state = state_from_dict(doc)
        assert state.amplitude((1, 0)) == 1.0

    def test_non_finite_unitary_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"re": [[NaN, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        code, out, err = run_cli(capsys, "apply", "--expr", "|0,0>",
                                 "--party", "1", "--gate", f"U({path})")
        assert code == 1
        assert "NaN" not in out
        assert err.startswith("error: unitary matrix must be finite")

    @pytest.mark.parametrize("gate, message", [
        ("PHASE(1e400,0)", "error: phase angles must be finite"),
        ("PHASE(0,inf)", "error: phase angles must be finite"),
        ("U({dir}/inf.json)", "error: unitary matrix must be finite"),
    ], ids=["phase-overflow", "phase-inf", "file-inf"])
    def test_non_finite_gate_prints_one_line(self, capsys, tmp_path, gate,
                                             message):
        (tmp_path / "inf.json").write_text(
            '{"re": [[1, 0], [0, 1]], "im": [[Infinity, 0], [0, 0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "apply", "--expr", EPR_EXPR,
                                     "--party", "1",
                                     "--gate", gate.format(dir=tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("document, message", [
        ('{"re": [[' + "1" * 5000 + ', 0], [0, 1]]}',
         "parse error: invalid JSON: Exceeds the limit (4300"),
        ('{"re": [[' + "1" * 400 + ', 0], [0, 1]]}',
         "parse error: unitary file must hold"),
        ('{"re": [[1, 0], [0, 1]], "im": [[0, 0]]}',
         "parse error: unitary file holds 're' of shape (2, 2) and 'im' of "
         "shape (1, 2)"),
    ], ids=["long-integer", "past-float-range", "im-shape"])
    def test_bad_unitary_file_is_a_parse_error(self, capsys, tmp_path,
                                               document, message):
        path = tmp_path / "u.json"
        path.write_text(document)
        code, out, err = run_cli(capsys, "apply", "--expr", "|0,0>",
                                 "--party", "1", "--gate", f"U({path})")
        assert (code, out) == (2, "")
        assert err.startswith(message)
        assert err.count("\n") == 1

    def test_bad_gate(self, capsys):
        code, _, err = run_cli(capsys, "apply", "--expr", EPR_EXPR,
                               "--party", "1", "--gate", "XYZ")
        assert code == 1
        assert "unknown gate" in err


class TestRegroup:
    def test_nested_merge(self, capsys):
        doc = run_json(capsys, "regroup", "--expr", NESTED_EXPR,
                       "--groups", "1,2|3,4")
        assert doc["dims"] == [4, 4]
        assert doc["labels"] == ["1+2", "3+4"]


class TestOracle:
    def test_concurrence(self, capsys):
        doc = run_json(capsys, "oracle", "--kind", "concurrence",
                       "--expr", EPR_EXPR)
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)

    def test_purity(self, capsys):
        doc = run_json(capsys, "oracle", "--kind", "purity",
                       "--expr", GHZ_EXPR, "--split", "1|2,3")
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)

    def test_wootters(self, capsys):
        doc = run_json(capsys, "oracle", "--kind", "wootters",
                       "--expr", W3_EXPR, "--pair", "1,2")
        assert doc["value"] == pytest.approx(2 / 3, abs=1e-9)

    def test_dur(self, capsys):
        doc = run_json(capsys, "oracle", "--kind", "dur", "--m", "4")
        assert doc["value"] == pytest.approx(0.25, abs=1e-9)


class TestPaperSuite:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "paper-suite")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 50
        assert "INFO" in out

    def test_prints_the_golden_table_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "paper-suite")
        lines = out.splitlines()
        n = len(golden.CHECKS)
        assert code == 0
        assert [line.split(": got ")[0] for line in lines[:n]] == [
            f"PASS  {check.name}" for check in golden.CHECKS
        ]
        assert lines[-1] == f"{n}/{n} checks passed"

    def test_wrong_expected_value_fails(self, capsys, monkeypatch):
        checks = list(golden.CHECKS)
        checks[3] = checks[3]._replace(want=checks[3].want + 0.1)
        monkeypatch.setattr(golden, "CHECKS", tuple(checks))
        code, out, _ = run_cli(capsys, "paper-suite")
        lines = out.splitlines()
        n = len(checks)
        assert code == 1
        assert lines[3].startswith(f"FAIL  {checks[3].name}: got ")
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == f"{n - 1}/{n} checks passed"


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "etensor", "compute", "--expr", EPR_EXPR],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["components"][0]["value"] == pytest.approx(1.0, abs=1e-12)
