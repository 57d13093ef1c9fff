"""The CLI's front end against its references: cli._read (the argv reader)
against argparse's parser from cli.build_parser, and cli._dumps (the JSON
writer) against json.dumps(..., indent=2, allow_nan=False)."""

import contextlib
import importlib
import io
import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from quatspin import cli

# values a flag may get: numbers and negative numbers in the forms argparse
# takes as values (-5, -.5) and as flags (-1e-3, -inf, -1.2.3), non-finite
# and empty text, a choice in another case, an axis, a grid, non-ASCII
# digits
_VALUES = ["1", "2", "12", "-1", "-5", "-.5", "-0", "0.7", "-0.7", "3.",
           "-3.", "-1e-3", "-1.2.3", "1e300", "nan", "inf", "-inf", "", "-",
           "EV",
           "ev", "mc2", "x", "1,2,2", "Sz", "24:12", "spin", "1_0", " 3",
           "٣", "-٣", "5\n", "-5\n"]
_OTHER_TOKENS = ["-h", "--help", "--", "--bogus", "-n", "energy"]


def _fits(spec, value):
    """Whether value passes the flag's type and choices."""
    try:
        x = spec.get("type", str)(value)
    except Exception:
        return False
    return x in spec.get("choices", [x])


@st.composite
def _argvs(draw):
    """A subcommand (rarely an unknown one), then flags, each with values
    that mostly pass its type.  A flag is mostly spelled as the table
    spells it, else abbreviated or joined to its first value by "=", or
    replaced by help, `--` or an unknown flag, or given any 0-3 values;
    flags may repeat."""
    command = draw(st.sampled_from([*cli._COMMANDS]*4 + ["bogus"]))
    flags = cli._COMMANDS.get(command, cli._COMMANDS["energy"])[2]
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(list(flags)))
        spec = flags[flag]
        most = 0 if "action" in spec else 3 if "nargs" in spec else 1
        values = draw(st.lists(st.sampled_from(
            [v for v in _VALUES if _fits(spec, v)]),
            min_size=min(most, 1), max_size=most))
        kind = draw(st.sampled_from(["exact"]*8 + [
            "abbreviated", "joined", "other", "any values"]))
        if kind == "abbreviated" and len(flag) > 3:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        elif kind == "joined":
            flag = f"{flag}={values.pop(0) if values else ''}"
        elif kind == "other":
            flag = draw(st.sampled_from(_OTHER_TOKENS))
        elif kind == "any values":
            values = draw(st.lists(st.sampled_from(_VALUES), max_size=3))
        argv += [flag, *values]
    return argv


def _fields(namespace):
    """A namespace's fields by repr, so that NaN equals NaN and 0.0 differs
    from -0.0 and from 0."""
    return {k: repr(v) for k, v in vars(namespace).items()}


def _argparse(argv):
    """build_parser().parse_args(argv) with argparse's output swallowed;
    None where argparse exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_reader_gives_argparse_namespace_or_declines(argv):
    fast = cli._read(argv)
    if fast is not None:
        slow = _argparse(argv)
        assert slow is not None, argv
        assert _fields(fast) == _fields(slow), argv


@pytest.mark.parametrize("argv", [
    ["energy", "--n=2"], ["rotate", "--ang", "1"], ["energy", "-h"],
    ["rotate", "--angle", "-1e-3"], ["spinor", "--mj", "nan"],
    ["energy", "--", "--n", "2"], ["energy", "--n"], ["rotate"],
    ["energy", "2"], ["rotate", "--angle", "1", "2"], ["--help"], [],
    ["energy", "--units", "parsec"], ["rotate", "--axis", "-", "--angle", "1"],
    ["energy", "--n", "-٣"], ["verify", "--seed", "-1"]])
def test_reader_declines(argv):
    assert cli._read(argv) is None


@pytest.mark.parametrize("argv", [
    ["energy", "--n", "1", "2", "--n", "3", "--k", "-2", "-10"],
    ["energy", "--units", "EV", "--csv", "--csv"],
    ["rotate", "--angle", "-.5", "--axis", "1,2,2", "--target", ""],
    ["spinor", "--mj", "-0.5", "--k", "1", "--theta", "-0"],
    ["probability", "--r-hi", "inf", "--r-lo", "0.5"],
    ["density", "--grid", "", "--r-max", "3"],
    ["verify", "--seed", "１２"]])
def test_reader_takes_well_formed_calls(argv):
    fast = cli._read(argv)
    assert fast is not None
    assert _fields(fast) == _fields(_argparse(argv))


def test_reader_takes_every_benchmark_call(monkeypatch):
    # the cli-mix workload's calls take the reader's route, with argparse's
    # namespace; workloads is the benchmark's module in perfbench/
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    for seed in range(1, 51):
        for argv in workloads.cli_ops(seed):
            fast = cli._read(argv)
            assert fast is not None, (seed, argv)
            assert _fields(fast) == _fields(parser.parse_args(argv)), argv


def _json(o):
    return json.dumps(o, indent=2, allow_nan=False)


def _outcome(dumps, o):
    try:
        return dumps(o)
    except ValueError as exc:
        return "ValueError", str(exc)


_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(st.characters(exclude_categories=())))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)), max_leaves=24))
def test_writer_matches_json(value):
    assert _outcome(cli._dumps, value) == _outcome(_json, value)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, {"a": [1.0, -math.inf], "b": math.nan},
    [0.0, -0.0, 5e-324, 1e300, True, 1, None, "", {}, [], ()],
    {"\"\\\b\f\n\r\t\x00\x1f\x7fé \ud800\U0001f600": "m_j ≤ j"},
    ['say "hi"', "back\\slash"]])
def test_writer_matches_json_on_edge_values(value):
    assert _outcome(cli._dumps, value) == _outcome(_json, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError) as exc:
        cli._dumps({"rows": [value]})
    assert str(exc.value) == ("Out of range float values are not JSON "
                              f"compliant: {value!r}")


_RECORD_CALLS = [
    ["energy"],                                             # error rows
    ["energy", "--z", "200", "--k", "-1", "1"],             # only error rows
    ["energy", "--n", "1", "1000000", "--k", "-1", "--units", "ev"],
    ["density", "--grid", "8:4"],                           # the header
    ["density", "--n", "3", "--k", "2", "--mj", "-1.5", "--z", "92",
     "--grid", "16:6"],
    ["probability"], ["probability", "--r-lo", "0.5", "--r-hi", "2"],
    ["spinor"], ["spinor", "--k", "9", "--mj", "-6.5", "--theta",
                 repr(math.pi)],
    ["rotate", "--angle", "1.0"], ["rotate", "--axis", "1,2,2",
                                   "--angle", "0.3", "--target", "Sx"],
    ["verify", "--suite", "spin"], ["verify", "--suite", "rotation"],
]


def test_writer_matches_json_on_every_record_the_cli_writes(monkeypatch,
                                                            capsys):
    records = []
    dumps = cli._dumps

    def recording(o, indent="\n"):
        if indent == "\n":          # a record, not a value inside one
            records.append(o)
        return dumps(o, indent)

    monkeypatch.setattr(cli, "_dumps", recording)
    for argv in _RECORD_CALLS:
        assert cli.main(argv) in (0, 2), argv
    capsys.readouterr()
    assert {r["command"] for r in records} == set(cli._COMMANDS)
    assert len(records) == len(_RECORD_CALLS)
    for record in records:
        assert dumps(record) == _json(record)
