"""The exit-code contract of the command line (README, "Exit codes") as a
property of ``cli.main``: whatever the argv and input files,

- the exit code is 0, 1, 2 or 3, and no exception escapes, which in a
  process would print a traceback;
- exits 1 and 3 print nothing on stdout and one ``sheetoptics:`` line on
  stderr, with no warning, which a process would print as more lines;
- on exit 0 the output is a JSON document or a CSV table, and a
  ``twostate`` output, whose inputs are then all finite, holds no NaN.

The argv are built from the option tables ``_read`` reads (``cli._FLAG_TABLES``):
each option of a command is given or not, float options take values from
the whole finite range, and ``--coeffs`` and ``--stack`` files hold extreme
``[re, im]`` pairs.  Counts (``--points``, sweep steps) stay small, so that
no draw allocates a large array.
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from sheetoptics import cli

MAX = sys.float_info.max
#: Floats from the whole finite range: signed zeros, subnormals, the
#: smallest normal, values near the largest float and everything between.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0,
                     -1.0, 3.0, 1e300, MAX / 2, MAX, -MAX]),
    st.floats(-10.0, 10.0), st.floats(0.0, 3.0))
COUNTS = st.integers(-2, 2000)
#: A value of a file: mostly a number, now and then one that is not.
FILE_NUMBERS = st.one_of(FLOATS, FLOATS, st.integers(-1, 2),
                         st.sampled_from(["1", None, 10 ** 400, [1.0]]))
FILE_COMPLEX = st.one_of(FILE_NUMBERS, st.lists(FLOATS, min_size=2, max_size=2))


def dropping(fields: dict):
    """An object of some of the given fields' values."""
    return st.fixed_dictionaries({}, optional=fields)


COEFFS_FILES = st.fixed_dictionaries({"t": FILE_COMPLEX, "r": FILE_COMPLEX, "b": FILE_COMPLEX})
SHEETS = dropping({"cond": FILE_COMPLEX, "branching": FILE_NUMBERS, "f_sign": FILE_NUMBERS,
                   "sign": FILE_NUMBERS}).map(lambda entry: {"type": "sheet", **entry})
SLABS = dropping({"n_re": FILE_NUMBERS, "n_im": FILE_NUMBERS, "d": FILE_NUMBERS}).map(
    lambda entry: {"type": "slab", **entry})
STACK_FILES = st.builds(
    lambda layers, rest: {"layers": layers, **rest},
    st.lists(st.one_of(SHEETS, SLABS), max_size=4),
    dropping({"ambient_in": FILE_COMPLEX, "ambient_out": FILE_COMPLEX,
              "wavelength_nm": FILE_NUMBERS}))
SWEEPS = st.builds(lambda variable, ends, steps: f"{variable}:{ends[0]!r}:{ends[1]!r}:{steps}",
                   st.sampled_from(["cond", "n_layers", "wavelength_nm", "thickness", "x"]),
                   st.lists(FLOATS, min_size=2, max_size=2).map(sorted)
                   | st.tuples(FLOATS, FLOATS),
                   COUNTS)


def option_values(option):
    """Text values of one option, from its type, choices or role."""
    if option.choices is not None:
        return st.sampled_from([str(choice) for choice in option.choices])
    if option.type is float:
        return FLOATS.map(repr)
    if option.type is int:
        return COUNTS.map(str)
    return {"--sweep": SWEEPS, "--out": st.just("out.txt"),
            "--coeffs": st.just("coeffs.json"), "--stack": st.just("stack.json")}[option.flag]


@st.composite
def command_lines(draw):
    """(argv, files): a command and some of its options, each with a value,
    and the JSON text of the files they name."""
    command = draw(st.sampled_from(sorted(cli._FLAG_TABLES)))
    by_flag, _, required = cli._FLAG_TABLES[command]
    argv, files = [command], {}
    for flag, option in by_flag.items():
        if flag in required or draw(st.integers(0, 2)) == 0:
            value = draw(option_values(option))
            argv += [flag, value]
            if flag in ("--coeffs", "--stack"):
                doc = draw(COEFFS_FILES if flag == "--coeffs" else STACK_FILES)
                files[value] = json.dumps(doc)
    return argv, files


def run_in(workdir: str, argv: list, files: dict):
    """What ``cli.main`` gives on ``argv`` with its files in ``workdir``:
    exit code, stdout (the ``--out`` file's text, if one is given),
    stderr and the warnings raised."""
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = [os.path.join(workdir, arg) if arg in files or arg == "out.txt" else arg
            for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    text = out.getvalue()
    out_file = os.path.join(workdir, "out.txt")
    if os.path.exists(out_file):
        assert text == ""
        with open(out_file, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_file)
    return code, text, err.getvalue(), caught


def is_csv_table(text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows) and len({len(row) for row in rows}) == 1


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example((["twostate", "--coeffs", "coeffs.json"],
          {"coeffs.json": '{"t": [0.75e308, 0.75e308], "r": [0.75e308, 0.75e308], "b": [0, 1]}'}))
@example((["twostate", "--coeffs", "coeffs.json", "--energy-unit", "0.5"],
          {"coeffs.json": '{"t": [0, 4.0414184592774605e175], "r": [4.041418459277461e163, '
                          '4.0414184592774605e175], "b": [0, 2.224086855860645e132]}'}))
@example((["twostate", "--coeffs", "coeffs.json"],
          {"coeffs.json": '{"t": 1, "r": 0, "b": [1.5e308, 1.5e308]}'}))
@example((["twostate", "--coeffs", "coeffs.json"],
          {"coeffs.json": '{"t": 1.5e308, "r": 1.5e308, "b": [0, 1]}'}))
@example((["twostate", "--coeffs", "coeffs.json", "--energy-unit", "10"],
          {"coeffs.json": '{"t": 1, "r": 0, "b": [1.5e308, 1.5e308]}'}))
@example((["twostate", "--coeffs", "coeffs.json", "--energy-unit", "10"],
          {"coeffs.json": '{"t": 1.0, "r": 0.5, "b": [1e308, 0]}'}))
@example((["profile", "--x-max", "1e308", "--k", "10"], {}))
def test_exit_code_contract(command_line):
    argv, files = command_line
    with tempfile.TemporaryDirectory() as workdir:
        code, out, err, caught = run_in(workdir, argv, files)
    assert code in (0, 1, 2, 3), (code, err)
    if code in (1, 3):
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("sheetoptics: "), err
        assert not caught, [str(w.message) for w in caught]
    elif code == 0:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        if fmt == "json" or fmt is None and argv[0] not in cli._TABLE_COMMANDS:
            words = []
            json.loads(out, parse_constant=words.append)
        else:
            assert is_csv_table(out), out[:200]
            words = out.replace("\n", ",").split(",")
        if argv[0] == "twostate":
            assert "NaN" not in words and "nan" not in words, out
