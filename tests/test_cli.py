"""Command-line interface: output schemas, units, exit codes."""

import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import quatspin
from quatspin import cli


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


def test_energy_default_table(capsys):
    code, rec = _run_json(capsys, "energy")
    assert code == 0
    assert rec["command"] == "energy"
    assert rec["units"] == "mc2"
    rows = rec["rows"]
    good = [r for r in rows if "error" not in r]
    bad = [r for r in rows if "error" in r]
    assert len(good) == 8 and len(bad) == 4
    by_nk = {(r["n"], r["k"]): r for r in good}
    assert by_nk[(2, 1)]["energy"] == by_nk[(2, -1)]["energy"]
    assert all(0 < r["energy"] < 1 for r in good)


def test_energy_ev_units(capsys):
    code, rec = _run_json(capsys, "energy", "--n", "1", "--k", "-1",
                          "--units", "ev")
    assert code == 0
    row = rec["rows"][0]
    assert row["binding"] == pytest.approx(-13.6059, abs=1e-3)
    assert rec["units"] == "eV"


def test_energy_csv(capsys):
    code, out = _run(capsys, "energy", "--csv", "--n", "2", "--k", "-1", "1",
                     "--units", "ev")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[0]["binding"]) == pytest.approx(-3.4015, abs=1e-3)
    # CSV floats round-trip exactly
    assert float(rows[0]["energy"]) == float(rows[1]["energy"])


def test_energy_all_rows_invalid_is_domain_error(capsys):
    code, rec = _run_json(capsys, "energy", "--z", "200", "--k", "-1", "1")
    assert code == 2
    assert all("error" in r for r in rec["rows"])
    assert "s imaginary" in rec["rows"][0]["error"]


def test_energy_partial_failure_still_succeeds(capsys):
    code, rec = _run_json(capsys, "energy", "--z", "200")
    assert code == 0  # the |k| = 2 rows survive


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_energy_row_where_E_rounds_to_one_is_an_error_row(capsys, fmt):
    # from n = 399,853 (Z = 1, k = -1) the Sommerfeld E rounds to 1.0
    flag = ["--csv"] if fmt == "csv" else []
    code, out = _run(capsys, "energy", "--n", "1", "1000000", "--k", "-1",
                     *flag)
    assert code == 0
    _, one = _run(capsys, "energy", "--n", "1", "--k", "-1", *flag)
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0] == next(csv.DictReader(io.StringIO(one)))
    else:
        rows = json.loads(out)["rows"]
        assert rows[0] == json.loads(one)["rows"][0]
    assert str(rows[1]["n"]) == "1000000"
    assert "bound state requires 0 < E < mc^2" in rows[1]["error"]


def test_energy_only_row_where_E_rounds_to_one(capsys):
    code = cli.main(["energy", "--n", "1000000", "--k", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no valid (n, k) rows" in err


def test_density_grid(capsys):
    code, rec = _run_json(capsys, "density", "--grid", "24:12")
    assert code == 0
    rows = rec["rows"]
    assert len(rows) == 24*12
    assert all(r["density"] >= 0 for r in rows)
    assert rec["grid_integral"] == pytest.approx(1.0, abs=1e-6)
    assert rec["units"]["density"] == "per Bohr^3"
    # grid is sorted by (r, theta)
    rs = [r["r"] for r in rows]
    assert rs == sorted(rs)


def test_density_csv(capsys):
    code, out = _run(capsys, "density", "--grid", "8:4", "--csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 32
    assert set(rows[0]) == {"r", "theta", "density", "cell_weight"}


def test_density_rejects_bad_state():
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--k", "0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--grid", "banana"])
    assert exc.value.code == 1


def test_probability_full_domain(capsys):
    code, rec = _run_json(capsys, "probability")
    assert code == 0
    assert rec["probability"] == pytest.approx(1.0, abs=1e-6)
    assert rec["params"]["r_hi"] == "inf"
    assert rec["quadrature_error"] < 1e-6
    _, explicit = _run_json(capsys, "probability", "--r-hi", "inf")
    assert explicit == rec


def test_probability_inner_shell(capsys):
    code, rec = _run_json(capsys, "probability", "--r-hi", "1.0")
    assert code == 0
    assert rec["probability"] == pytest.approx(0.3233359303758578, abs=1e-8)


def test_probability_shells_add_up(capsys):
    _, rec_in = _run_json(capsys, "probability", "--r-hi", "2.0")
    _, rec_out = _run_json(capsys, "probability", "--r-lo", "2.0")
    assert rec_in["probability"] + rec_out["probability"] == \
        pytest.approx(1.0, abs=1e-9)


def test_probability_rejects_bad_interval():
    with pytest.raises(SystemExit) as exc:
        cli.main(["probability", "--r-lo", "3", "--r-hi", "1"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["rotate", "--angle", "nan"],
    ["rotate", "--angle", "inf"],
    ["rotate", "--angle", "1", "--axis", "nan,0,1"],
    ["spinor", "--theta", "nan"],
    ["spinor", "--phi=-inf"],
    ["spinor", "--mj", "nan"],
    ["density", "--r-max", "nan"],
    ["density", "--mj", "nan"],
    ["probability", "--r-lo", "nan"],
    ["probability", "--r-hi", "nan"],
    ["probability", "--mj", "inf"],
])
def test_non_finite_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err


def _refused_density(capsys, *flags):
    """Run density with a finite but huge --r-max, which overflows the cell
    weights, with every numpy RuntimeWarning turned into an error."""
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["density", "--r-max", "1e300", "--grid", "4:4",
                         *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_density_csv_refuses_non_finite(capsys):
    assert "not CSV compliant" in _refused_density(capsys, "--csv")


def test_density_json_refuses_non_finite(capsys):
    assert "not JSON compliant" in _refused_density(capsys)


def _density_dict_rows(params):
    """The density rows as dicts, rebuilt from a record's params the way the
    dict-per-row writer built them: the oracle of the row writer.  Column
    j >= h = ceil(n_theta/2) takes the density of column n_theta - 1 - j,
    its mirror about theta = pi/2, from the half table."""
    from quatspin import hydrogen as hy
    from quatspin.levels import QuantumNumbers
    from quatspin.special import gauss_legendre_nodes, leggauss
    n_r, n_theta = map(int, params["grid"].split(":"))
    w = hy.assemble_wavefunction(QuantumNumbers(
        params["n"], params["k"], params["mj"], params["z"]))
    r, wr = gauss_legendre_nodes(n_r, 0.0, params["r_max"])
    x, wx = leggauss(n_theta)
    theta, wx = [math.acos(t) for t in reversed(x)], wx[::-1]
    h = (n_theta + 1)//2
    half = w._density_table(r, theta[:h])
    dens = [half[i*h + min(j, n_theta - 1 - j)]
            for i in range(n_r) for j in range(n_theta)]
    R, TH = np.meshgrid(r, theta, indexing="ij")
    cell = 2.0*math.pi*R*R*np.outer(wr, wx)
    return [{"r": r_, "theta": t, "density": d, "cell_weight": c}
            for r_, t, d, c in zip(R.ravel().tolist(), TH.ravel().tolist(),
                                   dens, cell.ravel().tolist())]


@pytest.mark.parametrize("argv", [
    ["--grid", "4:4"],
    ["--grid", "24:12"],
    ["--grid", "24:13"],                            # a middle theta column
    ["--n", "20"],                                  # default grid 168:32
    ["--z", "92", "--n", "3", "--k", "2", "--mj", "-1.5"],
    ["--r-max", "400", "--grid", "48:4"],           # subnormals and zeros
    ["--z", "50", "--n", "32", "--k", "-2", "--mj", "-0.5", "--grid",
     "240:34"],
    ["--n", "3", "--k", "2", "--mj", "1.5", "--grid", "200:5"],  # 4 writes
])
def test_density_rows_match_the_dict_encoders(capsys, argv):
    code = cli.main(["density", *argv])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    rows = _density_dict_rows(record["params"])
    assert out == json.dumps(record | {"rows": rows}, indent=2,
                             allow_nan=False) + "\n"
    d = [row["density"] for row in record["rows"]]
    if "400" in argv:
        assert 0.0 in d and any(0 < x < sys.float_info.min for x in d)
    n_r, n_theta = map(int, record["params"]["grid"].split(":"))
    if "240:34" in argv:
        # every density column equals its mirror bit for bit
        assert all(list(map(float.hex, d[j::n_theta]))
                   == list(map(float.hex, d[n_theta - 1 - j::n_theta]))
                   for j in range(n_theta//2))
    if "200:5" in argv or "240:34" in argv:
        assert n_r > 3*cli._R_PER_WRITE         # several writes of the table

    code = cli.main(["density", "--csv", *argv])
    out = capsys.readouterr().out
    assert code == 0
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: repr(v) for k, v in row.items()} for row in rows)
    assert out == buf.getvalue()


@pytest.mark.parametrize("as_csv", [False, True])
def test_density_writer_mirrors_the_half_tables(capsys, as_csv):
    # column j >= h of the table is column n_theta - 1 - j of the half
    # tables, signed zeros and subnormals included; a middle column for an
    # odd n_theta, none for an even one
    record = {"command": "density", "params": {"grid": "2:3"}}
    r = [0.5, 1.0]
    for theta, dens, cell in (
            ([0.25, 1.5, 2.875], [0.0, 5e-324, -0.0, 2.0],
             [-0.0, 1e-310, 3.0, 0.0]),
            ([0.25, 1.0, 2.125, 2.875], [-0.0, 1.5, 4e-320, 0.0],
             [1.0, -0.0, 0.0, 2.5e-308])):
        cli._emit_density(record, r, theta, dens, cell, as_csv)
        out = capsys.readouterr().out
        n, h = len(theta), (len(theta) + 1)//2
        rows = [{"r": a, "theta": t,
                 "density": dens[i*h + min(j, n - 1 - j)],
                 "cell_weight": cell[i*h + min(j, n - 1 - j)]}
                for i, a in enumerate(r) for j, t in enumerate(theta)]
        if as_csv:
            assert out == "r,theta,density,cell_weight\n" + "".join(
                ",".join(map(repr, row.values())) + "\n" for row in rows)
        else:
            assert out == json.dumps(record | {"rows": rows}, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--k", "2", "--mj", "1.5", "--z", "20", "--grid", "24:13"],
    [],                                             # default grid 128:32
    ["--z", "50", "--n", "32", "--k", "-2", "--mj", "-0.5", "--grid",
     "240:34"],
])
def test_density_table_lies_on_the_point_density(capsys, argv):
    # every written density, the mirrored columns included, lies within
    # 1e-14 of the table's maximum of w.density at its printed r and theta
    from quatspin import hydrogen as hy
    from quatspin.levels import QuantumNumbers
    assert cli.main(["density", *argv]) == 0
    record = json.loads(capsys.readouterr().out)
    p = record["params"]
    w = hy.assemble_wavefunction(QuantumNumbers(p["n"], p["k"], p["mj"],
                                                p["z"]))
    rows = record["rows"]
    ref = w.density(np.array([row["r"] for row in rows]),
                    np.array([row["theta"] for row in rows]), 0.0)
    got = np.array([row["density"] for row in rows])
    assert np.max(np.abs(got - ref)) <= 1e-14*np.max(ref)


def _child_env():
    """os.environ with this quatspin's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _cli_subprocess(argv, stdout):
    return subprocess.Popen([sys.executable, "-m", "quatspin", *argv],
                            stdout=stdout, stderr=subprocess.PIPE,
                            env=_child_env())


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_closed_stdout_pipe_exits_one_quietly(fmt):
    # the output (~850 kB) outgrows the pipe, so the writer is still
    # writing when the reader quits, as `quatspin density --n 20 | head`;
    # its 168 radii go out in several writes
    assert 48 + 6*20 > 2*cli._R_PER_WRITE
    proc = _cli_subprocess(["density", "--n", "20", *fmt], subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["density", "--n", "2"], ["energy"]])
def test_full_stdout_device_is_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        proc = _cli_subprocess(argv, full)
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


# every subcommand but verify in JSON and CSV, help, no arguments, a usage
# error and a domain error, then calls that cli._read leaves to argparse: a
# joined flag and value, an abbreviation, subcommand help, a negative
# number argparse takes for a flag, and a value that fails its type
_EXIT_MATRIX = [
    *([*argv, *fmt] for argv in (["energy"], ["spinor"],
                                 ["rotate", "--angle", "1.0"],
                                 ["probability"], ["density"])
      for fmt in ([], ["--csv"])),
    ["--help"], [], ["rotate"], ["probability", "--n", "250", "--k", "-1"],
    ["energy", "--n=2"], ["rotate", "--ang", "1"], ["energy", "-h"],
    ["rotate", "--angle", "-1e-3"], ["spinor", "--mj", "nan"]]

_MAIN_PROBE = """
import contextlib, io, json, sys
from quatspin import cli
report = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(report))
"""


def test_a_cli_process_writes_what_main_writes():
    # cli.main runs in one fresh interpreter, which has loaded what a CLI
    # process loads, and nothing of this one's
    proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE,
                           json.dumps(_EXIT_MATRIX)],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = json.loads(proc.stdout)
    assert [code for *_, code in expected] == ([0]*11 + [1, 1, 2]
                                               + [0, 0, 0, 1, 1])
    for argv, want in zip(_EXIT_MATRIX, expected):
        child = subprocess.run([sys.executable, "-m", "quatspin", *argv],
                               capture_output=True, env=_child_env(),
                               timeout=300)
        got = [child.stdout.decode(), child.stderr.decode(), child.returncode]
        assert got == want, argv


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--k", "2", "--mj", "1.5", "--z", "20"],
    ["--n", "250", "--k", "-1", "--grid", "3000:4"],
])
def test_density_bytes_do_not_depend_on_numpy_being_loaded(capsys, argv):
    # this process has imported numpy, a fresh one has not: both write the
    # density table on Python floats
    assert "numpy" in sys.modules
    code, out = _run(capsys, "density", *argv)
    child = subprocess.run([sys.executable, "-m", "quatspin", "density",
                            *argv], capture_output=True, env=_child_env(),
                           timeout=300)
    assert child.returncode == code == 0, child.stderr.decode()
    assert child.stdout.decode() == out


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--k", "-1"],
    ["--n", "20", "--k", "-1"],
    ["--n", "60", "--k", "-1"],
    ["--z", "92", "--n", "15", "--k", "-1", "--mj", "0.5", "--r-hi", "3.1"],
])
def test_probability_bytes_do_not_depend_on_numpy_being_loaded(capsys, argv):
    # probability_in_region would take the array route here; the command
    # line runs the shells on Python floats in either process
    assert "numpy" in sys.modules
    code, out = _run(capsys, "probability", *argv)
    child = subprocess.run([sys.executable, "-m", "quatspin", "probability",
                            *argv], capture_output=True, env=_child_env(),
                           timeout=300)
    assert child.returncode == code == 0, child.stderr.decode()
    assert child.stdout.decode() == out


_ATEXIT_PROBE = """
import atexit, runpy, sys
# written without a flush: only the interpreter's final flush emits it
atexit.register(sys.stdout.write, "atexit callback ran")
sys.argv = ["quatspin", "energy"]
runpy.run_module("quatspin", run_name="__main__", alter_sys=True)
"""


def test_a_cli_process_ends_normally():
    # cli.run still runs the atexit callbacks and flushes stdout, and a
    # profiler still prints its report
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_PROBE],
                          capture_output=True, env=_child_env(), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    out, tail = proc.stdout.decode().rsplit("\n", 1)
    assert json.loads(out)["command"] == "energy"
    assert tail == "atexit callback ran"
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "quatspin",
                           "energy"],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"function calls" in proc.stdout and b"Ordered by:" in proc.stdout


# success, a domain error and a usage error, with their exit codes
_EXIT_CASES = [(["energy"], 0),
               (["probability", "--n", "250", "--k", "-1"], 2),
               (["rotate"], 1)]


@pytest.mark.parametrize("argv, code", _EXIT_CASES)
def test_main_never_freezes_the_collector(capsys, argv, code):
    before = gc.get_freeze_count()
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert gc.get_freeze_count() == before


_ATEXIT_SITE = """
import atexit, sys
# written without a flush: only the flush after the callbacks emits it
atexit.register(sys.stdout.write, "atexit callback ran")
"""


def test_run_exits_after_the_atexit_callbacks_and_the_flush(capsys,
                                                            tmp_path):
    # cli.run ends the process itself: a sitecustomize on the child's path
    # registers the callback before `python -m quatspin` starts
    (tmp_path / "sitecustomize.py").write_text(_ATEXIT_SITE)
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), env["PYTHONPATH"]))
    for argv, code in _EXIT_CASES:
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "quatspin", *argv],
                              capture_output=True, env=env, timeout=300)
        assert (got, proc.returncode) == (code, code), argv
        assert proc.stdout.decode() == out + "atexit callback ran", argv
        assert proc.stderr.decode() == err, argv


_WATCHED_PROBE = """
import runpy, sys
hook = getattr(sys, sys.argv[1])
hook(lambda *args: None)
sys.argv = ["quatspin", "energy"]
try:
    runpy.run_module("quatspin", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
hook(None)
print("control came back with", code)
"""


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_run_returns_to_a_tracer_or_profiler(capsys, hook):
    # as under trace, pdb or cProfile: the wrapper gets control back
    assert cli.main(["energy"]) == 0
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-c", _WATCHED_PROBE, hook],
                          capture_output=True, env=_child_env(), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == want + "control came back with 0\n"


def _buffered_env():
    """_child_env() without PYTHONUNBUFFERED: stdout keeps what is written
    until a flush."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("device", ["closed pipe", "/dev/full",
                                    "closed pipe, unbuffered",
                                    "/dev/full, unbuffered"])
def test_a_failing_final_flush_follows_mains_rule(device):
    # argparse writes the help into stdout's buffer and exits 0; the flush
    # in cli.run fails, as main's own flush would.  With an unbuffered
    # stdout the help's own write fails (argparse would drop that error),
    # and main reports it.  Either way a closed pipe exits 1 quietly, a
    # full disk with one error line
    device, _, unbuffered = device.partition(", ")
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if device == "closed pipe":
        read, out = os.pipe()
        os.close(read)
    elif os.path.exists(device):
        out = os.open(device, os.O_WRONLY)
    else:
        pytest.skip("needs the /dev/full device")
    try:
        proc = subprocess.run([sys.executable, "-m", "quatspin", "--help"],
                              stdout=out, stderr=subprocess.PIPE, env=env,
                              timeout=300)
    finally:
        os.close(out)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    if device == "closed pipe":
        assert err == ""
    else:
        assert err == "error: [Errno 28] No space left on device\n"


_REPLACED_PROBE = """
import io, sys
sys.__stdout__.write("written to the original stdout")
sys.stdout = io.StringIO()
from quatspin import cli
cli.run(["energy"])
"""


def test_run_flushes_the_stdout_that_was_replaced():
    proc = subprocess.run([sys.executable, "-c", _REPLACED_PROBE],
                          capture_output=True, env=_buffered_env(),
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"written to the original stdout"


def test_importtime_lists_every_submodule_a_call_loads():
    # quatspin.__getattr__ imports through the path -X importtime logs
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "quatspin", "density", "--grid", "4:4"],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    listed = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.decode().splitlines()
              if line.startswith("import time:")}
    assert {f"quatspin.{m}" for m in ("_record", "cli", "hydrogen", "levels",
                                      "special", "spinor")} <= listed


def test_spinor_worked_example(capsys):
    code, rec = _run_json(capsys, "spinor", "--k", "-3", "--mj", "1.5",
                          "--theta", "0.8", "--phi", "0.3")
    assert code == 0
    assert rec["l"] == 2 and rec["j"] == 2.5
    assert rec["coefficients"]["c1"] == pytest.approx(2/math.sqrt(5))
    assert rec["coefficients"]["c2"] == pytest.approx(1/math.sqrt(5))
    assert rec["p_up"] + rec["p_down"] == pytest.approx(rec["density"])
    up = complex(*rec["component_up"])
    assert rec["p_up"] == pytest.approx(abs(up)**2)


_C9 = {"c1": -0.9176629354822471, "c2": 0.39735970711951313}


@pytest.mark.parametrize("params, l, j, coefficients, up, down, q, p", [
    ({"k": 9, "mj": -6.5, "theta": 1.90254703490314, "phi": 0.0}, 9, 8.5,
     _C9, [-0.19184149754012833, 0.0], [0.09843902912807923, 0.0],
     [[-0.13565242382360712, 0.0], [0.0, 0.13565242382360712],
      [-0.0696069050298849, 0.0], [0.0, -0.0696069050298849]],
     [0.036803160178439064, 0.00969024245567883, 0.04649340263411789]),
    ({"k": -3, "mj": 1.5, "theta": 0.0, "phi": 1.0}, 2, 2.5,
     {"c1": 0.8944271909999159, "c2": 0.4472135954999579},
     [-0.0, 0.0], [-0.0, 0.0], [[0.0, 0.0]]*4, [0.0, 0.0, 0.0]),
    ({"k": 9, "mj": -6.5, "theta": math.pi, "phi": 0.0}, 9, 8.5, _C9,
     [-2.3371431531829628e-111, 0.0], [-1.6698694353824308e-95, -0.0],
     [[-1.6526097722193832e-111, 0.0], [0.0, 1.6526097722193832e-111],
      [1.1807760014550682e-95, 0.0], [0.0, 1.1807760014550682e-95]],
     [5.462238118470002e-222, 2.788463931224438e-190,
      2.788463931224438e-190]),
])
def test_spinor_stdout_keeps_its_signed_zeros(capsys, params, l, j,
                                              coefficients, up, down, q, p):
    # the components may carry -0.0; each biquaternion zero part is +0.0
    code, out = _run(capsys, "spinor", *(x for key, v in params.items()
                                         for x in (f"--{key}", repr(v))))
    assert code == 0
    want = {"command": "spinor", "params": params, "l": l, "j": j,
            "coefficients": coefficients, "component_up": up,
            "component_down": down, "biquaternion": q,
            "p_up": p[0], "p_down": p[1], "density": p[2]}
    assert out == json.dumps(want, indent=2) + "\n"


def test_spinor_k_encodes_l(capsys):
    code, rec = _run_json(capsys, "spinor", "--k", "1", "--mj", "0.5")
    assert code == 0
    assert rec["l"] == 1 and rec["j"] == 0.5
    with pytest.raises(SystemExit) as exc:
        cli.main(["spinor", "--k", "0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["spinor", "--k", "2", "--mj", "2.5"])  # |m_j| > j
    assert exc.value.code == 1


def test_spinor_high_l_is_finite(capsys):
    code, out = _run(capsys, "spinor", "--k", "-161", "--mj", "160.5")
    assert code == 0
    rec = json.loads(out, parse_constant=lambda c: pytest.fail(c))
    assert rec["l"] == 160
    values = [*rec["component_up"], *rec["component_down"], rec["p_up"],
              rec["p_down"], rec["density"]]
    assert all(math.isfinite(v) for v in values)
    assert rec["density"] > 0


def test_rotate_quarter_turn(capsys):
    code, rec = _run_json(capsys, "rotate", "--axis", "y", "--angle",
                          repr(math.pi/2), "--target", "Sz")
    assert code == 0
    # lands on -Sx: coefficient i/2 on e3
    e3 = rec["rotated_operator"][3]
    assert e3[0] == pytest.approx(0.0, abs=1e-15)
    assert e3[1] == pytest.approx(0.5, abs=1e-15)
    assert rec["closed_form_deviation"] < 1e-14


def test_rotate_vector_axis(capsys):
    code, rec = _run_json(capsys, "rotate", "--axis", "0,0,2", "--angle",
                          "6.283185307179586", "--target", "Sx")
    assert code == 0
    # axis normalized; full turn restores the operator
    assert rec["params"]["axis"] == [0.0, 0.0, 1.0]
    e3 = rec["rotated_operator"][3]
    assert e3[1] == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(SystemExit) as exc:
        cli.main(["rotate", "--axis", "0,0,0", "--angle", "1"])
    assert exc.value.code == 1


def test_rotate_axis_whose_squared_norm_overflows():
    proc = subprocess.run([sys.executable, "-m", "quatspin", "rotate",
                           "--axis", "1e300,1e300,0", "--angle", "1"],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0 and proc.stderr == b""
    axis = json.loads(proc.stdout)["params"]["axis"]
    assert np.max(np.abs(np.subtract(axis, [math.sqrt(0.5),
                                            math.sqrt(0.5), 0.0]))) <= 1e-15


def test_density_past_the_normalization_range_is_one_error_line():
    # A underflows at n = 200, k = -200 (Z = 1)
    proc = subprocess.run([sys.executable, "-m", "quatspin", "density",
                           "--n", "200", "--k", "-200"],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 2 and proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err


@pytest.mark.parametrize("argv", [["probability", "--n", "250", "--k", "-1"],
                                  ["density", "--n", "335", "--k", "-1"],
                                  ["probability", "--n", "300", "--k", "-1"],
                                  ["density", "--r-max", "1e300", "--grid",
                                   "4:4", "--csv"],
                                  ["density", "--r-max", "1e300", "--grid",
                                   "4:4"]])
def test_state_past_the_float_range_is_one_error_line(capsys, argv):
    # the shell rule's brackets overflow from n = 235 and the default
    # density grid's from n = 335 (k = -1, Z = 1): no numpy warning leaks.
    # A fresh interpreter runs the calls below hydrogen's cost bound on
    # Python floats, this one (numpy loaded) runs arrays: the same refusal
    proc = subprocess.run([sys.executable, "-m", "quatspin", *argv],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 2 and proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", err)


def test_verify_suite_report(capsys):
    code, rec = _run_json(capsys, "verify", "--suite", "spin")
    assert code == 0
    assert rec["summary"]["failed"] == 0
    assert rec["summary"]["total"] == len(rec["checks"])
    assert all(c["passed"] for c in rec["checks"])
    assert all(c["suite"] == "spin" for c in rec["checks"])


def test_verify_csv(capsys):
    code, out = _run(capsys, "verify", "--suite", "rotation", "--csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["passed"] == "true" for r in rows)


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a product route off by 1e-6: finite deviations above tol exit 3
    from quatspin import verify
    plain = verify.mul
    monkeypatch.setattr(verify, "mul", lambda a, b: plain(a, b)
                        + quatspin.Biquaternion(1e-6))
    code, rec = _run_json(capsys, "verify", "--suite", "algebra")
    assert code == 3
    failed = [c for c in rec["checks"] if not c["passed"]]
    assert len(failed) == rec["summary"]["failed"] > 0
    assert all(c["max_dev"] is not None and c["max_dev"] > c["tol"]
               for c in failed)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_nan_deviation_is_a_failed_check(capsys, monkeypatch, fmt):
    # a product route that gives NaN: every check is still written, the
    # NaN max_dev as null (an empty CSV cell), and the run exits 3
    from quatspin import verify
    plain = verify.mul
    monkeypatch.setattr(verify, "mul", lambda a, b: plain(a, b)
                        + quatspin.Biquaternion(0, 0, math.nan, 0))
    code, out = _run(capsys, "verify", "--suite", "algebra",
                     *(["--csv"] if fmt == "csv" else []))
    assert code == 3
    if fmt == "json":
        rec = json.loads(out)
        rows = {c["name"]: c for c in rec["checks"]}
        assert rec["summary"]["failed"] >= 1
        nan_cell = None
    else:
        rows = {r["name"]: r for r in csv.DictReader(io.StringIO(out))}
        nan_cell = ""
    assert len(rows) == sum(suite == "algebra"
                            for suite, _, _ in verify._REGISTRY.values())
    row = rows["hamilton-table"]
    assert row["max_dev"] == nan_cell
    assert row["passed"] in (False, "false")


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--units", "parsec"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["energy", "--z", "0"], "--z must be a positive integer"),
    (["density", "--grid", "banana"], "--grid expects R:THETA counts"),
    (["density", "--grid", "0:4"], "--grid counts must be at least 4"),
    (["density", "--k", "0"], "k must be a nonzero integer"),
    (["density", "--r-max", "-1"], "--r-max must be positive"),
    (["probability", "--r-hi", "nan"], "need 0 <= --r-lo < --r-hi"),
    (["probability", "--k", "2", "--n", "1"], "|k| must not exceed n"),
    (["spinor", "--k", "0"], "--k must be a nonzero integer"),
    (["spinor", "--mj", "5.5"], "|m_j| must not exceed j"),
    (["rotate", "--angle", "1", "--axis", "1,2"], "--axis expects x, y, z"),
    (["rotate", "--angle", "1", "--axis", "1,x,2"],
     "--axis components must be finite"),
    (["rotate", "--angle", "1", "--axis", "0,0,0"],
     "--axis must be a nonzero vector"),
    (["rotate", "--angle", "1", "--target", "Sw"], "--target expects Sx"),
    (["verify", "--suite", "nope"], "nope"),
    (["spinor", "--k", "-1", "--mj", "0.5000000001"],
     "j and m_j must be half-odd-integers"),
    (["spinor", "--k", "-1", "--mj", "0.4999999999"],
     "j and m_j must be half-odd-integers"),
    (["density", "--n", "1", "--mj", "0.5000000001", "--grid", "4:4"],
     "m_j must be half-odd-integer"),
    (["probability", "--mj", "0.4999999999"], "m_j must be half-odd-integer"),
    (["verify", "--seed", "-1"], "expected a non-negative integer"),
    (["density", "--grid", "4:4", "--r-max", "5e-324"],
     "a radial node rounds to 0"),
    (["density", "--grid", "4:4", "--r-max", "1e-310"],
     "alpha/r overflows"),
    (["density", "--grid", "4:4", "--r-max", "1e-320"],
     "alpha/r overflows"),
])
def test_usage_errors_after_parsing_name_the_subcommand(capsys, argv,
                                                        message):
    # as argparse's own errors do: the subcommand's usage line and prefix
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    sub = argv[0]
    assert out == ""
    assert err.startswith(f"usage: quatspin {sub} ")
    assert f"\nquatspin {sub}: error: " in err and message in err


def test_json_round_trip(capsys):
    code, out = _run(capsys, "probability", "--r-hi", "2.5")
    rec = json.loads(out)
    assert json.loads(json.dumps(rec)) == rec
    assert repr(rec["probability"]) in out  # shortest round-trip floats


@pytest.mark.parametrize("argv", [
    ("--n", "100", "--k", "-100"),
    ("--n", "150", "--k", "-150", "--z", "20"),
    ("--n", "150", "--k", "-150", "--z", "92", "--r-hi", "3000"),
])
def test_probability_at_large_k(capsys, argv):
    # A rho^s e^{-rho} is finite although rho^s e^{-rho} alone overflows
    code, rec = _run_json(capsys, "probability", *argv)
    assert code == 0
    assert abs(rec["probability"] - 1.0) < 1e-12
    assert 0.0 <= rec["quadrature_error"] < 1e-12


_CSV_PINNED = {
    ("spinor", "--k", "-3", "--mj", "1.5", "--theta", "0.8", "--phi", "0.3"):
        "l,j,mj,theta,phi,c1,c2,up_re,up_im,down_re,down_im,p_up,p_down,"
        "density\n"
        "2,2.5,1.5,0.8,0.3,0.8944271909999159,0.4472135954999579,"
        "-0.32992242983853487,-0.10205696710834644,0.07336870749362426,"
        "0.050194233376843304,0.11926443424591708,0.007902428303574007,"
        "0.12716686254949108\n",
    ("rotate", "--axis", "y", "--angle", "1.5707963267948966",
     "--target", "Sz"):
        "coefficient,rotation_re,rotation_im,rotated_re,rotated_im\n"
        "e0,0.7071067811865476,0.0,0.0,0.0\n"
        "e1,-0.0,0.0,0.0,-1.1102230246251565e-16\n"
        "e2,-0.7071067811865475,0.0,0.0,0.0\n"
        "e3,-0.0,0.0,0.0,0.5\n",
    ("rotate", "--axis", "1,2,2", "--angle", "0.3"):
        "coefficient,rotation_re,rotation_im,rotated_re,rotated_im\n"
        "e0,0.9887710779360422,0.0,0.0,0.0\n"
        "e1,-0.09962542164906614,0.0,0.0,-0.48759346920155716\n"
        "e2,-0.09962542164906614,0.0,0.0,-0.05917859241564413\n"
        "e3,-0.04981271082453307,0.0,0.0,0.09354412323440273\n",
    ("probability", "--r-hi", "1"):
        "r_lo,r_hi,probability,quadrature_error\n"
        "0.0,1.0,0.32333593037585734,8.974374864796834e-15\n",
    ("probability",):           # the bytes of `quatspin probability --csv`
        "r_lo,r_hi,probability,quadrature_error\n"
        "0.0,inf,0.9999999999999978,2.775557561562885e-14\n",
}


@pytest.mark.parametrize("argv", list(_CSV_PINNED))
def test_csv_stdout_is_pinned(capsys, argv):
    code, out = _run(capsys, *argv, "--csv")
    assert code == 0
    assert out == _CSV_PINNED[argv]


def _csv_rows_of(rec):
    """The CSV rows a subcommand's JSON record stands for, as dicts in
    column order."""
    cmd = rec["command"]
    if cmd == "energy":
        fields = ["n", "k", "j", "energy", "binding", "s", "C", "error"]
        return [{f: row.get(f) for f in fields} for row in rec["rows"]]
    if cmd == "density":
        return rec["rows"]
    if cmd == "probability":
        return [{"r_lo": rec["params"]["r_lo"], "r_hi": rec["params"]["r_hi"],
                 "probability": rec["probability"],
                 "quadrature_error": rec["quadrature_error"]}]
    if cmd == "spinor":
        p, up, down = rec["params"], rec["component_up"], rec["component_down"]
        return [{"l": rec["l"], "j": rec["j"], "mj": p["mj"],
                 "theta": p["theta"], "phi": p["phi"], **rec["coefficients"],
                 "up_re": up[0], "up_im": up[1],
                 "down_re": down[0], "down_im": down[1],
                 "p_up": rec["p_up"], "p_down": rec["p_down"],
                 "density": rec["density"]}]
    if cmd == "rotate":
        return [{"coefficient": f"e{i}", "rotation_re": a[0],
                 "rotation_im": a[1], "rotated_re": b[0], "rotated_im": b[1]}
                for i, (a, b) in enumerate(zip(rec["rotation"],
                                               rec["rotated_operator"]))]
    assert cmd == "verify"
    return rec["checks"]


def _csv_text(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


@pytest.mark.parametrize("argv", [
    ["energy", "--units", "ev"],
    ["density", "--n", "2", "--k", "1", "--mj", "-0.5", "--grid", "8:4"],
    ["probability", "--n", "3", "--k", "-2", "--r-lo", "0.5", "--r-hi", "4"],
    ["spinor", "--k", "2", "--mj", "-0.5", "--theta", "2.1", "--phi", "0.4"],
    ["rotate", "--axis", "x", "--angle", "0.7", "--target", "Sy"],
    ["verify", "--suite", "rotation"],
])
def test_every_subcommand_writes_its_record_as_csv(capsys, argv):
    code, rec = _run_json(capsys, *argv)
    assert code == 0
    code, out = _run(capsys, *argv, "--csv")
    assert code == 0
    rows = _csv_rows_of(rec)
    assert out.split("\n", 1)[0] == ",".join(rows[0])
    assert list(csv.DictReader(io.StringIO(out))) == [
        {k: _csv_text(v) for k, v in row.items()} for row in rows]


# json is imported only once every call has run, so that the probe itself
# loads none of the modules it reports on
_IMPORT_PROBE = """
import ast, contextlib, io, sys
def loaded():
    scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    return [len(scipy)] + [m in sys.modules for m in
                           ("numpy", "quatspin.verify", "quatspin.pauli_dirac",
                            "dataclasses", "inspect", "argparse", "gettext",
                            "locale", "json", "numbers")]
import quatspin
report = [["import quatspin", 0, *loaded()]]
from quatspin import cli
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([argv[0], code, *loaded()])
import json
print(json.dumps(report))
"""


def _import_probe(*argvs):
    """Import quatspin, then run cli.main on each argv in order, in one
    fresh interpreter.  Returns one row after the import and one after each
    call: [what ran, exit code, number of scipy modules loaded, then
    whether each is loaded: numpy, quatspin.verify, quatspin.pauli_dirac,
    dataclasses, inspect, argparse, gettext, locale, json, numbers]."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           repr(argvs)],
                          capture_output=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_scipy_loaded_only_on_first_use():
    report = _import_probe(["energy"], ["rotate", "--angle", "1.0"],
                           ["spinor"], ["density"], ["probability"],
                           ["probability", "--r-hi", "1"])
    assert [row[:3] for row in report] == [
        ["import quatspin", 0, 0], ["energy", 0, 0], ["rotate", 0, 0],
        ["spinor", 0, 0], ["density", 0, 0], ["probability", 0, 0],
        ["probability", 0, 0]]
    [_, (name, code, n_scipy, *_)] = _import_probe(["verify", "--suite",
                                                    "hydrogen"])
    assert (name, code) == ("verify", 0) and n_scipy > 0


def test_numpy_loaded_only_where_arrays_appear():
    # no subcommand but verify loads numpy, dataclasses or inspect: density
    # and probability run node by node on Python floats; nor does a
    # well-formed call load argparse or json (cli._read, cli._dumps), or
    # numbers (levels._is_int gets plain ints)
    none = [0] + [False]*10
    report = _import_probe(["energy", "--units", "ev"],
                           ["spinor", "--k", "-3", "--mj", "1.5"],
                           *(["rotate", "--axis", axis, "--angle", "0.7",
                              "--target", "Sx"] for axis in "xyz"),
                           ["density", "--grid", "16:8"],
                           ["probability", "--r-hi", "1"],
                           ["rotate", "--axis", "1,2,2", "--angle", "0.7"])
    assert report == [["import quatspin", 0, *none], ["energy", 0, *none],
                      ["spinor", 0, *none], ["rotate", 0, *none],
                      ["rotate", 0, *none], ["rotate", 0, *none],
                      ["density", 0, *none], ["probability", 0, *none],
                      ["rotate", 0, *none]]
    # the defaults, the largest state and grid of the benchmark's mix, and
    # a density table whose 3000 radii run 249 Laguerre steps each
    for argv in (["probability"], ["density"],
                 ["probability", "--n", "32", "--k", "-1", "--z", "92"],
                 ["density", "--n", "32", "--k", "-1", "--z", "92",
                  "--grid", "240:34"],
                 ["density", "--n", "250", "--k", "-1", "--grid", "3000:4"]):
        assert _import_probe(argv)[1] == [argv[0], 0, *none]


@pytest.mark.parametrize("argv, modules", [
    (["energy"], ["cli", "levels"]),
    (["density"], ["cli", "hydrogen", "levels", "special", "spinor"]),
    (["probability"], ["cli", "hydrogen", "levels", "special", "spinor"]),
])
def test_subcommand_loads_only_the_modules_it_runs(argv, modules):
    # no subcommand here forms a biquaternion or a spin basis, so none
    # loads quatspin.biquaternion or quatspin.spin
    probe = ("import contextlib, io, sys\n"
             "from quatspin import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main({argv!r})\n"
             "print(code, *sorted(m for m in sys.modules\n"
             "                    if m.startswith('quatspin.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == [
        "0", *(f"quatspin.{m}" for m in ["_record", *modules])]


def test_argparse_loads_only_for_calls_the_reader_declines():
    # the probe sees the front end's modules: a joined flag and value goes
    # to argparse, which loads gettext and locale; json stays unloaded
    report = _import_probe(["rotate", "--angle", "0.7"],
                           ["rotate", "--angle=0.7"])
    assert [row[8:] for row in report] == [[False]*5, [False]*5,
                                           [True, True, True, False, False]]


@pytest.mark.parametrize("n, k, z", [(20, -1, 1), (1, -1, 92), (40, -1, 1),
                                     (60, 30, 92)])
def test_density_default_grid_is_sized_to_the_state(capsys, n, k, z):
    code = cli.main(["density", "--n", str(n), "--k", str(k),
                     "--z", str(z)])
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert code == 0
    assert rec["params"]["grid"] == f"{max(128, 48 + 6*n)}:{max(32, n + 2)}"
    assert abs(rec["grid_integral"] - 1.0) <= 1e-6
    assert captured.err == ""


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_density_warns_when_the_grid_misses(capsys, fmt):
    code = cli.main(["density", "--n", "20", "--grid", "16:8"] + fmt)
    captured = capsys.readouterr()
    assert code == 0
    assert "warning: grid_integral" in captured.err
    if fmt:
        assert len(list(csv.DictReader(io.StringIO(captured.out)))) == 128
    else:
        rec = json.loads(captured.out)
        assert abs(rec["grid_integral"] - 1.0) > 1e-6
