"""Command-line interface: output schemas, units, exit codes."""

import csv
import io
import json
import math

import pytest

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
    ["verify", "--tol", "nan"],
])
def test_non_finite_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err


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


def test_verify_failure_exit_code(capsys):
    code, rec = _run_json(capsys, "verify", "--suite", "algebra",
                          "--tol", "1e-30")
    assert code == 3
    assert rec["summary"]["failed"] > 0


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


def test_json_round_trip(capsys):
    code, out = _run(capsys, "probability", "--r-hi", "2.5")
    rec = json.loads(out)
    assert json.loads(json.dumps(rec)) == rec
    assert repr(rec["probability"]) in out  # shortest round-trip floats
