import csv
import json

import numpy as np
import pytest

import gqm
from gqm.cli import main
from gqm.specio import read_bundled

from golden_c23 import COL_ORDER, ROW_ORDER, golden_compose


@pytest.fixture
def specdir(tmp_path):
    for name in ("ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json"):
        (tmp_path / name).write_bytes(read_bundled(name))
    (tmp_path / "bad.json").write_bytes(read_bundled("malformed/bad_group_table.json"))
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_check_writes_axiom_report(specdir):
    out = specdir / "out"
    assert run_cli("check", "--spec", specdir / "ratchet.json", "--out", out) == 0
    report = json.loads((out / "axioms.json").read_text())
    assert report["ok"] is True and report["violations"] == []


def test_cayley_matches_golden_table(specdir, c23, ids):
    out = specdir / "out"
    assert run_cli("cayley", "--spec", specdir / "ratchet.json", "--out", out) == 0
    header, rows = read_csv(out / "cayley.csv")
    cli_name = {name: gqm.transition_name(c23, tid) for name, tid in ids.items()}
    col_of = {name: header.index(cli_name[name]) for name in COL_ORDER}
    by_row = {row[0]: row for row in rows}
    for rname in ROW_ORDER:
        row = by_row[cli_name[rname]]
        for cname in COL_ORDER:
            want = golden_compose(rname, cname)
            got = row[col_of[cname]]
            assert got == ("*" if want is None else cli_name[want]), (rname, cname)


def test_evolve_ratchet_amplitudes_constant(specdir):
    out = specdir / "out"
    assert run_cli("evolve", "--spec", specdir / "ratchet.json", "--out", out) == 0
    header, rows = read_csv(out / "amplitudes.csv")
    assert len(rows) == 101
    re_pp = header.index("re(+<-+)")
    im_pp = header.index("im(+<-+)")
    re_mp = header.index("re(-<-+)")
    im_mp = header.index("im(-<-+)")
    for row in rows:
        assert abs(float(row[re_pp]) - 0.5) < 1e-10
        assert abs(float(row[im_pp])) < 1e-10
        assert abs(complex(float(row[re_mp]), float(row[im_mp]))) < 1e-10
    norms = [float(r[-1]) for r in read_csv(out / "evolve.csv")[1]]
    assert max(abs(v - 1.0) for v in norms) < 1e-10


def test_evolve_qubit_amplitudes(specdir):
    out = specdir / "out"
    assert run_cli("evolve", "--spec", specdir / "qubit.json", "--out", out) == 0
    header, rows = read_csv(out / "amplitudes.csv")
    re_pp = header.index("re(+<-+)")
    for row in rows:
        t = float(row[0])
        assert abs(float(row[re_pp]) - 0.5 * np.cos(t / 2)) < 1e-10


def test_evolve_grid_override(specdir):
    out = specdir / "out_grid"
    assert run_cli(
        "evolve", "--spec", specdir / "qubit.json", "--out", out,
        "--t-start", 0, "--t-stop", 1, "--t-steps", 5,
    ) == 0
    _, rows = read_csv(out / "amplitudes.csv")
    assert [float(r[0]) for r in rows] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])


def test_measure_and_gns_outputs(specdir):
    out = specdir / "out"
    assert run_cli("measure", "--spec", specdir / "ratchet.json", "--out", out) == 0
    measure = json.loads((out / "measure.json").read_text())
    for key, entry in measure["fiber_measures"].items():
        assert entry["mu"] == pytest.approx(entry["amplitude_sq"], abs=1e-12)
    assert measure["reproducibility_defect"]["normalized"] < 1e-12

    assert run_cli("gns", "--spec", specdir / "ratchet.json", "--out", out) == 0
    gns = json.loads((out / "gns.json").read_text())
    assert gns["dim"] == 2
    assert np.array(gns["gram_eigenvalues"]) == pytest.approx([3.0, 3.0])
    ham = np.array(gns["hamiltonian_matrix"])
    assert np.max(np.abs(ham)) < 1e-12  # destructive interference


def test_state_output(specdir):
    out = specdir / "out"
    assert run_cli("state", "--spec", specdir / "ratchet.json", "--out", out) == 0
    state = json.loads((out / "state.json").read_text())
    assert state["weight"] == pytest.approx(0.5)
    assert state["unitary"] and state["factorizable"] and state["positive_definite"]
    assert len(state["phi"]) == 12


def test_json_format_variant(specdir):
    out = specdir / "outjson"
    assert run_cli("cayley", "--spec", specdir / "ratchet.json", "--out", out,
                   "--format", "json") == 0
    doc = json.loads((out / "cayley.json").read_text())
    assert len(doc["transitions"]) == 12
    assert sum(1 for row in doc["table"] for v in row if v is None) == 72
    assert run_cli("measure", "--spec", specdir / "pair2.json", "--out", out,
                   "--format", "csv") == 0
    header, rows = read_csv(out / "measure.csv")
    assert header == ["key", "value"]


def test_outputs_are_deterministic(specdir):
    out1, out2 = specdir / "d1", specdir / "d2"
    for out in (out1, out2):
        for verb in ("check", "cayley", "evolve", "measure", "gns", "state"):
            assert run_cli(verb, "--spec", specdir / "ratchet.json", "--out", out) == 0
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_missing_state_is_diagnosed(specdir, capsys):
    code = run_cli("state", "--spec", specdir / "cyclic_only.json", "--out", specdir / "x")
    assert code != 0
    assert "E_NO_STATE" in capsys.readouterr().err


def test_missing_hamiltonian_is_diagnosed(specdir, capsys):
    code = run_cli("evolve", "--spec", specdir / "pair2.json", "--out", specdir / "x")
    assert code != 0
    assert "E_NO_HAMILTONIAN" in capsys.readouterr().err


def test_bad_spec_exit_code_and_diagnostic(specdir, capsys):
    code = run_cli("check", "--spec", specdir / "bad.json", "--out", specdir / "x")
    assert code == 2
    assert "E_GROUP_TABLE" in capsys.readouterr().err


def test_missing_file_is_io_error(specdir, capsys):
    code = run_cli("check", "--spec", specdir / "nope.json", "--out", specdir / "x")
    assert code == 3
    assert "E_IO" in capsys.readouterr().err


def test_pair2_gns_output(specdir):
    out = specdir / "outp"
    assert run_cli("gns", "--spec", specdir / "pair2.json", "--out", out) == 0
    gns = json.loads((out / "gns.json").read_text())
    assert gns["dim"] == 2
    fv = np.array([complex(re, im) for re, im in gns["feynman_vector"]])
    assert np.vdot(fv, fv).real == pytest.approx(4.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
def test_non_finite_grid_is_numeric_error(specdir, capsys):
    out = specdir / "huge"
    code = run_cli("evolve", "--spec", specdir / "ratchet.json", "--out", out,
                   "--t-start=-1e308", "--t-stop=1e308", "--t-steps=5")
    assert code == 2
    assert capsys.readouterr().err.startswith("E_NUMERIC:")
    assert not (out / "amplitudes.csv").exists() and not (out / "evolve.csv").exists()


def test_non_finite_trajectory_is_numeric_error(specdir, capsys, monkeypatch):
    # amplitudes pass, the GNS trajectory does not: the second guard fires
    def nan_trajectory(sp, s, h, grid):
        return np.full((grid.steps, sp.dim), np.nan, dtype=complex)

    monkeypatch.setattr(gqm.cli, "schrodinger_evolve", nan_trajectory)
    out = specdir / "nan"
    assert run_cli("evolve", "--spec", specdir / "qubit.json", "--out", out) == 2
    assert capsys.readouterr().err.startswith("E_NUMERIC:")
    assert not (out / "evolve.csv").exists()


def test_unexpected_exception_is_internal_error(specdir, capsys, monkeypatch):
    def broken_writer(built, outdir, fmt):
        raise RuntimeError("writer exploded")

    monkeypatch.setitem(gqm.cli._OUTPUT_WRITERS, "axioms", (broken_writer, "json"))
    code = run_cli("check", "--spec", specdir / "ratchet.json", "--out", specdir / "x")
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("E_INTERNAL:") and "writer exploded" in err
    assert "Traceback" not in err
