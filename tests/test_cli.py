import csv
import functools
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gqm
from gqm import cli, specio
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


# sha256 of the integer-only artifacts of the bundled specs. Float
# artifacts are left out: their last digits depend on the BLAS thread count.
ARTIFACT_SHA256 = {
    ("ratchet.json", "cayley.csv"): "1f3f78cd05eb18e39f7ad9b2abade56373475bdfa5c6f93a72d46b27c083a88b",
    ("ratchet.json", "cayley.json"): "4126e75d5ae729c2196d3bacbc4a7b1b4e20a8084e52485ef73764137d1880e7",
    ("ratchet.json", "axioms.csv"): "ad86253a39384169ec12184314eea6302d2efde4c7c480a2cfe775aaece3781e",
    ("ratchet.json", "axioms.json"): "a8c9aaca6722bed7ca7e9961df030c41055ec56913b775deb7576eac2a117fe3",
    ("qubit.json", "cayley.csv"): "1f3f78cd05eb18e39f7ad9b2abade56373475bdfa5c6f93a72d46b27c083a88b",
    ("qubit.json", "cayley.json"): "4126e75d5ae729c2196d3bacbc4a7b1b4e20a8084e52485ef73764137d1880e7",
    ("qubit.json", "axioms.csv"): "ad86253a39384169ec12184314eea6302d2efde4c7c480a2cfe775aaece3781e",
    ("qubit.json", "axioms.json"): "a8c9aaca6722bed7ca7e9961df030c41055ec56913b775deb7576eac2a117fe3",
    ("pair2.json", "cayley.csv"): "8e190fa44919860e88f6709bea2cfa576ba2e0d1134cf380fbf6b6766873f2e0",
    ("pair2.json", "cayley.json"): "058ca44b4f281fe9b971ac3dbeda71ffb8787d19f35cc0eee128d2bd80099af6",
    ("pair2.json", "axioms.csv"): "ad86253a39384169ec12184314eea6302d2efde4c7c480a2cfe775aaece3781e",
    ("pair2.json", "axioms.json"): "a8c9aaca6722bed7ca7e9961df030c41055ec56913b775deb7576eac2a117fe3",
    ("cyclic_only.json", "cayley.csv"): "3bb0db8a39799a752d371a5029effc8bee5be16e1060b18ca47f800d81f2ab02",
    ("cyclic_only.json", "cayley.json"): "f25bcd5514e8c75a0947dce108663c8e17a2861d1fd70c25eac51f0e02795e35",
    ("cyclic_only.json", "axioms.csv"): "ad86253a39384169ec12184314eea6302d2efde4c7c480a2cfe775aaece3781e",
    ("cyclic_only.json", "axioms.json"): "a8c9aaca6722bed7ca7e9961df030c41055ec56913b775deb7576eac2a117fe3",
}


@pytest.mark.parametrize("name, fname", sorted(ARTIFACT_SHA256))
def test_integer_artifacts_are_byte_identical(specdir, name, fname):
    kind, fmt = fname.split(".")
    verb = {"cayley": "cayley", "axioms": "check"}[kind]
    out = specdir / "out"
    assert run_cli(verb, "--spec", specdir / name, "--out", out, "--format", fmt) == 0
    assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == ARTIFACT_SHA256[name, fname]


TABLE_SPEC = {"groupoid_source": {
    "outcomes": ["x"],
    "transitions": [{"name": "u", "source": "x", "target": "x", "label": 0},
                    {"name": "a", "source": "x", "target": "x", "label": 1}],
    "compose_table": [[0, 1], [1, 0]],
}}


@pytest.mark.parametrize("name", ["table.json", "ratchet.json"])
def test_check_judges_the_axioms_once(specdir, capsys, monkeypatch, name):
    """An explicit table is checked at load; `check` reuses that report.
    A groupoid built without validation is checked by `check` itself."""
    (specdir / "table.json").write_text(json.dumps(TABLE_SPEC))
    calls = []
    check_axioms = gqm.groupoid.check_axioms

    def counted(*args, **kwargs):
        calls.append(args)
        return check_axioms(*args, **kwargs)

    monkeypatch.setattr(gqm.groupoid, "check_axioms", counted)
    monkeypatch.setattr(gqm.cli, "check_axioms", counted)
    assert run_cli("check", "--spec", specdir / name, "--out", specdir / "out") == 0
    assert len(calls) == 1
    assert json.loads((specdir / "out" / "axioms.json").read_text())["ok"] is True


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


def test_non_finite_grid_is_numeric_error(specdir, capsys):
    out = specdir / "huge"
    code = run_cli("evolve", "--spec", specdir / "ratchet.json", "--out", out,
                   "--t-start=-1e308", "--t-stop=1e308", "--t-steps=5")
    assert code == 2
    assert capsys.readouterr().err.startswith("E_NUMERIC:")
    assert not (out / "amplitudes.csv").exists() and not (out / "evolve.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--t-start", "--t-stop"])
def test_non_finite_grid_override_is_grid_error(specdir, capsys, flag, value):
    """The spec's rule for a grid holds for the command-line overrides too."""
    out = specdir / "out"
    assert run_cli("evolve", "--spec", specdir / "qubit.json", "--out", out, f"{flag}={value}") == 2
    assert capsys.readouterr().err.splitlines()[0] == \
        "E_GRID: start and stop must be finite (at grid)"
    assert not out.exists()


def test_non_finite_trajectory_is_numeric_error(specdir, capsys, monkeypatch):
    # amplitudes pass, the GNS trajectory does not: the second guard fires
    def nan_trajectory(sp, s, h, grid):
        return np.full((grid.steps, sp.dim), np.nan, dtype=complex)

    monkeypatch.setattr(gqm.cli, "schrodinger_evolve", nan_trajectory)
    out = specdir / "nan"
    assert run_cli("evolve", "--spec", specdir / "qubit.json", "--out", out) == 2
    assert capsys.readouterr().err.startswith("E_NUMERIC:")
    assert not (out / "evolve.csv").exists()


def test_failing_verb_leaves_no_files(specdir, capsys, monkeypatch):
    monkeypatch.setattr(gqm.cli, "schrodinger_evolve", lambda sp, s, h, grid: np.full(
        (grid.steps, sp.dim), np.nan, dtype=complex))
    before = sorted(specdir.iterdir())
    out = specdir / "new" / "out"
    assert run_cli("gns", "--spec", specdir / "cyclic_only.json", "--out", out) == 2
    # amplitudes.csv is written before the trajectory guard fires
    assert run_cli("evolve", "--spec", specdir / "qubit.json", "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("E_NO_STATE: ") and err[1].startswith("E_NUMERIC: ")
    assert sorted(specdir.iterdir()) == before

    kept = specdir / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("kept")
    assert run_cli("evolve", "--spec", specdir / "qubit.json", "--out", kept) == 2
    assert [p.name for p in kept.iterdir()] == ["note.txt"]
    capsys.readouterr()
    # on success the printed paths are the final ones and no staging is left
    assert run_cli("check", "--spec", specdir / "ratchet.json", "--out", kept) == 0
    assert capsys.readouterr().out.splitlines() == [str(kept / "axioms.json")]
    assert sorted(p.name for p in kept.iterdir()) == ["axioms.json", "note.txt"]
    assert sorted(specdir.iterdir()) == sorted(before + [kept])


def test_unexpected_exception_is_internal_error(specdir, capsys, monkeypatch):
    def broken_writer(built, outdir, fmt):
        raise RuntimeError("writer exploded")

    monkeypatch.setitem(gqm.cli._OUTPUT_WRITERS, "axioms", (broken_writer, "json"))
    code = run_cli("check", "--spec", specdir / "ratchet.json", "--out", specdir / "x")
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("E_INTERNAL:") and "writer exploded" in err
    assert "Traceback" not in err


def test_non_finite_grid_diagnostic_is_first_on_stderr(specdir):
    # a subprocess, because pytest would capture numpy's RuntimeWarnings
    env = {**os.environ, "PYTHONPATH": str(Path(gqm.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "gqm.cli", "evolve", "--spec", str(specdir / "ratchet.json"),
         "--out", str(specdir / "huge"), "--t-start=-1e308", "--t-stop=1e308", "--t-steps=3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0].startswith("E_NUMERIC: ")


@pytest.mark.parametrize("argv, message", [
    (["check"], "the following arguments are required: --spec"),
    ([], "the following arguments are required: command"),
    (["frobnicate", "--spec", "x.json"], "invalid choice: 'frobnicate'"),
    (["evolve", "--spec", "x.json", "--t-steps", "many"], "invalid int value: 'many'"),
    (["check", "--spec", "x.json", "--format", "xml"], "invalid choice: 'xml'"),
])
def test_usage_errors_carry_a_code(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_USAGE: ") and message in err.splitlines()[0]


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gqm")


# verb -> (output kind, default format) of every file it writes
VERB_FILES = {
    "check": [("axioms", "json")],
    "cayley": [("cayley", "csv")],
    "state": [("state", "json")],
    "evolve": [("amplitudes", "csv"), ("evolve", "csv")],
    "measure": [("measure", "json")],
    "gns": [("gns", "json")],
}
# (spec, verb) -> diagnostic code, for verbs the spec cannot serve
VERB_FAILS = {
    **{("cyclic_only.json", v): "E_NO_STATE" for v in ("state", "evolve", "measure", "gns")},
    ("pair2.json", "evolve"): "E_NO_HAMILTONIAN",
}


@pytest.mark.parametrize("verb", sorted(VERB_FILES))
@pytest.mark.parametrize("name", ["ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json"])
def test_every_verb_and_format_writes_its_files(specdir, capsys, name, verb):
    for fmt in (None, "json", "csv"):
        out = specdir / f"{verb}-{fmt}"
        code = run_cli(verb, "--spec", specdir / name, "--out", out,
                       *(["--format", fmt] if fmt else []))
        stdout, stderr = capsys.readouterr()
        if (name, verb) in VERB_FAILS:
            assert code == 2 and stderr.startswith(VERB_FAILS[name, verb] + ": ")
            assert not out.exists()
            continue
        assert code == 0, stderr
        want = [f"{kind}.{fmt or default}" for kind, default in VERB_FILES[verb]]
        assert sorted(p.name for p in out.iterdir()) == sorted(want)
        assert [Path(line).name for line in stdout.splitlines()] == want
        for fname in want:
            path = out / fname
            if path.suffix == ".json":
                assert isinstance(json.loads(path.read_text()), dict)
            else:
                header, rows = read_csv(path)
                assert rows and all(len(row) == len(header) for row in rows)


MANIFEST = json.loads(read_bundled("malformed/manifest.json"))
# (malformed spec, verb) -> the code of a verb other than check, where it is
# not the manifest's (None: the verb succeeds). check validates every part the
# spec declares; the other verbs build only the parts they write, so cayley
# never meets a bad state or Hamiltonian, and bad_hamiltonian.json declares no
# state, which the other writers read first.
PART_CODES = {
    **{(name, "cayley"): None
       for name in ("bad_contradiction.json", "bad_hamiltonian.json", "bad_state.json")},
    **{("bad_hamiltonian.json", verb): "E_NO_STATE"
       for verb in ("state", "evolve", "measure", "gns")},
}


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_malformed_specs_under_every_verb(tmp_path, capsys, name):
    spec = tmp_path / name
    spec.write_bytes(read_bundled(f"malformed/{name}"))
    for verb in VERB_FILES:
        out = tmp_path / verb
        code = run_cli(verb, "--spec", spec, "--out", out)
        stderr = capsys.readouterr().err
        want = MANIFEST[name] if verb == "check" else PART_CODES.get((name, verb), MANIFEST[name])
        if want is None:
            assert code == 0, (verb, stderr)
            assert [p.name for p in out.iterdir()] == [f"{kind}.{fmt}" for kind, fmt in VERB_FILES[verb]]
        else:
            assert code == 2 and stderr.startswith(want + ": "), (verb, stderr)
            assert not out.exists()


@pytest.mark.parametrize("verb, calls", [
    ("check", 1), ("cayley", 0), ("state", 1), ("evolve", 1), ("measure", 1), ("gns", 1),
])
def test_each_verb_builds_the_state_only_if_it_writes_it(specdir, capsys, monkeypatch, verb, calls):
    seen = []
    extend = specio.factorizable_extend

    def counted(*args, **kwargs):
        seen.append(args)
        return extend(*args, **kwargs)

    monkeypatch.setattr(specio, "factorizable_extend", counted)
    assert run_cli(verb, "--spec", specdir / "ratchet.json", "--out", specdir / "out") == 0
    assert len(seen) == calls


def overflow_spec(value):
    return {"groupoid_source": {"pair": [2]}, "state_source": {"phi": [[value, 0]] * 4}}


def test_overflowing_phi_is_a_state_error(tmp_path, capsys):
    # 0.5 (m + m^H) overflows: eigvalsh sees inf, and the unit sum is inf
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(overflow_spec(1e308)))
    for verb in ("check", "state", "evolve", "measure", "gns"):
        assert run_cli(verb, "--spec", spec, "--out", tmp_path / verb) == 2, verb
        assert capsys.readouterr().err.startswith("E_STATE: "), verb
    spec.write_text(json.dumps(overflow_spec(1e307)))
    for verb in ("check", "state"):
        assert run_cli(verb, "--spec", spec, "--out", tmp_path / "ok") == 0, capsys.readouterr().err
    state = json.loads((tmp_path / "ok" / "state.json").read_text())
    assert state["positive_definite"] is True and state["weight"] == pytest.approx(0.5e-307)


def test_overflowing_hamiltonian_is_a_numeric_error(tmp_path, capsys):
    # each coefficient is finite, but pi(h) on the GNS space sums them past 1e308
    spec = tmp_path / "huge_h.json"
    spec.write_text(json.dumps({"groupoid_source": {"cyclic": [2, 2]},
                                "state_source": {"phi": [[1, 0]] * 8},
                                "hamiltonian": {"coeffs": [[1e308, 0]] * 8}}))
    assert run_cli("check", "--spec", spec, "--out", tmp_path / "check") == 0
    out = tmp_path / "gns"
    assert run_cli("gns", "--spec", spec, "--out", out) == 2
    assert capsys.readouterr().err.startswith("E_NUMERIC: ")
    assert not out.exists()


def count_calls(monkeypatch, *targets):
    """Wrap each (owner, attribute) so that every call appends the attribute
    to one shared list, which is returned."""
    calls = []
    for owner, attr in targets:
        fn = getattr(owner, attr)
        monkeypatch.setattr(owner, attr,
                            lambda *a, _fn=fn, _attr=attr, **k: calls.append(_attr) or _fn(*a, **k))
    return calls


@pytest.mark.parametrize("name", ["ratchet.json", "pair2.json"])
def test_character_states_need_no_eigendecomposition(specdir, capsys, monkeypatch, name):
    """A character state's Gram blocks have rank one: the certificate decides
    positivity and GNS, so neither verb diagonalizes anything."""
    calls = count_calls(monkeypatch, (np.linalg, "eigvalsh"), (np.linalg, "eigh"))
    for verb in ("state", "gns"):
        assert run_cli(verb, "--spec", specdir / name, "--out", specdir / verb) == 0
    assert calls == []


def test_identity_gram_block_is_diagonalized(tmp_path, capsys, monkeypatch):
    # Z_2 with phi = (1, 0): the Gram block is the 2x2 identity, of rank two
    spec = tmp_path / "z2.json"
    spec.write_text(json.dumps({"groupoid_source": {"cyclic": [1, 2]},
                                "state_source": {"phi": [[1, 0], [0, 0]]}}))
    calls = count_calls(monkeypatch, (np.linalg, "eigvalsh"), (np.linalg, "eigh"))
    assert run_cli("state", "--spec", spec, "--out", tmp_path / "state") == 0
    assert "eigvalsh" in calls and "eigh" not in calls
    assert run_cli("gns", "--spec", spec, "--out", tmp_path / "gns") == 0
    assert "eigh" in calls
    assert json.loads((tmp_path / "gns" / "gns.json").read_text())["dim"] == 2


def dynamics_spec(g, groupoid_source, character, seed, steps=21):
    """A spec over ``g`` (built as ``groupoid_source`` builds it) with the
    state of phi(a) = e^{i(theta_t(a) - theta_s(a))} character[label(a)],
    a random self-adjoint Hamiltonian and a grid of ``steps`` times."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, g.n_outcomes)
    labels = np.array([t.label for t in g.transitions])
    phi = np.exp(1j * (theta[g.target] - theta[g.source])) * character[labels]
    return {"groupoid_source": groupoid_source,
            "state_source": {"phi": cli._pairs(phi)},
            "hamiltonian": {"coeffs": cli._pairs(gqm.random_self_adjoint(g, rng).coeffs)},
            "grid": {"start": 0.0, "stop": 5.0, "steps": steps}}


def cyclic_spec(n, k, seed=0):
    g = gqm.cyclic_groupoid(n, k)
    return dynamics_spec(g, {"cyclic": [n, k]}, np.exp(2j * np.pi * np.arange(k) / k), seed)


def disconnected_quiver_spec(seed=0):
    """Outcomes a, b, c, d, e over Z_3: a -> b, a loop at c, and d, e isolated,
    so four connected components."""
    labels = ["a", "b", "c", "d", "e"]
    group = gqm.cyclic_group(3)
    arrows = [("a", "b", 1), ("c", "c", 1)]  # (source, target, label)
    g = gqm.generate_from_quiver(gqm.make_quiver(labels, group, arrows, names=("r", "l")))
    source = {"outcomes": labels,
              "group": {"order": 3, "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]},
              "generators": [{"name": name, "source": x, "target": y, "label": label}
                             for name, (x, y, label) in zip(("r", "l"), arrows)]}
    return dynamics_spec(g, source, np.ones(3), seed)


@pytest.mark.parametrize("name, components", [
    ("cyclic_6_4.json", 1), ("ratchet.json", 1), ("disconnected_quiver.json", 4)])
def test_evolve_diagonalizes_once_per_component(specdir, capsys, monkeypatch, name, components):
    """All source-fiber blocks of a connected component are one matrix up to a
    permutation, so evolve runs one eigh per component, isolated outcomes
    included; the character states' Gram blocks need none."""
    spec = specdir / name
    if name != "ratchet.json":
        doc = cyclic_spec(6, 4) if name.startswith("cyclic") else disconnected_quiver_spec()
        spec.write_text(json.dumps(doc))
    calls = count_calls(monkeypatch, (np.linalg, "eigh"))
    assert run_cli("evolve", "--spec", spec, "--out", specdir / "out") == 0, capsys.readouterr().err
    assert len(calls) == components


def read_cells(path):
    return np.array([[float(v) for v in row] for row in read_csv(path)[1]])


def test_artifacts_agree_across_blas_thread_counts(tmp_path):
    """evolve and gns on C_{16,8} give the same numbers on 1 and 2 BLAS threads:
    every CSV cell within 1e-13, and gns.json byte for byte."""
    spec = tmp_path / "c16_8.json"
    spec.write_text(json.dumps(cyclic_spec(16, 8)))
    src = str(Path(gqm.__file__).resolve().parents[1])
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        for verb in ("evolve", "gns"):
            proc = subprocess.run(
                [sys.executable, "-m", "gqm.cli", verb, "--spec", str(spec), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
    for name in ("amplitudes.csv", "evolve.csv"):
        one, two = (read_cells(outs[t] / name) for t in ("1", "2"))
        assert one.shape == two.shape and np.max(np.abs(one - two)) <= 1e-13, name
    assert (outs["1"] / "gns.json").read_bytes() == (outs["2"] / "gns.json").read_bytes()


@pytest.mark.parametrize("name", ["ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json"])
def test_no_verb_builds_the_regular_representation(specdir, capsys, monkeypatch, name):
    calls = count_calls(monkeypatch, *[(owner, "regular_representation")
                                       for owner in (gqm.algebra, gqm.gns, gqm.dynamics, gqm)])
    for verb in VERB_FILES:
        code = run_cli(verb, "--spec", specdir / name, "--out", specdir / verb)
        assert code == (2 if (name, verb) in VERB_FAILS else 0)
    assert calls == []


def count_table_builds(monkeypatch) -> list:
    """Make ``FiniteGroupoid.compose_table`` append to the returned list
    each time it materializes a constructed groupoid's table."""
    calls = []
    build = gqm.FiniteGroupoid.compose_table.func
    prop = functools.cached_property(lambda g: calls.append(g) or build(g))
    prop.__set_name__(gqm.FiniteGroupoid, "compose_table")
    monkeypatch.setattr(gqm.FiniteGroupoid, "compose_table", prop)
    return calls


@pytest.mark.parametrize("name", ["ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json",
                                  "cyclic_16_8.json"])
def test_only_check_and_cayley_build_the_compose_table(specdir, capsys, monkeypatch, name):
    """A constructed groupoid composes through its lookup: of the verbs, only
    check (the axiom judge) and cayley (the table itself) build its |G|² table."""
    if name == "cyclic_16_8.json":
        (specdir / name).write_text(json.dumps(cyclic_spec(16, 8)))
    calls = count_table_builds(monkeypatch)
    for verb in VERB_FILES:
        before = len(calls)
        code = run_cli(verb, "--spec", specdir / name, "--out", specdir / verb)
        assert code == (2 if (name, verb) in VERB_FAILS else 0), capsys.readouterr().err
        assert len(calls) - before == (verb in ("check", "cayley")), verb


# The csv branch of write_cayley before it quoted each name once and streamed the rows.
def reference_cayley_csv(built, outdir: Path) -> Path:
    g = built.groupoid
    names = [gqm.transition_name(g, t) for t in g.transitions]
    table = np.array(names + ["*"], dtype=object)[g.compose_table].tolist()
    rows = [[name] + row for name, row in zip(names, table)]
    with open(outdir / "cayley.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["o"] + names)
        writer.writerows(rows)
    return outdir / "cayley.csv"


@pytest.mark.parametrize("labels", [
    ["a,b", 'say "hi"', "two\nlines", "*"], ["*", "", "\r", ",", '"']])
def test_cayley_csv_quotes_cells_as_the_csv_writer_did(tmp_path, labels):
    spec = specio.parse_spec(json.dumps(
        {"groupoid_source": {"cyclic": [len(labels), 2], "labels": labels}}).encode())
    built = specio.build_experiment(spec)
    for out in ("new", "reference"):
        (tmp_path / out).mkdir()
    new = cli.write_cayley(built, tmp_path / "new", "csv").read_bytes()
    assert new == reference_cayley_csv(built, tmp_path / "reference").read_bytes()
    if not any("\r" in label for label in labels):  # the writer leaves a lone \r unquoted
        header, _ = read_csv(tmp_path / "new" / "cayley.csv")
        assert header[1:] == [gqm.transition_name(built.groupoid, t)
                              for t in built.groupoid.transitions]


def test_output_tables_agree():
    """Every spec output kind has a writer, and so does every verb's kind;
    the state writer is the one kind a spec cannot request."""
    assert set(specio.OUTPUT_KINDS) == set(cli._OUTPUT_WRITERS) - {"state"}
    assert all(kind in cli._OUTPUT_WRITERS for _, kinds in cli._VERBS.values() for kind in kinds)


BUNDLED = ("ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json")


def edited_ratchet(keys, value):
    """The bundled ratchet spec with the field at ``keys`` set to ``value``."""
    doc = json.loads(read_bundled("ratchet.json"))
    *head, last = keys
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


GROUP = ("groupoid_source", "group")
TABLE = GROUP + ("table",)
PHASE = ("state_source", "alpha_1", "phase")


@pytest.mark.parametrize("text, code", [
    (edited_ratchet(TABLE + (0, 1), 1.9), "E_GROUP_TABLE"),
    (edited_ratchet(TABLE + (0, 1), True), "E_GROUP_TABLE"),
    (edited_ratchet(TABLE + (0, 1), "1"), "E_GROUP_TABLE"),
    (edited_ratchet(TABLE, 1e308), "E_GROUP_TABLE"),
    (edited_ratchet(TABLE + (0, 1), 10**30), "E_GROUP_TABLE"),
    (edited_ratchet(GROUP + ("order",), 3.0), "E_GROUP_TABLE"),
    (edited_ratchet(GROUP, {"order": True, "table": [[0]]}), "E_GROUP_TABLE"),
    ('{"groupoid_source": {"pair": [' + "1" * 4301 + "]}}", "E_SYNTAX"),
    ('{"name": ' + "[" * 100000 + "]" * 100000 + "}", "E_SYNTAX"),
    (edited_ratchet(PHASE, "-" * 990 + "1"), "E_PARAM"),
    (edited_ratchet(PHASE, "-" * 3000 + "1"), "E_PARAM"),
    (edited_ratchet(PHASE, "-" * 100000 + "1"), "E_PARAM"),
], ids=["float-entry", "bool-entry", "string-entry", "float-table", "huge-entry",
        "float-order", "bool-order", "long-int", "deep-arrays", "phase-990", "phase-3000",
        "phase-100000"])
def test_hostile_specs_fail_with_a_code(tmp_path, capsys, text, code):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run_cli("check", "--spec", spec, "--out", tmp_path / "out") == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(code + ": ")
    if code == "E_PARAM":
        assert first.endswith("(at state_source.alpha_1.phase)")


def json_paths(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from json_paths(val, path + (key,))


@settings(deadline=None)
@given(st.sampled_from(BUNDLED), st.sampled_from(sorted(VERB_FILES)), st.data())
def test_edited_bundled_specs_never_crash(name, verb, data):
    doc = json.loads(read_bundled(name))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *head, last = data.draw(st.sampled_from(paths))
        node = doc
        for key in head:
            node = node[key]
        if data.draw(st.booleans()):
            del node[last]
        else:
            node[last] = data.draw(st.integers(-2, 8))
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main([verb, "--spec", str(spec), "--out", str(Path(tmp) / "out")]) in (0, 2)


def test_perfbench_bindings_resolve():
    """Every name the benchmark tracer wraps must still exist."""
    spans_py = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not spans_py.exists():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans.bindings(gqm.cli):
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
    for kind, entry in gqm.cli._OUTPUT_WRITERS.items():
        writer, fmt = entry
        assert inspect.isfunction(writer) and writer.__name__.startswith("write_"), kind
        assert fmt in ("json", "csv"), kind
