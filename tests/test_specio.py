import json
import math

import numpy as np
import pytest

import gqm
from gqm.specio import (
    CyclicSource,
    GeneratorStateSource,
    PairSource,
    QuiverSource,
    SpecError,
    build_experiment,
    eval_expr,
    parse_spec,
    print_spec,
    read_bundled,
    spec_from_json,
)

VALID_BUNDLED = ["ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json"]


@pytest.mark.parametrize("name", VALID_BUNDLED)
def test_bundled_specs_parse_and_roundtrip(name):
    spec = parse_spec(read_bundled(name))
    assert parse_spec(print_spec(spec)) == spec


@pytest.mark.parametrize("name", VALID_BUNDLED)
def test_bundled_specs_build(name):
    built = build_experiment(parse_spec(read_bundled(name)))
    assert gqm.check_axioms(built.groupoid).ok


def test_malformed_specs_yield_designated_codes():
    manifest = json.loads(read_bundled("malformed/manifest.json"))
    assert len(manifest) >= 12
    for fname, want in sorted(manifest.items()):
        with pytest.raises(SpecError) as err:
            build_experiment(parse_spec(read_bundled(f"malformed/{fname}")))
        assert err.value.code == want, fname


def test_ratchet_spec_contents():
    spec = parse_spec(read_bundled("ratchet.json"))
    assert isinstance(spec.groupoid_source, QuiverSource)
    assert spec.name == "ratchet"
    assert spec.grid == gqm.TimeGrid(0.0, 10.0, 101)
    assert set(spec.requested_outputs) == {
        "cayley", "axioms", "amplitudes", "measure", "gns", "evolve"
    }
    built = build_experiment(spec)
    assert built.groupoid.n_transitions == 12
    assert built.state is not None and built.state.weight == pytest.approx(0.5)
    assert built.hamiltonian is not None
    assert gqm.is_self_adjoint(built.groupoid, built.hamiltonian.element)


def test_constructor_sources():
    spec = spec_from_json({"groupoid_source": {"cyclic": [2, 3]}})
    assert spec.groupoid_source == CyclicSource(2, 3, None)
    g, quiver = __import__("gqm.specio", fromlist=["build_groupoid"]).build_groupoid(
        spec.groupoid_source
    )
    assert g.n_transitions == 12 and quiver is None

    spec = spec_from_json({"groupoid_source": {"pair": [4], "labels": ["a", "b", "c", "d"]}})
    assert spec.groupoid_source == PairSource(4, ("a", "b", "c", "d"))


def test_explicit_source_build():
    doc = {
        "groupoid_source": {
            "outcomes": ["x"],
            "transitions": [
                {"name": "e", "source": "x", "target": "x", "label": 0},
                {"name": "g", "source": "x", "target": "x", "label": 1},
            ],
            "compose_table": [[0, 1], [1, 0]],
        }
    }
    built = build_experiment(spec_from_json(doc))
    assert built.groupoid.n_transitions == 2
    spec = spec_from_json(doc)
    assert parse_spec(print_spec(spec)) == spec


def test_generator_state_requires_quiver():
    doc = {
        "groupoid_source": {"cyclic": [2, 3]},
        "state_source": {"alpha_1": {"phase": 0.0}, "params": {}},
    }
    with pytest.raises(SpecError) as err:
        build_experiment(spec_from_json(doc))
    assert err.value.code == "E_STATE"


def test_phi_state_weight_check():
    doc = {
        "groupoid_source": {"pair": [2]},
        "state_source": {"phi": [[1, 0], [1, 0], [1, 0], [1, 0]], "weight": 0.5},
    }
    built = build_experiment(spec_from_json(doc))
    assert built.state.weight == pytest.approx(0.5)
    doc["state_source"]["weight"] = 0.3
    with pytest.raises(SpecError) as err:
        build_experiment(spec_from_json(doc))
    assert err.value.code == "E_STATE"


def test_expression_evaluation():
    assert eval_expr("2*pi/3", {}) == pytest.approx(2 * math.pi / 3)
    assert eval_expr("delta - s", {"delta": 2.0, "s": 0.5}) == pytest.approx(1.5)
    assert eval_expr("-s + 1", {"s": 0.25}) == pytest.approx(0.75)
    assert eval_expr(0.7, {}) == pytest.approx(0.7)
    for bad in ("s +", "2**3", "foo(1)", "x", "1/0"):
        with pytest.raises(SpecError) as err:
            eval_expr(bad, {"s": 1.0})
        assert err.value.code == "E_PARAM"


def test_unknown_top_level_field():
    with pytest.raises(SpecError) as err:
        spec_from_json({"groupoid_source": {"pair": [1]}, "bogus": 1})
    assert err.value.code == "E_SCHEMA"


def test_duplicate_outcome_labels_rejected():
    with pytest.raises(SpecError) as err:
        spec_from_json({
            "groupoid_source": {
                "outcomes": ["x", "x"],
                "group": {"order": 1, "table": [[0]]},
                "generators": [],
            }
        })
    assert err.value.code == "E_OUTCOME"


def test_grid_validation_codes():
    base = {"groupoid_source": {"pair": [1]}}
    for bad in (
        {"start": 1.0, "stop": 0.0, "steps": 5},
        {"start": 0.0, "stop": 1.0, "steps": -1},
        {"start": 0.0, "stop": 1.0},
        {"start": float("nan"), "stop": 1.0, "steps": 2},
    ):
        with pytest.raises(SpecError) as err:
            spec_from_json({**base, "grid": bad})
        assert err.value.code == "E_GRID"


def test_nan_grid_rejected_via_json_text():
    with pytest.raises(SpecError) as err:
        parse_spec(b'{"groupoid_source": {"pair": [1]}, "grid": {"start": NaN, "stop": 1.0, "steps": 2}}')
    assert err.value.code == "E_GRID"


def test_non_utf8_is_syntax_error():
    with pytest.raises(SpecError) as err:
        parse_spec(b"\xff\xfe{}")
    assert err.value.code == "E_SYNTAX"


def test_generator_state_source_normalizes_sorted():
    doc = {
        "groupoid_source": read_ratchet_groupoid(),
        "state_source": {
            "beta_1": {"phase": "delta - s"},
            "alpha_1": {"phase": "s"},
            "params": {"s": 0.7, "delta": 2.0943951023931953},
        },
    }
    spec = spec_from_json(doc)
    assert isinstance(spec.state_source, GeneratorStateSource)
    assert [n for n, _ in spec.state_source.phases] == ["alpha_1", "beta_1"]
    assert parse_spec(print_spec(spec)) == spec


def read_ratchet_groupoid():
    return json.loads(read_bundled("ratchet.json"))["groupoid_source"]


def test_bundled_ratchet_state_matches_library_state(ratchet_state):
    built = build_experiment(parse_spec(read_bundled("ratchet.json")))
    assert np.max(np.abs(built.state.phi.values - ratchet_state.phi.values)) < 1e-12


def test_run_produces_requested_artifacts(tmp_path):
    from gqm.cli import run

    spec = parse_spec(read_bundled("ratchet.json"))
    written = run(spec, tmp_path / "arts")
    names = sorted(p.name for p in written)
    assert names == sorted([
        "cayley.csv", "axioms.json", "amplitudes.csv",
        "measure.json", "gns.json", "evolve.csv",
    ])
    spec2 = parse_spec(read_bundled("cyclic_only.json"))
    written2 = run(spec2, tmp_path / "arts2")
    assert sorted(p.name for p in written2) == ["axioms.json", "cayley.csv"]


def test_hamiltonian_takes_only_coeffs():
    for extra in ({"check_selfadjoint": True}, {"groupoid": "thing"}):
        doc = {"groupoid_source": {"pair": [1]}, "hamiltonian": {"coeffs": [[1, 0]], **extra}}
        with pytest.raises(SpecError) as err:
            spec_from_json(doc)
        assert err.value.code == "E_SCHEMA" and err.value.path == f"hamiltonian.{next(iter(extra))}"


@pytest.mark.parametrize("doc, code", [
    ({"groupoid_source": {"cyclic": [True, 2]}}, "E_SCHEMA"),
    ({"groupoid_source": {"pair": [1]}, "grid": {"start": 0, "stop": 1, "steps": True}}, "E_GRID"),
    ({"groupoid_source": {"pair": [1]}, "grid": {"start": False, "stop": 1, "steps": 2}}, "E_GRID"),
    ({"groupoid_source": {"pair": [1]}, "hamiltonian": {"coeffs": [[True, 0]]}}, "E_SCHEMA"),
    ({"groupoid_source": {"pair": [1]}, "state_source": {"phi": [[1, 0]], "weight": True}}, "E_STATE"),
    ({"groupoid_source": {"pair": [1]}, "state_source": {"g0": {"phase": True}}}, "E_PARAM"),
    ({"groupoid_source": {"pair": [1]},
      "state_source": {"g0": {"phase": "s"}, "params": {"s": True}}}, "E_PARAM"),
    # integers beyond the float range are not numbers either
    ({"groupoid_source": {"pair": [1]}, "grid": {"start": 0, "stop": 10**400, "steps": 2}}, "E_GRID"),
    ({"groupoid_source": {"pair": [1]}, "hamiltonian": {"coeffs": [[10**400, 0]]}}, "E_SCHEMA"),
    ({"groupoid_source": {"pair": [1]},
      "state_source": {"g0": {"phase": "1" + "0" * 400}, "params": {}}}, "E_PARAM"),
])
def test_non_numbers_are_rejected(doc, code):
    with pytest.raises(SpecError) as err:
        spec_from_json(doc)
    assert err.value.code == code
