"""Tests of the benchmark itself: generators, gate, tracer and metadata.

Run from the root of the checkout: ``python3 -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gqm.cli as cli  # noqa: E402
from gqm.specio import build_experiment, parse_spec  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import specgen  # noqa: E402
from worker import run_op  # noqa: E402

EXPECTED_SIZE = {"evolve_dense": 144, "structure_quiver": 384}


@pytest.fixture
def runner(request):
    r = run.OpRunner(ROOT, request.param)
    yield r
    r.close()


def run_checked(runner, op):
    calls, expect = runner.prepare(op)
    _, results = run_op(cli, calls)
    return calls, expect, {"results": results}


@pytest.mark.parametrize("workload", specgen.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 3])
def test_generated_specs_build_with_expected_size(workload, seed):
    n_ops = len(specgen.SMALL_SCHEDULE) if workload == "small_specs" else 2
    for index in range(n_ops):
        op = specgen.generate(workload, seed, index)
        g = build_experiment(parse_spec(op.spec)).groupoid
        if workload in EXPECTED_SIZE:
            assert g.n_transitions == EXPECTED_SIZE[workload]
        else:
            assert g.n_transitions <= 12
        # the generator's own enumeration matches the program's transition order
        assert [(t.target, t.label, t.source) for t in g.transitions] == list(op.triples) \
            or op.shape == "ratchet_table"
        assert g.n_transitions == op.n_transitions
        assert len(g.pair_left) == op.composable_pairs


def test_generation_is_seeded():
    a = specgen.generate("structure_quiver", 5, 2)
    assert a.spec == specgen.generate("structure_quiver", 5, 2).spec
    assert a.spec != specgen.generate("structure_quiver", 5, 3).spec
    assert a.spec != specgen.generate("structure_quiver", 6, 2).spec


@pytest.mark.parametrize("runner", ["small_specs"], indirect=True)
def test_gate_passes_and_flags_corruption(runner):
    op = specgen.generate("small_specs", 1, 0)
    assert op.shape == "ratchet" and op.verbs == specgen.FULL_VERBS
    calls, expect, reply = run_checked(runner, op)
    assert len(calls) == len(op.verbs) + 13
    assert runner.check(op, calls, expect, reply) == []

    out = runner.out
    evolve = (out / "evolve.csv").read_text()
    lines = evolve.splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.001"
    (out / "evolve.csv").write_text("\n".join(lines) + "\n")
    assert any("norm" in p for p in runner.check(op, calls, expect, reply))
    (out / "evolve.csv").write_text(evolve)

    cayley = (out / "cayley.csv").read_text()
    (out / "cayley.csv").write_text(cayley.replace("*", "+|0|+", 1))
    assert any("'*' cells" in p for p in runner.check(op, calls, expect, reply))
    (out / "cayley.csv").write_text(cayley)

    gns = json.loads((out / "gns.json").read_text())
    gns["gram_eigenvalues"][0] *= 1.5
    (out / "gns.json").write_text(json.dumps(gns))
    assert any("gns" in p for p in runner.check(op, calls, expect, reply))

    wrong = list(expect)
    wrong[1] = "E_NOT_A_CODE"
    assert any("E_NOT_A_CODE" in p for p in runner.check(op, calls, wrong, reply))


@pytest.mark.parametrize("runner", ["structure_quiver"], indirect=True)
def test_gate_flags_measure_and_axioms(runner):
    op = specgen.generate("structure_quiver", 2, 0)
    calls, expect, reply = run_checked(runner, op)
    assert runner.check(op, calls, expect, reply) == []
    measure = json.loads((runner.out / "measure.json").read_text())
    key = sorted(measure["fiber_measures"])[0]
    measure["fiber_measures"][key]["mu"] += 0.5
    (runner.out / "measure.json").write_text(json.dumps(measure))
    (runner.out / "axioms.json").write_text(json.dumps({"ok": False}))
    problems = runner.check(op, calls, expect, reply)
    assert any("mu" in p for p in problems) and any("axioms" in p for p in problems)


@pytest.mark.parametrize("runner", ["small_specs"], indirect=True)
def test_reference_matches_and_detects_drift(runner):
    ref = json.loads((run.HERE / "reference.json").read_text())
    entry = ref["workloads"]["small_specs"][0]
    op = specgen.generate("small_specs", ref["seed"], entry["index"])
    calls, expect, reply = run_checked(runner, op)
    inv = gate.invariants(op, runner.out)
    assert set(inv) == {"amplitudes", "overlap_abs", "gram_eigenvalues",
                        "hamiltonian_spectrum", "fiber_mu"}
    assert gate.compare(inv, entry["invariants"], ref["tolerance"]) == []
    inv["amplitudes"][5][0][1] += 1e-6
    assert gate.compare(inv, entry["invariants"], ref["tolerance"]) != []


@pytest.mark.parametrize("runner", ["small_specs"], indirect=True)
def test_span_tree_nests_and_counts(runner):
    op = specgen.generate("small_specs", 4, specgen.SMALL_SCHEDULE.index("qubit"))
    calls, expect = runner.prepare(op)
    tracer = spans.Tracer(cli)
    tracer.op = 7
    tracer.install()
    try:
        wall, results = run_op(cli, calls)
    finally:
        tracer.uninstall()
    assert cli.main.__name__ == "main"  # originals restored
    assert all(w[0].__name__.startswith("write_") for w in cli._OUTPUT_WRITERS.values())
    assert runner.check(op, calls, expect, {"results": results}) == []

    recorded = tracer.spans
    assert recorded and all(s is not None and s[4] == 7 for s in recorded)
    for name, start, end, parent, _, _ in recorded:
        assert start <= end
        if parent is not None:
            p = recorded[parent]
            assert p[1] <= start and end <= p[2], (name, p[0])
    selfs = spans.self_times(recorded)
    assert min(selfs) > -1e-9
    m = spans.op_metrics(recorded, range(len(recorded)), selfs, wall, runner.distinct_specs(calls))
    assert set(m) | {"trace.overhead_frac"} == set(spans.METRICS)
    assert m["dynamics.exponential_calls"] == 4 * specgen.SMALL_STEPS
    assert m["dynamics.exp_reuse_ratio"] == pytest.approx(1 / 4)
    assert m["cli.files_written"] == 7  # amplitudes and evolve come from one verb
    assert m["specio.errors"] == 13
    assert 0.9 < m["trace.coverage_frac"] <= 1.0
    layer_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    top = sum(s[2] - s[1] for s in recorded if s[3] is None)
    assert layer_total == pytest.approx(top, rel=1e-9)


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail(list(range(40)), 75)[0] == 75
    assert run.tail(list(range(39)), 75)[0] == 50
    assert run.tail(list(range(1000)), 75)[0] == 75
    assert run.tail(list(range(199)), 95)[0] == 90
    assert run.tail(list(range(800)), 95) == (95, pytest.approx(759.05))
    assert run.tail([1.0] * 5, 95) == (50, 1.0)


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(specgen.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == \
        {k: v[:2] for k, v in spans.METRICS.items()}
    names = [m["name"] for m in doc["end_to_end"]]
    assert "setup_s" in names and len(names) == len(set(names))
    assert doc["command"] == ["python3", "perfbench/run.py"]


def test_worker_env_caps_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "64")
    env = run.worker_env()
    assert all(1 <= int(env[v]) <= run.nproc() for v in run.THREAD_VARS)


def test_scaled_times_use_the_calibration_around_each_op():
    nominal = run.calib.NOMINAL_S
    # the machine runs at half speed from op 3 on; op 2 ends in the slow phase
    times = [1.0, 1.0, 1.5, 2.0, 2.0]
    cals = [nominal, nominal, nominal, 2 * nominal, 2 * nominal]
    assert run.scaled(times, cals) == pytest.approx([1.0] * 5)
