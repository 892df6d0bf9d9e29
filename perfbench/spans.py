"""Layer spans for the traced run, and the per-layer metrics derived from them.

The tracer wraps the public functions of ``gqm`` at the module bindings their
callers use (``gqm.cli.amplitude_grid``, ``gqm.dynamics.exponential``, ...),
so the program itself is unchanged. ``gqm.cli`` dispatches most writers
through the ``_OUTPUT_WRITERS`` table, which holds the functions it was built
with; the tracer wraps those table entries, because patching
``gqm.cli.write_*`` would miss them.

A span is ``(name, start, end, parent, op, attrs)``. Spans stay in memory and
are written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children; a layer's self time is the sum of
the self times of its spans.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LAYERS = ("specio", "groupoid", "states", "algebra", "gns", "measure", "dynamics", "cli")

# per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
METRICS = {
    "specio.parse_s": ("s", "lower", "op_p50_s on small_specs"),
    "specio.parse_calls": ("count", "lower", "op_p50_s on small_specs"),
    "specio.build_s": ("s", "lower", "op_p50_s on small_specs"),
    "specio.builds_per_spec": ("ratio", "lower", "op_p50_s on small_specs and structure_quiver"),
    "specio.errors": ("count", "higher", "op_p50_s on small_specs"),
    "groupoid.build_s": ("s", "lower", "op_p50_s on structure_quiver"),
    "groupoid.check_axioms_s": ("s", "lower", "op_p50_s on structure_quiver"),
    "groupoid.transitions": ("count", "lower", "op_p50_s on structure_quiver"),
    "groupoid.composable_pairs": ("count", "lower", "op_p50_s on structure_quiver"),
    "groupoid.compose_table_bytes_computed": ("B", "lower", "op_p50_s on structure_quiver"),
    "states.extend_s": ("s", "lower", "op_p50_s on structure_quiver"),
    "states.positivity_s": ("s", "lower", "op_p50_s on structure_quiver"),
    "states.state_from_phi_s": ("s", "lower", "op_p50_s on structure_quiver"),
    "algebra.regular_representation_s": ("s", "lower", "op_p50_s on evolve_dense; peak_rss_mb on evolve_dense and structure_quiver"),
    "algebra.regular_representation_calls": ("count", "lower", "op_p50_s on evolve_dense"),
    "algebra.convolve_s": ("s", "lower", "op_p50_s on evolve_dense"),
    "algebra.convolve_calls": ("count", "lower", "op_p50_s on evolve_dense"),
    "algebra.dense_bytes_computed": ("B", "lower", "peak_rss_mb on evolve_dense and structure_quiver"),
    "gns.gram_s": ("s", "lower", "op_p50_s on structure_quiver and evolve_dense"),
    "gns.build_s": ("s", "lower", "op_p50_s on structure_quiver and evolve_dense"),
    "gns.represent_s": ("s", "lower", "op_p50_s on structure_quiver and evolve_dense"),
    "gns.represent_calls": ("count", "lower", "op_p50_s on structure_quiver and evolve_dense"),
    "gns.dim": ("count", "lower", "peak_rss_mb on structure_quiver and evolve_dense"),
    "gns.eigh_dim": ("count", "lower", "op_p50_s and peak_rss_mb on structure_quiver and evolve_dense"),
    "measure.quantum_measure_s": ("s", "lower", "op_p50_s on structure_quiver and small_specs"),
    "measure.quantum_measure_calls": ("count", "lower", "op_p50_s on structure_quiver and small_specs"),
    "measure.amplitude_matrix_s": ("s", "lower", "op_p50_s on structure_quiver and small_specs"),
    "measure.reproducibility_s": ("s", "lower", "op_p50_s on structure_quiver and small_specs"),
    "dynamics.spectrum_s": ("s", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.spectrum_calls": ("count", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.exponential_s": ("s", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.exponential_calls": ("count", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.exp_reuse_ratio": ("ratio", "higher", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.amplitude_grid_s": ("s", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.schrodinger_s": ("s", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "dynamics.exponential_flops_computed": ("flop", "lower", "op_p50_s and ops_per_s on evolve_dense"),
    "cli.write_s": ("s", "lower", "op_p50_s on small_specs and structure_quiver"),
    "cli.bytes_written": ("B", "lower", "op_p50_s on small_specs and structure_quiver"),
    "cli.files_written": ("count", "lower", "op_p50_s on small_specs"),
    **{f"{layer}.self_s": ("s", "lower", "op_p50_s on the workload where this layer leads")
       for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower", "none: traced op_p50_s / untraced op_p50_s - 1"),
    "trace.coverage_frac": ("ratio", "higher", "none: top-level span time / op wall time"),
}


# ------------------------------------------------------------------ tracer

def _groupoid_attrs(args, res):
    if not hasattr(res, "compose_table"):  # group tables and quivers carry no size
        return {}
    return {"transitions": res.n_transitions, "pairs": len(res.pair_left),
            "ct_bytes": res.compose_table.nbytes}


def _exp_attrs(args, res):
    n = args[0].n_transitions
    return {"t": float(args[2]), "flops": 8 * n ** 3}  # one dense complex n x n product


def _file_attrs(args, res):
    return {"bytes": res.stat().st_size}


def bindings(gqm_cli):
    """(owner, attribute, span name, attrs) for every wrapped callable."""
    import gqm.dynamics as dyn
    import gqm.groupoid as grp
    import gqm.gns as gns
    import gqm.specio as specio
    import gqm.states as states

    out = [(gqm_cli, "main", "cli.main", None),
           (gqm_cli, "write_state", "cli.write", _file_attrs),
           (gqm_cli, "load_spec_file", "specio.parse", None),
           (gqm_cli, "build_experiment", "specio.build", None)]
    for name in ("group_from_table", "make_quiver", "cyclic_groupoid", "pair_groupoid",
                 "generate_from_quiver", "from_compose_table"):
        out.append((specio, name, "groupoid.build", _groupoid_attrs))
    out += [
        (gqm_cli, "check_axioms", "groupoid.check_axioms", None),
        (grp, "check_axioms", "groupoid.check_axioms", None),
        (specio, "factorizable_extend", "states.extend", None),
        (specio, "state_from_phi", "states.state_from_phi", None),
        (states, "is_positive_definite", "states.positivity", None),
        (dyn, "regular_representation", "algebra.regular_representation",
         lambda a, r: {"bytes": r.nbytes}),
        (gns, "regular_representation", "algebra.regular_representation",
         lambda a, r: {"bytes": r.nbytes}),
        (dyn, "convolve", "algebra.convolve", None),
        (gqm_cli, "gns_build", "gns.build",
         lambda a, r: {"dim": r.dim, "eigh_dim": r.gram.shape[0]}),
        (gns, "gram_matrix", "gns.gram", None),
        (gqm_cli, "represent", "gns.represent", None),
        (dyn, "represent", "gns.represent", None),
        (gqm_cli, "quantum_measure", "measure.quantum_measure", None),
        (gqm_cli, "amplitude_matrix", "measure.amplitude_matrix", None),
        (gqm_cli, "reproducibility_defect", "measure.reproducibility", None),
        (dyn.Hamiltonian, "spectrum", "dynamics.spectrum", None),
        (dyn, "exponential", "dynamics.exponential", _exp_attrs),
        (gqm_cli, "amplitude_grid", "dynamics.amplitude_grid", None),
        (gqm_cli, "schrodinger_evolve", "dynamics.schrodinger", None),
        (gqm_cli, "feynman_vector", "dynamics.feynman_vector", None),
    ]
    return out


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self, gqm_cli):
        self.cli = gqm_cli
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, self.op, {"error": 1})
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[idx] = (name, start, end, parent, self.op, attrs(args, res) if attrs else {})
            return res

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs in bindings(self.cli):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, attrs))
        table = self.cli._OUTPUT_WRITERS
        self._saved.append((table, None, dict(table)))
        for kind, (writer, fmt) in table.items():
            table[kind] = (self.wrap("cli.write", writer, _file_attrs), fmt)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            if attr is None:
                owner.update(orig)
            else:
                setattr(owner, attr, orig)
        self._saved.clear()


# ---------------------------------------------------------------- analysis

def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def op_metrics(spans, idx, selfs, wall: float, distinct_specs: int) -> dict[str, float]:
    """Per-layer metrics of one op; ``idx`` indexes the op's entries of ``spans``."""
    by_name: dict[str, list[int]] = {}
    for i in idx:
        by_name.setdefault(spans[i][0], []).append(i)
    m: dict[str, float] = {}

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def calls(name):
        return float(len(by_name.get(name, ())))

    def attr(name, key, agg=sum):
        vals = [spans[i][5].get(key, 0) for i in by_name.get(name, ())]
        return float(agg(vals)) if vals else 0.0

    m["specio.parse_s"] = self_s("specio.parse")
    m["specio.parse_calls"] = calls("specio.parse")
    m["specio.build_s"] = self_s("specio.build")
    m["specio.builds_per_spec"] = calls("specio.build") / distinct_specs
    m["specio.errors"] = float(sum(spans[i][5].get("error", 0) for i in idx
                                   if spans[i][0].startswith("specio.")))
    m["groupoid.build_s"] = self_s("groupoid.build")
    m["groupoid.check_axioms_s"] = self_s("groupoid.check_axioms")
    m["groupoid.transitions"] = attr("groupoid.build", "transitions", max)
    m["groupoid.composable_pairs"] = attr("groupoid.build", "pairs", max)
    m["groupoid.compose_table_bytes_computed"] = attr("groupoid.build", "ct_bytes")
    m["states.extend_s"] = self_s("states.extend")
    m["states.positivity_s"] = self_s("states.positivity")
    m["states.state_from_phi_s"] = self_s("states.state_from_phi")
    m["algebra.regular_representation_s"] = self_s("algebra.regular_representation")
    m["algebra.regular_representation_calls"] = calls("algebra.regular_representation")
    m["algebra.convolve_s"] = self_s("algebra.convolve")
    m["algebra.convolve_calls"] = calls("algebra.convolve")
    m["algebra.dense_bytes_computed"] = attr("algebra.regular_representation", "bytes")
    m["gns.gram_s"] = self_s("gns.gram")
    m["gns.build_s"] = self_s("gns.build")
    m["gns.represent_s"] = self_s("gns.represent")
    m["gns.represent_calls"] = calls("gns.represent")
    m["gns.dim"] = attr("gns.build", "dim", max)
    m["gns.eigh_dim"] = attr("gns.build", "eigh_dim", max)
    m["measure.quantum_measure_s"] = self_s("measure.quantum_measure")
    m["measure.quantum_measure_calls"] = calls("measure.quantum_measure")
    m["measure.amplitude_matrix_s"] = self_s("measure.amplitude_matrix")
    m["measure.reproducibility_s"] = self_s("measure.reproducibility")
    m["dynamics.spectrum_s"] = self_s("dynamics.spectrum")
    m["dynamics.spectrum_calls"] = calls("dynamics.spectrum")
    m["dynamics.exponential_s"] = self_s("dynamics.exponential")
    n_exp = calls("dynamics.exponential")
    m["dynamics.exponential_calls"] = n_exp
    times = {spans[i][5]["t"] for i in by_name.get("dynamics.exponential", ())}
    m["dynamics.exp_reuse_ratio"] = len(times) / n_exp if n_exp else 0.0
    m["dynamics.amplitude_grid_s"] = self_s("dynamics.amplitude_grid")
    m["dynamics.schrodinger_s"] = self_s("dynamics.schrodinger")
    m["dynamics.exponential_flops_computed"] = attr("dynamics.exponential", "flops")
    m["cli.write_s"] = self_s("cli.write")
    m["cli.bytes_written"] = attr("cli.write", "bytes")
    m["cli.files_written"] = calls("cli.write")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i in idx if spans[i][0].startswith(layer + "."))
    top = sum(spans[i][2] - spans[i][1] for i in idx if spans[i][3] is None)
    m["trace.coverage_frac"] = top / wall
    return m


def layer_metrics(spans, ops: dict[int, tuple[float, int]], overhead_frac: float) -> dict[str, float]:
    """Median over traced ops of each per-layer metric.

    ``ops`` maps op id -> (wall seconds, distinct spec files in the op);
    ``overhead_frac`` is the traced op median over the untraced one, minus 1.
    """
    selfs = self_times(spans)
    per_op: dict[int, list[int]] = {op: [] for op in ops}
    for i, s in enumerate(spans):
        if s[4] in per_op:
            per_op[s[4]].append(i)
    rows = [op_metrics(spans, idx, selfs, *ops[op]) for op, idx in per_op.items()]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_frac"] = overhead_frac
    return out
