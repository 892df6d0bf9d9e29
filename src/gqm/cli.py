"""Command-line interface: evaluate experiment specs into files on disk.

Verbs: check, cayley, state, evolve, measure, gns. Each takes
--spec <file>, --out <dir> and --format json|csv. Outputs are
deterministic for a given spec and package version: numbers are
written with 17 significant digits, JSON keys are sorted, and
eigendecomposition degeneracies are resolved by fixed ordering.
Exit code 0 on success; on failure a machine-readable diagnostic
code is printed to stderr and the exit code is nonzero: 2 for a spec
that cannot be evaluated (E_NUMERIC when it yields non-finite
amplitudes or trajectories), 3 for E_IO, 4 for E_INTERNAL.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import delta
from .dynamics import TimeGrid, amplitude_grid, feynman_vector, schrodinger_evolve
from .gns import gns_build, represent
from .groupoid import check_axioms, transition_name
from .measure import fiber_event, quantum_measure, amplitude_matrix, reproducibility_defect
from .specio import BuiltExperiment, SpecError, build_experiment, load_spec_file


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _pairs(vec) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in np.asarray(vec, dtype=complex)]


def _require_finite(name: str, *arrays) -> None:
    """E_NUMERIC instead of writing NaN or inf into an artifact."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise SpecError("E_NUMERIC", f"{name} are not finite; check the grid and hamiltonian")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _write_tree(path_base: Path, obj, fmt: str) -> Path:
    """JSON tree, or its key/value flattening when csv is requested."""
    if fmt == "json":
        return _write_json(path_base.with_suffix(".json"), obj)
    rows = [[key, _fmt(v) if isinstance(v, float) else str(v)] for key, v in _flatten(obj)]
    return _write_csv(path_base.with_suffix(".csv"), ["key", "value"], rows)


# ------------------------------------------------------------- artifacts

def write_axioms(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    report = check_axioms(built.groupoid)
    obj = {
        "ok": report.ok,
        "truncated": report.truncated,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in report.violations],
    }
    return _write_tree(outdir / "axioms", obj, fmt)


def write_cayley(built: BuiltExperiment, outdir: Path, fmt: str = "csv") -> Path:
    """The multiplication table, '*' where composition is undefined."""
    g = built.groupoid
    names = [transition_name(g, t) for t in g.transitions]
    if fmt == "json":
        table = [
            [None if c < 0 else names[c] for c in row]
            for row in g.compose_table
        ]
        return _write_json(outdir / "cayley.json", {"transitions": names, "table": table})
    rows = [
        [names[a]] + ["*" if c < 0 else names[c] for c in g.compose_table[a]]
        for a in range(g.n_transitions)
    ]
    return _write_csv(outdir / "cayley.csv", ["o"] + names, rows)


def write_state(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    s = _need_state(built)
    obj = {
        "phi": _pairs(s.phi.values),
        "weight": s.weight,
        "positive_definite": s.is_positive_definite,
        "unitary": s.is_unitary,
        "factorizable": s.is_factorizable,
    }
    return _write_tree(outdir / "state", obj, fmt)


def write_amplitudes(built: BuiltExperiment, outdir: Path, fmt: str = "csv") -> Path:
    """rho(1_y u_t 1_x) for every ordered outcome pair over the grid."""
    s = _need_state(built)
    h = _need_hamiltonian(built)
    grid = _need_grid(built)
    g = built.groupoid
    pairs = [(x, y) for x in g.outcomes for y in g.outcomes]
    columns = {
        (x.id, y.id): amplitude_grid(s, x, y, h, grid) for x, y in pairs
    }
    _require_finite("amplitudes", *columns.values())
    if fmt == "json":
        obj = {
            "t": [float(t) for t in grid.times],
            "amplitudes": {
                f"{y.label}<-{x.label}": _pairs(columns[(x.id, y.id)]) for x, y in pairs
            },
        }
        return _write_json(outdir / "amplitudes.json", obj)
    header = ["t"]
    for x, y in pairs:
        header += [f"re({y.label}<-{x.label})", f"im({y.label}<-{x.label})"]
    rows = []
    for i, t in enumerate(grid.times):
        row = [_fmt(float(t))]
        for x, y in pairs:
            a = columns[(x.id, y.id)][i]
            row += [_fmt(a.real), _fmt(a.imag)]
        rows.append(row)
    return _write_csv(outdir / "amplitudes.csv", header, rows)


def write_measure(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    s = _need_state(built)
    g = built.groupoid
    fibers = {}
    for x in g.outcomes:
        for y in g.outcomes:
            mu = quantum_measure(s, fiber_event(g, x.id, y.id))
            fibers[f"{y.label}<-{x.label}"] = {"mu": mu, "mu_clamped": max(mu, 0.0)}
    obj: dict = {"fiber_measures": fibers}
    if s.is_factorizable:
        amp = amplitude_matrix(s)
        defect = reproducibility_defect(s)
        for x in g.outcomes:
            for y in g.outcomes:
                entry = fibers[f"{y.label}<-{x.label}"]
                a = amp[y.id, x.id]
                entry["amplitude"] = [a.real, a.imag]
                entry["amplitude_sq"] = float(abs(a) ** 2)
        obj["amplitude_matrix"] = [_pairs(row) for row in amp]
        obj["reproducibility_defect"] = {"raw": defect.raw, "normalized": defect.normalized}
    return _write_tree(outdir / "measure", obj, fmt)


def write_gns(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    s = _need_state(built)
    g = built.groupoid
    sp = gns_build(g, s)
    obj = {
        "dim": sp.dim,
        "gram_eigenvalues": [float(v) for v in sp.eigenvalues],
        "cyclic_vector": _pairs(sp.cyclic_vector),
        "feynman_vector": _pairs(feynman_vector(sp, s)),
        "unit_projections": {
            o.label: _pairs(represent(sp, g, delta(g, int(g.unit_table[o.id]))) @ sp.cyclic_vector)
            for o in g.outcomes
        },
    }
    if built.hamiltonian is not None:
        obj["hamiltonian_matrix"] = [
            _pairs(row) for row in represent(sp, g, built.hamiltonian.element)
        ]
    return _write_tree(outdir / "gns", obj, fmt)


def write_evolution(built: BuiltExperiment, outdir: Path, fmt: str = "csv") -> Path:
    """GNS trajectory psi_t = pi(u_t)|0> over the grid."""
    s = _need_state(built)
    h = _need_hamiltonian(built)
    grid = _need_grid(built)
    sp = gns_build(built.groupoid, s)
    psi = schrodinger_evolve(sp, s, h, grid)
    norms = np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))
    _require_finite("psi and norms", psi, norms)
    if fmt == "json":
        obj = {
            "t": [float(t) for t in grid.times],
            "psi": [_pairs(row) for row in psi],
            "norm": [float(v) for v in norms],
        }
        return _write_json(outdir / "evolve.json", obj)
    header = ["t"]
    for i in range(sp.dim):
        header += [f"re(psi[{i}])", f"im(psi[{i}])"]
    header.append("norm")
    rows = []
    for i, t in enumerate(grid.times):
        row = [_fmt(float(t))]
        for c in psi[i]:
            row += [_fmt(c.real), _fmt(c.imag)]
        row.append(_fmt(float(norms[i])))
        rows.append(row)
    return _write_csv(outdir / "evolve.csv", header, rows)


def _need_state(built: BuiltExperiment):
    if built.state is None:
        raise SpecError("E_NO_STATE", "this output requires a state_source in the spec")
    return built.state


def _need_hamiltonian(built: BuiltExperiment):
    if built.hamiltonian is None:
        raise SpecError("E_NO_HAMILTONIAN", "this output requires a hamiltonian in the spec")
    return built.hamiltonian


def _need_grid(built: BuiltExperiment) -> TimeGrid:
    if built.grid is None:
        raise SpecError("E_NO_GRID", "this output requires a time grid")
    return built.grid


_OUTPUT_WRITERS = {
    "axioms": (write_axioms, "json"),
    "cayley": (write_cayley, "csv"),
    "amplitudes": (write_amplitudes, "csv"),
    "measure": (write_measure, "json"),
    "gns": (write_gns, "json"),
    "evolve": (write_evolution, "csv"),
}


def run(spec, outdir: Path, fmt: str | None = None) -> list[Path]:
    """Produce every artifact the spec requests, in a deterministic order.

    Accepts a parsed ExperimentSpec (or an already built experiment).
    """
    built = spec if isinstance(spec, BuiltExperiment) else build_experiment(spec)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind in built.spec.requested_outputs:
        writer, default_fmt = _OUTPUT_WRITERS[kind]
        written.append(writer(built, outdir, fmt or default_fmt))
    return written


# ------------------------------------------------------------------- CLI

_VERBS = {
    "check": "validate the spec, build the groupoid, and write the axiom report",
    "cayley": "write the multiplication table",
    "state": "build the state and write its characteristic data",
    "evolve": "write transition amplitudes and the GNS trajectory over the grid",
    "measure": "write quantum-measure and amplitude data",
    "gns": "write the GNS space summary",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqm", description="Evaluate groupoid quantum mechanics experiment specs."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("--spec", required=True, help="path to the JSON spec file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        if verb == "evolve":
            sp.add_argument("--t-start", type=float, default=None)
            sp.add_argument("--t-stop", type=float, default=None)
            sp.add_argument("--t-steps", type=int, default=None)
    return parser


def _command_outputs(command: str) -> list[str]:
    return {
        "check": ["axioms"],
        "cayley": ["cayley"],
        "state": [],
        "evolve": ["amplitudes", "evolve"],
        "measure": ["measure"],
        "gns": ["gns"],
    }[command]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec_file(args.spec)
        built = build_experiment(spec)
        if args.command == "evolve" and any(
            v is not None for v in (args.t_start, args.t_stop, args.t_steps)
        ):
            base = built.grid or TimeGrid(0.0, 1.0, 2)
            try:
                grid = TimeGrid(
                    args.t_start if args.t_start is not None else base.start,
                    args.t_stop if args.t_stop is not None else base.stop,
                    args.t_steps if args.t_steps is not None else base.steps,
                )
            except ValueError as exc:
                raise SpecError("E_GRID", str(exc), "grid") from None
            built = BuiltExperiment(
                spec=built.spec, groupoid=built.groupoid, quiver=built.quiver,
                state=built.state, hamiltonian=built.hamiltonian, grid=grid,
            )
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        if args.command == "state":
            written.append(write_state(built, outdir, args.format or "json"))
        else:
            for kind in _command_outputs(args.command):
                writer, default_fmt = _OUTPUT_WRITERS[kind]
                written.append(writer(built, outdir, args.format or default_fmt))
    except SpecError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"E_IO: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        print(f"E_INTERNAL: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
