"""Command-line interface: evaluate experiment specs into files on disk.

Verbs: check, cayley, state, evolve, measure, gns. Each takes
--spec <file>, --out <dir> and --format json|csv. check builds and
validates every part the spec declares; every other verb builds only
the parts it writes, so cayley succeeds on a spec whose phases
contradict. Outputs are deterministic for a given spec and package
version: numbers are written with 17 significant digits, JSON keys are
sorted, and eigendecomposition degeneracies are resolved by fixed
ordering.
Exit code 0 on success; on failure a machine-readable diagnostic
code is printed first on stderr and the exit code is nonzero: 2 for a
spec that cannot be evaluated (E_NUMERIC when it yields non-finite
amplitudes or trajectories) and for a bad command line (E_USAGE), 3 for
E_IO, 4 for E_INTERNAL. A failing verb leaves no files behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

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


def _write_series(path: Path, times, columns: dict, reals: dict) -> Path:
    """CSV with one row per time: t, re/im of each complex column, then
    each real column."""
    header = ["t"] + [f"{part}({name})" for name in columns for part in ("re", "im")]
    rows = []
    for i, t in enumerate(times):
        row = [_fmt(float(t))]
        for col in columns.values():
            row += [_fmt(col[i].real), _fmt(col[i].imag)]
        rows.append(row + [_fmt(float(col[i])) for col in reals.values()])
    return _write_csv(path, header + list(reals), rows)


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
    g = built.groupoid
    report = check_axioms(g) if g.axiom_report is None else g.axiom_report
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
    undefined = None if fmt == "json" else "*"
    # one gather: entry -1 (undefined) picks the last cell, the marker
    table = np.array(names + [undefined], dtype=object)[g.compose_table].tolist()
    if fmt == "json":
        return _write_json(outdir / "cayley.json", {"transitions": names, "table": table})
    rows = [[name] + row for name, row in zip(names, table)]
    return _write_csv(outdir / "cayley.csv", ["o"] + names, rows)


def write_state(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    s = built.state
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
    s, h, grid = built.state, built.hamiltonian, built.grid
    g = built.groupoid
    columns = {
        f"{y.label}<-{x.label}": amplitude_grid(s, x, y, h, grid)
        for x in g.outcomes for y in g.outcomes
    }
    _require_finite("amplitudes", *columns.values())
    if fmt == "json":
        obj = {
            "t": [float(t) for t in grid.times],
            "amplitudes": {name: _pairs(col) for name, col in columns.items()},
        }
        return _write_json(outdir / "amplitudes.json", obj)
    return _write_series(outdir / "amplitudes.csv", grid.times, columns, {})


def write_measure(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    s = built.state
    g = built.groupoid
    amp = amplitude_matrix(s) if s.is_factorizable else None
    fibers = {}
    for x in g.outcomes:
        for y in g.outcomes:
            mu = quantum_measure(s, fiber_event(g, x.id, y.id))
            entry = fibers[f"{y.label}<-{x.label}"] = {"mu": mu, "mu_clamped": max(mu, 0.0)}
            if amp is not None:
                a = amp[y.id, x.id]
                entry.update(amplitude=[a.real, a.imag], amplitude_sq=float(abs(a) ** 2))
    obj: dict = {"fiber_measures": fibers}
    if amp is not None:
        defect = reproducibility_defect(s)
        obj["amplitude_matrix"] = [_pairs(row) for row in amp]
        obj["reproducibility_defect"] = {"raw": defect.raw, "normalized": defect.normalized}
    return _write_tree(outdir / "measure", obj, fmt)


def write_gns(built: BuiltExperiment, outdir: Path, fmt: str = "json") -> Path:
    s = built.state
    g = built.groupoid
    sp = gns_build(g, s)
    obj = {
        "dim": sp.dim,
        "gram_eigenvalues": [float(v) for v in sp.eigenvalues],
        "cyclic_vector": _pairs(sp.cyclic_vector),
        "feynman_vector": _pairs(feynman_vector(sp, s)),
        # pi(delta_{1_x})|0> is the class of delta_{1_x}: a column of project
        "unit_projections": {
            o.label: _pairs(sp.project[:, g.unit_table[o.id]]) for o in g.outcomes
        },
    }
    if built.spec.hamiltonian is not None:
        obj["hamiltonian_matrix"] = [
            _pairs(row) for row in represent(sp, g, built.hamiltonian.element)
        ]
    return _write_tree(outdir / "gns", obj, fmt)


def write_evolution(built: BuiltExperiment, outdir: Path, fmt: str = "csv") -> Path:
    """GNS trajectory psi_t = pi(u_t)|0> over the grid."""
    s, h, grid = built.state, built.hamiltonian, built.grid
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
    columns = {f"psi[{i}]": psi[:, i] for i in range(sp.dim)}
    return _write_series(outdir / "evolve.csv", grid.times, columns, {"norm": norms})


# output kind -> (writer, default format)
_OUTPUT_WRITERS = {
    "axioms": (write_axioms, "json"),
    "cayley": (write_cayley, "csv"),
    "state": (write_state, "json"),
    "amplitudes": (write_amplitudes, "csv"),
    "measure": (write_measure, "json"),
    "gns": (write_gns, "json"),
    "evolve": (write_evolution, "csv"),
}


def _write_outputs(built: BuiltExperiment, kinds, outdir, fmt: str | None) -> list[Path]:
    """Write each output kind in order, in ``fmt`` or the kind's default.

    The writers fill a staging directory in ``outdir`` or its nearest
    existing ancestor, so that moving a file out of it is a rename on one
    file system. Only when every writer has succeeded is ``outdir``
    created and each file renamed into it: a failing verb leaves no
    files behind.

    numpy's floating-point warnings are silenced: the finite-output
    guards report a bad grid or Hamiltonian as E_NUMERIC instead.
    """
    outdir = Path(outdir)
    base = next(p for p in (outdir, *outdir.parents) if p.exists())
    stage = Path(tempfile.mkdtemp(prefix=".gqm-", dir=base))
    try:
        staged = []
        with np.errstate(all="ignore"):
            for kind in kinds:
                writer, default_fmt = _OUTPUT_WRITERS[kind]
                staged.append(writer(built, stage, fmt or default_fmt))
        outdir.mkdir(parents=True, exist_ok=True)
        return [path.replace(outdir / path.name) for path in staged]
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run(spec, outdir: Path, fmt: str | None = None) -> list[Path]:
    """Produce every artifact the spec requests, in a deterministic order.

    Accepts a parsed ExperimentSpec (or an already built experiment).
    """
    built = spec if isinstance(spec, BuiltExperiment) else build_experiment(spec)
    return _write_outputs(built, built.spec.requested_outputs, outdir, fmt)


# ------------------------------------------------------------------- CLI

# verb -> (help text, output kinds it writes)
_VERBS = {
    "check": ("validate the spec, build the groupoid, and write the axiom report", ("axioms",)),
    "cayley": ("write the multiplication table", ("cayley",)),
    "state": ("build the state and write its characteristic data", ("state",)),
    "evolve": ("write transition amplitudes and the GNS trajectory over the grid",
               ("amplitudes", "evolve")),
    "measure": ("write quantum-measure and amplitude data", ("measure",)),
    "gns": ("write the GNS space summary", ("gns",)),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as E_USAGE instead of exiting."""

    def error(self, message):
        raise SpecError("E_USAGE", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gqm parser, built once per process and shared: building it
    costs more than most small verbs, and parsing does not change it."""
    parser = _Parser(
        prog="gqm", description="Evaluate groupoid quantum mechanics experiment specs."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_text, _) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("--spec", required=True, help="path to the JSON spec file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        if verb == "evolve":
            sp.add_argument("--t-start", type=float, default=None)
            sp.add_argument("--t-stop", type=float, default=None)
            sp.add_argument("--t-steps", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = load_spec_file(args.spec)
        # --t-start/--t-stop/--t-steps exist on evolve only
        overrides = {
            key: v for key in ("start", "stop", "steps")
            if (v := getattr(args, f"t_{key}", None)) is not None
        }
        if overrides:
            try:
                grid = dataclasses.replace(spec.grid or TimeGrid(0.0, 1.0, 2), **overrides)
            except ValueError as exc:
                raise SpecError("E_GRID", str(exc), "grid") from None
            spec = dataclasses.replace(spec, grid=grid)
        with np.errstate(all="ignore"):  # check builds the state here; its guards report
            built = build_experiment(spec, validate=args.command == "check")
        written = _write_outputs(built, _VERBS[args.command][1], args.out, args.format)
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
