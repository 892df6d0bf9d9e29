"""Declarative experiment specs: parsing, validation, and printing.

A spec is a JSON document naming a groupoid source (constructor,
group-labeled quiver, or explicit composition table), optionally a
state (direct phi values or unit-modulus generator phases), a
Hamiltonian, a time grid, and the requested outputs. Every failure
carries a machine-readable code and the JSON path of the offending
field. parse -> print -> parse round-trips to an equal spec.

Phase strings are tiny arithmetic expressions over the declared
params and the constant pi (+, -, *, / only); they are checked at
parse time and substituted numerically when the state is built.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dynamics import Hamiltonian, TimeGrid
from .groupoid import (
    FiniteGroupoid,
    GroupoidAxiomError,
    Quiver,
    cyclic_groupoid,
    from_compose_table,
    generate_from_quiver,
    make_quiver,
    pair_groupoid,
)
from .groups import GroupTableError, group_from_table
from .states import ContradictionReport, GroupoidFunction, State, factorizable_extend, state_from_phi
from .algebra import element

OUTPUT_KINDS = ("cayley", "axioms", "amplitudes", "measure", "gns", "evolve")


class SpecError(Exception):
    """Validation failure with a machine-readable code and JSON path."""

    def __init__(self, code: str, message: str, path: str = ""):
        self.code = code
        self.message = message
        self.path = path
        where = f" (at {path})" if path else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------- sources

@dataclass(frozen=True)
class CyclicSource:
    n: int
    k: int
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PairSource:
    n: int
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    source: str
    target: str
    label: int


@dataclass(frozen=True)
class QuiverSource:
    outcomes: tuple[str, ...]
    group_table: tuple[tuple[int, ...], ...]
    generators: tuple[GeneratorSpec, ...]


@dataclass(frozen=True)
class TransitionSpec:
    source: str
    target: str
    label: int = 0
    name: str | None = None


@dataclass(frozen=True)
class ExplicitSource:
    outcomes: tuple[str, ...]
    transitions: tuple[TransitionSpec, ...]
    compose_table: tuple[tuple[int | None, ...], ...]


GroupoidSource = CyclicSource | PairSource | QuiverSource | ExplicitSource


@dataclass(frozen=True)
class PhiStateSource:
    phi: tuple[complex, ...]
    weight: float | None = None


@dataclass(frozen=True)
class GeneratorStateSource:
    # (generator name, phase expression) sorted by name; params likewise
    phases: tuple[tuple[str, str | float], ...]
    params: tuple[tuple[str, float], ...]


StateSource = PhiStateSource | GeneratorStateSource


@dataclass(frozen=True)
class HamiltonianSource:
    coeffs: tuple[complex, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    groupoid_source: GroupoidSource
    state_source: StateSource | None = None
    hamiltonian: HamiltonianSource | None = None
    grid: TimeGrid | None = None
    requested_outputs: tuple[str, ...] = ()
    name: str | None = None


# ------------------------------------------------------- JSON value checks

def _is_int(v) -> bool:
    """A JSON integer (JSON booleans parse to bool, a subclass of int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number that converts to float (NaN fails the bound)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# ----------------------------------------------------- expression evaluation

_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b}


def eval_expr(expr: str | int | float, params: dict[str, float], path: str = "") -> float:
    """Evaluate a phase expression: numbers, params, pi, and + - * /."""
    if _is_number(expr):
        value = float(expr)
    elif not isinstance(expr, str):
        raise SpecError("E_PARAM", "expression must be a finite number or a string", path)
    else:
        def ev(node) -> float:
            if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
                try:
                    return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
                except ZeroDivisionError:
                    raise SpecError("E_PARAM", f"division by zero in {expr!r}", path) from None
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
                v = ev(node.operand)
                return -v if isinstance(node.op, ast.USub) else v
            if isinstance(node, ast.Constant) and _is_number(node.value):
                return float(node.value)
            if isinstance(node, ast.Name):
                if node.id == "pi":
                    return math.pi
                if node.id in params:
                    return float(params[node.id])
                raise SpecError("E_PARAM", f"unknown name {node.id!r} in {expr!r}", path)
            raise SpecError("E_PARAM", f"unsupported syntax in {expr!r}", path)

        try:
            value = ev(ast.parse(expr, mode="eval").body)
        except SyntaxError as exc:
            raise SpecError("E_PARAM", f"bad expression {expr!r}: {exc.msg}", path) from None
        except (RecursionError, MemoryError):
            raise SpecError("E_PARAM", "expression is nested too deeply", path) from None
    if not math.isfinite(value):
        raise SpecError("E_PARAM", f"expression {expr!r} is not finite", path)
    return value


# ------------------------------------------------------------------ parsing

def parse_spec(text: bytes | str) -> ExperimentSpec:
    """Parse and validate a spec document; raises SpecError with a code."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecError("E_SYNTAX", f"not valid UTF-8: {exc.reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            "E_SYNTAX", f"JSON syntax error: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from None
    except (ValueError, RecursionError) as exc:
        # integer literals beyond the int-conversion limit, too-deep nesting
        raise SpecError("E_SYNTAX", f"JSON rejected: {exc}") from None
    return spec_from_json(doc)


def spec_from_json(doc) -> ExperimentSpec:
    if not isinstance(doc, dict):
        raise SpecError("E_SCHEMA", "spec document must be a JSON object")
    known = {"groupoid_source", "state_source", "hamiltonian", "grid",
             "requested_outputs", "name"}
    for key in doc:
        if key not in known:
            raise SpecError("E_SCHEMA", f"unknown field {key!r}", key)
    if "groupoid_source" not in doc:
        raise SpecError("E_SCHEMA", "missing required field 'groupoid_source'")

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SpecError("E_SCHEMA", "'name' must be a string", "name")

    gsrc = _parse_groupoid_source(doc["groupoid_source"], "groupoid_source")
    ssrc = (
        _parse_state_source(doc["state_source"], "state_source")
        if "state_source" in doc else None
    )
    hsrc = (
        _parse_hamiltonian(doc["hamiltonian"], "hamiltonian")
        if "hamiltonian" in doc else None
    )
    grid = _parse_grid(doc["grid"], "grid") if "grid" in doc else None
    outputs = _parse_outputs(doc.get("requested_outputs", []), "requested_outputs")
    return ExperimentSpec(
        groupoid_source=gsrc, state_source=ssrc, hamiltonian=hsrc,
        grid=grid, requested_outputs=outputs, name=name,
    )


def _parse_labels(val, path, n: int | None = None) -> tuple[str, ...]:
    """Unique outcome labels: exactly ``n`` of them, or at least one."""
    if (not isinstance(val, list) or not val or (n is not None and len(val) != n)
            or not all(isinstance(s, str) for s in val)):
        want = f"a list of {n} strings" if n else "a non-empty list of strings"
        raise SpecError("E_SCHEMA", f"'{path.rsplit('.', 1)[-1]}' must be {want}", path)
    if len(set(val)) != len(val):
        raise SpecError("E_OUTCOME", "outcome labels must be unique", path)
    return tuple(val)


def _parse_int_args(val, count, path) -> tuple[int, ...]:
    if (not isinstance(val, list) or len(val) != count
            or not all(_is_int(v) for v in val)):
        raise SpecError("E_SCHEMA", f"constructor arguments must be {count} integers", path)
    if any(v < 1 for v in val):
        raise SpecError("E_SCHEMA", "constructor arguments must be >= 1", path)
    return tuple(val)


def _parse_groupoid_source(doc, path) -> GroupoidSource:
    if not isinstance(doc, dict) or not doc:
        raise SpecError("E_SCHEMA", "'groupoid_source' must be a non-empty object", path)

    if "cyclic" in doc:
        _reject_extra(doc, {"cyclic", "labels"}, path)
        n, k = _parse_int_args(doc["cyclic"], 2, f"{path}.cyclic")
        labels = _parse_labels(doc["labels"], f"{path}.labels", n) if "labels" in doc else None
        return CyclicSource(n, k, labels)
    if "pair" in doc:
        _reject_extra(doc, {"pair", "labels"}, path)
        (n,) = _parse_int_args(doc["pair"], 1, f"{path}.pair")
        labels = _parse_labels(doc["labels"], f"{path}.labels", n) if "labels" in doc else None
        return PairSource(n, labels)

    if "generators" in doc:
        _reject_extra(doc, {"outcomes", "group", "generators"}, path)
        outcomes = _parse_labels(doc.get("outcomes"), f"{path}.outcomes")
        group = doc.get("group")
        if not isinstance(group, dict) or "table" not in group:
            raise SpecError("E_SCHEMA", "quiver form requires 'group' with a 'table'", f"{path}.group")
        table = group["table"]
        if not isinstance(table, list) or not all(
                isinstance(row, list) and all(_is_int(v) for v in row) for row in table):
            raise SpecError("E_GROUP_TABLE", "group table must be a list of rows of integers",
                            f"{path}.group.table")
        try:
            grp = group_from_table(table)
        except GroupTableError as exc:
            raise SpecError("E_GROUP_TABLE", str(exc), f"{path}.group.table") from None
        except (ValueError, OverflowError) as exc:
            raise SpecError("E_GROUP_TABLE", f"bad group table: {exc}", f"{path}.group.table") from None
        if "order" in group and not (_is_int(group["order"]) and group["order"] == grp.order):
            raise SpecError("E_GROUP_TABLE", "'order' must be the table's integer order", f"{path}.group.order")
        gens = doc["generators"]
        if not isinstance(gens, list):
            raise SpecError("E_SCHEMA", "'generators' must be a list", f"{path}.generators")
        specs, names = [], set()
        for i, gen in enumerate(gens):
            gpath = f"{path}.generators[{i}]"
            if not isinstance(gen, dict) or not {"source", "target", "label"} <= set(gen):
                raise SpecError("E_SCHEMA", "generator needs source, target, label", gpath)
            _reject_extra(gen, {"source", "target", "label", "name"}, gpath)
            src, tgt, lab = gen["source"], gen["target"], gen["label"]
            if src not in outcomes or tgt not in outcomes:
                raise SpecError("E_OUTCOME", f"generator endpoint {src!r}->{tgt!r} not a declared outcome", gpath)
            if not _is_int(lab) or not 0 <= lab < grp.order:
                raise SpecError("E_TRANSITION", f"label must be a group element index 0..{grp.order - 1}", gpath)
            nm = gen.get("name", f"g{i}")
            if not isinstance(nm, str) or nm in names:
                raise SpecError("E_TRANSITION", f"generator name {nm!r} missing or duplicate", gpath)
            names.add(nm)
            specs.append(GeneratorSpec(nm, src, tgt, lab))
        return QuiverSource(outcomes, tuple(tuple(int(v) for v in row) for row in table), tuple(specs))

    if "compose_table" in doc:
        _reject_extra(doc, {"outcomes", "transitions", "compose_table"}, path)
        outcomes = _parse_labels(doc.get("outcomes"), f"{path}.outcomes")
        trs = doc.get("transitions")
        if not isinstance(trs, list) or not trs:
            raise SpecError("E_SCHEMA", "'transitions' must be a non-empty list", f"{path}.transitions")
        specs = []
        for i, t in enumerate(trs):
            tpath = f"{path}.transitions[{i}]"
            if not isinstance(t, dict) or not {"source", "target"} <= set(t):
                raise SpecError("E_SCHEMA", "transition needs source and target", tpath)
            _reject_extra(t, {"source", "target", "label", "name"}, tpath)
            if t["source"] not in outcomes or t["target"] not in outcomes:
                raise SpecError("E_TRANSITION", "transition endpoint not a declared outcome", tpath)
            lab = t.get("label", 0)
            if not _is_int(lab) or lab < 0:
                raise SpecError("E_TRANSITION", "transition label must be a non-negative integer", tpath)
            nm = t.get("name")
            if nm is not None and not isinstance(nm, str):
                raise SpecError("E_TRANSITION", "transition name must be a string", tpath)
            specs.append(TransitionSpec(t["source"], t["target"], lab, nm))
        ct = doc["compose_table"]
        n = len(specs)
        if (not isinstance(ct, list) or len(ct) != n
                or any(not isinstance(row, list) or len(row) != n for row in ct)):
            raise SpecError("E_SCHEMA", f"'compose_table' must be {n}x{n}", f"{path}.compose_table")
        for i, row in enumerate(ct):
            for j, v in enumerate(row):
                if v is not None and not (_is_int(v) and 0 <= v < n):
                    raise SpecError(
                        "E_SCHEMA", "compose table entries must be transition ids or null",
                        f"{path}.compose_table[{i}][{j}]",
                    )
        return ExplicitSource(outcomes, tuple(specs), tuple(tuple(row) for row in ct))

    structural = {"outcomes", "group", "generators", "transitions", "compose_table", "labels"}
    foreign = [k for k in doc if k not in structural]
    if foreign:
        raise SpecError("E_UNKNOWN_CONSTRUCTOR", f"unknown groupoid constructor {foreign[0]!r}", path)
    raise SpecError("E_SCHEMA", "groupoid_source matches no known form", path)


def _reject_extra(doc: dict, allowed: set[str], path: str) -> None:
    extra = [k for k in doc if k not in allowed]
    if extra:
        raise SpecError("E_SCHEMA", f"unknown field {extra[0]!r}", f"{path}.{extra[0]}")


def _parse_complex_list(val, path) -> tuple[complex, ...]:
    if not isinstance(val, list) or not val:
        raise SpecError("E_SCHEMA", "expected a non-empty list of [re, im] pairs", path)
    out = []
    for i, pair in enumerate(val):
        if not isinstance(pair, list) or len(pair) != 2 or not all(_is_number(v) for v in pair):
            raise SpecError("E_SCHEMA", "expected [re, im] pairs of finite numbers", f"{path}[{i}]")
        out.append(complex(float(pair[0]), float(pair[1])))
    return tuple(out)


def _parse_state_source(doc, path) -> StateSource:
    if not isinstance(doc, dict) or not doc:
        raise SpecError("E_SCHEMA", "'state_source' must be a non-empty object", path)
    if "phi" in doc:
        _reject_extra(doc, {"phi", "weight"}, path)
        phi = _parse_complex_list(doc["phi"], f"{path}.phi")
        weight = doc.get("weight")
        if weight is not None:
            if not _is_number(weight) or weight <= 0:
                raise SpecError("E_STATE", "'weight' must be a positive number", f"{path}.weight")
            weight = float(weight)
        return PhiStateSource(phi, weight)

    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise SpecError("E_SCHEMA", "'params' must be an object", f"{path}.params")
    params = {}
    for key, val in raw_params.items():
        if not _is_number(val):
            raise SpecError("E_PARAM", f"parameter {key!r} must be a finite number", f"{path}.params.{key}")
        params[key] = float(val)
    phases = []
    for key in sorted(k for k in doc if k != "params"):
        entry = doc[key]
        if not isinstance(entry, dict) or set(entry) != {"phase"}:
            raise SpecError("E_SCHEMA", f"generator entry {key!r} must be {{\"phase\": ...}}", f"{path}.{key}")
        expr = entry["phase"]
        eval_expr(expr, params, f"{path}.{key}.phase")  # must resolve and be finite
        phases.append((key, expr))
    if not phases:
        raise SpecError("E_SCHEMA", "state_source names no generators and no phi", path)
    return GeneratorStateSource(tuple(phases), tuple(sorted(params.items())))


def _parse_hamiltonian(doc, path) -> HamiltonianSource:
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise SpecError("E_SCHEMA", "'hamiltonian' must be an object with 'coeffs'", path)
    _reject_extra(doc, {"coeffs"}, path)
    return HamiltonianSource(_parse_complex_list(doc["coeffs"], f"{path}.coeffs"))


def _parse_grid(doc, path) -> TimeGrid:
    if not isinstance(doc, dict) or set(doc) != {"start", "stop", "steps"}:
        raise SpecError("E_GRID", "'grid' must have exactly start, stop, steps", path)
    start, stop, steps = doc["start"], doc["stop"], doc["steps"]
    for key, v in (("start", start), ("stop", stop)):
        if not _is_number(v):
            raise SpecError("E_GRID", f"'{key}' must be a finite number", f"{path}.{key}")
    if not _is_int(steps) or steps < 1:
        raise SpecError("E_GRID", "'steps' must be a positive integer", f"{path}.steps")
    if float(stop) < float(start):
        raise SpecError("E_GRID", "'stop' must be >= 'start'", path)
    return TimeGrid(float(start), float(stop), steps)


def _parse_outputs(val, path) -> tuple[str, ...]:
    if not isinstance(val, list):
        raise SpecError("E_OUTPUT", "'requested_outputs' must be a list", path)
    seen = []
    for i, v in enumerate(val):
        if v not in OUTPUT_KINDS:
            raise SpecError("E_OUTPUT", f"unknown output {v!r}", f"{path}[{i}]")
        if v in seen:
            raise SpecError("E_OUTPUT", f"duplicate output {v!r}", f"{path}[{i}]")
        seen.append(v)
    return tuple(seen)


# ----------------------------------------------------------------- printing

def print_spec(spec: ExperimentSpec) -> str:
    """Canonical JSON rendering; parse(print_spec(s)) == s."""
    doc: dict = {"groupoid_source": _groupoid_source_to_json(spec.groupoid_source)}
    if spec.name is not None:
        doc["name"] = spec.name
    if spec.state_source is not None:
        doc["state_source"] = _state_source_to_json(spec.state_source)
    if spec.hamiltonian is not None:
        doc["hamiltonian"] = {"coeffs": [[c.real, c.imag] for c in spec.hamiltonian.coeffs]}
    if spec.grid is not None:
        doc["grid"] = {"start": spec.grid.start, "stop": spec.grid.stop, "steps": spec.grid.steps}
    if spec.requested_outputs:
        doc["requested_outputs"] = list(spec.requested_outputs)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _groupoid_source_to_json(src: GroupoidSource) -> dict:
    if isinstance(src, (CyclicSource, PairSource)):
        doc = {"cyclic": [src.n, src.k]} if isinstance(src, CyclicSource) else {"pair": [src.n]}
        if src.labels is not None:
            doc["labels"] = list(src.labels)
        return doc
    if isinstance(src, QuiverSource):
        return {
            "outcomes": list(src.outcomes),
            "group": {"order": len(src.group_table), "table": [list(r) for r in src.group_table]},
            "generators": [
                {"name": g.name, "source": g.source, "target": g.target, "label": g.label}
                for g in src.generators
            ],
        }
    return {
        "outcomes": list(src.outcomes),
        "transitions": [
            {"source": t.source, "target": t.target, "label": t.label,
             **({"name": t.name} if t.name is not None else {})}
            for t in src.transitions
        ],
        "compose_table": [list(r) for r in src.compose_table],
    }


def _state_source_to_json(src: StateSource) -> dict:
    if isinstance(src, PhiStateSource):
        doc: dict = {"phi": [[c.real, c.imag] for c in src.phi]}
        if src.weight is not None:
            doc["weight"] = src.weight
        return doc
    doc = {name: {"phase": expr} for name, expr in src.phases}
    doc["params"] = dict(src.params)
    return doc


# ----------------------------------------------------------------- building

@dataclass(frozen=True, eq=False)
class BuiltExperiment:
    """A spec's groupoid, built at once, and each other part built when it is
    first read. Reading a part the spec does not declare raises E_NO_STATE,
    E_NO_HAMILTONIAN or E_NO_GRID."""

    spec: ExperimentSpec
    groupoid: FiniteGroupoid
    quiver: Quiver | None

    @functools.cached_property
    def state(self) -> State:
        src, g = self.spec.state_source, self.groupoid
        if src is None:
            raise SpecError("E_NO_STATE", "this output requires a state_source in the spec")
        if isinstance(src, PhiStateSource):
            if len(src.phi) != g.n_transitions:
                raise SpecError("E_STATE", f"phi has {len(src.phi)} values but the groupoid has "
                                f"{g.n_transitions} transitions", "state_source.phi")
            try:
                state = state_from_phi(g, GroupoidFunction(np.array(src.phi)))
            except ValueError as exc:
                raise SpecError("E_STATE", str(exc), "state_source.phi") from None
            if src.weight is not None and abs(src.weight - state.weight) > 1e-9:
                raise SpecError("E_STATE", f"declared weight {src.weight} does not match "
                                f"derived {state.weight}", "state_source.weight")
            return state

        if self.quiver is None:
            raise SpecError("E_STATE", "generator-phase states require a quiver groupoid_source",
                            "state_source")
        params = dict(src.params)
        gen_values = {
            name: complex(math.cos(theta), math.sin(theta))
            for name, expr in src.phases
            for theta in (eval_expr(expr, params, f"state_source.{name}.phase"),)
        }
        try:
            phi = factorizable_extend(g, self.quiver, gen_values)
            if isinstance(phi, ContradictionReport):
                raise SpecError("E_CONTRADICTION", f"phases are not consistent: {phi}", "state_source")
            return state_from_phi(g, phi)
        except ValueError as exc:
            raise SpecError("E_STATE", str(exc), "state_source") from None

    @functools.cached_property
    def hamiltonian(self) -> Hamiltonian:
        src, g = self.spec.hamiltonian, self.groupoid
        if src is None:
            raise SpecError("E_NO_HAMILTONIAN", "this output requires a hamiltonian in the spec")
        if len(src.coeffs) != g.n_transitions:
            raise SpecError("E_HAMILTONIAN", f"coeffs has {len(src.coeffs)} values but the groupoid "
                            f"has {g.n_transitions} transitions", "hamiltonian.coeffs")
        try:
            return Hamiltonian(g, element(g, np.array(src.coeffs)))
        except ValueError as exc:
            raise SpecError("E_HAMILTONIAN", str(exc), "hamiltonian.coeffs") from None

    @property
    def grid(self) -> TimeGrid:
        if self.spec.grid is None:
            raise SpecError("E_NO_GRID", "this output requires a time grid")
        return self.spec.grid


def build_groupoid(src: GroupoidSource) -> tuple[FiniteGroupoid, Quiver | None]:
    if isinstance(src, CyclicSource):
        return cyclic_groupoid(src.n, src.k, labels=src.labels), None
    if isinstance(src, PairSource):
        return pair_groupoid(src.n, labels=src.labels), None
    if isinstance(src, QuiverSource):
        grp = group_from_table([list(r) for r in src.group_table])
        q = make_quiver(
            src.outcomes, grp,
            [(g.source, g.target, g.label) for g in src.generators],
            names=tuple(g.name for g in src.generators),
        )
        return generate_from_quiver(q), q
    try:
        g = from_compose_table(
            src.outcomes,
            [(t.source, t.target, t.label) for t in src.transitions],
            src.compose_table,
        )
    except GroupoidAxiomError as exc:
        raise SpecError("E_AXIOMS", f"explicit table rejected: {exc}", "groupoid_source") from None
    except ValueError as exc:
        raise SpecError("E_TRANSITION", str(exc), "groupoid_source") from None
    return g, None


def build_experiment(spec: ExperimentSpec, validate: bool = True) -> BuiltExperiment:
    """The spec's experiment, with spec-level errors. ``validate`` builds every
    part the spec declares now, so that its errors surface here."""
    built = BuiltExperiment(spec, *build_groupoid(spec.groupoid_source))
    for part, declared in (("state", spec.state_source), ("hamiltonian", spec.hamiltonian)):
        if validate and declared is not None:
            getattr(built, part)
    return built


def load_spec_file(path) -> ExperimentSpec:
    with open(path, "rb") as fh:
        return parse_spec(fh.read())


def read_bundled(name: str) -> bytes:
    """Raw bytes of a bundled spec, e.g. 'ratchet.json' or 'malformed/bad_syntax.json'."""
    return resources.files("gqm").joinpath("specs").joinpath(name).read_bytes()
