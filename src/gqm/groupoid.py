"""Finite groupoids of selective measurements.

A transition is an arrow (target, register label, source) between
outcomes. Composition is partial and read right to left: ``a ∘ b``
means "first b, then a", defined exactly when source(a) == target(b).
Every transition has an inverse and every outcome carries a unit.

Groupoids are built either from explicit composition tables (validated
strictly at load) or algebraically: pair groupoids, cyclic groupoids
C_{n,k}, and closures of group-labeled quivers. Labeled transitions are
canonically ordered by (target, source, label), and duplicate words
collapse onto one transition.

A constructed groupoid is a set of triples (y, γ, x) in Ω×Γ×Ω, so it
composes by structure, a∘b = (t(a), L(a)·L(b), s(b)) when s(a) = t(b),
through an (|Ω|, |Γ|, |Ω|) lookup. Its |G|×|G| composition table is
scattered from the composable pairs only when something reads it: the
axiom check and the Cayley table do, dynamics, states, GNS and measures
do not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup, cyclic_group

UNDEFINED = -1


@dataclass(frozen=True)
class Outcome:
    id: int
    label: str


@dataclass(frozen=True)
class Transition:
    """A selective measurement: takes outcome ``source`` to outcome
    ``target`` while acting on the inner register by ``label``."""

    id: int
    source: int
    target: int
    label: int

    def triple(self) -> tuple[int, int, int]:
        return (self.target, self.label, self.source)


@dataclass(frozen=True)
class AxiomViolation:
    kind: str  # closure | associativity | unit | inverse | reversibility
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def __bool__(self) -> bool:
        return self.ok


class GroupoidAxiomError(ValueError):
    """Raised when strict construction finds axiom violations."""

    def __init__(self, report: AxiomReport):
        self.report = report
        first = report.violations[0]
        more = len(report.violations) - 1
        suffix = f" (+{more} more)" if more else ""
        super().__init__(f"{first.kind}: {first.detail}{suffix}")


class FiniteGroupoid:
    """Outcomes, transitions, and the partial composition structure.

    Immutable after construction. ``compose_ids(a, b)`` gives the ids of
    a∘b, or -1 where a pair is not composable. A groupoid built from
    (target, label, source) triples in Ω×Γ×Ω (``cyclic_groupoid``,
    ``pair_groupoid``, ``generate_from_quiver``) composes through its
    (|Ω|, |Γ|, |Ω|) lookup, a∘b = lookup[t(a), L(a)·L(b), s(b)]; one
    given an explicit table reads that table.

    The composable pairs ``pair_left``, ``pair_right`` and ``pair_result``
    (|G|²/|Ω| ids each, in the row-major order of the table) and the |G|×|G|
    ``compose_table`` (a∘b or -1, scattered from the pairs) are built on
    first read. Of the product, only ``check_axioms``, the Cayley writer
    and ``==`` read the table; the factorization checks of states and
    convolution read the pairs. ``axiom_report`` is the
    ``check_axioms`` report of a construction with ``validate=True``, kept
    so that it is not computed again, and None without validation.
    """

    def __init__(
        self,
        outcomes: list[Outcome] | tuple[Outcome, ...],
        transitions: list[Transition] | tuple[Transition, ...],
        compose_table: np.ndarray,
        inverse_table: np.ndarray,
        unit_table: np.ndarray,
        group: FiniteGroup | None = None,
        validate: bool = True,
    ):
        self._init(outcomes, transitions, inverse_table, unit_table, group)
        n = self.n_transitions
        self.compose_table = np.asarray(compose_table, dtype=int)
        if self.compose_table.shape != (n, n):
            raise ValueError("compose table shape must be |G| x |G|")
        self._lookup = None
        self.axiom_report = check_axioms(self) if validate else None
        if validate and not self.axiom_report.ok:
            raise GroupoidAxiomError(self.axiom_report)

    @classmethod
    def _from_lookup(cls, outcomes, transitions, lookup, labels, inverse_table, unit_table,
                     group: FiniteGroup) -> "FiniteGroupoid":
        """A groupoid whose arrow (y, γ, x) has the id ``lookup[y, γ, x]``
        and whose table is built only when read; ``labels`` holds each
        arrow's γ. Not validated."""
        g = cls.__new__(cls)
        g._init(outcomes, transitions, inverse_table, unit_table, group)
        g._lookup, g._labels = lookup, labels
        g.axiom_report = None
        return g

    def _init(self, outcomes, transitions, inverse_table, unit_table, group) -> None:
        self.outcomes = tuple(outcomes)
        self.transitions = tuple(transitions)
        self.group = group
        self.inverse_table = np.asarray(inverse_table, dtype=int)
        self.unit_table = np.asarray(unit_table, dtype=int)

        n = len(self.transitions)
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")
        if [o.id for o in self.outcomes] != list(range(len(self.outcomes))):
            raise ValueError("outcome ids must be dense 0..|Omega|-1")
        if [t.id for t in self.transitions] != list(range(n)):
            raise ValueError("transition ids must be dense 0..|G|-1")
        if self.inverse_table.shape != (n,):
            raise ValueError("inverse table must have one entry per transition")
        if self.unit_table.shape != (len(self.outcomes),):
            raise ValueError("unit table must have one entry per outcome")

        self.source = np.array([t.source for t in self.transitions], dtype=int)
        self.target = np.array([t.target for t in self.transitions], dtype=int)
        n_out = len(self.outcomes)
        if n and not (
            0 <= self.source.min() and self.source.max() < n_out
            and 0 <= self.target.min() and self.target.max() < n_out
        ):
            raise ValueError("transition endpoints must be outcome ids")
        self._outcome_by_label = {o.label: o for o in self.outcomes}
        self._by_triple = {t.triple(): t for t in self.transitions}
        if len(self._by_triple) != n:
            raise ValueError("(target, label, source) triples must be unique")

        self.target_fibers = [
            np.where(self.target == x.id)[0] for x in self.outcomes
        ]
        self.source_fibers = [
            np.where(self.source == x.id)[0] for x in self.outcomes
        ]

    def compose_ids(self, a, b) -> np.ndarray:
        """Ids of a∘b for the transition ids ``a`` and ``b``, broadcast
        against each other; -1 where s(a) != t(b)."""
        if self._lookup is None:
            return self.compose_table[a, b]
        c = self._lookup[
            self.target[a], self.group.table[self._labels[a], self._labels[b]], self.source[b]
        ]
        return np.where(self.source[a] == self.target[b], c, UNDEFINED)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # row a of the table is defined on the target fiber of s(a), ascending
        rows = [self.target_fibers[x] for x in self.source.tolist()]
        left = np.repeat(np.arange(self.n_transitions), [len(row) for row in rows])
        right = np.concatenate([np.empty(0, dtype=int), *rows])
        return left, right, self.compose_ids(left, right)

    @property
    def pair_left(self) -> np.ndarray:
        """a of each composable pair (a, b), ascending; ties by ascending b."""
        return self._pairs[0]

    @property
    def pair_right(self) -> np.ndarray:
        """b of each composable pair (a, b), in ``pair_left`` order."""
        return self._pairs[1]

    @property
    def pair_result(self) -> np.ndarray:
        """a∘b of each composable pair (a, b), in ``pair_left`` order."""
        return self._pairs[2]

    @cached_property
    def compose_table(self) -> np.ndarray:
        """(|G|, |G|) ids of a∘b, -1 where not composable; built on first read."""
        n = self.n_transitions
        table = np.full((n, n), UNDEFINED, dtype=int)
        table[self.pair_left, self.pair_right] = self.pair_result
        return table

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def outcome(self, label: str) -> Outcome:
        try:
            return self._outcome_by_label[label]
        except KeyError:
            raise KeyError(f"unknown outcome label {label!r}") from None

    def transition(self, target: int, label: int, source: int) -> Transition:
        """Look up a transition by its (target, label, source) triple."""
        try:
            return self._by_triple[(target, label, source)]
        except KeyError:
            raise KeyError(f"no transition ({target}, {label}, {source})") from None

    def compose(self, a: Transition | int, b: Transition | int) -> Transition | None:
        """a∘b ("first b, then a"), or None when not composable."""
        cid = self.compose_ids(_tid(a), _tid(b))
        return None if cid < 0 else self.transitions[cid]

    def inverse(self, a: Transition | int) -> Transition:
        return self.transitions[self.inverse_table[_tid(a)]]

    def unit(self, x: Outcome | int | str) -> Transition:
        return self.transitions[self.unit_table[self.outcome_id(x)]]

    def outcome_id(self, x: Outcome | int | str) -> int:
        """Id of an outcome given as an Outcome, its id or its label."""
        if isinstance(x, Outcome):
            return x.id
        return self.outcome(x).id if isinstance(x, str) else int(x)

    def arrows(self, x: Outcome | int | str, y: Outcome | int | str) -> np.ndarray:
        """Ids of the transitions x -> y, ascending."""
        return np.flatnonzero(
            (self.source == self.outcome_id(x)) & (self.target == self.outcome_id(y))
        )

    def inverse_products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """ids of a^-1 ∘ b for every a in ``a`` (rows) and b in ``b``
        (columns), -1 where the pair is not composable."""
        return self.compose_ids(self.inverse_table[a][:, None], b[None, :])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteGroupoid)
            and self.outcomes == other.outcomes
            and self.transitions == other.transitions
            and np.array_equal(self.compose_table, other.compose_table)
            and np.array_equal(self.inverse_table, other.inverse_table)
            and np.array_equal(self.unit_table, other.unit_table)
            and self.group == other.group
        )

    def __repr__(self) -> str:
        return (
            f"FiniteGroupoid(|Omega|={self.n_outcomes}, |G|={self.n_transitions})"
        )


@dataclass(frozen=True)
class Quiver:
    """Generating transitions over outcomes, labeled in a finite group."""

    outcomes: tuple[Outcome, ...]
    generators: tuple[Transition, ...]
    group: FiniteGroup
    names: tuple[str, ...]

    def __post_init__(self):
        n_out = len(self.outcomes)
        if [o.id for o in self.outcomes] != list(range(n_out)):
            raise ValueError("outcome ids must be dense 0..|Omega|-1")
        if len(set(o.label for o in self.outcomes)) != n_out:
            raise ValueError("outcome labels must be unique")
        if len(self.names) != len(self.generators):
            raise ValueError("one name per generator required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        seen = set()
        for t in self.generators:
            if not (0 <= t.source < n_out and 0 <= t.target < n_out):
                raise ValueError(f"generator {t.id} endpoint not a declared outcome")
            if not (0 <= t.label < self.group.order):
                raise ValueError(f"generator {t.id} label not a group element")
            if t.triple() in seen:
                raise ValueError(f"duplicate generator triple {t.triple()}")
            seen.add(t.triple())


def make_quiver(
    outcome_labels,
    group: FiniteGroup,
    generators,
    names=None,
) -> Quiver:
    """Assemble a quiver from labels and (source_label, target_label, label) triples."""
    outcomes, gens = _labeled_transitions(outcome_labels, generators, "generator")
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    return Quiver(outcomes, gens, group, tuple(names))


def _labeled_transitions(outcome_labels, triples, noun: str):
    """Outcomes for the labels, and one Transition per
    (source_label, target_label, label) triple, ids in order."""
    outcomes = tuple(Outcome(i, str(lab)) for i, lab in enumerate(outcome_labels))
    by_label = {o.label: o.id for o in outcomes}
    transitions = []
    for i, (src, tgt, lab) in enumerate(triples):
        if src not in by_label or tgt not in by_label:
            raise ValueError(f"{noun} {i} endpoint not a declared outcome")
        transitions.append(Transition(i, by_label[src], by_label[tgt], int(lab)))
    return outcomes, tuple(transitions)


def _tid(t: Transition | int) -> int:
    return t.id if isinstance(t, Transition) else int(t)


def _from_triples(
    outcomes: tuple[Outcome, ...],
    group: FiniteGroup,
    triples,
) -> FiniteGroupoid:
    """Build a groupoid from a closed set of (target, label, source) triples.

    ``triples`` is an integer array of (target, label, source) rows, in
    any order; repeated rows collapse. The set must contain every unit
    (x, e, x), be closed under label inversion and under the composition
    rule (y2,g2,x2)∘(y1,g1,x1) = (y2, g2*g1, x1) when x2 == y1. Units and
    inverses are checked here. Closure under composition is up to the
    callers, which build closed sets: all of Ω×Γ×Ω, or a quiver's closure.
    """
    n_out, k = len(outcomes), group.order
    tri = np.asarray(triples, dtype=int).reshape(-1, 3)
    present = np.zeros((n_out, n_out, k), dtype=bool)   # [target, source, label]
    present[tri[:, 0], tri[:, 2], tri[:, 1]] = True
    Y, X, L = np.nonzero(present)                        # in canonical order
    n = len(Y)
    transitions = tuple(map(Transition, range(n), X.tolist(), Y.tolist(), L.tolist()))

    # dense (target, label, source) -> id lookup, through which the groupoid composes
    lookup = np.full((n_out, k, n_out), UNDEFINED, dtype=int)
    lookup[Y, L, X] = np.arange(n)

    diagonal = np.arange(n_out)
    unit_table = lookup[diagonal, group.identity, diagonal]
    if np.any(unit_table < 0):
        label = outcomes[int(np.argmax(unit_table < 0))].label
        raise ValueError(f"transition set lacks the unit of outcome {label!r}")
    inverse_table = lookup[X, group.inverse[L], Y]
    if np.any(inverse_table < 0):
        i = int(np.argmax(inverse_table < 0))
        raise ValueError(
            f"transition set is not closed under inversion at {transitions[i].triple()}"
        )
    return FiniteGroupoid._from_lookup(
        outcomes, transitions, lookup, L, inverse_table, unit_table, group
    )


def from_compose_table(
    outcome_labels,
    transitions,
    compose_table,
    group: FiniteGroup | None = None,
) -> FiniteGroupoid:
    """Load a groupoid from an explicit composition table, strictly.

    ``transitions`` is a sequence of (source_label, target_label, label)
    triples; ``compose_table`` entries are transition ids or None for
    undefined. Units and inverses are derived from the table, then
    ``check_axioms`` checks every law exhaustively; any failure raises
    GroupoidAxiomError instead of loading lazily.
    """
    outcomes, trs = _labeled_transitions(outcome_labels, transitions, "transition")
    n = len(trs)
    ct = np.array(
        [[UNDEFINED if e is None else int(e) for e in row] for row in compose_table],
        dtype=int,
    )
    if ct.shape != (n, n):
        raise ValueError("compose table shape must be |G| x |G|")
    if ct.min() < UNDEFINED or ct.max() >= n:
        raise ValueError("compose table entries must be transition ids or null")

    # In a groupoid 1_x is the only idempotent at x, and a^-1 the only b
    # with a∘b = 1_{t(a)}. Tables read that way are then judged, law by
    # law, by check_axioms; if they are wrong, some law fails.
    ids = np.arange(n)
    src = np.array([t.source for t in trs], dtype=int)
    tgt = np.array([t.target for t in trs], dtype=int)
    idempotent = (src == tgt) & (ct.diagonal() == ids)
    unit_table = _first_true(idempotent & (src == np.arange(len(outcomes))[:, None]))
    inverse_table = _first_true((ct == unit_table[tgt][:, None]) & (ct >= 0))

    return FiniteGroupoid(
        outcomes, trs, ct, inverse_table, unit_table, group=group, validate=True
    )


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Column of the first True in each row of ``mask``, or UNDEFINED."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), UNDEFINED)


def pair_groupoid(n: int, labels=None) -> FiniteGroupoid:
    """All ordered pairs (y, x) over n outcomes; (z,y)∘(y,x) = (z,x).

    This is C_{n,1}: the register is the trivial group."""
    if n < 1:
        raise ValueError("pair groupoid needs at least one outcome")
    return cyclic_groupoid(n, 1, labels=labels)


def cyclic_groupoid(n_outcomes: int, k: int, labels=None) -> FiniteGroupoid:
    """C_{n,k}: all transitions (y, sigma^j, x) with a Z_k inner register."""
    if n_outcomes < 1 or k < 1:
        raise ValueError("cyclic groupoid needs n_outcomes >= 1 and k >= 1")
    if labels is None:
        labels = [str(i) for i in range(n_outcomes)]
    outcomes = tuple(Outcome(i, str(lab)) for i, lab in enumerate(labels))
    triples = np.indices((n_outcomes, k, n_outcomes)).reshape(3, -1).T
    return _from_triples(outcomes, cyclic_group(k), triples)


def generate_from_quiver(q: Quiver) -> FiniteGroupoid:
    """Close the quiver under composition and inversion.

    A connected groupoid is a pair groupoid times one isotropy group. So,
    per connected component of the quiver (its arrows taken both ways), a
    breadth-first spanning tree from the least outcome x0 gives an arrow
    x0 -> x of label tau_x for each outcome x of the component. Each
    generator (y, g, x) of the component gives the loop
    tau_y^-1 g tau_x at x0 (a Schreier generator), and these loops
    generate the isotropy group Γ_x0. The component's arrows are then
    exactly (y, tau_y γ tau_x^-1, x) for x, y in it and γ in Γ_x0. An
    outcome that no generator touches is a component with only its unit.
    Finiteness is guaranteed by the finite label group: the closure lives
    inside outcomes x group x outcomes.
    """
    grp, n_out = q.group, len(q.outcomes)
    letters: list[list[tuple[int, int]]] = [[] for _ in range(n_out)]  # x -> (y, label)
    for t in q.generators:
        letters[t.source].append((t.target, t.label))
        letters[t.target].append((t.source, grp.inv(t.label)))
    root = [UNDEFINED] * n_out       # least outcome of x's component
    tau = [grp.identity] * n_out     # label of the tree arrow root -> x
    for x0 in range(n_out):
        if root[x0] >= 0:
            continue
        root[x0] = x0
        queue = [x0]
        for x in queue:
            for y, label in letters[x]:
                if root[y] < 0:
                    root[y], tau[y] = x0, grp.mul(label, tau[x])
                    queue.append(y)
    root, tau = np.array(root), np.array(tau)

    gens = np.array([t.triple() for t in q.generators], dtype=int).reshape(-1, 3)
    tgt, lab, src = gens.T
    schreier = grp.table[grp.table[grp.inverse[tau[tgt]], lab], tau[src]]
    parts = []
    for x0 in np.flatnonzero(root == np.arange(n_out)):
        members = np.flatnonzero(root == x0)
        iso = _subgroup(grp, schreier[root[src] == x0])
        # [y, γ, x] -> tau_y γ tau_x^-1
        labels = grp.table[grp.table[tau[members][:, None], iso][:, :, None],
                           grp.inverse[tau[members]][None, None, :]]
        c, h = len(members), len(iso)
        parts.append(np.column_stack(
            [np.repeat(members, h * c), labels.ravel(), np.tile(members, c * h)]))
    return _from_triples(q.outcomes, grp, np.concatenate(parts))


def _subgroup(group: FiniteGroup, gens: np.ndarray) -> np.ndarray:
    """The elements of the subgroup generated by ``gens``, ascending.

    A breadth-first search from the identity under right multiplication by
    the generators; in a finite group it reaches their inverses too.
    """
    gens = gens.tolist()
    elements = [group.identity]
    seen = set(elements)
    for h in elements:
        for p in group.table[h, gens].tolist():
            if p not in seen:
                seen.add(p)
                elements.append(p)
    return np.array(sorted(elements))


def is_irreducible(q: Quiver, g: FiniteGroupoid) -> dict[str, bool]:
    """For each generator: can it be written as a composition of two
    quiver elements? Maps generator name -> True when it cannot."""
    gen_ids = np.array([g.transition(t.target, t.label, t.source).id for t in q.generators],
                       dtype=int)
    products = g.compose_ids(gen_ids[:, None], gen_ids[None, :])
    return {name: bool(np.all(products != gid)) for name, gid in zip(q.names, gen_ids)}


def check_axioms(g: FiniteGroupoid, max_violations: int = 1000) -> AxiomReport:
    """Exhaustively verify the groupoid axioms; violations go in the report.

    Checked: composability/closure (defined iff source matches target,
    endpoint coherence of results), associativity on all composable
    triples, unit laws, inverse laws, and reversibility (inverse is a
    bijection). An empty report means a valid groupoid. The report keeps
    the first ``max_violations``; ``truncated`` says there were more.

    Associativity is proved from a generating set when the closure laws
    hold (Light's test): then the middle factors b with (a∘b)∘c = a∘(b∘c)
    for all composable a, c are closed under ∘, so checking the letters
    of ``_letters`` decides every triple. Only when that proof fails are
    the triples checked middle factor by middle factor, so the violations
    reported are the same either way.
    """
    limit = max(max_violations, 0)
    found = list(itertools.islice(_violations(g), limit + 1))
    return AxiomReport(
        tuple(AxiomViolation(kind, detail) for kind, detail in found[:limit]),
        truncated=len(found) > limit,
    )


def _violations(g: FiniteGroupoid):
    """(kind, detail) of each axiom violation, lazily, in report order."""
    n = g.n_transitions
    ct, src, tgt = g.compose_table, g.source, g.target
    name = _short_name(g)

    # table sanity; everything after guards against out-of-range entries
    ok_range = (ct >= UNDEFINED) & (ct < n)
    for a, b in np.argwhere(~ok_range):
        yield "closure", f"entry ({name(a)}, {name(b)}) is not a transition id"
    defined = ok_range & (ct >= 0)

    # composability: defined iff s(a) == t(b); endpoints of results coherent
    should = src[:, None] == tgt[None, :]
    for a, b in np.argwhere(defined & ~should):
        yield "closure", f"{name(a)}∘{name(b)} defined but sources/targets do not match"
    for a, b in np.argwhere(~defined & should & ok_range):
        yield "closure", f"{name(a)}∘{name(b)} composable but undefined"
    a, b = np.nonzero(defined)
    c = ct[a, b]
    incoherent = np.flatnonzero((tgt[c] != tgt[a]) | (src[c] != src[b]))
    closed = ok_range.all() and np.array_equal(defined, should) and not incoherent.size
    for i in incoherent:
        yield "closure", f"{name(a[i])}∘{name(b[i])} = {name(c[i])} has wrong endpoints"

    # associativity over all composable triples, grouped by the middle factor.
    # With the closure laws in force, (a∘b)∘c = a∘(b∘c) at middle factors b1
    # and b2 gives it at b1∘b2:
    #   (a∘(b1∘b2))∘c = ((a∘b1)∘b2)∘c = (a∘b1)∘(b2∘c) = a∘(b1∘(b2∘c)) = a∘((b1∘b2)∘c),
    # so letters whose left products reach every arrow prove it for all b.
    # Otherwise (no closure, or a letter fails) every b is checked.
    proved = closed and not any(_misassociated(ct, defined, b)[2].any() for b in _letters(g))
    if not proved:
        for b in range(n):
            As, Cs, bad = _misassociated(ct, defined, b)
            for i, j in np.argwhere(bad):
                x, y, z = name(As[i]), name(b), name(Cs[j])
                yield "associativity", f"({x}∘{y})∘{z} != {x}∘({y}∘{z})"

    # units: one gather over each fiber
    for o in g.outcomes:
        u = int(g.unit_table[o.id])
        if not (0 <= u < n) or src[u] != o.id or tgt[u] != o.id:
            yield "unit", f"unit of outcome {o.label!r} is not a loop at it"
            continue
        right, left = g.source_fibers[o.id], g.target_fibers[o.id]
        for a in right[ct[right, u] != right]:
            yield "unit", f"{name(a)}∘{name(u)} != {name(a)}"
        for a in left[ct[u, left] != left]:
            yield "unit", f"{name(u)}∘{name(a)} != {name(a)}"

    # inverses
    for a in range(n):
        b = int(g.inverse_table[a])
        if not (0 <= b < n):
            yield "inverse", f"inverse of {name(a)} is not a transition id"
            continue
        if ct[a, b] != g.unit_table[tgt[a]]:
            yield "inverse", f"{name(a)}∘{name(b)} is not the unit at its target"
        if ct[b, a] != g.unit_table[src[a]]:
            yield "inverse", f"{name(b)}∘{name(a)} is not the unit at its source"

    # reversibility: inversion must be a bijection of G
    if len(set(g.inverse_table.tolist())) != n:
        yield "reversibility", "inverse map is not a bijection of the transitions"


def _misassociated(ct: np.ndarray, defined: np.ndarray, b: int):
    """(As, Cs, bad): the a with a∘b and the c with b∘c defined, and the
    mask of the (a, c) where (a∘b)∘c != a∘(b∘c) or either side is undefined."""
    As = np.nonzero(defined[:, b])[0]
    Cs = np.nonzero(defined[b, :])[0]
    lhs = ct[ct[As, b][:, None], Cs[None, :]]   # a∘b is defined, so a valid row
    rhs = ct[As[:, None], ct[b, Cs][None, :]]
    return As, Cs, (lhs != rhs) | (lhs < 0) | (rhs < 0)


def _letters(g: FiniteGroupoid) -> list[int]:
    """The units, then arrows in id order, until left products by the
    letters reach every arrow: each arrow is then a product of letters.

    A breadth-first search from the units composes each reached arrow on
    the left with every letter; each letter added counts as reached.
    Needs the closure laws (every table entry an id or -1).
    """
    n, ct = g.n_transitions, g.compose_table
    letters = [u for u in g.unit_table.tolist() if 0 <= u < n]
    reached = np.zeros(n, dtype=bool)
    reached[letters] = True
    frontier = np.flatnonzero(reached)
    while True:
        while frontier.size:
            products = ct[np.ix_(letters, frontier)]
            new = np.zeros(n, dtype=bool)
            new[products[products >= 0]] = True
            new &= ~reached
            reached |= new
            frontier = np.flatnonzero(new)
        if reached.all():
            return letters
        letters.append(int(np.argmin(reached)))   # the first arrow not reached
        reached[letters[-1]] = True
        frontier = np.flatnonzero(reached)        # the new letter acts on all of them


def _short_name(g: FiniteGroupoid):
    def name(i: int) -> str:
        t = g.transitions[int(i)]
        y = g.outcomes[t.target].label if t.target < g.n_outcomes else "?"
        x = g.outcomes[t.source].label if t.source < g.n_outcomes else "?"
        return f"{y}|{t.label}|{x}"

    return name


def transition_name(g: FiniteGroupoid, t: Transition | int) -> str:
    """Canonical display name target|label|source, e.g. ``+|1|-``."""
    return _short_name(g)(_tid(t))
