"""States on the groupoid algebra.

A state is a positive normalized functional, carried here by its
characteristic function phi on transitions together with a scalar
weight w, so that rho(delta_a) = w * phi(a) and rho(1) = 1. Keeping
phi unit-modulus and putting the normalization into w is the reading
that reproduces the reference amplitudes while preserving rho(1) = 1.

Positive-definiteness is checked blockwise: the Gram entry
phi(a^-1 ∘ b) exists exactly when a and b share a target, so each
target fiber contributes one Hermitian matrix that must be PSD.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, _check
from .groupoid import FiniteGroupoid, Quiver, Transition


@dataclass(frozen=True, eq=False)
class GroupoidFunction:
    """Complex values indexed by transition id (the function phi)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    def as_element(self) -> AlgebraElement:
        return AlgebraElement(self.values.copy())


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the blockwise PSD check, with a witness on failure."""

    ok: bool
    fiber: int | None = None
    min_eigenvalue: float | None = None
    hermiticity_defect: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class UnitarityReport:
    ok: bool
    zero_transitions: tuple[int, ...] = ()
    modulus_defect: float = 0.0
    conjugation_defect: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ContradictionReport:
    """Two words for one transition produced irreconcilable phi values."""

    transition: Transition
    value_a: complex
    word_a: str
    value_b: complex
    word_b: str

    def __str__(self) -> str:
        return (
            f"transition {self.transition.id}: word {self.word_a} gives "
            f"{self.value_a:.6g}, word {self.word_b} gives {self.value_b:.6g}"
        )


@dataclass(frozen=True, eq=False)
class State:
    """rho(delta_a) = weight * phi(a), with rho(1) = 1."""

    groupoid: FiniteGroupoid
    phi: GroupoidFunction
    weight: float
    is_positive_definite: bool
    is_unitary: bool
    is_factorizable: bool


def expectation(s: State, f: AlgebraElement) -> complex:
    """<f>_rho = sum_a f(a) rho(delta_a); real for self-adjoint f."""
    _check(s.groupoid, f)
    return complex(s.weight * np.dot(f.coeffs, s.phi.values))


def is_positive_definite(
    g: FiniteGroupoid, phi: GroupoidFunction, tol: float = 1e-10
) -> PositivityReport:
    """PSD check of the fiberwise Gram matrices phi(a^-1 ∘ b).

    Each target fiber gives one matrix; all must be Hermitian with
    minimum eigenvalue >= -tol * max|entry|. The witness names the
    first offending fiber and its minimum eigenvalue.
    """
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    vals = phi.values
    worst_herm = 0.0
    for o in g.outcomes:
        fib = g.target_fibers[o.id]
        if len(fib) == 0:
            continue
        m = vals[g.inverse_products(fib, fib)]
        scale = float(np.max(np.abs(m))) or 1.0
        herm = float(np.max(np.abs(m - m.conj().T)))
        worst_herm = max(worst_herm, herm)
        if herm > tol * scale:
            return PositivityReport(
                False, fiber=o.id, min_eigenvalue=None, hermiticity_defect=herm
            )
        low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if low < -tol * scale:
            return PositivityReport(
                False, fiber=o.id, min_eigenvalue=low, hermiticity_defect=herm
            )
    return PositivityReport(True, hermiticity_defect=worst_herm)


def check_unitarity(
    g: FiniteGroupoid, phi: GroupoidFunction, tol: float = 1e-9
) -> UnitarityReport:
    """True iff |phi(a)| = 1 and phi(a^-1) = conj(phi(a)) for all a."""
    vals = phi.values
    zeros = tuple(int(i) for i in np.nonzero(np.abs(vals) == 0.0)[0])
    modulus = float(np.max(np.abs(np.abs(vals) - 1.0))) if len(vals) else 0.0
    conj_defect = (
        float(np.max(np.abs(vals[g.inverse_table] - np.conj(vals))))
        if len(vals)
        else 0.0
    )
    ok = not zeros and modulus <= tol and conj_defect <= tol
    return UnitarityReport(ok, zeros, modulus, conj_defect)


def is_factorizable_function(
    g: FiniteGroupoid, phi: GroupoidFunction, tol: float = 1e-9
) -> bool:
    """Exhaustive check of phi(a∘b) = phi(a) phi(b) on composable pairs."""
    vals = phi.values
    lhs = vals[g.pair_result]
    rhs = vals[g.pair_left] * vals[g.pair_right]
    return bool(len(lhs) == 0 or np.max(np.abs(lhs - rhs)) <= tol)


def factorizable_extend(
    g: FiniteGroupoid,
    q: Quiver,
    gen_values: dict[str, complex],
    tol: float = 1e-9,
) -> GroupoidFunction | ContradictionReport:
    """Extend unit-modulus generator values to a factorizable phi on G.

    Units get 1, inverses get conjugates, and words multiply. Whenever
    two words hit the same transition with values differing by more
    than tol, the extension fails with a ContradictionReport naming
    both words. On success the factorization identity is re-verified
    exhaustively over every composable pair.
    """
    missing = [n for n in q.names if n not in gen_values]
    if missing:
        raise ValueError(f"missing generator values: {missing}")
    for name in gen_values:
        if name not in q.names:
            raise ValueError(f"unknown generator {name!r}")
        if abs(abs(complex(gen_values[name])) - 1.0) > tol:
            raise ValueError(f"generator value for {name!r} is not unit-modulus")

    n = g.n_transitions
    values: dict[int, complex] = {}
    words: dict[int, str] = {}
    queue: deque[int] = deque()
    conflict: list[ContradictionReport] = []

    def assign(tid: int, val: complex, word: str) -> bool:
        if tid in values:
            if abs(values[tid] - val) > tol:
                conflict.append(
                    ContradictionReport(
                        g.transitions[tid], values[tid], words[tid], val, word
                    )
                )
                return False
            return True
        values[tid] = val
        words[tid] = word
        queue.append(tid)
        inv = int(g.inverse_table[tid])
        if inv != tid:
            return assign(inv, np.conj(val), f"({word})^-1")
        return True

    for o in g.outcomes:
        if not assign(int(g.unit_table[o.id]), 1.0 + 0j, f"1_{o.label}"):
            return conflict[0]
    seeds: list[tuple[int, complex, str]] = []
    for name, t in zip(q.names, q.generators):
        tid = g.transition(t.target, t.label, t.source).id
        val = complex(gen_values[name])
        if not assign(tid, val, name):
            return conflict[0]
        seeds.append((tid, val, name))
        inv = int(g.inverse_table[tid])
        seeds.append((inv, np.conj(val), f"{name}^-1"))

    while queue:
        tid = queue.popleft()
        for sid, sval, sword in seeds:
            cid = int(g.compose_table[sid, tid])
            if cid >= 0 and not assign(
                cid, sval * values[tid], f"{sword}∘{words[tid]}"
            ):
                return conflict[0]

    unassigned = [t for t in range(n) if t not in values]
    if unassigned:
        raise ValueError(
            f"quiver does not generate the groupoid: transition "
            f"{unassigned[0]} is unreachable"
        )

    vals = np.array([values[t] for t in range(n)], dtype=complex)
    lhs = vals[g.pair_result]
    rhs = vals[g.pair_left] * vals[g.pair_right]
    bad = np.abs(lhs - rhs) > tol
    if np.any(bad):
        k = int(np.argmax(bad))
        cid = int(g.pair_result[k])
        return ContradictionReport(
            g.transitions[cid],
            values[cid],
            words[cid],
            complex(rhs[k]),
            f"{words[int(g.pair_left[k])]}∘{words[int(g.pair_right[k])]}",
        )
    return GroupoidFunction(vals)


def state_from_phi(
    g: FiniteGroupoid,
    phi: GroupoidFunction,
    psd_tol: float = 1e-10,
    tol: float = 1e-9,
) -> State:
    """Build a state from phi, rejecting non-positive-definite input.

    The weight is 1 / sum_x phi(1_x); for unitary factorizable phi with
    phi(1_x) = 1 this is 1/|Omega|.
    """
    if phi.values.shape != (g.n_transitions,):
        raise ValueError("phi length must equal the number of transitions")
    psd = is_positive_definite(g, phi, psd_tol)
    if not psd:
        raise ValueError(
            f"phi is not positive definite: fiber {psd.fiber}, "
            f"min eigenvalue {psd.min_eigenvalue}, "
            f"hermiticity defect {psd.hermiticity_defect:.3g}"
        )
    unit_sum = complex(np.sum(phi.values[g.unit_table]))
    if abs(unit_sum) < 1e-14:
        raise ValueError("sum of phi over units vanishes; cannot normalize")
    # PSD forces the unit values (fiber diagonal entries) real and >= 0
    weight = 1.0 / unit_sum.real
    return State(
        groupoid=g,
        phi=phi,
        weight=weight,
        is_positive_definite=True,
        is_unitary=bool(check_unitarity(g, phi, tol)),
        is_factorizable=is_factorizable_function(g, phi, tol),
    )
