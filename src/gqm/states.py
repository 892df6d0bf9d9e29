"""States on the groupoid algebra.

A state is a positive normalized functional, carried here by its
characteristic function phi on transitions together with a scalar
weight w, so that rho(delta_a) = w * phi(a) and rho(1) = 1. Keeping
phi unit-modulus and putting the normalization into w is the reading
that reproduces the reference amplitudes while preserving rho(1) = 1.

Positive-definiteness is checked blockwise: the Gram entry
phi(a^-1 ∘ b) exists exactly when a and b share a target, so each
target fiber contributes one Hermitian matrix that must be PSD. For a
factorizable phi that matrix has rank one, conj(phi(a)) phi(b), so each
block first gets a rank-one certificate (``algebra.rank_one_certificate``):
its Weyl bound eps limits how far any eigenvalue lies below zero, and
eps < tol * scale / 2 proves the block PSD without an eigvalsh. A block
that fails the certificate falls back to the eigvalsh, so no
accept/reject decision changes. A block, eigenvalue or unit sum that is
not finite rejects phi.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, _check, rank_one_certificate
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

    Each target fiber gives one matrix; all must be finite and Hermitian
    with minimum eigenvalue >= -tol * max|entry|. A fiber whose Hermitian
    part H passes the rank-one certificate, with Weyl bound
    eps < tol * scale / 2, needs no eigvalsh: every eigenvalue of H is at
    least -eps, and the other half of the tolerance covers eigvalsh's own
    rounding, so the eigvalsh that every other fiber gets would accept it
    too. The witness names the first offending fiber and its minimum
    eigenvalue. A NaN fails every comparison here, so it rejects.
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
        if not herm <= tol * scale:
            return PositivityReport(
                False, fiber=o.id, min_eigenvalue=None, hermiticity_defect=herm
            )
        h = 0.5 * (m + m.conj().T)
        if not np.isfinite(h).all():
            low = float("nan")  # an overflowing block has no spectrum to trust
        elif rank_one_certificate(h)[2] < 0.5 * tol * scale:
            continue
        else:
            low = float(np.linalg.eigvalsh(h)[0])
        if not low >= -tol * scale:
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
    modulus = float(np.max(np.abs(np.abs(vals) - 1.0), initial=0.0))
    conj_defect = float(np.max(np.abs(vals[g.inverse_table] - np.conj(vals)), initial=0.0))
    ok = not zeros and modulus <= tol and conj_defect <= tol
    return UnitarityReport(ok, zeros, modulus, conj_defect)


def _factorization_defect(g: FiniteGroupoid, vals: np.ndarray) -> np.ndarray:
    """|phi(a∘b) - phi(a) phi(b)| on each composable pair, in pair order."""
    return np.abs(vals[g.pair_result] - vals[g.pair_left] * vals[g.pair_right])


def is_factorizable_function(
    g: FiniteGroupoid, phi: GroupoidFunction, tol: float = 1e-9
) -> bool:
    """Exhaustive check of phi(a∘b) = phi(a) phi(b) on composable pairs."""
    return bool(np.all(_factorization_defect(g, phi.values) <= tol))


def factorizable_extend(
    g: FiniteGroupoid,
    q: Quiver,
    gen_values: dict[str, complex],
    tol: float = 1e-9,
) -> GroupoidFunction | ContradictionReport:
    """Extend unit-modulus generator values to a factorizable phi on G.

    Search: units get 1 and generators their values; then, breadth
    first, each arrow is composed on the left by the letters g0, g0^-1,
    g1, ... (the given values and their conjugates). The first value to
    reach an arrow wins; its inverse gets the conjugate if it has none.

    Judge: (1) each letter's searched value is its given value and (2)
    phi(a∘b) = phi(a) phi(b) on every composable pair, within tol. If
    both hold, phi is the homomorphism extending the letters, so no two
    words for one transition disagree. If one fails, its transition has
    two words with different values (its search word, and the letter or
    the words of a and b), rebuilt from the search pointers into the
    ContradictionReport. So checks inside the search decide nothing more.
    """
    missing = [n for n in q.names if n not in gen_values]
    if missing:
        raise ValueError(f"missing generator values: {missing}")
    for name in gen_values:
        if name not in q.names:
            raise ValueError(f"unknown generator {name!r}")
        if abs(abs(complex(gen_values[name])) - 1.0) > tol:
            raise ValueError(f"generator value for {name!r} is not unit-modulus")

    inverse = g.inverse_table.tolist()
    letters, given, letter_words = [], [], []
    for name, t in zip(q.names, q.generators):
        a = g.transition(t.target, t.label, t.source).id
        v = complex(gen_values[name])
        letters += [a, inverse[a]]
        given += [v, v.conjugate()]
        letter_words += [name, f"{name}^-1"]
    # how[a]: a root's word, (k, b) for letter k ∘ b, or (None, b) for b^-1
    phi: list[complex | None] = [None] * g.n_transitions
    how: list = [None] * g.n_transitions
    queue: deque[int] = deque()

    def reach(a: int, v: complex, via) -> None:
        phi[a], how[a] = v, via
        queue.append(a)
        if phi[inverse[a]] is None:
            phi[inverse[a]], how[inverse[a]] = v.conjugate(), (None, a)
            queue.append(inverse[a])

    for o in g.outcomes:
        reach(int(g.unit_table[o.id]), 1.0 + 0j, f"1_{o.label}")
    for k in range(0, len(letters), 2):
        if phi[letters[k]] is None:
            reach(letters[k], given[k], letter_words[k])
    products = g.compose_ids(np.array(letters, dtype=int)[:, None], np.arange(g.n_transitions))
    rows = list(enumerate(products.tolist()))
    while queue:
        b = queue.popleft()
        for k, row in rows:
            if (a := row[b]) >= 0 and phi[a] is None:
                reach(a, given[k] * phi[b], (k, b))
    if None in phi:
        raise ValueError(
            f"quiver does not generate the groupoid: transition "
            f"{phi.index(None)} is unreachable"
        )

    def word(a: int) -> str:
        head, tail = "", ""
        while not isinstance(how[a], str):
            k, a = how[a]
            if k is None:
                head, tail = head + "(", ")^-1" + tail
            else:
                head += f"{letter_words[k]}∘"
        return head + how[a] + tail

    vals = np.array(phi, dtype=complex)
    off = np.abs(vals[letters] - np.array(given)) > tol
    bad = _factorization_defect(g, vals) > tol
    if np.any(off):
        k = int(np.argmax(off))
        a, value, other = letters[k], given[k], letter_words[k]
    elif np.any(bad):
        i = int(np.argmax(bad))
        a, b, c = (int(x[i]) for x in (g.pair_result, g.pair_left, g.pair_right))
        value, other = phi[b] * phi[c], f"{word(b)}∘{word(c)}"
    else:
        return GroupoidFunction(vals)
    return ContradictionReport(g.transitions[a], phi[a], word(a), value, other)


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
    if not np.isfinite(unit_sum):
        raise ValueError("sum of phi over units is not finite; cannot normalize")
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
