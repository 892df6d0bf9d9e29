"""The convolution *-algebra of a finite groupoid.

Elements are complex coefficient vectors over the transitions,
f = sum_a f(a) delta_a. The product is groupoid convolution, the
involution is f*(a) = conj(f(a^-1)), and the left-regular
representation realizes elements as |G| x |G| matrices; its operator
norm is the C*-norm (no completion needed in finite dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from .groupoid import FiniteGroupoid, Transition, _tid


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Finitely supported complex function on the transitions."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=complex)
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.coeffs - other.coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.coeffs)

    def __mul__(self, c) -> "AlgebraElement":
        if not isinstance(c, Number):
            return NotImplemented
        return AlgebraElement(self.coeffs * c)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if len(self.coeffs) else 0.0


def _check(g: FiniteGroupoid, *elements: AlgebraElement) -> None:
    for f in elements:
        if f.coeffs.shape != (g.n_transitions,):
            raise ValueError(
                f"dimension mismatch: element of length {f.coeffs.shape} "
                f"on a groupoid with {g.n_transitions} transitions"
            )


def element(g: FiniteGroupoid, coeffs) -> AlgebraElement:
    f = AlgebraElement(np.asarray(coeffs, dtype=complex))
    _check(g, f)
    return f


def zero(g: FiniteGroupoid) -> AlgebraElement:
    return AlgebraElement(np.zeros(g.n_transitions, dtype=complex))


def delta(g: FiniteGroupoid, t: Transition | int) -> AlgebraElement:
    c = np.zeros(g.n_transitions, dtype=complex)
    c[_tid(t)] = 1.0
    return AlgebraElement(c)


def unit_element(g: FiniteGroupoid) -> AlgebraElement:
    """Sum of the unit deltas; the two-sided identity for convolution."""
    c = np.zeros(g.n_transitions, dtype=complex)
    c[g.unit_table] = 1.0
    return AlgebraElement(c)


def incidence_element(g: FiniteGroupoid) -> AlgebraElement:
    """Coefficient 1 on every transition."""
    return AlgebraElement(np.ones(g.n_transitions, dtype=complex))


def convolve(g: FiniteGroupoid, f: AlgebraElement, h: AlgebraElement) -> AlgebraElement:
    """(f*h)(c) = sum of f(a) h(b) over composable pairs with a∘b = c."""
    _check(g, f, h)
    out = np.zeros(g.n_transitions, dtype=complex)
    np.add.at(out, g.pair_result, f.coeffs[g.pair_left] * h.coeffs[g.pair_right])
    return AlgebraElement(out)


def adjoint(g: FiniteGroupoid, f: AlgebraElement) -> AlgebraElement:
    """f*(a) = conj(f(a^-1)); an involutive anti-homomorphism."""
    _check(g, f)
    return AlgebraElement(np.conj(f.coeffs[g.inverse_table]))


def is_self_adjoint(g: FiniteGroupoid, f: AlgebraElement, tol: float = 1e-12) -> bool:
    return (f - adjoint(g, f)).max_abs() <= tol


def regular_representation(g: FiniteGroupoid, f: AlgebraElement) -> np.ndarray:
    """Matrix of left convolution by f in the delta basis.

    lambda is a faithful *-homomorphism: lambda(f*h) = lambda(f)lambda(h)
    and lambda(f*) is the conjugate transpose.
    """
    _check(g, f)
    n = g.n_transitions
    mat = np.zeros((n, n), dtype=complex)
    np.add.at(mat, (g.pair_result, g.pair_right), f.coeffs[g.pair_left])
    return mat


def regular_block(g: FiniteGroupoid, coeffs: np.ndarray, fib: np.ndarray) -> np.ndarray:
    """The block of lambda(f) on the source fiber ``fib``: f(a ∘ b^-1) for a, b in it.

    Since a∘b has the source of b, lambda(f) maps each source fiber into
    itself, so these blocks are all of it.
    """
    return coeffs[g.compose_table[fib[:, None], g.inverse_table[fib][None, :]]]


def rank_one_certificate(block: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Rank-one candidate of a Hermitian block, with its Weyl bound.

    With the pivot p = block[j, j], the largest diagonal entry, and
    u = block[:, j] / sqrt(p), the candidate R = u u^H agrees with
    ``block`` on row and column j, and block - R is the Schur complement
    of the pivot. R has the eigenpair (||u||^2, u / ||u||) and f - 1 zero
    eigenvalues. By Weyl's inequality each eigenvalue of ``block``, in
    ascending order, lies within eps = ||block - R||_F of the matching
    eigenvalue of R. For a Gram block of a state the pivot is a unit
    value, and for a rank-one block vv^H the largest |v_j|.

    Returns (||u||^2, u, eps). eps is inf when p is not a positive number
    and NaN when the block holds a NaN or an overflow, so that every test
    ``eps < bound`` fails and the caller falls back to a diagonalization.
    """
    j = int(np.argmax(block.diagonal().real))
    p = block[j, j].real
    if not p > 0.0:
        return 0.0, block[:, j], np.inf
    u = block[:, j] / np.sqrt(p)
    eps = float(np.linalg.norm(block - np.outer(u, u.conj())))
    return float(np.vdot(u, u).real), u, eps


def fiber_eigh(fibers, block) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a Hermitian matrix that is block-diagonal over ``fibers``.

    ``fibers`` partition the indices and ``block(fib)`` returns the block
    on ``fib``; each block gets its own eigh. The result keeps eigh's
    contract: eigenvalues ascending (a stable sort, so ties keep fiber
    order) and eigenvector columns zero off the block they came from.
    """
    n = sum(len(fib) for fib in fibers)
    evals = np.empty(n)
    vecs = np.zeros((n, n), dtype=complex)
    start = 0
    for fib in fibers:
        stop = start + len(fib)
        evals[start:stop], vecs[fib, start:stop] = np.linalg.eigh(block(fib))
        start = stop
    order = np.argsort(evals, kind="stable")
    return evals[order], vecs[:, order]


def norm(g: FiniteGroupoid, f: AlgebraElement) -> float:
    """C*-norm: largest singular value of the regular representation."""
    _check(g, f)
    return float(np.linalg.norm(regular_representation(g, f), 2))


def random_element(g: FiniteGroupoid, rng: np.random.Generator) -> AlgebraElement:
    n = g.n_transitions
    return AlgebraElement(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_self_adjoint(g: FiniteGroupoid, rng: np.random.Generator) -> AlgebraElement:
    f = random_element(g, rng)
    return 0.5 * (f + adjoint(g, f))
