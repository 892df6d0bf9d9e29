"""Hamiltonian dynamics in the groupoid algebra.

A self-adjoint element h generates the derivation D(a) = i[a, h] and
the unitary group u_t = exp(ith), both read off the spectrum of the
faithful regular representation lambda(h). Since a∘b has the source
of b, lambda(h) maps each source fiber G_x = {a : s(a) = x} into
itself: it is block-diagonal, with block entries h(a ∘ b^-1) for
a, b in G_x. One small eigh per fiber gives lambda(h) = V diag(λ) V†
with V zero off the blocks.

u_t ⋆ delta_{1_x} is the column of exp(it lambda(h)) at the unit 1_x,
so the coefficients of u_t are the gather

    u_t(a) = sum_m V[a, m] e^{itλ_m} conj(V[1_{s(a)}, m]),

and the transition amplitude rho(delta_{1_y} ⋆ u_t ⋆ delta_{1_x}) =
w sum_{a: x -> y} phi(a) u_t(a) is, for all times of a grid at once,

    w · exp(i t⊗λ) @ c,   c_m = (sum_{a: x -> y} phi(a) V[a, m]) conj(V[1_x, m]).

No |G| x |G| operator is formed at any time t. The closed forms known
for special Hamiltonians serve as golden tests, not as the algorithm.
hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    _check,
    adjoint,
    convolve,
    fiber_eigh,
    incidence_element,
    is_self_adjoint,
    regular_block,
    regular_representation,  # noqa: F401  (kept bound: perfbench/spans.py wraps it)
)
from .gns import GnsSpace, represent  # noqa: F401  (represent: kept bound for perfbench/spans.py)
from .groupoid import FiniteGroupoid, Outcome
from .states import State


@dataclass(eq=False)
class Hamiltonian:
    """A self-adjoint algebra element; rejected otherwise."""

    groupoid: FiniteGroupoid
    element: AlgebraElement
    _spectrum: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check(self.groupoid, self.element)
        if not is_self_adjoint(self.groupoid, self.element, tol=1e-12):
            raise ValueError("Hamiltonian element must be self-adjoint")

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition (evals, vecs) of the regular representation, cached.

        One eigh per source fiber G_x, on the block h(a ∘ b^-1) for
        a, b in G_x. The full pair is assembled from the blocks: column
        m of ``vecs`` is zero off the fiber it came from, and ``evals``
        is sorted ascending with a stable sort, so ties keep fiber order.
        """
        if self._spectrum is None:
            g, coeffs = self.groupoid, self.element.coeffs
            self._spectrum = fiber_eigh(
                g.source_fibers, lambda fib: regular_block(g, coeffs, fib)
            )
        return self._spectrum


@dataclass(frozen=True)
class TimeGrid:
    start: float
    stop: float
    steps: int  # number of grid points

    def __post_init__(self):
        if not np.isfinite((self.start, self.stop)).all():
            raise ValueError("start and stop must be finite")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def derivation(g: FiniteGroupoid, a: AlgebraElement, h: Hamiltonian) -> AlgebraElement:
    """D(a) = i(a ⋆ h - h ⋆ a); kills h and the unit, satisfies Leibniz."""
    return 1j * (convolve(g, a, h.element) - convolve(g, h.element, a))


def exponential(g: FiniteGroupoid, h: Hamiltonian, t: float) -> AlgebraElement:
    """u_t = exp(ith): unitary, u_0 = 1, u_{t+s} = u_t ⋆ u_s.

    u_t(a) = sum_m V[a, m] e^{itλ_m} conj(V[1_{s(a)}, m]), the entry of
    exp(it lambda(h)) at (a, 1_{s(a)}), without forming that operator.
    """
    evals, vecs = h.spectrum()
    units = vecs[g.unit_table[g.source]].conj()
    return AlgebraElement(np.einsum("am,m,am->a", vecs, np.exp(1j * t * evals), units))


def heisenberg_evolve(
    g: FiniteGroupoid, a: AlgebraElement, h: Hamiltonian, t: float
) -> AlgebraElement:
    """Phi_t(a) = u_t* ⋆ a ⋆ u_t."""
    u = exponential(g, h, t)
    return convolve(g, convolve(g, adjoint(g, u), a), u)


def amplitude(
    s: State,
    x: Outcome | int | str,
    y: Outcome | int | str,
    h: Hamiltonian,
    t: float,
) -> complex:
    """rho(delta_{1_y} ⋆ u_t ⋆ delta_{1_x}): amplitude for y after x.

    The one-time case of ``amplitude_grid``.
    """
    return complex(amplitude_grid(s, x, y, h, TimeGrid(t, t, 1))[0])


def amplitude_grid(
    s: State,
    x: Outcome | int | str,
    y: Outcome | int | str,
    h: Hamiltonian,
    grid: TimeGrid,
) -> np.ndarray:
    """rho(delta_{1_y} ⋆ u_t ⋆ delta_{1_x}) at every time of the grid.

    Only the arrows x -> y survive the unit sandwich, so the amplitude
    is w sum_{a: x -> y} phi(a) u_t(a). With the fiber spectrum
    lambda(h) = V diag(λ) V† this is the gather

        w · exp(i t⊗λ) @ c,   c_m = (sum_{a: x -> y} phi(a) V[a, m]) conj(V[1_x, m]),

    one batched exp over all times; u_t itself is never formed.
    """
    g = s.groupoid
    evals, vecs = h.spectrum()
    arrows = g.arrows(x, y)
    c = (s.phi.values[arrows] @ vecs[arrows]) * vecs[g.unit(x).id].conj()
    return s.weight * (np.exp(1j * np.outer(grid.times, evals)) @ c)


def schrodinger_evolve(
    sp: GnsSpace, s: State, h: Hamiltonian, grid: TimeGrid
) -> np.ndarray:
    """State-picture trajectory psi_t = exp(-itH)|0>, H = pi_rho(h).

    This is pi_rho(u_t)^dagger |0>, the dual of the Heisenberg flow
    u_t^dagger a u_t, and satisfies i d/dt psi = H psi in the standard
    form; expectation values <psi_t| pi(a) |psi_t> equal rho(Phi_t(a)).
    The eigendecomposition of h is computed once and shared across the
    grid; each time costs two small matrix products.
    """
    evals, vecs = h.spectrum()
    left = sp.project @ vecs
    right = vecs.conj().T @ sp.lift @ sp.cyclic_vector
    return np.array([(left * np.exp(-1j * t * evals)) @ right for t in grid.times])


def feynman_vector(sp: GnsSpace, s: State) -> np.ndarray:
    """pi_rho(I)|0> with I the incidence element (all-ones coefficients).

    pi(f)|0> is the class [f ⋆ 1] = [f], so this is project @ I.
    """
    return sp.project @ incidence_element(s.groupoid).coeffs
