"""Hamiltonian dynamics in the groupoid algebra.

A self-adjoint element h generates the derivation D(a) = i[a, h] and
the unitary group u_t = exp(ith), both read off the spectrum of the
faithful regular representation lambda(h). Since a∘b has the source
of b, lambda(h) maps each source fiber G_x = {a : s(a) = x} into
itself: it is block-diagonal, with block entries h(a ∘ b^-1) for
a, b in G_x. Within a connected component these blocks are one matrix
up to a permutation: for an arrow r: x' -> x, a ↦ a∘r carries G_x onto
G_x', and h((a∘r) ∘ (b∘r)^-1) = h(a ∘ b^-1). So one eigh per component,
on the fiber of its least outcome, gives every block h|_{G_x} =
V diag(λ) V† (the structure theorem C*(G) ≅ M_|Ω|(C[Γ]) for a connected
G), with the rows of V read in the order a∘r of the fiber.

u_t ⋆ delta_{1_x} is the column of exp(it lambda(h)) at the unit 1_x,
so on the fiber G_x the coefficients of u_t are

    u_t(a) = sum_m V[a, m] e^{itλ_m} conj(V[1_x, m]),

and the transition amplitudes rho(delta_{1_y} ⋆ u_t ⋆ delta_{1_x}) =
w sum_{a: x -> y} phi(a) u_t(a), for every target y and every time of
a grid at once, are one matrix product

    w · C_x @ exp(i t⊗λ).T,   C_x[y, m] = (sum_{a: x -> y} phi(a) V[a, m]) conj(V[1_x, m]),

with exp(i t⊗λ) computed once per component. No |G| x |G| matrix is
formed. The closed forms known for special Hamiltonians serve as golden
tests, not as the algorithm. hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    _check,
    adjoint,
    convolve,
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

    def __post_init__(self):
        _check(self.groupoid, self.element)
        if not is_self_adjoint(self.groupoid, self.element, tol=1e-12):
            raise ValueError("Hamiltonian element must be self-adjoint")

    def spectrum(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The source-fiber blocks of lambda(h): ``(fiber, evals, vecs)`` per outcome x.

        ``fiber`` lists the arrows of G_x in the order of the rows of the
        f x f ``vecs``, and h|_{G_x} = vecs diag(evals) vecs†, evals
        ascending. The fibers of one connected component share one
        ``evals`` and one ``vecs`` array, from its one eigh. Cached.
        """
        return self._blocks

    @cached_property
    def _blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        g, coeffs = self.groupoid, self.element.coeffs
        blocks = []
        for x, fib in enumerate(g.source_fibers):
            # G_x reaches every outcome of x's component; the least, x0, owns the eigh,
            # and when x0 < x its block is read through the first arrow r: x -> x0
            targets = g.target[fib]
            x0 = int(targets.min())
            if x0 == x:
                blocks.append((fib, *np.linalg.eigh(regular_block(g, coeffs, fib))))
            else:
                r = fib[np.argmax(targets == x0)]
                fib0, evals, vecs = blocks[x0]
                blocks.append((g.compose_ids(fib0, r), evals, vecs))
        return blocks


def _components(g: FiniteGroupoid, h: Hamiltonian):
    """The blocks of ``h.spectrum()`` by connected component, in order of least
    outcome: ``(evals, vecs, [(x, fiber, conj(vecs[1_x])), ...])``."""
    comps: dict[int, tuple] = {}
    for x, (fib, evals, vecs) in enumerate(h.spectrum()):
        unit_row = vecs[np.argmax(fib == g.unit_table[x])].conj()
        comps.setdefault(int(g.target[fib].min()), (evals, vecs, []))[2].append((x, fib, unit_row))
    return comps.values()


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

    On each source fiber G_x, u_t(a) = sum_m V[a, m] e^{itλ_m} conj(V[1_x, m]),
    the entry of exp(it lambda(h)) at (a, 1_x), without forming that operator.
    """
    u = np.empty(g.n_transitions, dtype=complex)
    for evals, vecs, fibers in _components(g, h):
        phase = np.exp(1j * t * evals)
        for _, fib, unit_row in fibers:
            u[fib] = vecs @ (phase * unit_row)
    return AlgebraElement(u)


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

    One entry of ``amplitude_grid`` on the one-time grid.
    """
    g = s.groupoid
    return complex(amplitude_grid(s, h, TimeGrid(t, t, 1))[g.outcome_id(y), g.outcome_id(x), 0])


def amplitude_grid(s: State, h: Hamiltonian, grid: TimeGrid) -> np.ndarray:
    """rho(delta_{1_y} ⋆ u_t ⋆ delta_{1_x}) for every outcome pair and time, indexed [y, x, t].

    Only the arrows x -> y survive the unit sandwich, so the amplitude
    is w sum_{a: x -> y} phi(a) u_t(a). For each source x, with the block
    h|_{G_x} = V diag(λ) V†, that is row y of

        w · C_x @ exp(i t⊗λ).T,   C_x = (M_x @ V) * conj(V[1_x]),

    where M_x[y, a] = phi(a) for a in G_x with target y scatters phi over
    the targets. The exp is computed once per connected component, and
    u_t itself is never formed.
    """
    g = s.groupoid
    out = np.zeros((g.n_outcomes, g.n_outcomes, grid.steps), dtype=complex)
    for evals, vecs, fibers in _components(g, h):
        phase = np.exp(1j * np.outer(grid.times, evals))
        for x, fib, unit_row in fibers:
            scatter = np.zeros((g.n_outcomes, len(fib)), dtype=complex)
            scatter[g.target[fib], np.arange(len(fib))] = s.phi.values[fib]
            out[:, x, :] = s.weight * (((scatter @ vecs) * unit_row) @ phase.T)
    return out


def schrodinger_evolve(
    sp: GnsSpace, s: State, h: Hamiltonian, grid: TimeGrid
) -> np.ndarray:
    """State-picture trajectory psi_t = exp(-itH)|0>, H = pi_rho(h).

    This is pi_rho(u_t)^dagger |0>, the dual of the Heisenberg flow
    u_t^dagger a u_t, and satisfies i d/dt psi = H psi in the standard
    form; expectation values <psi_t| pi(a) |psi_t> equal rho(Phi_t(a)).
    With the source-fiber blocks h|_{G_x} = V diag(λ) V†,

        psi_t = sum_x project[:, G_x] V diag(e^{-itλ}) V† lift[G_x] |0>,

    and the fibers of one connected component share λ, so each component
    costs one exp over the grid and one matrix product.
    """
    coeffs = sp.lift @ sp.cyclic_vector
    psi = np.zeros((grid.steps, sp.dim), dtype=complex)
    for evals, vecs, fibers in _components(s.groupoid, h):
        term = sum(
            (vecs.conj().T @ coeffs[fib])[:, None] * (sp.project[:, fib] @ vecs).T
            for _, fib, _ in fibers
        )
        psi += np.exp(-1j * np.outer(grid.times, evals)) @ term
    return psi


def feynman_vector(sp: GnsSpace, s: State) -> np.ndarray:
    """pi_rho(I)|0> with I the incidence element (all-ones coefficients).

    pi(f)|0> is the class [f ⋆ 1] = [f], so this is project @ I.
    """
    return sp.project @ incidence_element(s.groupoid).coeffs
