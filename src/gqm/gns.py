"""GNS construction and the fundamental representation.

The Gram matrix G[a, b] = rho(delta_{a^-1 ∘ b}) (zero when a, b have
different targets) defines the inner product <Psi_f, Psi_g> =
rho(f* ⋆ g), conjugate-linear in the first slot. The GNS space is the
quotient by the null directions. The Gram matrix is block-diagonal
over target fibers G^y = {a : t(a) = y}, so the quotient is realized by
one Hermitian eigendecomposition per fiber block with a relative
threshold, and every GNS basis vector is supported on a single target
fiber. Represented operators act through the regular representation
conjugated into the quotient coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, _check, fiber_eigh, regular_representation, unit_element
from .groupoid import FiniteGroupoid
from .states import State


@dataclass(frozen=True, eq=False)
class GnsSpace:
    """Quotient coordinates for a state's GNS Hilbert space.

    ``project`` maps coefficient vectors to the class coordinates, in
    which the GNS inner product is the plain Hermitian dot product
    (the state's weight is already embedded, so <0|0> = 1). ``lift``
    is a right inverse of ``project``.
    """

    dim: int
    project: np.ndarray        # (dim, |G|)
    lift: np.ndarray           # (|G|, dim)
    cyclic_vector: np.ndarray  # (dim,)
    gram: np.ndarray           # (|G|, |G|)
    eigenvalues: np.ndarray    # kept spectrum, ascending


def gram_matrix(g: FiniteGroupoid, s: State) -> np.ndarray:
    """G[a, b] = rho(delta_{a^-1 ∘ b}) when t(a) = t(b), else 0."""
    n = g.n_transitions
    gram = np.zeros((n, n), dtype=complex)
    phi = s.phi.values
    for fib in g.target_fibers:
        if len(fib) == 0:
            continue
        idx = g.compose_table[g.inverse_table[fib][:, None], fib[None, :]]
        gram[np.ix_(fib, fib)] = s.weight * phi[idx]
    return gram


def gns_build(g: FiniteGroupoid, s: State, null_tol: float = 1e-10) -> GnsSpace:
    """Quotient the algebra by the null ideal of the state.

    One eigh per target-fiber block of the Gram matrix. Eigenvalues
    below null_tol * max eigenvalue are null directions. The kept
    eigenpairs are stable-sorted ascending, so ties keep fiber order,
    and each eigenvector's phase is fixed so its first significant
    component is real positive. For a factorizable
    state every block has rank one, which makes each kept vector unique
    up to that phase: the coordinates do not depend on how LAPACK
    orders a degenerate eigenspace.
    """
    gram = gram_matrix(g, s)
    evals, vecs = fiber_eigh(g.target_fibers, lambda fib: gram[np.ix_(fib, fib)])
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise ValueError("degenerate state: Gram matrix has no positive spectrum")
    keep = evals > null_tol * lam_max
    kept = evals[keep]
    basis = _fix_phases(vecs[:, keep])
    root = np.sqrt(kept)
    project = root[:, None] * basis.conj().T
    lift = basis / root[None, :]
    cyclic = project @ unit_element(g).coeffs
    return GnsSpace(
        dim=int(keep.sum()),
        project=project,
        lift=lift,
        cyclic_vector=cyclic,
        gram=gram,
        eigenvalues=kept,
    )


def _fix_phases(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        mags = np.abs(col)
        i = int(np.argmax(mags > 1e-12 * mags.max()))
        phase = col[i] / abs(col[i])
        v[:, j] = col * np.conj(phase)
    return v


def represent(sp: GnsSpace, g: FiniteGroupoid, f: AlgebraElement) -> np.ndarray:
    """Matrix of pi_rho(f) on the quotient: sends class(h) to class(f ⋆ h)."""
    _check(g, f)
    return sp.project @ regular_representation(g, f) @ sp.lift


def fundamental_representation(g: FiniteGroupoid, f: AlgebraElement) -> np.ndarray:
    """pi_0(f) on C^Omega: entry (y, x) sums f over the arrows x -> y."""
    _check(g, f)
    mat = np.zeros((g.n_outcomes, g.n_outcomes), dtype=complex)
    np.add.at(mat, (g.target, g.source), f.coeffs)
    return mat


def psi_vector(g: FiniteGroupoid, s: State, f: AlgebraElement) -> np.ndarray:
    """Outcome-space wave function of f for a factorizable state.

    Psi_f(x) = sum over the target fiber at x of f(a) phi(a). With the
    weighted inner product (see psi_inner) this reproduces
    rho(f* ⋆ f) = ||Psi_f||^2 exactly; Psi_unit(x) = phi(1_x).
    """
    if not s.is_factorizable:
        raise ValueError("psi_vector requires a factorizable state")
    _check(g, f)
    out = np.zeros(g.n_outcomes, dtype=complex)
    np.add.at(out, g.target, f.coeffs * s.phi.values)
    return out


def psi_inner(s: State, u: np.ndarray, v: np.ndarray) -> complex:
    """<u, v> = w * sum_x conj(u(x)) v(x), conjugate-linear in u."""
    return complex(s.weight * np.vdot(u, v))
