"""GNS construction and the fundamental representation.

The Gram matrix G[a, b] = rho(delta_{a^-1 ∘ b}) (zero when a, b have
different targets) defines the inner product <Psi_f, Psi_g> =
rho(f* ⋆ g), conjugate-linear in the first slot. The GNS space is the
quotient by the null directions. The Gram matrix is block-diagonal
over target fibers G^y = {a : t(a) = y}, so the quotient is taken one
block at a time, and every GNS basis vector is supported on a single
target fiber.

For a factorizable state each block is rank one,
phi(a^-1 ∘ b) = conj(phi(a)) phi(b), and its one kept direction is any
of its nonzero columns, such as the one at the unit 1_y. A rank-one
certificate with a Weyl bound (``algebra.rank_one_certificate``) proves
that, and such a block needs no eigendecomposition; any other block gets
one eigh. The dense Gram matrix is assembled only when ``GnsSpace.gram``
is read.

Represented operators act through the source-fiber blocks of the regular
representation, pi(f) = sum_x project[:, G_x] lambda(f)|_{G_x} lift[G_x],
and since pi(f)|0> is the class [f], vectors such as pi(delta_{1_x})|0>
are columns of ``project``: no |G| x |G| matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    _check,
    rank_one_certificate,
    regular_block,
    regular_representation,  # noqa: F401  (kept bound: perfbench/spans.py wraps it)
    unit_element,
)
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
    eigenvalues: np.ndarray    # kept spectrum, ascending
    state: State = field(repr=False)

    @cached_property
    def gram(self) -> np.ndarray:
        """The dense (|G|, |G|) Gram matrix, assembled on first read."""
        return gram_matrix(self.state.groupoid, self.state)


def gram_matrix(g: FiniteGroupoid, s: State) -> np.ndarray:
    """G[a, b] = rho(delta_{a^-1 ∘ b}) when t(a) = t(b), else 0."""
    n = g.n_transitions
    gram = np.zeros((n, n), dtype=complex)
    for fib in g.target_fibers:
        gram[np.ix_(fib, fib)] = _gram_block(g, s, fib)
    return gram


def _gram_block(g: FiniteGroupoid, s: State, fib: np.ndarray) -> np.ndarray:
    return s.weight * s.phi.values[g.inverse_products(fib, fib)]


def gns_build(g: FiniteGroupoid, s: State, null_tol: float = 1e-10) -> GnsSpace:
    """Quotient the algebra by the null ideal of the state.

    Eigenvalues of the Gram matrix below null_tol * max eigenvalue are
    null directions. Each target-fiber block B is read as eigh reads it,
    from its lower triangle. When its rank-one certificate gives
    (mu, u, eps) with eps < null_tol * mu / 4 and mu > 2 * null_tol *
    lam_max, eigh's keep/drop decision is forced: the top eigenvalue,
    within eps of mu, is kept, and the others, within eps of 0, are
    dropped. The block then contributes the single pair
    (tr B, Bu / ||Bu||). u is within an angle of about eps / mu of the
    kept eigenvector, and the one power step Bu squares that. The trace
    is the sum of B's eigenvalues, so it lies within (f - 1) eps of the
    kept one; for a factorizable state with phi(1_x) = 1 it is f w in
    every fiber of f arrows, so such fibers tie exactly, not by rounding.
    Any other block gets one eigh.

    The kept eigenpairs are stable-sorted ascending, so ties keep fiber
    order, and each eigenvector's phase is fixed so its first significant
    component is real positive. For a factorizable state every block has
    rank one, which makes each kept vector unique up to that phase: the
    coordinates do not depend on how LAPACK orders a degenerate
    eigenspace.
    """
    blocks = []  # (fiber, block as eigh reads it, certificate, eigh or None)
    for fib in g.target_fibers:
        if len(fib) == 0:
            continue
        b = _gram_block(g, s, fib)
        b = np.tril(b) + np.tril(b, -1).conj().T
        mu, u, eps = cert = rank_one_certificate(b)
        # a block with a tight certificate waits for lam_max; any other gets its eigh now
        blocks.append((fib, b, cert, None if eps < 0.25 * null_tol * mu else np.linalg.eigh(b)))
    lam_max = max(
        (mu if sp is None else float(sp[0][-1]) for _, _, (mu, _, _), sp in blocks),
        default=0.0,
    )
    if not lam_max > 0.0:
        raise ValueError("degenerate state: Gram matrix has no positive spectrum")
    cut = null_tol * lam_max
    values, columns = [], []  # kept eigenvalues; (fiber, unit eigenvector) of each
    for fib, b, (mu, u, _), sp in blocks:
        if sp is None and mu > 2.0 * cut:
            v = b @ u
            values.append(float(np.trace(b).real))
            columns.append((fib, v / np.linalg.norm(v)))
            continue
        evals, vecs = np.linalg.eigh(b) if sp is None else sp
        keep = np.flatnonzero(evals > cut)
        values += evals[keep].tolist()
        columns += [(fib, vecs[:, k]) for k in keep]
    order = np.argsort(values, kind="stable")
    kept = np.array(values)[order]
    project = np.zeros((len(order), g.n_transitions), dtype=complex)
    lift = np.zeros((g.n_transitions, len(order)), dtype=complex)
    for row, k in enumerate(order):
        fib, v = columns[k]
        v = _fix_phase(v)
        root = np.sqrt(kept[row])
        project[row, fib] = root * v.conj()
        lift[fib, row] = v / root
    return GnsSpace(
        dim=len(order),
        project=project,
        lift=lift,
        cyclic_vector=project @ unit_element(g).coeffs,
        eigenvalues=kept,
        state=s,
    )


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """v times the phase that makes its first significant component real positive."""
    mags = np.abs(v)
    i = int(np.argmax(mags > 1e-12 * mags.max()))
    return v * np.conj(v[i] / mags[i])


def represent(sp: GnsSpace, g: FiniteGroupoid, f: AlgebraElement) -> np.ndarray:
    """Matrix of pi_rho(f) on the quotient: sends class(h) to class(f ⋆ h).

    The sum over source fibers G_x of project[:, G_x] lambda(f)|_{G_x}
    lift[G_x], the blocks of ``project @ regular_representation(f) @ lift``.
    """
    _check(g, f)
    out = np.zeros((sp.dim, sp.dim), dtype=complex)
    for fib in g.source_fibers:
        out += sp.project[:, fib] @ regular_block(g, f.coeffs, fib) @ sp.lift[fib]
    return out


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
