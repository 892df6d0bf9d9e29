from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import gqm
from gqm.algebra import fiber_eigh, unit_element
from gqm.gns import gram_matrix

from conftest import gram_phis


def uniform_state(g):
    return gqm.state_from_phi(g, gqm.GroupoidFunction(np.ones(g.n_transitions)))


def test_gram_matrix_definition(c23, ratchet_state):
    gram = gqm.gram_matrix(c23, ratchet_state)
    phi = ratchet_state.phi.values
    w = ratchet_state.weight
    for a in range(12):
        for b in range(12):
            if c23.target[a] == c23.target[b]:
                c = c23.compose(c23.inverse(a), b)
                assert gram[a, b] == pytest.approx(w * phi[c.id], abs=1e-14)
            else:
                assert gram[a, b] == 0


def test_gram_is_hermitian(c23, ratchet_state):
    gram = gqm.gram_matrix(c23, ratchet_state)
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-14


def test_ratchet_gns_dimension_is_two(c23, ratchet_state):
    sp = gqm.gns_build(c23, ratchet_state)
    assert sp.dim == 2
    assert np.allclose(sp.eigenvalues, [3.0, 3.0])
    assert np.vdot(sp.cyclic_vector, sp.cyclic_vector) == pytest.approx(1.0)


def test_pair_groupoid_gns_dimensions():
    # oracle: eigendecompose the Gram built from its definition directly
    for n in (1, 3):
        g = gqm.pair_groupoid(n)
        s = uniform_state(g)
        gram = np.zeros((n * n, n * n), dtype=complex)
        for a in g.transitions:
            for b in g.transitions:
                if a.target == b.target:
                    c = g.compose(g.inverse(a), b)
                    gram[a.id, b.id] = s.weight * s.phi.values[c.id]
        eig = np.linalg.eigvalsh(gram)
        oracle_rank = int((eig > 1e-10 * eig[-1]).sum())
        sp = gqm.gns_build(g, s)
        assert sp.dim == oracle_rank == n


def test_represent_unit_is_identity(c23, ratchet_state):
    sp = gqm.gns_build(c23, ratchet_state)
    mat = gqm.represent(sp, c23, gqm.unit_element(c23))
    assert np.max(np.abs(mat - np.eye(sp.dim))) < 1e-12


def test_cyclic_expectation_of_unit_delta(c23, ratchet_state, ids):
    sp = gqm.gns_build(c23, ratchet_state)
    mat = gqm.represent(sp, c23, gqm.delta(c23, ids["1+"]))
    val = np.vdot(sp.cyclic_vector, mat @ sp.cyclic_vector)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_representation_is_star_homomorphism(c23, ratchet_state, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    worst = 0.0
    for _ in range(50):
        f = gqm.random_element(c23, rng)
        h = gqm.random_element(c23, rng)
        pf = gqm.represent(sp, c23, f)
        ph = gqm.represent(sp, c23, h)
        pfh = gqm.represent(sp, c23, gqm.convolve(c23, f, h))
        worst = max(worst, float(np.max(np.abs(pfh - pf @ ph))))
        pfstar = gqm.represent(sp, c23, gqm.adjoint(c23, f))
        worst = max(worst, float(np.max(np.abs(pfstar - pf.conj().T))))
    assert worst < 1e-10


def test_state_reproduced_by_cyclic_vector(c23, ratchet_state, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    for _ in range(50):
        f = gqm.random_element(c23, rng)
        via_rep = np.vdot(sp.cyclic_vector, gqm.represent(sp, c23, f) @ sp.cyclic_vector)
        assert via_rep == pytest.approx(gqm.expectation(ratchet_state, f), abs=1e-10)


def test_project_classes_behave(c23, ratchet_state, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    for _ in range(20):
        f = gqm.random_element(c23, rng)
        h = gqm.random_element(c23, rng)
        lhs = gqm.represent(sp, c23, f) @ (sp.project @ h.coeffs)
        rhs = sp.project @ gqm.convolve(c23, f, h).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_gns_inner_product_is_the_state(c23, ratchet_state, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    for _ in range(20):
        f = gqm.random_element(c23, rng)
        h = gqm.random_element(c23, rng)
        lhs = np.vdot(sp.project @ f.coeffs, sp.project @ h.coeffs)
        rhs = gqm.expectation(
            ratchet_state, gqm.convolve(c23, gqm.adjoint(c23, f), h)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_null_space_consistency(c23, ratchet_state):
    sp = gqm.gns_build(c23, ratchet_state)
    evals, vecs = np.linalg.eigh(sp.gram)
    for i, lam in enumerate(evals):
        f = gqm.element(c23, vecs[:, i])
        norm_sq = gqm.expectation(
            ratchet_state, gqm.convolve(c23, gqm.adjoint(c23, f), f)
        ).real
        in_kernel = np.max(np.abs(sp.project @ f.coeffs)) < 1e-8
        assert in_kernel == (norm_sq < 1e-10)


def test_degenerate_state_rejected():
    g = gqm.pair_groupoid(2)
    s = uniform_state(g)
    zeroed = gqm.State(
        groupoid=g,
        phi=gqm.GroupoidFunction(np.zeros(4)),
        weight=s.weight,
        is_positive_definite=True,
        is_unitary=False,
        is_factorizable=False,
    )
    with pytest.raises(ValueError, match="degenerate"):
        gqm.gns_build(g, zeroed)


def test_fundamental_representation_examples(c23, ids):
    inc = gqm.fundamental_representation(c23, gqm.incidence_element(c23))
    assert np.allclose(inc, 3.0)  # three transitions per ordered pair
    single = gqm.fundamental_representation(c23, gqm.delta(c23, ids["a1"]))
    want = np.zeros((2, 2))
    want[c23.outcome("+").id, c23.outcome("-").id] = 1.0
    assert np.allclose(single, want)
    assert np.allclose(
        gqm.fundamental_representation(c23, gqm.unit_element(c23)), np.eye(2)
    )


def test_psi_vector_examples(c23, ratchet_state, ids):
    unit_psi = gqm.psi_vector(c23, ratchet_state, gqm.unit_element(c23))
    assert np.allclose(unit_psi, [1.0, 1.0])
    psi = gqm.psi_vector(c23, ratchet_state, gqm.delta(c23, ids["a1"]))
    want = np.zeros(2, dtype=complex)
    want[c23.outcome("+").id] = np.exp(0.7j)
    assert np.allclose(psi, want)


def test_psi_vector_norm_identity(c23, ratchet_state, rng):
    for _ in range(100):
        f = gqm.random_element(c23, rng)
        psi = gqm.psi_vector(c23, ratchet_state, f)
        lhs = gqm.psi_inner(ratchet_state, psi, psi)
        rhs = gqm.expectation(
            ratchet_state, gqm.convolve(c23, gqm.adjoint(c23, f), f)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_psi_vector_requires_factorizable():
    g = gqm.pair_groupoid(2)
    vals = np.ones(4, dtype=complex)
    vals[[t.id for t in g.transitions if t.source != t.target]] = 0.5
    s = gqm.state_from_phi(g, gqm.GroupoidFunction(vals))
    assert not s.is_factorizable
    with pytest.raises(ValueError, match="factorizable"):
        gqm.psi_vector(g, s, gqm.unit_element(g))


def test_gns_agrees_with_fundamental_picture(c23, ratchet_state, rng):
    # pi_rho and the phi-weighted outcome-space operator are similar matrices
    sp = gqm.gns_build(c23, ratchet_state)
    assert sp.dim == c23.n_outcomes
    for _ in range(20):
        f = gqm.random_element(c23, rng)
        weighted = gqm.fundamental_representation(
            c23, gqm.element(c23, f.coeffs * ratchet_state.phi.values)
        )
        spec_a = np.sort_complex(np.linalg.eigvals(gqm.represent(sp, c23, f)))
        spec_b = np.sort_complex(np.linalg.eigvals(weighted))
        assert np.max(np.abs(spec_a - spec_b)) < 1e-9
        # and both reproduce the state from their cyclic/profile vectors
        psi_unit = gqm.psi_vector(c23, ratchet_state, gqm.unit_element(c23))
        via_fund = gqm.psi_inner(ratchet_state, psi_unit, weighted @ psi_unit)
        assert via_fund == pytest.approx(gqm.expectation(ratchet_state, f), abs=1e-10)


# ------------------------------------------------ gns_build vs reference

# Reference: the construction as it was before the rank-one certificate,
# with the dense Gram matrix and one eigh per target fiber. It returns the
# GnsSpace fields, and the Gram matrix it was built from.
def reference_gns_build(g, s, null_tol: float = 1e-10):
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
    basis = reference_fix_phases(vecs[:, keep])
    root = np.sqrt(kept)
    project = root[:, None] * basis.conj().T
    lift = basis / root[None, :]
    cyclic = project @ unit_element(g).coeffs
    return SimpleNamespace(
        dim=int(keep.sum()),
        project=project,
        lift=lift,
        cyclic_vector=cyclic,
        gram=gram,
        eigenvalues=kept,
    )


def reference_fix_phases(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        mags = np.abs(col)
        i = int(np.argmax(mags > 1e-12 * mags.max()))
        phase = col[i] / abs(col[i])
        v[:, j] = col * np.conj(phase)
    return v


@settings(deadline=None, max_examples=150)
@given(gram_phis())
def test_gns_build_agrees_with_reference(case):
    g, phi, kind = case
    try:
        s = gqm.state_from_phi(g, phi)
    except ValueError:
        return  # rejection is test_positivity_decides_as_reference's business
    got, want = gqm.gns_build(g, s), reference_gns_build(g, s)
    assert got.dim == want.dim
    scale = float(want.eigenvalues[-1])
    assert np.max(np.abs(np.sort(got.eigenvalues) - want.eigenvalues)) <= 1e-12 * scale
    assert np.max(np.abs(got.eigenvalues - np.sort(got.eigenvalues))) == 0.0
    pp = got.project.conj().T @ got.project
    assert np.max(np.abs(pp - want.project.conj().T @ want.project)) <= 1e-12
    assert np.max(np.abs(got.project @ got.lift - np.eye(got.dim))) <= 1e-12
    assert np.array_equal(got.gram, want.gram)
    n = g.n_transitions
    f = gqm.element(g, np.linspace(-1.0, 1.0, n) * np.exp(0.3j * np.arange(n)))
    dense = got.project @ gqm.regular_representation(g, f) @ got.lift
    assert np.max(np.abs(gqm.represent(got, g, f) - dense)) <= 1e-12


def test_unit_projections_and_feynman_vector_are_classes(c23, ratchet_state):
    # pi(f)|0> = [f]: the dense regular representation gives the same vectors
    sp = gqm.gns_build(c23, ratchet_state)
    for u in c23.unit_table:
        via_rep = gqm.represent(sp, c23, gqm.delta(c23, int(u))) @ sp.cyclic_vector
        assert np.max(np.abs(sp.project[:, u] - via_rep)) < 1e-15
    inc = gqm.incidence_element(c23)
    dense = sp.project @ gqm.regular_representation(c23, inc) @ sp.lift @ sp.cyclic_vector
    assert np.max(np.abs(gqm.feynman_vector(sp, ratchet_state) - dense)) < 1e-14
