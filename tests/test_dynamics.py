import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gqm

from gqm.algebra import regular_block

from conftest import DELTA, S_PHASE, character_quivers, element_from_names, fiber_eigh, gram_phis
from golden_c23 import (
    closed_form_qubit_u,
    closed_form_ratchet_u,
    golden_convolve,
    golden_phi,
)


def test_hamiltonian_rejects_non_self_adjoint(c23, ids):
    with pytest.raises(ValueError, match="self-adjoint"):
        gqm.Hamiltonian(c23, gqm.delta(c23, ids["a1"]))


def test_spectrum_is_cached_and_not_a_parameter(c23, ratchet_h):
    assert ratchet_h.spectrum() is ratchet_h.spectrum()
    with pytest.raises(TypeError):
        gqm.Hamiltonian(c23, ratchet_h.element, _spectrum=None)


def test_derivation_kills_hamiltonian_and_unit(c23, ratchet_h):
    assert gqm.derivation(c23, ratchet_h.element, ratchet_h).max_abs() < 1e-14
    assert gqm.derivation(c23, gqm.unit_element(c23), ratchet_h).max_abs() < 1e-14


def test_derivation_of_unit_delta_under_qubit_h(c23, ids, qubit_h):
    got = gqm.derivation(c23, gqm.delta(c23, ids["1+"]), qubit_h)
    want = element_from_names(c23, ids, {"a2": 0.5j, "b1": -0.5j})
    assert (got - want).max_abs() < 1e-14
    # D(1+ + 1-) = D(unit) = 0
    both = gqm.delta(c23, ids["1+"]) + gqm.delta(c23, ids["1-"])
    assert gqm.derivation(c23, both, qubit_h).max_abs() < 1e-14


def test_derivation_leibniz(c23, ratchet_h, rng):
    for _ in range(10):
        a = gqm.random_element(c23, rng)
        b = gqm.random_element(c23, rng)
        lhs = gqm.derivation(c23, gqm.convolve(c23, a, b), ratchet_h)
        rhs = gqm.convolve(c23, gqm.derivation(c23, a, ratchet_h), b) + gqm.convolve(
            c23, a, gqm.derivation(c23, b, ratchet_h)
        )
        assert (lhs - rhs).max_abs() < 1e-12


def test_spectral_identities(c23, ratchet_h, qubit_h):
    h = ratchet_h.element
    h3 = gqm.convolve(c23, gqm.convolve(c23, h, h), h)
    assert (h3 - 9 * h).max_abs() < 1e-12
    ht = qubit_h.element
    ht2 = gqm.convolve(c23, ht, ht)
    assert (ht2 - 0.25 * gqm.unit_element(c23)).max_abs() < 1e-12


def test_exponential_matches_closed_forms(c23, ids, ratchet_h, qubit_h):
    for t in (0.3, 1.0, 2.5):
        got = gqm.exponential(c23, ratchet_h, t)
        want = element_from_names(c23, ids, closed_form_ratchet_u(t))
        assert (got - want).max_abs() < 1e-10
        got = gqm.exponential(c23, qubit_h, t)
        want = element_from_names(c23, ids, closed_form_qubit_u(t))
        assert (got - want).max_abs() < 1e-10


def test_exponential_at_zero_is_unit(c23, ratchet_h):
    assert (gqm.exponential(c23, ratchet_h, 0.0) - gqm.unit_element(c23)).max_abs() < 1e-14


def test_unitarity_and_group_law_random(c23, rng):
    unit = gqm.unit_element(c23)
    for _ in range(20):
        h = gqm.Hamiltonian(c23, gqm.random_self_adjoint(c23, rng))
        for t in (0.1, 1.0, np.pi, 10.0):
            u = gqm.exponential(c23, h, t)
            uu = gqm.convolve(c23, u, gqm.adjoint(c23, u))
            assert (uu - unit).max_abs() < 1e-10
        for t, s in ((0.2, 0.5), (1.0, np.pi)):
            lhs = gqm.exponential(c23, h, t + s)
            rhs = gqm.convolve(c23, gqm.exponential(c23, h, t), gqm.exponential(c23, h, s))
            assert (lhs - rhs).max_abs() < 1e-9


def test_unitarity_on_pair_groupoid(rng):
    g = gqm.pair_groupoid(3)
    unit = gqm.unit_element(g)
    for _ in range(20):
        h = gqm.Hamiltonian(g, gqm.random_self_adjoint(g, rng))
        u = gqm.exponential(g, h, 1.3)
        assert (gqm.convolve(g, u, gqm.adjoint(g, u)) - unit).max_abs() < 1e-10


def test_heisenberg_evolution_properties(c23, ratchet_h, rng):
    # h is a fixed point
    for t in (0.4, 2.0):
        assert (
            gqm.heisenberg_evolve(c23, ratchet_h.element, ratchet_h, t) - ratchet_h.element
        ).max_abs() < 1e-12
    a = gqm.random_element(c23, rng)
    # flow property
    lhs = gqm.heisenberg_evolve(c23, a, ratchet_h, 0.7 + 0.4)
    rhs = gqm.heisenberg_evolve(
        c23, gqm.heisenberg_evolve(c23, a, ratchet_h, 0.7), ratchet_h, 0.4
    )
    assert (lhs - rhs).max_abs() < 1e-11
    # preserves self-adjointness
    sa = gqm.random_self_adjoint(c23, rng)
    evolved = gqm.heisenberg_evolve(c23, sa, ratchet_h, 1.1)
    assert gqm.is_self_adjoint(c23, evolved, tol=1e-11)


def test_heisenberg_derivative_matches_derivation(c23, ratchet_h, rng):
    eps = 1e-4
    bound = 10 * gqm.norm(c23, ratchet_h.element) ** 3 * eps**2
    for _ in range(5):
        a = gqm.random_element(c23, rng)
        fwd = gqm.heisenberg_evolve(c23, a, ratchet_h, eps)
        bwd = gqm.heisenberg_evolve(c23, a, ratchet_h, -eps)
        fd = (1.0 / (2 * eps)) * (fwd - bwd)
        assert (fd - gqm.derivation(c23, a, ratchet_h)).max_abs() <= bound


def test_expectation_flow_derivative(c23, ratchet_state, ratchet_h, rng):
    eps = 1e-4
    a = gqm.random_element(c23, rng)
    fwd = gqm.expectation(ratchet_state, gqm.heisenberg_evolve(c23, a, ratchet_h, eps))
    bwd = gqm.expectation(ratchet_state, gqm.heisenberg_evolve(c23, a, ratchet_h, -eps))
    fd = (fwd - bwd) / (2 * eps)
    want = gqm.expectation(ratchet_state, gqm.derivation(c23, a, ratchet_h))
    assert fd == pytest.approx(want, abs=1e-6)


def ratchet_amplitude_oracle(x, y, t):
    """Independent path: closed-form u_t, frozen table, golden phi."""
    phi = golden_phi(S_PHASE, DELTA)
    u = closed_form_ratchet_u(t)
    left = golden_convolve({"1+" if y == "+" else "1-": 1.0}, u)
    both = golden_convolve(left, {"1+" if x == "+" else "1-": 1.0})
    return 0.5 * sum(c * phi[n] for n, c in both.items())


def test_ratchet_amplitudes_constant(c23, ratchet_state, ratchet_h):
    for t in np.linspace(0, 10, 21):
        app = gqm.amplitude(ratchet_state, "+", "+", ratchet_h, t)
        apm = gqm.amplitude(ratchet_state, "+", "-", ratchet_h, t)
        assert app == pytest.approx(0.5, abs=1e-10)
        assert abs(apm) < 1e-10
        assert app == pytest.approx(ratchet_amplitude_oracle("+", "+", t), abs=1e-10)
        assert apm == pytest.approx(ratchet_amplitude_oracle("+", "-", t), abs=1e-10)


def test_qubit_amplitudes(c23, ratchet_state, qubit_h):
    for t in np.linspace(0, 10, 21):
        app = gqm.amplitude(ratchet_state, "+", "+", qubit_h, t)
        apm = gqm.amplitude(ratchet_state, "+", "-", qubit_h, t)
        assert app == pytest.approx(0.5 * np.cos(t / 2), abs=1e-10)
        assert abs(apm) == pytest.approx(0.5 * abs(np.sin(t / 2)), abs=1e-10)
    # phase of the cross amplitude under this convention: (i/2) sin(t/2) e^{i(delta-s)}
    t = 1.1
    apm = gqm.amplitude(ratchet_state, "+", "-", qubit_h, t)
    want = 0.5j * np.sin(t / 2) * np.exp(1j * (DELTA - S_PHASE))
    assert apm == pytest.approx(want, abs=1e-10)


def test_amplitude_hermitian_symmetry(c23, ratchet_state, rng):
    h = gqm.Hamiltonian(c23, gqm.random_self_adjoint(c23, rng))
    for t in (0.3, 1.7):
        for x, y in (("+", "-"), ("-", "-"), ("+", "+")):
            lhs = gqm.amplitude(ratchet_state, x, y, h, t)
            rhs = np.conj(gqm.amplitude(ratchet_state, y, x, h, -t))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_amplitude_grid_matches_pointwise(c23, ratchet_state, qubit_h):
    grid = gqm.TimeGrid(0.0, 5.0, 11)
    p = c23.outcome("+").id
    vals = gqm.amplitude_grid(ratchet_state, qubit_h, grid)[p, p]
    for t, v in zip(grid.times, vals):
        assert v == pytest.approx(gqm.amplitude(ratchet_state, "+", "+", qubit_h, t), abs=1e-13)


def test_schrodinger_evolution(c23, ratchet_state, qubit_h):
    sp = gqm.gns_build(c23, ratchet_state)
    grid = gqm.TimeGrid(0.0, 10.0, 41)
    psi = gqm.schrodinger_evolve(sp, ratchet_state, qubit_h, grid)
    assert psi.shape == (41, sp.dim)
    assert np.max(np.abs(psi[0] - sp.cyclic_vector)) < 1e-12
    norms = np.sum(np.abs(psi) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_schrodinger_residual_scales_quadratically(c23, ratchet_state, qubit_h):
    sp = gqm.gns_build(c23, ratchet_state)
    h_mat = gqm.represent(sp, c23, qubit_h.element)
    t0 = 0.7

    def residual(eps):
        grid = gqm.TimeGrid(t0 - eps, t0 + eps, 3)
        psi = gqm.schrodinger_evolve(sp, ratchet_state, qubit_h, grid)
        dpsi = (psi[2] - psi[0]) / (2 * eps)
        return float(np.linalg.norm(1j * dpsi - h_mat @ psi[1]))

    r1, r2 = residual(1e-2), residual(5e-3)
    assert 3.5 <= r1 / r2 <= 4.5


def test_schrodinger_trajectory_is_adjoint_unitary_orbit(c23, ratchet_state, qubit_h):
    sp = gqm.gns_build(c23, ratchet_state)
    grid = gqm.TimeGrid(0.0, 4.0, 9)
    psi = gqm.schrodinger_evolve(sp, ratchet_state, qubit_h, grid)
    for t, row in zip(grid.times, psi):
        u = gqm.exponential(c23, qubit_h, t)
        want = gqm.represent(sp, c23, gqm.adjoint(c23, u)) @ sp.cyclic_vector
        assert np.max(np.abs(row - want)) < 1e-12


def test_gns_sandwich_reproduces_amplitudes(c23, ratchet_state, qubit_h, ids):
    # <psi_{1+}| pi(u_t) |psi_{1+}> = rho(1+ u_t 1+), including the phase
    sp = gqm.gns_build(c23, ratchet_state)
    p_plus = gqm.represent(sp, c23, gqm.delta(c23, ids["1+"]))
    p_minus = gqm.represent(sp, c23, gqm.delta(c23, ids["1-"]))
    for t in (0.0, 0.9, 2.4):
        u_rep = gqm.represent(sp, c23, gqm.exponential(c23, qubit_h, t))
        psi_plus = p_plus @ sp.cyclic_vector
        psi_minus = p_minus @ sp.cyclic_vector
        assert np.vdot(psi_plus, u_rep @ psi_plus) == pytest.approx(
            gqm.amplitude(ratchet_state, "+", "+", qubit_h, t), abs=1e-10
        )
        assert np.vdot(psi_minus, u_rep @ psi_plus) == pytest.approx(
            gqm.amplitude(ratchet_state, "+", "-", qubit_h, t), abs=1e-10
        )


def test_ratchet_hamiltonian_represents_as_zero(c23, ratchet_state, ratchet_h):
    # total destructive interference: the GNS image of h vanishes,
    # so the ratchet dynamics is invisible on H_rho
    sp = gqm.gns_build(c23, ratchet_state)
    assert np.max(np.abs(gqm.represent(sp, c23, ratchet_h.element))) < 1e-12


def test_feynman_vector_examples(c23, ratchet_state, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    assert np.max(np.abs(gqm.feynman_vector(sp, ratchet_state))) < 1e-12

    g1 = gqm.pair_groupoid(1)
    s1 = gqm.state_from_phi(g1, gqm.GroupoidFunction(np.ones(1)))
    sp1 = gqm.gns_build(g1, s1)
    assert np.allclose(gqm.feynman_vector(sp1, s1), sp1.cyclic_vector)

    g2 = gqm.pair_groupoid(2)
    s2 = gqm.state_from_phi(g2, gqm.GroupoidFunction(np.ones(4)))
    sp2 = gqm.gns_build(g2, s2)
    fv = gqm.feynman_vector(sp2, s2)
    # psi_F = 2 * (1,1) in the outcome picture: <0|psi_F> = 2, |psi_F|^2 = 4
    assert np.vdot(sp2.cyclic_vector, fv) == pytest.approx(2.0, abs=1e-12)
    assert np.vdot(fv, fv) == pytest.approx(4.0, abs=1e-12)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        gqm.TimeGrid(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        gqm.TimeGrid(0.0, 1.0, 0)
    assert np.allclose(gqm.TimeGrid(0.0, 10.0, 101).times, np.linspace(0, 10, 101))


# ------------------------------------------- fiber paths vs dense reference

TOL = 1e-12


@st.composite
def factorizable_systems(draw):
    """A random quiver over Z_k or S_3, its closure, a factorizable
    unit-modulus state and a random self-adjoint Hamiltonian."""
    q, g, chi = draw(character_quivers())
    n_out = len(q.outcomes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # phi(y, c, x) = theta_y chi(c) conj(theta_x) is a unit-modulus groupoid character
    theta = np.exp(2j * np.pi * rng.random(n_out))
    register = np.array([t.label for t in g.transitions])
    phi = theta[g.target] * chi[register] * np.conj(theta[g.source])
    s = gqm.state_from_phi(g, gqm.GroupoidFunction(phi))
    assert s.is_factorizable
    return g, s, gqm.Hamiltonian(g, gqm.random_self_adjoint(g, rng))


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


@settings(deadline=None)
@given(factorizable_systems(), st.floats(-3, 3), st.floats(0, 3))
def test_fiber_dynamics_match_dense_reference(system, t0, span):
    g, s, h = system
    lam = gqm.regular_representation(g, h.element)
    evals, vecs = np.linalg.eigh(lam)
    at_units = (np.arange(g.n_transitions), g.unit_table[g.source])

    def dense_u(t):
        return gqm.AlgebraElement(((vecs * np.exp(1j * t * evals)) @ vecs.conj().T)[at_units])

    # the fiber blocks diagonalize lambda(h): together the same evals, and on
    # each source fiber G_x, read in the block's row order, V diag(λ) V† = lambda(h)|_{G_x}
    blocks = h.spectrum()
    assert max_diff(np.sort(np.concatenate([ev for _, ev, _ in blocks])), evals) < TOL
    for x, (fib, f_evals, f_vecs) in enumerate(blocks):
        assert sorted(fib) == sorted(g.source_fibers[x])
        assert max_diff((f_vecs * f_evals) @ f_vecs.conj().T, lam[np.ix_(fib, fib)]) < TOL

    grid = gqm.TimeGrid(t0, t0 + span, 4)
    for t in grid.times:
        assert (gqm.exponential(g, h, t) - dense_u(t)).max_abs() < TOL
    units = [gqm.delta(g, int(u)) for u in g.unit_table]
    amps = gqm.amplitude_grid(s, h, grid)
    for x in g.outcomes:
        for y in g.outcomes:
            want = [
                gqm.expectation(s, gqm.convolve(g, gqm.convolve(g, units[y.id], dense_u(t)), units[x.id]))
                for t in grid.times
            ]
            assert max_diff(amps[y.id, x.id], want) < TOL


@settings(deadline=None)
@given(factorizable_systems())
def test_fiber_gns_matches_dense_reference(system):
    g, s, h = system
    sp = gqm.gns_build(g, s)
    evals, vecs = np.linalg.eigh(gqm.gram_matrix(g, s))
    keep = evals > 1e-10 * evals[-1]
    basis, root = vecs[:, keep], np.sqrt(evals[keep])
    assert max_diff(sp.eigenvalues, evals[keep]) < TOL
    assert max_diff(sp.lift @ sp.project, basis @ basis.conj().T) < TOL
    dense_h = (root[:, None] * basis.conj().T) @ gqm.regular_representation(g, h.element) @ (
        basis / root
    )
    got = np.linalg.eigvalsh(gqm.represent(sp, g, h.element))
    assert max_diff(got, np.linalg.eigvalsh(dense_h)) < TOL
    # factorizable: one rank-one block per target fiber
    assert sp.dim == g.n_outcomes
    for col in sp.lift.T:
        assert len(set(g.target[np.abs(col) > 0])) == 1


# ------------------------------------------- component blocks vs dense reference

# Reference: the dynamics as it was before the component blocks, with the
# dense |G| x |G| eigenvector matrix assembled from one eigh per source fiber
# and one exp over the grid per outcome pair.
def reference_spectrum(h):
    """Eigendecomposition (evals, vecs) of the regular representation.

    One eigh per source fiber G_x, on the block h(a ∘ b^-1) for
    a, b in G_x. The full pair is assembled from the blocks: column
    m of ``vecs`` is zero off the fiber it came from, and ``evals``
    is sorted ascending with a stable sort, so ties keep fiber order.
    """
    g, coeffs = h.groupoid, h.element.coeffs
    return fiber_eigh(g.source_fibers, lambda fib: regular_block(g, coeffs, fib))


def reference_exponential(g, h, t):
    """u_t(a) = sum_m V[a, m] e^{itλ_m} conj(V[1_{s(a)}, m])."""
    evals, vecs = reference_spectrum(h)
    units = vecs[g.unit_table[g.source]].conj()
    return gqm.AlgebraElement(np.einsum("am,m,am->a", vecs, np.exp(1j * t * evals), units))


def reference_amplitude_grid(s, x, y, h, grid):
    """rho(delta_{1_y} ⋆ u_t ⋆ delta_{1_x}) at every time of the grid:

        w · exp(i t⊗λ) @ c,   c_m = (sum_{a: x -> y} phi(a) V[a, m]) conj(V[1_x, m]).
    """
    g = s.groupoid
    evals, vecs = reference_spectrum(h)
    arrows = g.arrows(x, y)
    c = (s.phi.values[arrows] @ vecs[arrows]) * vecs[g.unit(x).id].conj()
    return s.weight * (np.exp(1j * np.outer(grid.times, evals)) @ c)


def reference_schrodinger_evolve(sp, s, h, grid):
    """psi_t = exp(-itH)|0>, one product with the dense vecs per time."""
    evals, vecs = reference_spectrum(h)
    left = sp.project @ vecs
    right = vecs.conj().T @ sp.lift @ sp.cyclic_vector
    return np.array([(left * np.exp(-1j * t * evals)) @ right for t in grid.times])


def test_component_blocks_follow_right_translation(rng):
    """Over Z_4 with the isotropy {0, 2}, the arrows a -> b carry the labels
    {1, 3}. Each fiber in ascending id order then has its own block, and only
    reading G_b as G_a ∘ r, for an arrow r: b -> a, lines it up with G_a's."""
    q = gqm.make_quiver(["a", "b"], gqm.cyclic_group(4), [("a", "b", 1), ("a", "a", 2)])
    g = gqm.generate_from_quiver(q)
    s = gqm.state_from_phi(g, gqm.GroupoidFunction(np.ones(g.n_transitions)))
    h = gqm.Hamiltonian(g, gqm.random_self_adjoint(g, rng))
    blocks = [regular_block(g, h.element.coeffs, fib) for fib in g.source_fibers]
    assert max_diff(*blocks) > 0.1
    lam = gqm.regular_representation(g, h.element)
    for fib, evals, vecs in h.spectrum():
        assert max_diff((vecs * evals) @ vecs.conj().T, lam[np.ix_(fib, fib)]) < TOL
    grid = gqm.TimeGrid(0.0, 2.0, 5)
    amps = gqm.amplitude_grid(s, h, grid)
    for x in g.outcomes:
        for y in g.outcomes:
            assert max_diff(amps[y.id, x.id], reference_amplitude_grid(s, x, y, h, grid)) < TOL
    sp = gqm.gns_build(g, s)
    assert max_diff(gqm.schrodinger_evolve(sp, s, h, grid),
                    reference_schrodinger_evolve(sp, s, h, grid)) < TOL


@settings(deadline=None)
@given(gram_phis(), st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(0, 3))
def test_component_dynamics_match_dense_reference(case, seed, t0, span):
    """Disconnected quivers, isolated outcomes and non-factorizable positive phi."""
    g, phi, kind = case
    try:
        s = gqm.state_from_phi(g, phi)
    except ValueError:
        return  # not a state: positivity is tested against its own reference
    h = gqm.Hamiltonian(g, gqm.random_self_adjoint(g, np.random.default_rng(seed)))
    grid = gqm.TimeGrid(t0, t0 + span, 5)
    amps = gqm.amplitude_grid(s, h, grid)
    assert amps.shape == (g.n_outcomes, g.n_outcomes, grid.steps)
    for x in g.outcomes:
        for y in g.outcomes:
            assert max_diff(amps[y.id, x.id], reference_amplitude_grid(s, x, y, h, grid)) < TOL
    for t in grid.times:
        assert (gqm.exponential(g, h, t) - reference_exponential(g, h, t)).max_abs() < TOL
    sp = gqm.gns_build(g, s)
    want = reference_schrodinger_evolve(sp, s, h, grid)
    assert max_diff(gqm.schrodinger_evolve(sp, s, h, grid), want) < TOL
    # one eigh per connected component: fibers of a component share the arrays
    components = {frozenset(g.target[fib]) for fib in g.source_fibers}
    assert len({id(evals) for _, evals, _ in h.spectrum()}) == len(components)
