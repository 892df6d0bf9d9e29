import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gqm

from conftest import DELTA, S_PHASE, element_from_names
from golden_c23 import (
    closed_form_qubit_u,
    closed_form_ratchet_u,
    golden_convolve,
    golden_phi,
)


def test_hamiltonian_rejects_non_self_adjoint(c23, ids):
    with pytest.raises(ValueError, match="self-adjoint"):
        gqm.Hamiltonian(c23, gqm.delta(c23, ids["a1"]))


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
    vals = gqm.amplitude_grid(ratchet_state, "+", "+", qubit_h, grid)
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
S3_PERMS = list(itertools.permutations(range(3)))
S3 = gqm.group_from_table(
    [[S3_PERMS.index(tuple(p[i] for i in q)) for q in S3_PERMS] for p in S3_PERMS]
)
S3_SIGN = np.array([round(np.linalg.det(np.eye(3)[list(p)])) for p in S3_PERMS])


@st.composite
def factorizable_systems(draw):
    """A random quiver over Z_k or S_3, its closure, a factorizable
    unit-modulus state and a random self-adjoint Hamiltonian."""
    n_out = draw(st.integers(1, 3))
    if draw(st.booleans()):
        group = S3
        chi = S3_SIGN if draw(st.booleans()) else np.ones(6)
    else:
        k = draw(st.integers(1, 4))
        group = gqm.cyclic_group(k)
        chi = np.exp(2j * np.pi * draw(st.integers(0, k - 1)) * np.arange(k) / k)
    labels = [f"o{i}" for i in range(n_out)]
    arrows = draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels),
                  st.integers(0, group.order - 1)),
        min_size=1, max_size=5, unique=True,
    ))
    g = gqm.generate_from_quiver(gqm.make_quiver(labels, group, arrows))
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

    # the fiber spectrum keeps the dense contract: same evals, V diag(λ) V† = lambda(h)
    f_evals, f_vecs = h.spectrum()
    assert max_diff(f_evals, evals) < TOL
    assert max_diff((f_vecs * f_evals) @ f_vecs.conj().T, lam) < TOL
    for col in f_vecs.T:
        assert len(set(g.source[np.abs(col) > 0])) == 1

    grid = gqm.TimeGrid(t0, t0 + span, 4)
    for t in grid.times:
        assert (gqm.exponential(g, h, t) - dense_u(t)).max_abs() < TOL
    units = [gqm.delta(g, int(u)) for u in g.unit_table]
    for x in g.outcomes:
        for y in g.outcomes:
            want = [
                gqm.expectation(s, gqm.convolve(g, gqm.convolve(g, units[y.id], dense_u(t)), units[x.id]))
                for t in grid.times
            ]
            assert max_diff(gqm.amplitude_grid(s, x, y, h, grid), want) < TOL


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
