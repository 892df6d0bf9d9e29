from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gqm
from gqm.groupoid import FiniteGroupoid, Quiver
from gqm.algebra import rank_one_certificate
from gqm.states import ContradictionReport, GroupoidFunction, PositivityReport

from conftest import DELTA, S_PHASE, character_quivers, gram_phis
from golden_c23 import golden_phi


# Reference: the extension as it was before the single search-and-judge
# form, with a recursive assign that checks for conflicts on every step.
def reference_factorizable_extend(
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


def test_expectation_of_unit_is_one(ratchet_state, c23):
    assert gqm.expectation(ratchet_state, gqm.unit_element(c23)) == pytest.approx(1.0)


def test_expectation_of_unit_delta_is_half(ratchet_state, c23, ids):
    val = gqm.expectation(ratchet_state, gqm.delta(c23, ids["1+"]))
    assert val == pytest.approx(0.5, abs=1e-14)


def test_expectation_on_pair_groupoid_incidence():
    g = gqm.pair_groupoid(2)
    s = gqm.state_from_phi(g, gqm.GroupoidFunction(np.ones(4)))
    assert s.weight == pytest.approx(0.5)
    assert gqm.expectation(s, gqm.incidence_element(g)) == pytest.approx(2.0)


def test_ratchet_phi_matches_golden_values(ratchet_state, ids):
    want = golden_phi(S_PHASE, DELTA)
    for name, value in want.items():
        assert ratchet_state.phi.values[ids[name]] == pytest.approx(value, abs=1e-12)


def test_ratchet_state_flags(ratchet_state):
    assert ratchet_state.is_positive_definite
    assert ratchet_state.is_unitary
    assert ratchet_state.is_factorizable
    assert ratchet_state.weight == pytest.approx(0.5)


def test_positive_definite_ratchet_fibers(c23, ratchet_state):
    report = gqm.is_positive_definite(c23, ratchet_state.phi)
    assert report
    # each 6x6 target-fiber Gram matrix is rank one: eigenvalues {6, 0...}
    for fib in c23.target_fibers:
        idx = c23.compose_table[c23.inverse_table[fib][:, None], fib[None, :]]
        m = ratchet_state.phi.values[idx]
        eig = np.linalg.eigvalsh(m)
        assert eig[-1] == pytest.approx(6.0, abs=1e-10)
        assert np.max(np.abs(eig[:-1])) < 1e-10


def test_all_ones_phi_is_positive_definite():
    for g in (gqm.pair_groupoid(3), gqm.cyclic_groupoid(2, 3)):
        phi = gqm.GroupoidFunction(np.ones(g.n_transitions))
        assert gqm.is_positive_definite(g, phi)


def test_positive_definite_witness_on_failure():
    g = gqm.pair_groupoid(2)
    # units 1, cross transitions 2: fiber blocks [[1, 2], [2, 1]], eigenvalue -1
    vals = np.ones(4, dtype=complex)
    for t in g.transitions:
        if t.source != t.target:
            vals[t.id] = 2.0
    report = gqm.is_positive_definite(g, gqm.GroupoidFunction(vals))
    assert not report
    assert report.fiber in (0, 1)
    assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_non_hermitian_phi_fails_psd():
    g = gqm.pair_groupoid(2)
    vals = np.ones(4, dtype=complex)
    t01 = [t.id for t in g.transitions if (t.source, t.target) == (1, 0)][0]
    vals[t01] = 1j  # inverse keeps value 1: conjugation symmetry broken
    report = gqm.is_positive_definite(g, gqm.GroupoidFunction(vals))
    assert not report and report.hermiticity_defect > 0.5


def test_unitarity(c23, ratchet_state):
    assert gqm.check_unitarity(c23, ratchet_state.phi)
    phi1 = gqm.GroupoidFunction(np.ones(12))
    assert gqm.check_unitarity(c23, phi1)
    bad = ratchet_state.phi.values.copy()
    bad[0] = 2.0
    report = gqm.check_unitarity(c23, gqm.GroupoidFunction(bad))
    assert not report and report.modulus_defect == pytest.approx(1.0)
    withzero = ratchet_state.phi.values.copy()
    withzero[3] = 0.0
    report = gqm.check_unitarity(c23, gqm.GroupoidFunction(withzero))
    assert not report and 3 in report.zero_transitions


def test_factorizable_extension_succeeds_iff_phase_constraint(c23, ratchet_quiver):
    for k in range(12):
        delta = 2 * np.pi * k / 12
        res = gqm.factorizable_extend(
            c23, ratchet_quiver,
            {"alpha_1": np.exp(1j * 0.31), "beta_1": np.exp(1j * (delta - 0.31))},
        )
        if k % 4 == 0:  # 3*delta in 2*pi*Z
            assert isinstance(res, gqm.GroupoidFunction), k
        else:
            assert isinstance(res, gqm.ContradictionReport), k


def test_contradiction_report_names_transition_and_words(c23, ratchet_quiver):
    res = gqm.factorizable_extend(
        c23, ratchet_quiver,
        {"alpha_1": np.exp(1j * S_PHASE), "beta_1": np.exp(1j * (np.pi / 2 - S_PHASE))},
    )
    assert isinstance(res, gqm.ContradictionReport)
    assert abs(res.value_a - res.value_b) > 1e-3
    assert res.word_a and res.word_b and res.word_a != res.word_b


def test_extension_satisfies_factorization_everywhere(c23, ratchet_state):
    vals = ratchet_state.phi.values
    lhs = vals[c23.pair_result]
    rhs = vals[c23.pair_left] * vals[c23.pair_right]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert gqm.is_factorizable_function(c23, ratchet_state.phi)


def test_trivial_quiver_extension_gives_all_ones():
    q = gqm.make_quiver(["x", "y"], gqm.trivial_group(), [("x", "y", 0)])
    g = gqm.generate_from_quiver(q)
    phi = gqm.factorizable_extend(g, q, {"g0": 1.0})
    assert isinstance(phi, gqm.GroupoidFunction)
    assert np.allclose(phi.values, 1.0)


def test_extension_rejects_non_unit_modulus(c23, ratchet_quiver):
    with pytest.raises(ValueError, match="unit-modulus"):
        gqm.factorizable_extend(c23, ratchet_quiver, {"alpha_1": 2.0, "beta_1": 1.0})


def test_extension_rejects_nongenerating_quiver(c23):
    q = gqm.make_quiver(["+", "-"], gqm.cyclic_group(3), [("+", "+", 0)])
    with pytest.raises(ValueError, match="generate"):
        gqm.factorizable_extend(c23, q, {"g0": 1.0})


def test_state_from_phi_weights():
    g = gqm.pair_groupoid(4)
    s = gqm.state_from_phi(g, gqm.GroupoidFunction(np.ones(16)))
    assert s.weight == pytest.approx(0.25)


def test_state_from_phi_rejects_vanishing_normalization():
    g = gqm.pair_groupoid(2)
    with pytest.raises(ValueError, match="normalize"):
        gqm.state_from_phi(g, gqm.GroupoidFunction(np.zeros(4)))


def test_state_from_phi_rejects_non_psd():
    g = gqm.pair_groupoid(2)
    vals = np.ones(4, dtype=complex)
    for t in g.transitions:
        if t.source != t.target:
            vals[t.id] = 2.0
    with pytest.raises(ValueError, match="positive definite"):
        gqm.state_from_phi(g, gqm.GroupoidFunction(vals))


def test_state_positivity_against_random_elements(ratchet_state, c23, rng):
    worst = 0.0
    for _ in range(1000):
        f = gqm.random_element(c23, rng)
        val = gqm.expectation(
            ratchet_state, gqm.convolve(c23, gqm.adjoint(c23, f), f)
        )
        worst = min(worst, val.real)
        assert abs(val.imag) < 1e-10 * max(1.0, abs(val))
    assert worst > -1e-10


def test_self_adjoint_expectations_are_real(ratchet_state, c23, rng):
    for _ in range(50):
        h = gqm.random_self_adjoint(c23, rng)
        val = gqm.expectation(ratchet_state, h)
        assert abs(val.imag) < 1e-12 * max(1.0, abs(val))


def test_state_hermiticity(ratchet_state, c23):
    vals = ratchet_state.phi.values
    assert np.max(np.abs(vals[c23.inverse_table] - np.conj(vals))) < 1e-12


# -------------------------------------- factorizable_extend vs reference

@st.composite
def quiver_characters(draw):
    """A random quiver over Z_k or S_3 with generator values
    theta_y chi(c) conj(theta_x), which extend to a groupoid character."""
    q, g, chi = draw(character_quivers())
    theta = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=len(q.outcomes),
                          max_size=len(q.outcomes)))
    values = {
        name: np.exp(1j * theta[t.target]) * chi[t.label] * np.exp(-1j * theta[t.source])
        for name, t in zip(q.names, q.generators)
    }
    return g, q, values


@settings(deadline=None)
@given(quiver_characters())
def test_extension_of_characters_equals_reference(case):
    g, q, values = case
    got = gqm.factorizable_extend(g, q, values)
    want = reference_factorizable_extend(g, q, values)
    assert isinstance(want, GroupoidFunction)
    assert isinstance(got, GroupoidFunction) and np.array_equal(got.values, want.values)


SHIFTS = st.just(0.0) | st.floats(1e-6, 3.0) | st.floats(-3.0, -1e-6)


@settings(deadline=None)
@given(quiver_characters(), st.data())
def test_perturbed_extension_decides_as_reference(case, data):
    g, q, values = case
    shifts = data.draw(st.lists(SHIFTS, min_size=len(values), max_size=len(values)))
    values = {name: v * np.exp(1j * d) for (name, v), d in zip(values.items(), shifts)}
    got = gqm.factorizable_extend(g, q, values)
    want = reference_factorizable_extend(g, q, values)
    assert type(got) is type(want)
    if isinstance(got, GroupoidFunction):
        assert np.array_equal(got.values, want.values)
    else:
        assert got.word_a != got.word_b
        assert abs(got.value_a - got.value_b) > 1e-9


@pytest.mark.parametrize("arrows, values", [
    # a unit given as a generator, with a value other than 1
    ([("x", "x", 0), ("x", "y", 1)], {"g0": np.exp(0.3j), "g1": 1.0}),
    # g1 is the inverse of g0, but its value is not the conjugate of g0's
    ([("x", "y", 1), ("y", "x", 1)], {"g0": np.exp(0.3j), "g1": np.exp(0.3j)}),
])
def test_letter_contradiction_matches_reference(arrows, values):
    q = gqm.make_quiver(["x", "y"], gqm.cyclic_group(2), arrows)
    g = gqm.generate_from_quiver(q)
    got = gqm.factorizable_extend(g, q, values)
    assert isinstance(got, ContradictionReport)
    assert got == reference_factorizable_extend(g, q, values)



# ------------------------------------- is_positive_definite vs reference

# Reference: the check as it was before the rank-one certificate, with one
# eigvalsh per target fiber.
def reference_is_positive_definite(
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


@settings(deadline=None, max_examples=150)
@given(gram_phis())
def test_positivity_decides_as_reference(case):
    g, phi, kind = case
    got = gqm.is_positive_definite(g, phi)
    want = reference_is_positive_definite(g, phi)
    assert (got.ok, got.fiber) == (want.ok, want.fiber)
    assert got.hermiticity_defect == want.hermiticity_defect
    if kind == "character":
        assert got.ok


def test_rank_one_certificate_bounds_the_spectrum(rng):
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e = 1e-9 * rng.standard_normal((5, 5))
    block = np.outer(v, v.conj()) + (e + e.T)
    mu, u, eps = rank_one_certificate(block)
    evals = np.linalg.eigvalsh(block)
    assert abs(evals[-1] - mu) <= eps
    assert np.max(np.abs(evals[:-1])) <= eps < 1e-7
    assert abs(abs(np.vdot(u, v)) - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-6
    # a pivot that is not positive, and a NaN, both fail every `eps < bound`
    assert rank_one_certificate(-block)[2] == np.inf
    block[0, 1] = np.nan
    assert not rank_one_certificate(block)[2] < np.inf
