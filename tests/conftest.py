import itertools
import os
import sys

import numpy as np
import pytest
from hypothesis import settings, strategies as st

sys.path.insert(0, os.path.dirname(__file__))

import gqm

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")

SEED = int(os.environ.get("GQM_SEED", "20250809"))

S_PHASE = 0.7
DELTA = 2 * np.pi / 3

S3_PERMS = list(itertools.permutations(range(3)))
S3 = gqm.group_from_table(
    [[S3_PERMS.index(tuple(p[i] for i in q)) for q in S3_PERMS] for p in S3_PERMS]
)
S3_SIGN = np.array([round(np.linalg.det(np.eye(3)[list(p)])) for p in S3_PERMS])


@st.composite
def character_quivers(draw):
    """A random quiver over Z_k or S_3, its closure, and a one-dimensional
    character chi of the group (an array indexed by group element)."""
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
    q = gqm.make_quiver(labels, group, arrows)
    return q, gqm.generate_from_quiver(q), chi


PERTURBATIONS = (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6)


@st.composite
def gram_phis(draw):
    """A groupoid from character_quivers and a phi on it, of one of four kinds:

    - "character": theta_{t(a)} chi(label a) conj(theta_{s(a)}), a gauged
      character, whose target-fiber Gram blocks have rank one;
    - "perturbed": the same with each phase moved by delta * eta(a), delta
      from PERTURBATIONS and eta(a^-1) = -eta(a), so phi(a^-1) = conj(phi(a))
      still holds and the blocks are rank one up to delta;
    - "mix": a convex mix of two gauged characters, positive and of rank
      two on a fiber where the gauges differ;
    - "regular": a convex mix of a gauged character and the indicator of
      the units, whose blocks have full rank.
    """
    q, g, chi = draw(character_quivers())
    labels = np.array([t.label for t in g.transitions])

    def gauged():
        theta = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=g.n_outcomes,
                                       max_size=g.n_outcomes)))
        return np.exp(1j * theta[g.target]) * chi[labels] * np.exp(-1j * theta[g.source])

    phi = gauged()
    kind = draw(st.sampled_from(("character", "perturbed", "mix", "regular")))
    if kind == "perturbed":
        delta = draw(st.sampled_from(PERTURBATIONS))
        eta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=g.n_transitions,
                                     max_size=g.n_transitions)))
        phi = phi * np.exp(0.5j * delta * (eta - eta[g.inverse_table]))
    elif kind in ("mix", "regular"):
        other = gauged() if kind == "mix" else np.isin(np.arange(g.n_transitions), g.unit_table)
        t = draw(st.floats(0.1, 0.9))
        phi = t * phi + (1.0 - t) * other
    return g, gqm.GroupoidFunction(phi), kind


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def c23():
    return gqm.cyclic_groupoid(2, 3, labels=["+", "-"])


@pytest.fixture(scope="session")
def ratchet_quiver():
    return gqm.make_quiver(
        ["+", "-"], gqm.cyclic_group(3),
        [("-", "+", 1), ("+", "-", 1)],
        names=("alpha_1", "beta_1"),
    )


def name_ids(g):
    """Map golden names to transition ids via the (y, power, x) triples."""
    from golden_c23 import TRIPLES

    out = {}
    for name, (y, p, x) in TRIPLES.items():
        out[name] = g.transition(g.outcome(y).id, p, g.outcome(x).id).id
    return out


@pytest.fixture(scope="session")
def ids(c23):
    return name_ids(c23)


@pytest.fixture(scope="session")
def ratchet_state(c23, ratchet_quiver):
    phi = gqm.factorizable_extend(
        c23, ratchet_quiver,
        {"alpha_1": np.exp(1j * S_PHASE), "beta_1": np.exp(1j * (DELTA - S_PHASE))},
    )
    assert isinstance(phi, gqm.GroupoidFunction)
    return gqm.state_from_phi(c23, phi)


@pytest.fixture(scope="session")
def ratchet_h(c23, ids):
    coeffs = np.zeros(12)
    coeffs[[ids[n] for n in ("a1", "a2", "a3", "b1", "b2", "b3")]] = 1.0
    return gqm.Hamiltonian(c23, gqm.element(c23, coeffs))


@pytest.fixture(scope="session")
def qubit_h(c23, ids):
    coeffs = np.zeros(12)
    coeffs[[ids["a2"], ids["b1"]]] = 0.5
    return gqm.Hamiltonian(c23, gqm.element(c23, coeffs))


def element_from_names(g, ids_map, by_name):
    coeffs = np.zeros(g.n_transitions, dtype=complex)
    for name, c in by_name.items():
        coeffs[ids_map[name]] = c
    return gqm.element(g, coeffs)


def names_from_element(ids_map, f, tol=0.0):
    inv = {v: k for k, v in ids_map.items()}
    return {
        inv[i]: c for i, c in enumerate(f.coeffs) if abs(c) > tol
    }
