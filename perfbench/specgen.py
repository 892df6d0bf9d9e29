"""Seeded spec generators for the three benchmark workloads.

Every op draws its parameters from ``numpy.random.default_rng((seed, index))``,
so the same (seed, index) always yields the same spec bytes and no two ops
share a spec. The generator enumerates each groupoid's transitions on its own
(canonical order: target, source, label) so that per-transition data such as
``phi`` and Hamiltonian coefficients line up with what ``gqm`` builds, and so
that the gate knows |Omega|, |G| and the composable-pair count without asking
the program under test.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("evolve_dense", "structure_quiver", "small_specs")

# verb sequences: every verb each spec shape accepts
FULL_VERBS = ("check", "cayley", "state", "evolve", "measure", "gns")
# small_specs cycles through this schedule: specs with dynamics come twice as
# often as the state-only and groupoid-only ones, so the op median falls inside
# the dynamics mode rather than on the gap between modes
SMALL_SCHEDULE = ("ratchet", "qubit", "ratchet_table", "pair",
                  "ratchet", "qubit", "ratchet_table", "cyclic_only")
MALFORMED_DIR = Path("src/gqm/specs/malformed")


@dataclass(frozen=True)
class Op:
    """One generated spec plus the facts the gate checks its artifacts against."""

    workload: str
    shape: str
    spec: bytes
    verbs: tuple[str, ...]
    n_outcomes: int
    triples: tuple[tuple[int, int, int], ...]  # (target, label, source), canonical order
    weight: float | None = None       # 1/|Omega| for the unit-modulus states generated here
    grid_steps: int | None = None

    @property
    def n_transitions(self) -> int:
        return len(self.triples)

    @property
    def composable_pairs(self) -> int:
        src = np.bincount([x for _, _, x in self.triples], minlength=self.n_outcomes)
        tgt = np.bincount([y for y, _, _ in self.triples], minlength=self.n_outcomes)
        return int(np.dot(src, tgt))


def rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(index)))


# ------------------------------------------------------------ group tables

def cyclic_table(k: int) -> list[list[int]]:
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def symmetric_group(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Permutations of range(n) in lexicographic order (identity first) and
    the table ``table[i][j] = index(p_i ∘ p_j)``."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return perms, table


def _inverses(table: list[list[int]]) -> list[int]:
    return [row.index(0) for row in table]


def closure(n_outcomes: int, table: list[list[int]], gens) -> list[tuple[int, int, int]]:
    """All (target, label, source) words in the generators and their inverses,
    by breadth-first left multiplication from the units. Canonical order."""
    inv = _inverses(table)
    steps = [(y, g, x) for (y, g, x) in gens] + [(x, inv[g], y) for (y, g, x) in gens]
    seen = {(o, 0, o) for o in range(n_outcomes)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for (y1, g1, x1) in frontier:
            for (y2, g2, x2) in steps:
                if x2 == y1:
                    c = (y2, table[g2][g1], x1)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return sorted(seen, key=lambda t: (t[0], t[2], t[1]))


def full_triples(n_outcomes: int, k: int) -> list[tuple[int, int, int]]:
    return [(y, j, x) for y in range(n_outcomes) for x in range(n_outcomes) for j in range(k)]


# ------------------------------------------------------- states, operators

def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def gauge_character_phi(triples, n_outcomes: int, k: int, rng) -> list[complex]:
    """phi(y, j, x) = exp(i(theta_y - theta_x)) * chi_m(j) with chi_m a Z_k
    character: unit-modulus, factorizable, hence positive definite."""
    theta = rng.uniform(-math.pi, math.pi, n_outcomes)
    m = int(rng.integers(k))
    return [
        cmath.exp(1j * (theta[y] - theta[x] + 2 * math.pi * m * j / k))
        for (y, j, x) in triples
    ]


def random_self_adjoint(triples, inv_label, rng) -> list[complex]:
    """h = (c + c*)/2 for random c, with c*(a) = conj(c(a^-1))."""
    index = {t: i for i, t in enumerate(triples)}
    c = rng.standard_normal(len(triples)) + 1j * rng.standard_normal(len(triples))
    out = []
    for (y, j, x) in triples:
        a_inv = index[(x, inv_label[j], y)]
        out.append(0.5 * (c[index[(y, j, x)]] + np.conj(c[a_inv])))
    return out


def _grid(rng, steps: int) -> dict:
    return {"start": 0.0, "stop": float(rng.uniform(1.0, 10.0)), "steps": steps}


def _dump(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


# ------------------------------------------------------------- workloads

EVOLVE_N, EVOLVE_K, EVOLVE_STEPS = 6, 4, 21


def evolve_dense(seed: int, index: int) -> Op:
    """cyclic [6,4]: |Omega| = 6, |G| = 144, 36 outcome pairs, 21 grid points."""
    rng = rng_for(seed, index)
    n, k = EVOLVE_N, EVOLVE_K
    triples = full_triples(n, k)
    phi = gauge_character_phi(triples, n, k, rng)
    h = random_self_adjoint(triples, [(-j) % k for j in range(k)], rng)
    doc = {
        "name": f"evolve_dense-{seed}-{index}",
        "groupoid_source": {"cyclic": [n, k]},
        "state_source": {"phi": [_pair(z) for z in phi]},
        "hamiltonian": {"coeffs": [_pair(z) for z in h]},
        "grid": _grid(rng, EVOLVE_STEPS),
        "requested_outputs": ["amplitudes", "evolve", "gns"],
    }
    return Op("evolve_dense", "cyclic", _dump(doc), ("evolve", "gns"), n,
              tuple(triples), weight=1.0 / n, grid_steps=EVOLVE_STEPS)


QUIVER_OUTCOMES = 4


def structure_quiver(seed: int, index: int) -> Op:
    """A quiver over S_4 on 4 outcomes (|G| = 384): a spanning path with
    random labels and free phases, plus a transposition and a 4-cycle at one
    outcome whose phases follow the trivial or the sign character."""
    rng = rng_for(seed, index)
    perms, table = symmetric_group(4)
    n = QUIVER_OUTCOMES
    order = [int(v) for v in rng.permutation(n)]
    labels = [f"o{i}" for i in range(n)]
    gens, phases, params = [], {}, {}
    for i in range(n - 1):
        name = f"p{i}"
        gens.append({"name": name, "source": labels[order[i]], "target": labels[order[i + 1]],
                     "label": int(rng.integers(len(perms)))})
        params[f"a{i}"] = float(rng.uniform(-math.pi, math.pi))
        phases[name] = {"phase": f"a{i}"}
    # a 4-cycle and a transposition of two cyclically adjacent points generate S_4
    cyc = [int(v) for v in rng.permutation(4)]
    four = [0] * 4
    for i in range(4):
        four[cyc[i]] = cyc[(i + 1) % 4]
    i = int(rng.integers(4))
    swap = list(range(4))
    swap[cyc[i]], swap[cyc[(i + 1) % 4]] = cyc[(i + 1) % 4], cyc[i]
    sign = int(rng.integers(2))  # 0: trivial character, 1: sign (both generators odd)
    home = labels[int(rng.integers(n))]
    gens.append({"name": "tau", "source": home, "target": home, "label": perms.index(tuple(swap))})
    gens.append({"name": "kappa", "source": home, "target": home, "label": perms.index(tuple(four))})
    params["c"] = float(sign)
    phases["tau"] = {"phase": "pi * c"}
    phases["kappa"] = {"phase": "c * pi"}
    doc = {
        "name": f"structure_quiver-{seed}-{index}",
        "groupoid_source": {
            "outcomes": labels,
            "group": {"order": len(perms), "table": table},
            "generators": gens,
        },
        "state_source": {**phases, "params": params},
        "requested_outputs": ["cayley", "axioms", "measure", "gns"],
    }
    lab = {s: j for j, s in enumerate(labels)}
    triples = closure(n, table, [(lab[g["target"]], g["label"], lab[g["source"]]) for g in gens])
    return Op("structure_quiver", "quiver_s4", _dump(doc),
              ("check", "cayley", "state", "measure", "gns"), n, tuple(triples),
              weight=1.0 / n)


SMALL_STEPS = 41


def _ratchet_quiver(rng, restricted: bool) -> tuple[dict, list]:
    """The two-outcome Z_3 ratchet quiver; delta is a Z_3 character."""
    table = cyclic_table(3)
    gens = [{"name": "alpha_1", "source": "-", "target": "+", "label": 1},
            {"name": "beta_1", "source": "+", "target": "-", "label": 1}]
    triples = closure(2, table, [(0, 1, 1), (1, 1, 0)])
    if restricted:
        # qubit shape: h = c delta_a + conj(c) delta_{a^-1} for one cross arrow a
        index = {t: i for i, t in enumerate(triples)}
        j = int(rng.integers(3))
        c = complex(rng.standard_normal(), rng.standard_normal())
        h = [0j] * len(triples)
        h[index[(0, j, 1)]] = c
        h[index[(1, (-j) % 3, 0)]] = c.conjugate()
    else:
        h = random_self_adjoint(triples, [0, 2, 1], rng)
    doc = {
        "groupoid_source": {"outcomes": ["+", "-"], "group": {"order": 3, "table": table},
                            "generators": gens},
        "state_source": {"alpha_1": {"phase": "s"}, "beta_1": {"phase": "delta - s"},
                         "params": {"s": float(rng.uniform(-math.pi, math.pi)),
                                    "delta": 2 * math.pi * int(rng.integers(3)) / 3}},
        "hamiltonian": {"coeffs": [_pair(z) for z in h]},
        "grid": _grid(rng, SMALL_STEPS),
        "requested_outputs": ["cayley", "axioms", "amplitudes", "measure", "gns", "evolve"],
    }
    return doc, triples


def _ratchet_table(rng) -> tuple[dict, list]:
    """The ratchet groupoid C_{2,3} as an explicit, randomly ordered compose table."""
    canon = full_triples(2, 3)
    perm = [int(v) for v in rng.permutation(len(canon))]
    listed = [canon[p] for p in perm]  # listed[i] = triple of transition id i
    pos = {t: i for i, t in enumerate(listed)}
    table = [[pos[(y2, (g2 + g1) % 3, x1)] if x2 == y1 else None
              for (y1, g1, x1) in listed] for (y2, g2, x2) in listed]
    names = ("+", "-")
    phi = gauge_character_phi(listed, 2, 3, rng)
    h = random_self_adjoint(listed, [0, 2, 1], rng)
    doc = {
        "groupoid_source": {
            "outcomes": list(names),
            "transitions": [{"source": names[x], "target": names[y], "label": j,
                             "name": f"t{i}"} for i, (y, j, x) in enumerate(listed)],
            "compose_table": table,
        },
        "state_source": {"phi": [_pair(z) for z in phi]},
        "hamiltonian": {"coeffs": [_pair(z) for z in h]},
        "grid": _grid(rng, SMALL_STEPS),
        "requested_outputs": ["axioms", "amplitudes", "gns"],
    }
    return doc, canon


def small_specs(seed: int, index: int) -> Op:
    """Tiny specs (|G| <= 12), the shape chosen by op index from SMALL_SCHEDULE."""
    rng = rng_for(seed, index)
    shape = SMALL_SCHEDULE[index % len(SMALL_SCHEDULE)]
    verbs, steps = FULL_VERBS, SMALL_STEPS
    if shape in ("ratchet", "qubit"):
        doc, triples = _ratchet_quiver(rng, restricted=shape == "qubit")
        n = 2
    elif shape == "ratchet_table":
        doc, triples = _ratchet_table(rng)
        n = 2
    elif shape == "pair":
        n = int(rng.integers(2, 4))
        triples = full_triples(n, 1)
        phi = gauge_character_phi(triples, n, 1, rng)
        doc = {"groupoid_source": {"pair": [n]},
               "state_source": {"phi": [_pair(z) for z in phi]},
               "requested_outputs": ["cayley", "axioms", "measure", "gns"]}
        verbs, steps = ("check", "cayley", "state", "measure", "gns"), None
    else:  # cyclic_only
        n, k = ((2, 3), (2, 2), (3, 1))[int(rng.integers(3))]
        triples = full_triples(n, k)
        doc = {"groupoid_source": {"cyclic": [n, k]}, "requested_outputs": ["cayley", "axioms"]}
        verbs, steps = ("check", "cayley"), None
    doc["name"] = f"small_specs-{shape}-{seed}-{index}"
    has_state = "state_source" in doc
    return Op("small_specs", shape, _dump(doc), verbs, n, tuple(triples),
              weight=1.0 / n if has_state else None, grid_steps=steps)


GENERATORS = {"evolve_dense": evolve_dense, "structure_quiver": structure_quiver,
              "small_specs": small_specs}


def generate(workload: str, seed: int, index: int) -> Op:
    return GENERATORS[workload](seed, index)


def load_malformed(root: Path) -> list[tuple[str, bytes, str]]:
    """(file name, bytes, expected diagnostic code) for each malformed spec."""
    folder = root / MALFORMED_DIR
    manifest = json.loads((folder / "manifest.json").read_text(encoding="utf-8"))
    return [(name, (folder / name).read_bytes(), code) for name, code in sorted(manifest.items())]
