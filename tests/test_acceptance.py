"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its worst observed defect. Tolerances are fixed
here, not calibrated. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines."""

import json

import numpy as np

import gqm
from gqm.groupoid import FiniteGroupoid
from gqm.specio import build_experiment, parse_spec, print_spec, read_bundled

from conftest import S_PHASE, name_ids
from golden_c23 import COL_ORDER, ROW_ORDER, golden_compose


def report(num, desc, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def table_matches(g):
    ids = name_ids(g)
    inv = {v: k for k, v in ids.items()}
    defined = undefined = 0
    for rname in ROW_ORDER:
        for cname in COL_ORDER:
            want = golden_compose(rname, cname)
            got = g.compose(ids[rname], ids[cname])
            if want is None:
                if got is not None:
                    return False, defined, undefined
                undefined += 1
            else:
                if got is None or inv[got.id] != want:
                    return False, defined, undefined
                defined += 1
    return True, defined, undefined


def test_criterion_01_table_reproduction(c23, ratchet_quiver):
    ok1, ndef, nundef = table_matches(c23)
    ok2, _, _ = table_matches(gqm.generate_from_quiver(ratchet_quiver))
    report(
        1, "cyclic(2,3) and quiver closure both reproduce the golden table",
        ok1 and ok2 and ndef == 72 and nundef == 72,
        f"{ndef} products, {nundef} undefined",
    )


def test_criterion_02_axiom_suite(c23, rng):
    clean = all(
        gqm.check_axioms(g).ok
        for g in (
            c23,
            gqm.pair_groupoid(1),
            gqm.pair_groupoid(2),
            gqm.pair_groupoid(4),
            gqm.cyclic_groupoid(1, 5),  # Z_5 as a one-object groupoid
        )
    )
    defined = np.argwhere(c23.compose_table >= 0)
    caught = 0
    for _ in range(20):
        a, b = defined[rng.integers(len(defined))]
        new = int(rng.integers(12))
        while new == c23.compose_table[a, b]:
            new = int(rng.integers(12))
        mutated = c23.compose_table.copy()
        mutated[a, b] = new
        g = FiniteGroupoid(
            c23.outcomes, c23.transitions, mutated, c23.inverse_table,
            c23.unit_table, group=c23.group, validate=False,
        )
        caught += int(not gqm.check_axioms(g).ok)
    report(2, "axiom checker: clean constructors, 20/20 mutations caught",
           clean and caught == 20, f"mutations caught: {caught}/20")


def test_criterion_03_factorizability_constraint(c23, ratchet_quiver):
    outcomes = []
    for k in range(12):
        delta = 2 * np.pi * k / 12
        res = gqm.factorizable_extend(
            c23, ratchet_quiver,
            {"alpha_1": np.exp(1j * S_PHASE), "beta_1": np.exp(1j * (delta - S_PHASE))},
        )
        outcomes.append(isinstance(res, gqm.GroupoidFunction))
    expected = [k % 4 == 0 for k in range(12)]
    report(3, "factorizable extension succeeds iff exp(3i*delta) = 1",
           outcomes == expected, f"successes at k={[k for k, v in enumerate(outcomes) if v]}")


def test_criterion_04_ratchet_constancy(ratchet_state, ratchet_h):
    worst_diag = worst_cross = worst_sym = 0.0
    grid = gqm.TimeGrid(0.0, 10.0, 101)
    p, m = (ratchet_state.groupoid.outcome(label).id for label in "+-")
    amps = gqm.amplitude_grid(ratchet_state, ratchet_h, grid)  # [y, x, t]
    app, amm, apm, amp = amps[p, p], amps[m, m], amps[m, p], amps[p, m]
    worst_diag = float(np.max(np.abs(app - 0.5)))
    worst_cross = float(np.max(np.abs(amp)))
    worst_sym = max(
        float(np.max(np.abs(app - amm))), float(np.max(np.abs(amp - apm)))
    )
    report(4, "ratchet amplitudes: (+,+) = 1/2 and (-,+) = 0 for all t",
           worst_diag < 1e-10 and worst_cross < 1e-10 and worst_sym < 1e-12,
           f"max|diag-1/2|={worst_diag:.2e}, max|cross|={worst_cross:.2e}, sym={worst_sym:.2e}")


def test_criterion_05_qubit_recovery(ratchet_state, qubit_h):
    grid = gqm.TimeGrid(0.0, 10.0, 101)
    p, m = (ratchet_state.groupoid.outcome(label).id for label in "+-")
    amps = gqm.amplitude_grid(ratchet_state, qubit_h, grid)  # [y, x, t]
    app, amp = amps[p, p], amps[m, p]
    want_diag = 0.5 * np.cos(grid.times / 2)
    want_cross = 0.5 * np.abs(np.sin(grid.times / 2))
    d1 = float(np.max(np.abs(app - want_diag)))
    d2 = float(np.max(np.abs(np.abs(amp) - want_cross)))
    report(5, "qubit amplitudes: (+,+) = cos(t/2)/2 and |(-,+)| = |sin(t/2)|/2",
           d1 < 1e-10 and d2 < 1e-10, f"defects {d1:.2e}, {d2:.2e}")


def test_criterion_06_closed_form_unitaries(c23, ids, ratchet_h, qubit_h):
    from conftest import element_from_names
    from golden_c23 import closed_form_qubit_u, closed_form_ratchet_u

    worst = 0.0
    for t in (0.3, 1.0, 2.5):
        worst = max(worst, (
            gqm.exponential(c23, ratchet_h, t)
            - element_from_names(c23, ids, closed_form_ratchet_u(t))
        ).max_abs())
        worst = max(worst, (
            gqm.exponential(c23, qubit_h, t)
            - element_from_names(c23, ids, closed_form_qubit_u(t))
        ).max_abs())
    h = ratchet_h.element
    alg1 = (gqm.convolve(c23, gqm.convolve(c23, h, h), h) - 9 * h).max_abs()
    alg2 = (
        gqm.convolve(c23, qubit_h.element, qubit_h.element)
        - 0.25 * gqm.unit_element(c23)
    ).max_abs()
    report(6, "closed-form unitaries and the identities h^3 = 9h, ht^2 = 1/4",
           worst < 1e-10 and alg1 < 1e-12 and alg2 < 1e-12,
           f"u defect {worst:.2e}, h^3 {alg1:.2e}, ht^2 {alg2:.2e}")


def test_criterion_07_unitarity_and_group_law(rng):
    worst_u = worst_g = 0.0
    for g in (gqm.cyclic_groupoid(2, 3, labels=["+", "-"]), gqm.pair_groupoid(3)):
        unit = gqm.unit_element(g)
        for _ in range(20):
            h = gqm.Hamiltonian(g, gqm.random_self_adjoint(g, rng))
            for t in (0.1, 1.0, np.pi, 10.0):
                u = gqm.exponential(g, h, t)
                worst_u = max(worst_u, (gqm.convolve(g, u, gqm.adjoint(g, u)) - unit).max_abs())
            for t, s in ((0.2, 0.7), (1.0, np.pi)):
                lhs = gqm.exponential(g, h, t + s)
                rhs = gqm.convolve(g, gqm.exponential(g, h, t), gqm.exponential(g, h, s))
                worst_g = max(worst_g, (lhs - rhs).max_abs())
    report(7, "unitarity and group law for 20 random self-adjoint h on two groupoids",
           worst_u < 1e-10 and worst_g < 1e-9,
           f"unitarity {worst_u:.2e}, group law {worst_g:.2e}")


def test_criterion_08_gns_properties(c23, ratchet_state, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    dim_ok = sp.dim == 2
    worst_hom = worst_state = worst_norm = 0.0
    for _ in range(200):
        f = gqm.random_element(c23, rng)
        h = gqm.random_element(c23, rng)
        pf, ph = gqm.represent(sp, c23, f), gqm.represent(sp, c23, h)
        pfh = gqm.represent(sp, c23, gqm.convolve(c23, f, h))
        worst_hom = max(worst_hom, float(np.max(np.abs(pfh - pf @ ph))))
        worst_hom = max(worst_hom, float(np.max(np.abs(
            gqm.represent(sp, c23, gqm.adjoint(c23, f)) - pf.conj().T
        ))))
    for _ in range(100):
        f = gqm.random_element(c23, rng)
        via = np.vdot(sp.cyclic_vector, gqm.represent(sp, c23, f) @ sp.cyclic_vector)
        worst_state = max(worst_state, abs(via - gqm.expectation(ratchet_state, f)))
        psi = gqm.psi_vector(c23, ratchet_state, f)
        rho_ff = gqm.expectation(
            ratchet_state, gqm.convolve(c23, gqm.adjoint(c23, f), f)
        )
        worst_norm = max(worst_norm, abs(gqm.psi_inner(ratchet_state, psi, psi) - rho_ff))
    report(8, "GNS: dim 2, *-homomorphism, state reproduction, ||Psi_f||^2 law",
           dim_ok and worst_hom < 1e-10 and worst_state < 1e-10 and worst_norm < 1e-10,
           f"dim={sp.dim}, hom {worst_hom:.2e}, state {worst_state:.2e}, norm {worst_norm:.2e}")


def test_criterion_09_quantum_measure(ratchet_state, rng):
    states = [ratchet_state]
    g2 = gqm.pair_groupoid(2)
    states.append(gqm.state_from_phi(g2, gqm.GroupoidFunction(np.ones(4))))
    g3 = gqm.pair_groupoid(3)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    vals = np.array([u[t.target] * np.conj(u[t.source]) for t in g3.transitions])
    s3 = gqm.state_from_phi(g3, gqm.GroupoidFunction(vals))
    states.append(s3)

    worst_amp = 0.0
    for s in states:
        g = s.groupoid
        amp = gqm.amplitude_matrix(s)
        for x in g.outcomes:
            for y in g.outcomes:
                mu = gqm.quantum_measure(s, gqm.fiber_event(g, x.id, y.id))
                worst_amp = max(worst_amp, abs(mu - abs(amp[y.id, x.id]) ** 2))

    worst_grade2 = 0.0
    ids_all = np.arange(12)
    for _ in range(100):
        rng.shuffle(ids_all)
        sizes = np.cumsum(rng.integers(1, 4, size=3))
        a = gqm.event(ids_all[: sizes[0]])
        b = gqm.event(ids_all[sizes[0]: sizes[1]])
        c = gqm.event(ids_all[sizes[1]: sizes[2]])
        mu = lambda ev: gqm.quantum_measure(ratchet_state, ev)
        worst_grade2 = max(worst_grade2, abs(
            mu(a | b | c) - mu(a | b) - mu(b | c) - mu(a | c) + mu(a) + mu(b) + mu(c)
        ))

    repro = gqm.reproducibility_defect(s3).normalized
    repro = max(repro, gqm.reproducibility_defect(states[1]).normalized)
    report(9, "measure: mu = |amplitude|^2, grade-2 sum rule, normalized reproducibility",
           worst_amp < 1e-12 and worst_grade2 < 1e-12 and repro < 1e-12,
           f"amp {worst_amp:.2e}, grade2 {worst_grade2:.2e}, repro {repro:.2e}")


def test_criterion_10_schrodinger_residual(c23, ratchet_state, qubit_h, rng):
    sp = gqm.gns_build(c23, ratchet_state)
    ratios = []
    hams = [qubit_h, gqm.Hamiltonian(c23, gqm.random_self_adjoint(c23, rng))]
    for ham in hams:
        h_mat = gqm.represent(sp, c23, ham.element)

        def residual(eps, ham=ham, h_mat=h_mat):
            grid = gqm.TimeGrid(0.7 - eps, 0.7 + eps, 3)
            psi = gqm.schrodinger_evolve(sp, ratchet_state, ham, grid)
            dpsi = (psi[2] - psi[0]) / (2 * eps)
            return float(np.linalg.norm(1j * dpsi - h_mat @ psi[1]))

        ratios.append(residual(1e-2) / residual(5e-3))
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(10, "i dpsi/dt = H psi residual scales as eps^2",
           ok, f"ratios {[f'{r:.3f}' for r in ratios]}")


def test_criterion_11_parser():
    roundtrip_ok = True
    for name in ("ratchet.json", "qubit.json", "pair2.json", "cyclic_only.json"):
        spec = parse_spec(read_bundled(name))
        roundtrip_ok &= parse_spec(print_spec(spec)) == spec
        build_experiment(spec)
    manifest = json.loads(read_bundled("malformed/manifest.json"))
    codes_ok = True
    seen = []
    for fname, want in sorted(manifest.items()):
        try:
            build_experiment(parse_spec(read_bundled(f"malformed/{fname}")))
            got = "<none>"
        except gqm.specio.SpecError as err:
            got = err.code
        except Exception:
            got = "<exception>"
        codes_ok &= got == want
        seen.append(f"{fname}:{got}")
    report(11, "parser round-trips and all malformed specs yield their codes",
           roundtrip_ok and codes_ok, f"{len(manifest)} malformed specs checked")
