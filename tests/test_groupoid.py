import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gqm
from gqm.groupoid import (
    UNDEFINED, AxiomReport, AxiomViolation, FiniteGroupoid, _from_triples, _letters,
    _short_name,
)

from conftest import S3, name_ids
from golden_c23 import COL_ORDER, ROW_ORDER, TRIPLES, golden_compose, golden_inverse


def all_products_match(g, ids):
    """Compare every ordered pair against the frozen golden table."""
    inv_ids = {v: k for k, v in ids.items()}
    for row in ROW_ORDER:
        for col in COL_ORDER:
            expected = golden_compose(row, col)
            got = g.compose(ids[row], ids[col])
            if expected is None:
                assert got is None, (row, col, got)
            else:
                assert got is not None and inv_ids[got.id] == expected, (row, col)


def test_cyclic_2_3_matches_golden_table(c23, ids):
    assert c23.n_transitions == 12
    assert c23.n_outcomes == 2
    all_products_match(c23, ids)


def test_quiver_closure_equals_constructor(c23, ratchet_quiver):
    g = gqm.generate_from_quiver(ratchet_quiver)
    assert g.n_transitions == 12
    assert g == c23
    all_products_match(g, name_ids(g))


def test_inverse_products_gather(c23):
    ids = np.arange(c23.n_transitions)
    table = c23.inverse_products(ids, ids[::-1])
    for i in ids:
        for j, b in enumerate(ids[::-1]):
            c = c23.compose(c23.inverse(int(i)), int(b))
            assert table[i, j] == (-1 if c is None else c.id)


def test_compose_spot_values(c23, ids):
    assert c23.compose(ids["a1"], ids["b2"]).id == ids["1+"]
    assert c23.compose(ids["1+"], ids["1+"]).id == ids["1+"]
    assert c23.compose(ids["a1"], ids["a1"]) is None


def test_inverse_against_exhaustive_search(c23, ids):
    for name in TRIPLES:
        assert c23.inverse(ids[name]).id == ids[golden_inverse(name)]
    # the table search itself pins the cases called out by hand
    assert golden_inverse("a1") == "b2"
    assert golden_inverse("1+") == "1+"
    assert golden_inverse("s+") == "s2+"


def test_inverse_is_involution_and_swaps_endpoints(c23):
    for t in c23.transitions:
        u = c23.inverse(t)
        assert c23.inverse(u) == t
        assert (u.source, u.target) == (t.target, t.source)


def test_composable_pair_count(c23):
    defined = int((c23.compose_table >= 0).sum())
    expected = sum(
        int((c23.source == c23.target[b]).sum()) for b in range(12)
    )
    assert defined == expected == 72
    assert c23.compose_table.size == 144


def test_fiber_counts():
    for n, k in [(2, 3), (3, 2), (1, 5)]:
        g = gqm.cyclic_groupoid(n, k)
        for x in range(n):
            for y in range(n):
                count = int(((g.source == x) & (g.target == y)).sum())
                assert count == k


def test_pair_groupoid_sizes():
    assert gqm.pair_groupoid(1).n_transitions == 1
    assert gqm.pair_groupoid(2).n_transitions == 4
    assert gqm.pair_groupoid(4).n_transitions == 16


def test_pair_groupoid_composition():
    g = gqm.pair_groupoid(3)
    zy = g.transition(2, 0, 1)   # 1 -> 2
    yx = g.transition(1, 0, 0)   # 0 -> 1
    assert g.compose(zy, yx) == g.transition(2, 0, 0)
    assert g.compose(yx, zy) is None
    assert g.inverse(zy) == g.transition(1, 0, 2)


def test_constructor_axioms_all_empty():
    cases = [
        gqm.cyclic_groupoid(2, 3),
        gqm.cyclic_groupoid(1, 5),
        gqm.pair_groupoid(1),
        gqm.pair_groupoid(2),
        gqm.pair_groupoid(4),
    ]
    for g in cases:
        assert gqm.check_axioms(g).ok


def test_single_outcome_single_unit():
    g = gqm.pair_groupoid(1)
    assert gqm.check_axioms(g).ok
    assert g.unit(0).id == 0


def test_mutation_caught(c23, ids, rng):
    ct = c23.compose_table
    defined = np.argwhere(ct >= 0)
    for _ in range(20):
        a, b = defined[rng.integers(len(defined))]
        old = ct[a, b]
        new = int(rng.integers(12))
        while new == old:
            new = int(rng.integers(12))
        mutated = ct.copy()
        mutated[a, b] = new
        g = FiniteGroupoid(
            c23.outcomes, c23.transitions, mutated,
            c23.inverse_table, c23.unit_table, group=c23.group, validate=False,
        )
        report = gqm.check_axioms(g)
        assert not report.ok
        assert report.kinds() & {"closure", "associativity", "unit", "inverse"}


def test_specific_corruption_reports_associativity_or_inverse(c23, ids):
    # row a1, column b2 corrupted from 1+ to s+
    ct = c23.compose_table.copy()
    ct[ids["a1"], ids["b2"]] = ids["s+"]
    g = FiniteGroupoid(
        c23.outcomes, c23.transitions, ct,
        c23.inverse_table, c23.unit_table, group=c23.group, validate=False,
    )
    report = gqm.check_axioms(g)
    assert report.kinds() & {"associativity", "inverse"}


@pytest.mark.parametrize("table", ["inverse_table", "unit_table"])
@pytest.mark.parametrize("validate", [False, True])
def test_wrong_length_tables_are_rejected(c23, table, validate):
    tables = {"inverse_table": c23.inverse_table, "unit_table": c23.unit_table}
    tables[table] = tables[table][:-1]
    with pytest.raises(ValueError, match="one entry per"):
        FiniteGroupoid(c23.outcomes, c23.transitions, c23.compose_table,
                       group=c23.group, validate=validate, **tables)


def test_strict_table_load_rejects_bad_tables():
    # u is a unit; 'a' has no inverse because a∘a = a
    with pytest.raises(gqm.GroupoidAxiomError):
        gqm.from_compose_table(
            ["x"],
            [("x", "x", 0), ("x", "x", 1)],
            [[0, 1], [1, 1]],
        )


def test_strict_table_load_accepts_valid():
    # Z_2 as a one-outcome groupoid, loaded from the raw table
    g = gqm.from_compose_table(
        ["x"],
        [("x", "x", 0), ("x", "x", 1)],
        [[0, 1], [1, 0]],
    )
    assert gqm.check_axioms(g).ok
    assert g.inverse(1).id == 1


def test_explicit_table_roundtrip_of_pair_groupoid():
    g = gqm.pair_groupoid(2, labels=["u", "v"])
    table = [[None if v < 0 else int(v) for v in row] for row in g.compose_table]
    trs = [
        (g.outcomes[t.source].label, g.outcomes[t.target].label, t.label)
        for t in g.transitions
    ]
    h = gqm.from_compose_table(["u", "v"], trs, table)
    assert np.array_equal(h.compose_table, g.compose_table)
    assert np.array_equal(h.inverse_table, g.inverse_table)


def test_quiver_generation_is_idempotent(c23):
    full = gqm.make_quiver(
        ["+", "-"], gqm.cyclic_group(3),
        [
            (c23.outcomes[t.source].label, c23.outcomes[t.target].label, t.label)
            for t in c23.transitions
        ],
    )
    assert gqm.generate_from_quiver(full) == c23


def test_empty_quiver_gives_units_only():
    q = gqm.make_quiver(["x"], gqm.trivial_group(), [])
    g = gqm.generate_from_quiver(q)
    assert g.n_transitions == 1
    assert g.unit(0).id == 0


def test_single_arrow_quiver_closes_to_pair_groupoid():
    q = gqm.make_quiver(["x", "y"], gqm.trivial_group(), [("x", "y", 0)])
    g = gqm.generate_from_quiver(q)
    assert g.n_transitions == 4
    triples = {t.triple() for t in g.transitions}
    assert triples == {(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)}
    assert gqm.check_axioms(g).ok


def test_isolated_outcome_still_gets_unit():
    q = gqm.make_quiver(["x", "y", "z"], gqm.trivial_group(), [("x", "y", 0)])
    g = gqm.generate_from_quiver(q)
    assert g.n_transitions == 5  # pair part on {x, y} plus the unit at z
    z = g.outcome("z")
    assert g.unit(z).source == z.id


def test_irreducibility(c23, ratchet_quiver):
    flags = gqm.is_irreducible(ratchet_quiver, c23)
    assert flags == {"alpha_1": True, "beta_1": True}

    enlarged = gqm.make_quiver(
        ["+", "-"], gqm.cyclic_group(3),
        [("-", "+", 1), ("+", "-", 1), ("+", "+", 2)],
        names=("alpha_1", "beta_1", "sigma2_plus"),
    )
    flags = gqm.is_irreducible(enlarged, c23)
    assert flags == {"alpha_1": True, "beta_1": True, "sigma2_plus": False}


def test_unit_generator_is_reducible(c23):
    q = gqm.make_quiver(["+", "-"], gqm.cyclic_group(3), [("+", "+", 0)])
    g = gqm.generate_from_quiver(q)
    assert gqm.is_irreducible(q, g) == {"g0": False}


def test_rejects_zero_arguments():
    with pytest.raises(ValueError):
        gqm.pair_groupoid(0)
    with pytest.raises(ValueError):
        gqm.cyclic_groupoid(0, 3)
    with pytest.raises(ValueError):
        gqm.cyclic_groupoid(2, 0)


def test_quiver_rejects_bad_generators():
    with pytest.raises(ValueError):
        gqm.make_quiver(["x"], gqm.trivial_group(), [("x", "w", 0)])
    with pytest.raises(ValueError):
        gqm.make_quiver(["x"], gqm.cyclic_group(2), [("x", "x", 5)])


def test_one_object_groupoid_is_the_group():
    g = gqm.cyclic_groupoid(1, 5)
    assert g.n_transitions == 5
    assert gqm.check_axioms(g).ok
    # composition restricted to the single fiber is the group law
    for a in range(5):
        for b in range(5):
            c = g.compose(a, b)
            assert c is not None and c.label == (g.transitions[a].label + g.transitions[b].label) % 5


# ------------------------------------- quiver closure vs the fixed point

def fixed_point_closure(q):
    """Reference: add every composite of two known arrows until none is new."""
    grp = q.group
    triples = {(o.id, grp.identity, o.id) for o in q.outcomes}
    for t in q.generators:
        triples.add((t.target, t.label, t.source))
        triples.add((t.source, grp.inv(t.label), t.target))
    while True:
        new = {
            (y2, grp.mul(g2, g1), x1)
            for (y2, g2, x2) in triples
            for (y1, g1, x1) in triples
            if x2 == y1
        } - triples
        if not new:
            return _from_triples(q.outcomes, grp, list(triples))
        triples |= new


@st.composite
def quivers(draw):
    n_out = draw(st.integers(1, 4))
    group = S3 if draw(st.booleans()) else gqm.cyclic_group(draw(st.integers(1, 5)))
    labels = [f"o{i}" for i in range(n_out)]
    arrows = draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels),
                  st.integers(0, group.order - 1)),
        max_size=5, unique=True,
    ))
    return gqm.make_quiver(labels, group, arrows)


@settings(deadline=None)
@given(quivers())
def test_generate_from_quiver_matches_fixed_point_closure(q):
    g = gqm.generate_from_quiver(q)
    assert g == fixed_point_closure(q)
    assert gqm.check_axioms(g).ok


# ------------------------------- check_axioms vs the loop implementation

# The loop implementation that check_axioms replaced, kept verbatim as the reference.
def reference_check_axioms(g: FiniteGroupoid, max_violations: int = 1000) -> AxiomReport:
    """Exhaustively verify the groupoid axioms; violations go in the report.

    Checked: composability/closure (defined iff source matches target,
    endpoint coherence of results), associativity on all composable
    triples, unit laws, inverse laws, and reversibility (inverse is a
    bijection). An empty report means a valid groupoid.
    """
    out: list[AxiomViolation] = []
    truncated = False

    def add(kind: str, detail: str) -> bool:
        nonlocal truncated
        if len(out) >= max_violations:
            truncated = True
            return False
        out.append(AxiomViolation(kind, detail))
        return True

    n = g.n_transitions
    ct = g.compose_table
    name = _short_name(g)

    # table sanity; everything after guards against out-of-range entries
    ok_range = (ct >= UNDEFINED) & (ct < n)
    for a, b in np.argwhere(~ok_range):
        add("closure", f"entry ({name(a)}, {name(b)}) is not a transition id")
    defined = ok_range & (ct >= 0)

    # composability: defined iff s(a) == t(b); endpoints of results coherent
    should = g.source[:, None] == g.target[None, :]
    for a, b in np.argwhere(defined & ~should):
        if not add("closure", f"{name(a)}∘{name(b)} defined but sources/targets do not match"):
            break
    for a, b in np.argwhere(~defined & should & ok_range):
        if not add("closure", f"{name(a)}∘{name(b)} composable but undefined"):
            break
    for a, b in np.argwhere(defined):
        c = ct[a, b]
        if g.target[c] != g.target[a] or g.source[c] != g.source[b]:
            if not add(
                "closure",
                f"{name(a)}∘{name(b)} = {name(c)} has wrong endpoints",
            ):
                break

    # associativity over all composable triples, grouped by the middle factor
    for b in range(n):
        As = np.nonzero(defined[:, b])[0]
        Cs = np.nonzero(defined[b, :])[0]
        if len(As) == 0 or len(Cs) == 0:
            continue
        ab = ct[As, b]   # defined by selection, so valid row indices
        bc = ct[b, Cs]
        lhs = ct[ab[:, None], Cs[None, :]]
        rhs = ct[As[:, None], bc[None, :]]
        bad = (lhs != rhs) | (lhs < 0) | (rhs < 0)
        for i, j in np.argwhere(bad):
            if not add(
                "associativity",
                f"({name(As[i])}∘{name(b)})∘{name(Cs[j])} != {name(As[i])}∘({name(b)}∘{name(Cs[j])})",
            ):
                break

    # units
    if len(g.unit_table) != g.n_outcomes:
        add("unit", "one unit per outcome required")
    for o in g.outcomes:
        u = int(g.unit_table[o.id])
        if not (0 <= u < n) or g.source[u] != o.id or g.target[u] != o.id:
            add("unit", f"unit of outcome {o.label!r} is not a loop at it")
            continue
        for a in np.nonzero(g.source == o.id)[0]:
            if ct[a, u] != a:
                add("unit", f"{name(a)}∘{name(u)} != {name(a)}")
        for a in np.nonzero(g.target == o.id)[0]:
            if ct[u, a] != a:
                add("unit", f"{name(u)}∘{name(a)} != {name(a)}")

    # inverses
    for a in range(n):
        b = int(g.inverse_table[a])
        if not (0 <= b < n):
            add("inverse", f"inverse of {name(a)} is not a transition id")
            continue
        ut = int(g.unit_table[g.target[a]]) if g.target[a] < g.n_outcomes else UNDEFINED
        us = int(g.unit_table[g.source[a]]) if g.source[a] < g.n_outcomes else UNDEFINED
        if ct[a, b] != ut:
            add("inverse", f"{name(a)}∘{name(b)} is not the unit at its target")
        if ct[b, a] != us:
            add("inverse", f"{name(b)}∘{name(a)} is not the unit at its source")

    # reversibility: inversion must be a bijection of G
    inv = g.inverse_table
    if len(inv) != n or len(set(inv.tolist())) != n:
        add("reversibility", "inverse map is not a bijection of the transitions")

    return AxiomReport(tuple(out), truncated=truncated)


@st.composite
def corrupted_groupoids(draw):
    """A quiver groupoid with none, a few or all entries of each of its
    compose, inverse and unit tables overwritten, out-of-range values included."""
    g = gqm.generate_from_quiver(draw(quivers()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = g.n_transitions
    tables = [g.compose_table.copy(), g.inverse_table.copy(), g.unit_table.copy()]
    for t in tables:
        k = draw(st.sampled_from([0, 1, 3, t.size]))
        t.reshape(-1)[rng.integers(t.size, size=k)] = rng.integers(-3, n + 3, size=k)
    return FiniteGroupoid(g.outcomes, g.transitions, *tables, group=g.group, validate=False)


@st.composite
def endpoint_preserving_corruptions(draw):
    """A quiver groupoid with 1, 3 or all of its defined compose entries
    that have a rival replaced by another arrow with the same endpoints:
    the closure laws still hold, so the letter proof of associativity is
    what decides."""
    g = gqm.generate_from_quiver(draw(quivers()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ct = g.compose_table.copy()
    a, b = np.nonzero(ct >= 0)
    rivals = [np.setdiff1d(g.arrows(g.source[j], g.target[i]), ct[i, j]) for i, j in zip(a, b)]
    spots = [i for i, r in enumerate(rivals) if r.size]
    for i in rng.permutation(spots)[:draw(st.sampled_from([1, 3, len(spots)]))]:
        ct[a[i], b[i]] = rng.choice(rivals[i])
    return FiniteGroupoid(g.outcomes, g.transitions, ct, g.inverse_table, g.unit_table,
                          group=g.group, validate=False)


@settings(deadline=None)
@given(st.one_of(corrupted_groupoids(), endpoint_preserving_corruptions()))
def test_check_axioms_matches_loop_reference(g):
    for limit in (-1, 0, 3, 1000):
        assert gqm.check_axioms(g, limit) == reference_check_axioms(g, limit)


def relabeled_table(g: FiniteGroupoid, perm: np.ndarray):
    """Outcome labels, transition triples and compose table of ``g`` with
    transition ``a`` renumbered ``perm[a]``, as ``from_compose_table`` takes them."""
    old = np.argsort(perm)                                # old id of each new id
    labels = [o.label for o in g.outcomes]
    trs = [(labels[g.source[a]], labels[g.target[a]], g.transitions[a].label) for a in old]
    table = [[None if c < 0 else int(perm[c]) for c in g.compose_table[a, old]] for a in old]
    return labels, trs, table


@st.composite
def relabeled_groupoids(draw):
    g = gqm.generate_from_quiver(draw(quivers()))
    perm = np.array(draw(st.permutations(range(g.n_transitions))))
    return gqm.from_compose_table(*relabeled_table(g, perm), group=g.group)


@settings(deadline=None)
@given(st.one_of(quivers().map(gqm.generate_from_quiver), relabeled_groupoids()))
def test_letters_generate_every_arrow(g):
    letters = _letters(g)
    assert letters[:g.n_outcomes] == g.unit_table.tolist()
    reached = set(letters)
    queue = list(letters)
    for r in queue:                      # left products by the letters
        for c in g.compose_table[letters, r].tolist():
            if c >= 0 and c not in reached:
                reached.add(c)
                queue.append(c)
    assert reached == set(range(g.n_transitions))


@settings(deadline=None)
@given(quivers(), st.data())
def test_explicit_table_load_derives_relabeled_tables(q, data):
    g = gqm.generate_from_quiver(q)
    n = g.n_transitions
    perm = np.array(data.draw(st.permutations(range(n))))  # new id of each old id
    labels, trs, table = relabeled_table(g, perm)
    h = gqm.from_compose_table(labels, trs, table, group=g.group)
    assert np.array_equal(h.unit_table, perm[g.unit_table])
    assert np.array_equal(h.inverse_table[perm], perm[g.inverse_table])

    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    table[i][j] = data.draw(
        st.one_of(st.none(), st.integers(0, n - 1)).filter(lambda v: v != table[i][j]))
    with pytest.raises(gqm.GroupoidAxiomError):
        gqm.from_compose_table(labels, trs, table, group=g.group)


# --------------------------- composition by structure vs the dense table

# The dense table that _from_triples built for every constructed groupoid
# before composition went through the (|Omega|, |Gamma|, |Omega|) lookup.
def reference_compose_table(g: FiniteGroupoid) -> np.ndarray:
    """|G| x |G| ids of a∘b = (t(a), L(a)·L(b), s(b)) when s(a) == t(b), else -1."""
    n_out, group = g.n_outcomes, g.group
    Y, X = g.target, g.source
    L = np.array([t.label for t in g.transitions], dtype=int)
    lut = np.full((n_out, group.order, n_out), UNDEFINED, dtype=int)
    lut[Y, L, X] = np.arange(g.n_transitions)
    composable = X[:, None] == Y[None, :]
    labels = group.table[L[:, None], L[None, :]]
    results = lut[Y[:, None], labels, X[None, :]]
    assert not np.any(composable & (results < 0))
    return np.where(composable, results, UNDEFINED)


# The breadth-first closure that generate_from_quiver ran before the spanning tree.
def reference_generate_from_quiver(q) -> set[tuple[int, int, int]]:
    """(target, label, source) of every arrow of the quiver's closure."""
    grp = q.group
    letters: dict[int, list[tuple[int, int]]] = {}  # source -> (target, label)
    for t in q.generators:
        letters.setdefault(t.source, []).append((t.target, t.label))
        letters.setdefault(t.target, []).append((t.source, grp.inv(t.label)))
    triples = {(o.id, grp.identity, o.id) for o in q.outcomes}
    queue = list(triples)
    for y, g, x in queue:
        for z, h in letters.get(y, ()):
            c = (z, grp.mul(h, g), x)
            if c not in triples:
                triples.add(c)
                queue.append(c)
    return triples


@st.composite
def groupoids_with_tables(draw):
    """A constructed groupoid (quiver closure, cyclic or pair) with its
    reference table, or an explicit relabeled table with that table."""
    kind = draw(st.sampled_from(["quiver", "cyclic", "pair", "explicit"]))
    if kind == "cyclic":
        g = gqm.cyclic_groupoid(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    elif kind == "pair":
        g = gqm.pair_groupoid(draw(st.integers(1, 5)))
    else:
        g = gqm.generate_from_quiver(draw(quivers()))
    if kind != "explicit":
        return g, reference_compose_table(g)
    perm = np.array(draw(st.permutations(range(g.n_transitions))))
    labels, trs, table = relabeled_table(g, perm)
    h = gqm.from_compose_table(labels, trs, table, group=g.group)
    return h, np.array([[UNDEFINED if c is None else c for c in row] for row in table])


@settings(deadline=None)
@given(groupoids_with_tables())
def test_structural_composition_matches_dense_reference(case):
    g, ref = case
    ids = np.arange(g.n_transitions)
    assert np.array_equal(g.compose_ids(ids[:, None], ids[None, :]), ref)
    assert np.array_equal(g.inverse_products(ids, ids[::-1]),
                          ref[g.inverse_table[:, None], ids[None, ::-1]])
    left, right = np.nonzero(ref >= 0)
    assert np.array_equal(g.pair_left, left)
    assert np.array_equal(g.pair_right, right)
    assert np.array_equal(g.pair_result, ref[left, right])
    assert np.array_equal(g.compose_table, ref)


@settings(deadline=None)
@given(quivers())
def test_spanning_tree_closure_matches_breadth_first_reference(q):
    triples = [t.triple() for t in gqm.generate_from_quiver(q).transitions]
    assert triples == sorted(reference_generate_from_quiver(q), key=lambda t: (t[0], t[2], t[1]))


def test_constructed_groupoids_build_no_table_until_read():
    g = gqm.generate_from_quiver(gqm.make_quiver(["x", "y", "z"], S3, [("x", "y", 1), ("y", "y", 3)]))
    assert "compose_table" not in vars(g) and "_pairs" not in vars(g)
    assert g.compose(g.inverse(5), 5) == g.unit(g.transitions[5].source)
    assert "compose_table" not in vars(g) and "_pairs" not in vars(g)
    assert len(g.pair_left) == sum(len(g.target_fibers[x]) for x in g.source)
    assert "compose_table" not in vars(g)


def test_cyclic_construction_allocates_no_dense_table():
    """C_{24,8} has |G| = 4608; its |G|² int64 table alone would be 170 MB."""
    tracemalloc.start()
    try:
        g = gqm.cyclic_groupoid(24, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_transitions == 4608
    assert peak < 100e6
