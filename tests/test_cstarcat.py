import numpy as np
import pytest

from spectroid import cstarcat, groups, numkit
from spectroid.cstarcat import (
    CategoryPresentation,
    close,
    check_axioms,
    compose_functors,
    functor_from_images,
    generated_by,
    groupoid_category,
    groupoid_report,
    identity_functor,
    is_commutative,
    is_full,
    linking_category,
    linking_generator,
    multi_linking,
    multi_linking_generator,
    validate_functor,
    validate_groupoid,
)
from spectroid.errors import InvalidFunctor, InvalidGroupoid, NotNormal


# ---------------------------------------------------------------------------
# independent oracles


def polynomial_closure_dim(x, include_unit=False):
    """Brute-force dimension of the *-algebra generated by a normal
    matrix: span of words x^a (x*)^b, built by iterated multiplication
    and rank counting via numpy only."""
    d = x.shape[0]
    words = [np.eye(d, dtype=complex)] if include_unit else []
    frontier = [x, x.conj().T]
    words = words + frontier
    for _ in range(2 * d * d):
        new = []
        for w in words:
            for gen in (x, x.conj().T):
                new.append(w @ gen)
        stacked = [w.reshape(-1) for w in words + new]
        rank_before = np.linalg.matrix_rank(np.array([w.reshape(-1) for w in words]), tol=1e-9)
        rank_after = np.linalg.matrix_rank(np.array(stacked), tol=1e-9)
        words = words + new
        if rank_after == rank_before:
            return int(rank_after)
    return int(np.linalg.matrix_rank(np.array([w.reshape(-1) for w in words]), tol=1e-9))


def span_dim(mats):
    if not mats:
        return 0
    return int(
        np.linalg.matrix_rank(np.array([m.reshape(-1) for m in mats]), tol=1e-9)
    )


def same_span(basis1, basis2, tol=1e-9):
    if span_dim(basis1) != span_dim(basis2):
        return False
    for m in basis1:
        member, _, _ = numkit.hs_member(m, basis2, tol)
        if not member:
            return False
    return True


def diag_presentation(k, ids=("A",)):
    units = []
    for i in range(k):
        m = np.zeros((k, k), dtype=complex)
        m[i, i] = 1.0
        units.append(m)
    return CategoryPresentation(
        objects=tuple((o, k) for o in ids),
        generators={(o, o): list(units) for o in ids},
    )


# ---------------------------------------------------------------------------
# closure


def test_close_single_normal_generator_matches_polynomial_closure():
    x = np.diag([1.0, 2.0])
    cat = generated_by(x, "A", "A")
    assert cat.block_dim("A", "A") == polynomial_closure_dim(x) == 2
    # the closed span contains the identity, so the flag comes out unital
    assert cat.unital
    assert is_commutative(cat)


def test_close_nilpotent_generator_is_full_matrix_algebra():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    pres = CategoryPresentation(
        objects=(("A", 2),), generators={("A", "A"): [x]}
    )
    cat = close(pres, unitize=True)
    assert cat.block_dim("A", "A") == 4  # e12, e21, e11, e22 all appear
    assert not is_commutative(cat)


def test_close_row_vector_generator_dims_and_nonunital():
    x = np.array([[3.0, 4.0]])
    cat = generated_by(x, "A", "B")
    assert cat.block_dim("A", "A") == 1
    assert cat.block_dim("A", "B") == 1
    assert cat.block_dim("B", "B") == 1
    # identity of the 2-dim object is not in span{x* x}
    assert not cat.unital
    assert is_full(cat)
    assert is_commutative(cat)


def test_generated_by_rejects_nonnormal_square():
    with pytest.raises(NotNormal):
        generated_by(np.array([[0.0, 1.0], [0.0, 0.0]]), "A", "A")


def test_close_is_idempotent_and_axioms_pass():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    pres = CategoryPresentation(
        objects=(("A", 2), ("B", 3)), generators={("A", "B"): [x]}
    )
    cat = close(pres, unitize=True)
    rep = check_axioms(cat)
    assert rep.passed, rep.summary()
    # closing the closed category again changes nothing
    pres2 = CategoryPresentation(
        objects=cat.objects,
        generators={p: list(b) for p, b in cat.blocks.items()},
    )
    cat2 = close(pres2, unitize=False)
    for pair in cat.blocks:
        assert cat.block_dim(*pair) == cat2.block_dim(*pair)


def test_unitize_adds_identity():
    x = np.array([[0.0, 0.5], [0.0, 0.0]])
    pres = CategoryPresentation(objects=(("A", 2),), generators={("A", "A"): [x]})
    nonunital = close(pres, unitize=False)
    unital = close(pres, unitize=True)
    assert unital.unital
    assert unital.block_dim("A", "A") == nonunital.block_dim("A", "A")  # both M_2 here
    member, _, _ = numkit.hs_member(np.eye(2), unital.block("A", "A"))
    assert member


# ---------------------------------------------------------------------------
# commutativity / fullness


def test_full_matrix_algebra_not_commutative():
    pres = CategoryPresentation(
        objects=(("A", 2),),
        generators={("A", "A"): [np.array([[0.0, 1.0], [0.0, 0.0]])]},
    )
    cat = close(pres, unitize=True)
    assert not is_commutative(cat)
    assert is_full(cat)


def test_two_objects_no_bridge_not_full():
    cat = close(diag_presentation(2, ids=("A", "B")), unitize=True)
    assert is_commutative(cat)
    assert not is_full(cat)  # C_AB = 0 but diagonals nonzero


def test_linking_category_full_commutative():
    cat = linking_category(3, [1, 2, 0], phases=None)
    assert is_commutative(cat)
    assert is_full(cat)
    assert cat.unital
    assert cat.block_dim("A", "B") == 3
    rep = check_axioms(cat)
    assert rep.passed, rep.summary()


def test_linking_generator_span_is_phase_independent():
    c1 = linking_category(2, [1, 0], phases=None)
    c2 = linking_category(2, [1, 0], phases=[1.0, 1j])
    assert same_span(c1.block("A", "B"), c2.block("A", "B"))
    z = linking_generator(2, [1, 0], [1.0, 1j])
    expected = np.array([[0.0, 1.0], [1j, 0.0]])
    assert np.allclose(z, expected)


def test_multi_linking_composed_correspondence():
    # two swaps compose to the identity bijection on the outer block
    swap = [1, 0]
    cat = multi_linking(2, [swap, swap])
    gen13 = multi_linking_generator(2, [swap, swap], [None, None], 0, 2)
    assert np.allclose(gen13, np.eye(2))
    member, _, _ = numkit.hs_member(
        gen13 / numkit.hs_norm(gen13), cat.block("B1", "B3")
    )
    assert member
    assert is_full(cat) and is_commutative(cat)


def test_multi_linking_phases_multiply():
    # r = id twice with phases (1, i) and (1, i): outer phases (1, -1)
    cat = multi_linking(2, [[0, 1], [0, 1]], [[1, 1j], [1, 1j]])
    gen = multi_linking_generator(2, [[0, 1], [0, 1]], [[1, 1j], [1, 1j]], 0, 2)
    assert np.allclose(np.diag(gen), [1.0, -1.0])
    member, _, _ = numkit.hs_member(gen / numkit.hs_norm(gen), cat.block("B1", "B3"))
    assert member


# ---------------------------------------------------------------------------
# functors


def test_identity_functor_validates():
    cat = linking_category(2, [0, 1])
    rep = validate_functor(identity_functor(cat), cat, cat)
    assert rep.passed, rep.summary()


def test_gauge_automorphism_is_star_functor():
    # multiply block (A,B) by a phase nu_A conj(nu_B): always a functor
    cat = linking_category(3, [2, 0, 1], phases=[1.0, 1j, -1.0])
    nu = {"A": np.exp(0.7j), "B": np.exp(-1.2j)}
    images = {
        (a, b): [nu[a] * np.conj(nu[b]) * m for m in cat.block(a, b)]
        for (a, b) in cat.blocks
    }
    phi = functor_from_images(cat, cat, {"A": "A", "B": "B"}, images)
    rep = validate_functor(phi, cat, cat)
    assert rep.passed, rep.summary()


def test_broken_functor_fails_validation():
    cat = linking_category(2, [1, 0])
    phi = identity_functor(cat)
    phi.block_maps[("A", "B")] = 2.0 * phi.block_maps[("A", "B")]  # not isometric
    rep = validate_functor(phi, cat, cat)
    assert not rep.passed


def test_validate_functor_rejects_product_outside_source():
    # span{sigma_x} is closed under adjoints but sigma_x^2 = 1 leaves it
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2)
    cat = cstarcat.MatrixCategory((("A", 2),), {("A", "A"): [sx]}, unital=False)
    with pytest.raises(InvalidFunctor):
        validate_functor(identity_functor(cat), cat, cat)


def test_compose_functors_matches_pointwise():
    cat = linking_category(2, [1, 0], phases=[1.0, 1j])
    nu1 = {"A": 1j, "B": 1.0}
    nu2 = {"A": np.exp(0.3j), "B": np.exp(0.9j)}

    def gauge(nu):
        images = {
            (a, b): [nu[a] * np.conj(nu[b]) * m for m in cat.block(a, b)]
            for (a, b) in cat.blocks
        }
        return functor_from_images(cat, cat, {"A": "A", "B": "B"}, images)

    phi1, phi2 = gauge(nu1), gauge(nu2)
    comp = compose_functors(phi2, phi1)
    x = cat.block("A", "B")[0] + 2j * cat.block("A", "B")[1]
    via_comp = cstarcat.functor_image(comp, cat, cat, "A", "B", x)
    via_steps = cstarcat.functor_image(
        phi2, cat, cat, "A", "B",
        cstarcat.functor_image(phi1, cat, cat, "A", "B", x),
    )
    assert np.allclose(via_comp, via_steps)


# ---------------------------------------------------------------------------
# groupoids


def test_cyclic_groupoid_category_is_circulant_algebra():
    g = groups.connected_groupoid(1, groups.cyclic(3))
    rep = validate_groupoid(g)
    assert rep.passed, rep.summary()
    cat = groupoid_category(g)
    assert cat.objects[0][1] == 3
    assert cat.block_dim(*[cat.object_ids[0]] * 2) == 3
    assert is_commutative(cat)
    assert is_full(cat)
    assert check_axioms(cat).passed


def test_s3_groupoid_category_noncommutative():
    g = groups.connected_groupoid(1, groups.symmetric(3))
    cat = groupoid_category(g)
    assert not is_commutative(cat)
    assert is_full(cat)
    traits = groupoid_report(g)
    assert not traits.stabilizers_abelian
    assert traits.transitive


def test_pair_groupoid_two_objects():
    g = groups.connected_groupoid(2, groups.cyclic(1))
    cat = groupoid_category(g)
    # dims: 2 arrows target each object
    assert dict(cat.objects) == {"X0": 2, "X1": 2}
    a, b = cat.object_ids
    assert cat.block_dim(a, a) == 1  # only the identity arrow
    assert cat.block_dim(a, b) == 1
    assert is_commutative(cat) and is_full(cat)
    assert check_axioms(cat).passed


def test_disjoint_union_not_transitive_not_full():
    g = groups.disjoint_union(
        groups.connected_groupoid(1, groups.cyclic(2)),
        groups.connected_groupoid(1, groups.cyclic(3)),
    )
    assert validate_groupoid(g).passed
    traits = groupoid_report(g)
    assert traits.stabilizers_abelian and not traits.transitive
    cat = groupoid_category(g)
    assert is_commutative(cat)
    assert not is_full(cat)


def test_commutativity_matches_abelian_stabilizers_small_family():
    cases = [
        (groups.connected_groupoid(2, groups.cyclic(4)), True, True),
        (groups.connected_groupoid(1, groups.klein_four()), True, True),
        (groups.connected_groupoid(2, groups.symmetric(3)), False, True),
        (
            groups.disjoint_union(
                groups.connected_groupoid(1, groups.symmetric(3)),
                groups.connected_groupoid(1, groups.cyclic(2)),
            ),
            False,
            False,
        ),
    ]
    for g, want_abelian, want_transitive in cases:
        traits = groupoid_report(g)
        assert traits == (want_abelian, want_transitive)
        cat = groupoid_category(g)
        assert is_commutative(cat) == want_abelian
        assert is_full(cat) == want_transitive


def test_groupoid_block_dims_match_hom_sets():
    g = groups.connected_groupoid(2, groups.cyclic(2))
    cat = groupoid_category(g)
    for a in g.objects:
        for b in g.objects:
            assert cat.block_dim(a, b) == len(g.hom(a, b))


def test_invalid_groupoid_rejected():
    g = groups.connected_groupoid(1, groups.cyclic(2))
    bad = cstarcat.FiniteGroupoid(
        objects=g.objects,
        arrows=g.arrows,
        source=g.source,
        target=g.target,
        compose={k: list(g.compose.values())[0] for k in g.compose},  # junk
        identities=g.identities,
        inverses=g.inverses,
    )
    with pytest.raises(InvalidGroupoid):
        groupoid_category(bad)
