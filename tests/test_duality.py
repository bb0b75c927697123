"""Spectrum and section functors, characters, naturality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectroid import cstarcat as cc
from spectroid import duality as du
from spectroid import spaceoid as sp
from spectroid.errors import (
    AmbiguousMatching,
    NotCommutative,
    NotFull,
    NotUnital,
    SpectrumMismatch,
)
from spectroid.numkit import hs_norm, op_norm


# --- helpers -----------------------------------------------------------------


def rand_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def scramble(cat, seed):
    """Conjugate every object space by a random unitary (an invisible
    change of coordinates; all structure is preserved)."""
    rng = np.random.default_rng(seed)
    us = {o: rand_unitary(rng, d) for o, d in cat.objects}
    blocks = {
        (a, b): [us[a] @ x @ us[b].conj().T for x in basis]
        for (a, b), basis in cat.blocks.items()
    }
    return cc.MatrixCategory(cat.objects, blocks, cat.unital)


def random_spaceoid(seed, n_points=3, n_objects=3):
    rng = np.random.default_rng(seed)
    e0 = sp.trivial_spaceoid(n_points, n_objects)
    return sp.apply_gauge(e0, sp.random_gauge(rng, e0.base_points, e0.objects))


def pauli_triangle():
    """Three 2-dim objects, line blocks spanned by X, Z, and XZ: a
    commutative full category with a single rank-2 class whose
    canonical structure constant is -1."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    pres = cc.CategoryPresentation(
        objects=(("A", 2), ("B", 2), ("C", 2)),
        generators={("A", "B"): [x], ("B", "C"): [z]},
    )
    return cc.close(pres)


# --- spectrum: classical and frozen cases ------------------------------------


def test_classical_spectrum_reverses_points():
    c = du.classical_category(3)
    spec = du.spectrum(c)
    assert spec.n_classes == 3
    assert spec.ranks == (1, 1, 1)
    assert spec.class_points == ("w0", "w1", "w2")
    # canonical class order sorts the eigenvalue keys, which reverses
    # the point order for indicator bases
    x = np.diag([5.0, 7.0, 11.0]).astype(complex)
    coeffs = spec.coefficients("A", "A", x)
    assert np.allclose(coeffs, [11.0, 7.0, 5.0], atol=1e-12)
    # reconstruction is exact
    assert hs_norm(spec.lift("A", "A", coeffs) - x) < 1e-12


def test_classical_spectrum_has_trivial_constants():
    spec = du.spectrum(du.classical_category(4))
    assert all(z == 1.0 for z in spec.spaceoid.lam.values())


def test_spectrum_rejects_bad_inputs():
    # not unital: strictly upper-triangular generator, no identities
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    c = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 2),), generators={("A", "A"): [nil]}
        )
    )
    if not c.unital:
        with pytest.raises(NotUnital):
            du.spectrum(c)
    # unitized, it is the full matrix algebra: not commutative
    c2 = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 2),), generators={("A", "A"): [nil]}
        ),
        unitize=True,
    )
    with pytest.raises(NotCommutative):
        du.spectrum(c2)
    # commutative but not full: two objects, no connecting block
    c3 = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 1), ("B", 1)), generators={}
        ),
        unitize=True,
    )
    with pytest.raises(NotFull):
        du.spectrum(c3)


def test_linking_spectrum_frozen_coefficients():
    gen = cc.linking_generator(2, [0, 1], [1.0, 1j])
    c = cc.linking_category(2, [0, 1], [1.0, 1j])
    spec = du.spectrum(c)
    assert spec.n_classes == 2
    assert spec.ranks == (1, 1)
    # class order reverses points, so the transform lists the phases
    # backwards
    coeffs = spec.coefficients("A", "B", gen)
    assert np.allclose(coeffs, [1j, 1.0], atol=1e-12)
    # transform is isometric: sup of |coeffs| equals the operator norm
    assert abs(np.max(np.abs(coeffs)) - op_norm(gen)) < 1e-12


def test_single_generator_linking_has_one_rank2_class():
    # without the diagonal algebras the two points merge into one
    # class of rank 2, and the canonical frame keeps the phases
    gen = cc.linking_generator(2, [0, 1], [1.0, 1j])
    pres = cc.CategoryPresentation(
        objects=(("A", 2), ("B", 2)), generators={("A", "B"): [gen]}
    )
    c = cc.close(pres)
    assert c.unital
    spec = du.spectrum(c)
    assert spec.n_classes == 1
    assert spec.ranks == (2,)
    f = spec.frames[(0, "A", "B")]
    assert np.allclose(f, np.diag([1.0, 1j]), atol=1e-12)


def test_pauli_triangle_structure_constant():
    c = pauli_triangle()
    spec = du.spectrum(c)
    assert spec.n_classes == 1
    assert spec.ranks == (2,)
    lam = spec.spaceoid.lam_at("w0", "A", "B", "C")
    assert abs(lam - (-1.0)) < 1e-12
    # and the spaceoid is still internally consistent
    assert sp.validate(spec.spaceoid, tol=1e-12).passed


def test_scrambled_categories_roundtrip():
    for seed, make in enumerate(
        [
            lambda: du.classical_category(3),
            lambda: cc.linking_category(3, [1, 2, 0], [1.0, 1j, -1.0]),
            pauli_triangle,
            lambda: cc.multi_linking(
                2, [[1, 0], [0, 1]], [[1.0, 1j], [np.exp(0.7j), 1.0]]
            ),
        ]
    ):
        c = scramble(make(), seed + 100)
        rep = du.roundtrip_category(c, tol=1e-9, seed=seed)
        assert rep.passed, rep.summary()


# --- sections ----------------------------------------------------------------


def test_sections_realize_structure_constants():
    e = random_spaceoid(21, n_points=3, n_objects=3)
    sec = du.sections(e)
    assert sec.unital
    assert cc.check_axioms(sec, tol=1e-10).passed
    assert cc.is_commutative(sec) and cc.is_full(sec)
    # composition of point basis elements reproduces the table
    a, b, c = e.objects
    for pos, p in enumerate(e.base_points):
        ab = sec.block(a, b)[pos]
        bc = sec.block(b, c)[pos]
        ac = sec.block(a, c)[pos]
        lam = e.lam_at(p, a, b, c)
        assert hs_norm(ab @ bc - lam * ac) < 1e-12


def test_sections_of_invalid_table_rejected():
    base = sp.trivial_spaceoid(2, 2)
    bad = dict(base.lam)
    bad[("p0", "O1", "O1", "O2")] = 1j
    e = sp.SpaceoidData(base.base_points, base.objects, bad)
    with pytest.raises(Exception):
        du.sections(e)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_evaluation_roundtrip(seed):
    e = random_spaceoid(seed, n_points=3, n_objects=3)
    rep = du.roundtrip_spaceoid(e, tol=1e-9, seed=0)
    assert rep.passed, rep.summary()


def test_evaluation_scalars_equal_trivializing_gauge():
    e = random_spaceoid(33, n_points=2, n_objects=3)
    gauge, _ = sp.trivialize(e)
    ev = du.evaluation(e)
    for (p, a, b), z in ev.morphism.fiber_scalars.items():
        assert abs(z - gauge[(p, a, b)]) < 1e-10


# --- characters --------------------------------------------------------------


def test_characters_multiplicative_and_involutive():
    c = cc.multi_linking(2, [[1, 0]], [[1j, -1.0]])
    chars = du.characters(c)
    assert len(chars) == 2
    rng = np.random.default_rng(5)
    ids = c.object_ids
    for w in chars:
        for a in ids:
            for b in ids:
                for cobj in ids:
                    x = sum(
                        rng.standard_normal() * m for m in c.block(a, b)
                    )
                    y = sum(
                        rng.standard_normal() * m for m in c.block(b, cobj)
                    )
                    lhs = w.value(a, cobj, x @ y)
                    rhs = w.value(a, b, x) * w.value(b, cobj, y)
                    assert abs(lhs - rhs) < 1e-10
                    assert abs(
                        w.value(b, a, x.conj().T) - np.conj(w.value(a, b, x))
                    ) < 1e-10
        # unital
        for a in ids:
            assert abs(w.value(a, a, c.identity(a)) - 1.0) < 1e-10


def test_match_character_class_roundtrip():
    c = cc.linking_category(3, [2, 0, 1], [1.0, 1j, np.exp(0.3j)])
    spec = du.spectrum(c)
    chars = du.characters(c)
    for i, w in enumerate(chars):
        assert du.match_character_class(spec, w) == i
    # a spectrum recomputed with different randomness still matches by
    # diagonals
    spec2 = du.spectrum(c, seed=123)
    for i in range(spec2.n_classes):
        w = du.Character(spec2.class_points[i], i, spec2)
        assert du.match_character_class(spec, w) == i


def test_match_character_class_mismatch():
    spec = du.spectrum(du.classical_category(2))

    def omega(a, b, x):
        return 17.0  # not a character value of anything here

    with pytest.raises(SpectrumMismatch):
        du.match_character_class(spec, omega)


def test_unitary_equivalence_gauge_recovers_twist():
    c = cc.multi_linking(2, [[1, 0], [0, 1]], [[1.0, 1j], [1j, -1.0]])
    w1 = du.characters(c)[0]
    chi = sp.phase_functor_from_assignment(
        {"B1": 1.0, "B2": 1j, "B3": np.exp(0.4j)}
    )

    def w2(a, b, x):
        return chi.at(a, b) * w1.value(a, b, x)

    psi = du.unitary_equivalence_gauge(w1, w2)
    for a in c.object_ids:
        for b in c.object_ids:
            assert abs(psi.at(a, b) - chi.at(a, b)) < 1e-10


def test_unitary_equivalence_gauge_rejects_different_classes():
    c = cc.linking_category(2, [0, 1], [1.0, -1.0])
    w1, w2 = du.characters(c)
    with pytest.raises(SpectrumMismatch):
        du.unitary_equivalence_gauge(w1, w2)


def test_quotient_by_character_classical():
    c = du.classical_category(3)
    spec = du.spectrum(c)
    target, phi = du.compression_functor(c, spec, 0)
    assert target.object_ids == ("A",)
    assert target.dim("A") == 1
    # w0 is evaluation at the last point
    assert np.allclose(
        phi.block_maps[("A", "A")], [[0.0, 0.0, 1.0]], atol=1e-12
    )
    assert cc.validate_functor(phi, c, target).passed


def test_one_dim_functor():
    c = pauli_triangle()
    spec = du.spectrum(c)
    assert spec.n_classes == 1
    target, phi = du.compression_functor(c, spec, 0)
    assert all(d == 1 for _, d in target.objects)
    assert cc.validate_functor(phi, c, target).passed


# --- induced maps ------------------------------------------------------------


def test_spectrum_on_identity_functor():
    c = cc.linking_category(2, [1, 0], [1j, 1.0])
    spec = du.spectrum(c)
    m = du.spectrum_on_morphism(
        cc.identity_functor(c), c, c, source_spectrum=spec,
        target_spectrum=spec,
    )
    ident = sp.identity_morphism(spec.spaceoid)
    assert sp.morphism_distance(m, ident) < 1e-10


def test_spectrum_on_phase_automorphism_recovers_functor():
    c = cc.multi_linking(2, [[1, 0], [0, 1]], [[1.0, 1j], [1.0, -1j]])
    chi = sp.phase_functor_from_assignment(
        {"B1": 1.0, "B2": np.exp(0.9j), "B3": -1j}
    )
    block_maps = {
        (a, b): chi.at(a, b) * np.eye(c.block_dim(a, b), dtype=complex)
        for a in c.object_ids
        for b in c.object_ids
    }
    phi = cc.StarFunctor(
        object_map={o: o for o in c.object_ids}, block_maps=block_maps
    )
    assert cc.validate_functor(phi, c, c).passed
    m = du.spectrum_on_morphism(phi, c, c)
    for p in m.f_delta:
        assert m.f_delta[p] == p
    for (p, a, b), z in m.fiber_scalars.items():
        assert abs(z - chi.at(a, b)) < 1e-12


def test_classical_point_map_frozen():
    src = du.classical_category(2)
    tgt = du.classical_category(3)
    # the *-homomorphism dual to f: {0 -> 0, 1 -> 0, 2 -> 1}
    block_maps = {
        ("A", "A"): np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], complex)
    }
    phi = cc.StarFunctor(object_map={"A": "A"}, block_maps=block_maps)
    assert cc.validate_functor(phi, src, tgt).passed
    point_map = du.spectrum_on_morphism(phi, src, tgt).f_delta
    assert point_map == {"w0": "w0", "w1": "w1", "w2": "w1"}


def test_sections_on_morphism_is_functor():
    dom = random_spaceoid(41, n_points=3, n_objects=2)
    cod = random_spaceoid(42, n_points=2, n_objects=2)
    from test_spaceoid import random_morphism

    m = random_morphism(43, dom, cod)
    gamma = du.sections_on_morphism(m, dom, cod)
    sec_dom = du.sections(dom)
    sec_cod = du.sections(cod)
    rep = cc.validate_functor(gamma, sec_cod, sec_dom, tol=1e-10)
    assert rep.passed, rep.summary()


def test_sections_on_morphism_contravariant_composition():
    from test_spaceoid import random_morphism

    e1 = random_spaceoid(51, 3, 2)
    e2 = random_spaceoid(52, 2, 2)
    e3 = random_spaceoid(53, 2, 2)
    m1 = random_morphism(54, e1, e2)
    m2 = random_morphism(55, e2, e3)
    both = du.sections_on_morphism(sp.compose(m2, m1), e1, e3)
    stepwise = cc.compose_functors(
        du.sections_on_morphism(m1, e1, e2),
        du.sections_on_morphism(m2, e2, e3),
    )
    assert both.object_map == stepwise.object_map
    for key in both.block_maps:
        assert np.allclose(
            both.block_maps[key], stepwise.block_maps[key], atol=1e-10
        )


# --- naturality --------------------------------------------------------------


def test_verify_duality_functor_square():
    c1 = cc.linking_category(2, [1, 0], [1.0, 1j])
    chi = sp.phase_functor_from_assignment({"A": 1.0, "B": -1j})
    block_maps = {
        (a, b): chi.at(a, b) * np.eye(c1.block_dim(a, b), dtype=complex)
        for a in c1.object_ids
        for b in c1.object_ids
    }
    phi = cc.StarFunctor(
        object_map={o: o for o in c1.object_ids}, block_maps=block_maps
    )
    rep = du.verify_duality(functors=[(phi, c1, c1)], tol=1e-9)
    assert rep.passed, rep.summary()


def test_verify_duality_morphism_square():
    from test_spaceoid import random_morphism

    e1 = random_spaceoid(61, 3, 2)
    e2 = random_spaceoid(62, 2, 2)
    m = random_morphism(63, e1, e2)
    rep = du.verify_duality(morphisms=[(m, e1, e2)], tol=1e-9)
    assert rep.passed, rep.summary()


def test_verify_duality_functor_between_different_categories():
    # inclusion-like functor: relabel objects of a linking category
    c1 = cc.linking_category(3, [1, 2, 0], [1.0, 1j, -1.0])
    c2 = cc.linking_category(
        3, [1, 2, 0], [1.0, 1j, -1.0], a_id="X", b_id="Y"
    )
    object_map = {"A": "X", "B": "Y"}
    block_maps = {}
    for a in c1.object_ids:
        for b in c1.object_ids:
            block_maps[(a, b)] = np.eye(c1.block_dim(a, b), dtype=complex)
    phi = cc.StarFunctor(object_map=object_map, block_maps=block_maps)
    assert cc.validate_functor(phi, c1, c2).passed
    rep = du.verify_duality(functors=[(phi, c1, c2)], tol=1e-9)
    assert rep.passed, rep.summary()
