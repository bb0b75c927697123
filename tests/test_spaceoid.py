"""Structure-constant tables: invariants, gauges, morphisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectroid import spaceoid as sp
from spectroid.errors import DomainMismatch, InvalidPhaseFunctor, InvalidSpaceoid


def random_spaceoid(seed, n_points=3, n_objects=3):
    """Gauge-twist of the trivial table: valid by construction, and the
    generic valid table (every consistent table is such a twist)."""
    rng = np.random.default_rng(seed)
    e0 = sp.trivial_spaceoid(n_points, n_objects)
    gauge = sp.random_gauge(rng, e0.base_points, e0.objects)
    return sp.apply_gauge(e0, gauge), gauge


def test_trivial_spaceoid_is_valid():
    e = sp.trivial_spaceoid(4, 3)
    assert e.base_points == ("p0", "p1", "p2", "p3")
    assert e.objects == ("O1", "O2", "O3")
    rep = sp.validate(e)
    assert rep.passed, rep.summary()
    assert rep.worst_residual == 0.0


def test_sparse_lambda_fills_with_one():
    e = sp.SpaceoidData(("p0",), ("A", "B"), {("p0", "A", "B", "A"): 1.0})
    assert e.lam_at("p0", "B", "A", "B") == 1.0


def test_lambda_outside_base_rejected():
    with pytest.raises(ValueError):
        sp.SpaceoidData(("p0",), ("A",), {("p1", "A", "A", "A"): 1.0})


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gauge_twists_stay_valid(seed):
    e, _ = random_spaceoid(seed)
    rep = sp.validate(e, tol=1e-12)
    assert rep.passed, rep.summary()


def test_validate_flags_each_invariant():
    # plant one bad entry per invariant family and watch it get named
    base = sp.trivial_spaceoid(2, 3)

    bad = dict(base.lam)
    bad[("p0", "O1", "O2", "O3")] = 2.0
    rep = sp.validate(sp.SpaceoidData(base.base_points, base.objects, bad))
    assert not rep.passed
    names = {c.name for c in rep.failures()}
    assert "unimodular" in names

    bad = dict(base.lam)
    bad[("p0", "O1", "O1", "O2")] = -1.0
    rep = sp.validate(sp.SpaceoidData(base.base_points, base.objects, bad))
    assert "unit-normalization" in {c.name for c in rep.failures()}

    bad = dict(base.lam)
    bad[("p1", "O2", "O1", "O2")] = 1j
    rep = sp.validate(sp.SpaceoidData(base.base_points, base.objects, bad))
    assert "positivity-normalization" in {c.name for c in rep.failures()}

    # a lone phase on (O1,O2,O3) breaks involution against (O3,O2,O1)
    bad = dict(base.lam)
    bad[("p0", "O1", "O2", "O3")] = 1j
    rep = sp.validate(sp.SpaceoidData(base.base_points, base.objects, bad))
    assert "involution-compatible" in {c.name for c in rep.failures()}

    # symmetric pair of phases keeps involution but breaks the cocycle
    bad = dict(base.lam)
    bad[("p0", "O1", "O2", "O3")] = 1j
    bad[("p0", "O3", "O2", "O1")] = -1j
    rep = sp.validate(sp.SpaceoidData(base.base_points, base.objects, bad))
    fails = {c.name for c in rep.failures()}
    assert "involution-compatible" not in fails
    assert "cocycle" in fails


def test_require_valid_raises_with_location():
    base = sp.trivial_spaceoid(1, 2)
    bad = dict(base.lam)
    bad[("p0", "O1", "O1", "O2")] = 1j
    with pytest.raises(InvalidSpaceoid):
        sp.require_valid(sp.SpaceoidData(base.base_points, base.objects, bad))


def test_validate_counts_nan_as_failure():
    base = sp.trivial_spaceoid(3, 2)
    e = sp.SpaceoidData(
        base.base_points, base.objects, {("p1", "O1", "O2", "O1"): np.nan}
    )
    rep = sp.validate(e)
    assert not rep.passed
    unimodular = next(c for c in rep.checks if c.name == "unimodular")
    assert not unimodular.passed and unimodular.residual == np.inf
    assert unimodular.detail == "('p1', 'O1', 'O2', 'O1')"


def test_validate_detail_names_first_worst_entry():
    # two equally bad entries: the first in (point, A, B, C) order wins
    base = sp.trivial_spaceoid(2, 2)
    bad = dict(base.lam)
    bad[("p1", "O2", "O1", "O1")] = 2.0
    bad[("p0", "O2", "O2", "O1")] = -2.0
    rep = sp.validate(sp.SpaceoidData(base.base_points, base.objects, bad))
    unimodular = next(c for c in rep.checks if c.name == "unimodular")
    assert unimodular.residual == 1.0
    assert unimodular.detail == "('p0', 'O2', 'O2', 'O1')"


@pytest.mark.parametrize("key", [("p0", "O1", "O1"), ("p2", "O2", "O2")])
def test_validate_morphism_counts_nan_as_failure(key):
    # first and last fiber scalar: a NaN fails wherever it sits
    e = sp.trivial_spaceoid(3, 2)
    m = sp.identity_morphism(e)
    assert list(m.fiber_scalars)[0 if key[0] == "p0" else -1] == key
    m.fiber_scalars[key] = complex("nan")
    assert not sp.validate_morphism(m, e, e).passed
    assert not sp.is_isomorphism(m, e, e)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_trivialize_kills_all_constants(seed):
    e, _ = random_spaceoid(seed, n_points=2, n_objects=4)
    gauge, flat = sp.trivialize(e)
    dev = max(abs(z - 1.0) for z in flat.lam.values())
    assert dev <= 1e-12
    # the gauge that was found undoes the table when applied to it
    again = sp.apply_gauge(e, gauge)
    assert max(abs(z - 1.0) for z in again.lam.values()) <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gauge_composition_law(seed):
    # applying g then h equals applying the pointwise product g*h
    rng = np.random.default_rng(seed)
    e, _ = random_spaceoid(seed + 1, 2, 3)
    g = sp.random_gauge(rng, e.base_points, e.objects)
    h = sp.random_gauge(rng, e.base_points, e.objects)
    gh = {k: g[k] * h[k] for k in g}
    once = sp.apply_gauge(sp.apply_gauge(e, g), h)
    both = sp.apply_gauge(e, gh)
    dev = max(abs(once.lam[k] - both.lam[k]) for k in once.lam)
    assert dev <= 1e-12


def test_phase_functor_from_assignment_multiplicative():
    nu = {"A": 1j, "B": np.exp(0.3j), "C": -1.0}
    pf = sp.phase_functor_from_assignment(nu)
    rep = sp.validate_phase_functor(pf, ["A", "B", "C"])
    assert rep.passed, rep.summary()
    assert abs(pf.at("A", "B") - 1j * np.exp(-0.3j)) < 1e-12


def test_phase_functor_rejects_non_unimodular():
    for bad in (2.0, np.nan):
        with pytest.raises(InvalidPhaseFunctor):
            sp.phase_functor_from_assignment({"A": bad})
    bad = sp.PhaseFunctor({("A", "A"): 1.0, ("A", "B"): 1j,
                           ("B", "A"): 1j, ("B", "B"): 1.0})
    rep = sp.validate_phase_functor(bad, ["A", "B"])
    assert not rep.passed  # psi_AB * psi_BA != psi_AA


@pytest.mark.parametrize("key", [("A", "A"), ("B", "A")])
def test_validate_phase_functor_counts_nan_as_failure(key):
    pf = sp.phase_functor_from_assignment({"A": 1.0, "B": 1j})
    psi = dict(pf.psi)
    psi[key] = complex("nan")
    rep = sp.validate_phase_functor(sp.PhaseFunctor(psi), ["A", "B"])
    unimodular = next(c for c in rep.checks if c.name == "unimodular")
    assert not unimodular.passed and unimodular.residual == np.inf


def test_linking_spaceoid_two_bundles():
    phases = [[1.0, 1j, -1.0], [1.0, 1.0, 1j]]
    e = sp.linking_spaceoid(3, phases)
    assert e.objects == ("B1", "B2", "B3")
    assert sp.validate(e, tol=1e-12).passed
    # consecutive triple picks up both phases
    assert abs(e.lam_at("p1", "B1", "B2", "B3") - 1j) < 1e-12
    assert abs(e.lam_at("p2", "B1", "B2", "B3") - (-1j)) < 1e-12
    assert abs(e.lam_at("p2", "B3", "B2", "B1") - 1j) < 1e-12
    # triples inside one bundle stay trivial
    assert abs(e.lam_at("p1", "B1", "B2", "B2") - 1.0) < 1e-12


def test_linking_spaceoid_checks_phase_shape():
    with pytest.raises(ValueError):
        sp.linking_spaceoid(3, [[1.0, 1.0]])
    for bad in (2.0, np.nan):
        with pytest.raises(InvalidPhaseFunctor):
            sp.linking_spaceoid(2, [[1.0, bad]])


def test_torsor_associated_is_trivial():
    rng = np.random.default_rng(7)
    reps = {}
    for p in ("p0", "p1"):
        nu = {f"O{i + 1}": np.exp(2j * np.pi * rng.random()) for i in range(3)}
        reps[p] = sp.phase_functor_from_assignment(nu)
    e = sp.torsor_associated(3, 2, reps)
    dev = max(abs(z - 1.0) for z in e.lam.values())
    assert dev <= 1e-12
    assert sp.torsor_associated(3, 2, None).lam.keys() == e.lam.keys()


def test_torsor_change_morphism_is_isomorphism():
    chi = sp.phase_functor_from_assignment({"O1": 1.0, "O2": 1j, "O3": -1j})
    e1 = sp.torsor_associated(3, 2)
    e2 = sp.torsor_associated(3, 2)
    m = sp.torsor_change_morphism(3, 2, chi)
    assert sp.is_isomorphism(m, e1, e2, tol=1e-12)


def test_identity_and_composition_of_morphisms():
    e, _ = random_spaceoid(11, 2, 3)
    ident = sp.identity_morphism(e)
    rep = sp.validate_morphism(ident, e, e, tol=1e-12)
    assert rep.passed, rep.summary()
    assert sp.morphism_distance(sp.compose(ident, ident), ident) <= 1e-12


def random_morphism(seed, dom, cod, f_delta=None, f_r=None):
    """Valid morphism dom -> cod built from trivializing gauges plus a
    free multiplicative phase per domain point."""
    rng = np.random.default_rng(seed)
    g1, _ = sp.trivialize(dom)
    g2, _ = sp.trivialize(cod)
    if f_delta is None:
        f_delta = {
            p: cod.base_points[rng.integers(len(cod.base_points))]
            for p in dom.base_points
        }
    if f_r is None:
        perm = rng.permutation(len(dom.objects))
        f_r = {a: cod.objects[perm[i]] for i, a in enumerate(dom.objects)}
    scal = {}
    for p in dom.base_points:
        nu = {a: np.exp(2j * np.pi * rng.random()) for a in dom.objects}
        for a in dom.objects:
            for b in dom.objects:
                scal[(p, a, b)] = (
                    nu[a]
                    * np.conj(nu[b])
                    * g1[(p, a, b)]
                    * np.conj(g2[(f_delta[p], f_r[a], f_r[b])])
                )
    return sp.SpaceoidMorphism(f_delta, f_r, scal)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_morphisms_validate(seed):
    dom, _ = random_spaceoid(seed, 3, 3)
    cod, _ = random_spaceoid(seed + 1, 2, 3)
    m = random_morphism(seed + 2, dom, cod)
    rep = sp.validate_morphism(m, dom, cod, tol=1e-10)
    assert rep.passed, rep.summary()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_morphism_composition_validates(seed):
    e1, _ = random_spaceoid(seed, 3, 2)
    e2, _ = random_spaceoid(seed + 1, 2, 2)
    e3, _ = random_spaceoid(seed + 2, 4, 2)
    m1 = random_morphism(seed + 3, e1, e2)
    m2 = random_morphism(seed + 4, e2, e3)
    m = sp.compose(m2, m1)
    rep = sp.validate_morphism(m, e1, e3, tol=1e-10)
    assert rep.passed, rep.summary()


def test_validate_morphism_rejects_broken_functoriality():
    dom, _ = random_spaceoid(3, 2, 3)
    cod, _ = random_spaceoid(4, 2, 3)
    m = random_morphism(5, dom, cod)
    m.fiber_scalars[("p0", "O1", "O2")] *= np.exp(0.1j)
    m.fiber_scalars[("p0", "O2", "O1")] = np.conj(
        m.fiber_scalars[("p0", "O1", "O2")]
    )
    rep = sp.validate_morphism(m, dom, cod, tol=1e-10)
    assert not rep.passed
    assert "functoriality" in {c.name for c in rep.failures()}


def _twisted(key, factor, partner=True):
    """Identity morphism of a trivial spaceoid with the fiber scalar at
    ``key`` (and, with ``partner``, the one at the swapped pair, so the
    involution still holds) multiplied by ``factor``."""
    e = sp.trivial_spaceoid(2, 2)
    m = sp.identity_morphism(e)
    m.fiber_scalars[key] *= factor
    if partner and key[1] != key[2]:
        m.fiber_scalars[(key[0], key[2], key[1])] *= factor
    return m, e


# one finite defect at ten times the default tol of 1e-9
MORPHISM_DEFECTS = {
    "fiber-scalars-unimodular": lambda: _twisted(("p0", "O1", "O2"), 1 + 1e-8),
    "fiber-scalars-units": lambda: _twisted(("p1", "O2", "O2"), np.exp(1e-8j)),
    "fiber-scalars-involution": lambda: _twisted(
        ("p0", "O2", "O1"), np.exp(1e-8j), partner=False
    ),
}


@pytest.mark.parametrize("name", sorted(MORPHISM_DEFECTS))
def test_validate_morphism_trips_on_planted_defect(name):
    m, e = MORPHISM_DEFECTS[name]()
    check = next(c for c in sp.validate_morphism(m, e, e).checks if c.name == name)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


def test_pullback_reindexes_table():
    e, _ = random_spaceoid(9, 3, 2)
    f_delta = {"q0": "p2", "q1": "p2", "q2": "p0"}
    f_r = {"A": "O2", "B": "O1"}
    pb = sp.pullback(f_delta, f_r, e)
    assert pb.base_points == ("q0", "q1", "q2")
    assert abs(
        pb.lam_at("q0", "A", "B", "A") - e.lam_at("p2", "O2", "O1", "O2")
    ) < 1e-15
    assert sp.validate(pb, tol=1e-12).passed
    with pytest.raises(DomainMismatch):
        sp.pullback({"q0": "nope"}, f_r, e)


def test_is_isomorphism_requires_base_bijection():
    e, _ = random_spaceoid(13, 3, 2)
    collapse = random_morphism(14, e, e, f_delta={p: "p0" for p in e.base_points})
    assert sp.validate_morphism(collapse, e, e, tol=1e-10).passed
    assert not sp.is_isomorphism(collapse, e, e, tol=1e-10)
    auto = random_morphism(15, e, e, f_delta={p: p for p in e.base_points})
    assert sp.is_isomorphism(auto, e, e, tol=1e-10)


def test_morphism_distance_infinite_on_different_maps():
    e, _ = random_spaceoid(16, 2, 2)
    m1 = sp.identity_morphism(e)
    m2 = sp.identity_morphism(e)
    m2.f_delta = {"p0": "p1", "p1": "p0"}
    assert sp.morphism_distance(m1, m2) == float("inf")
    # equal maps, but a fiber scalar missing on one side (last or first
    # in iteration order: a plain max() drops a NaN after the first)
    for key in (list(m1.fiber_scalars)[-1], list(m1.fiber_scalars)[0]):
        m3 = sp.identity_morphism(e)
        del m3.fiber_scalars[key]
        assert sp.morphism_distance(m1, m3) == float("inf")
