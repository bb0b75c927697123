"""Structure-constant tables: invariants, gauges, morphisms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectroid import duality as du
from spectroid import serial
from spectroid import spaceoid as sp
from spectroid.errors import InvalidPhaseFunctor, InvalidSpaceoid
from spectroid.selftest import random_morphism


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


def planted(base, entries):
    """``base`` with the entries ``{(p, A, B, C): value}`` of a copy of
    its table replaced."""
    table = base.table.copy()
    for (p, a, b, c), z in entries.items():
        table[(base.base_points.index(p), *map(base.objects.index, (a, b, c)))] = z
    return sp.SpaceoidData(base.base_points, base.objects, table)


def test_lambda_outside_base_rejected():
    # a table with one point or one object more than the labels
    with pytest.raises(ValueError):
        sp.SpaceoidData(("p0",), ("A",), np.ones((2, 1, 1, 1)))
    with pytest.raises(ValueError):
        sp.SpaceoidData(("p0",), ("A",), np.ones((1, 1, 2, 1)))


def test_table_is_copied_and_compared_by_value():
    base = sp.trivial_spaceoid(2, 2)
    table = base.table.copy()
    e = sp.SpaceoidData(base.base_points, base.objects, table)
    table[0, 0, 0, 0] = 2.0
    assert e == base and e.table[0, 0, 0, 0] == 1.0
    assert planted(base, {("p1", "O2", "O1", "O2"): 1 + 1e-15j}) != base
    assert sp.SpaceoidData(("p0", "p2"), base.objects, base.table) != base
    assert e.lam == {k: 1 + 0j for k in itertools.product(
        base.base_points, *[base.objects] * 3)}


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gauge_twists_stay_valid(seed):
    e, _ = random_spaceoid(seed)
    rep = sp.validate(e, tol=1e-12)
    assert rep.passed, rep.summary()


def test_validate_flags_each_invariant():
    # plant one bad entry per invariant family and watch it get named
    base = sp.trivial_spaceoid(2, 3)

    rep = sp.validate(planted(base, {("p0", "O1", "O2", "O3"): 2.0}))
    assert not rep.passed
    names = {c.name for c in rep.failures()}
    assert "unimodular" in names

    rep = sp.validate(planted(base, {("p0", "O1", "O1", "O2"): -1.0}))
    assert "unit-normalization" in {c.name for c in rep.failures()}

    rep = sp.validate(planted(base, {("p1", "O2", "O1", "O2"): 1j}))
    assert "positivity-normalization" in {c.name for c in rep.failures()}

    # a lone phase on (O1,O2,O3) breaks involution against (O3,O2,O1)
    rep = sp.validate(planted(base, {("p0", "O1", "O2", "O3"): 1j}))
    assert "involution-compatible" in {c.name for c in rep.failures()}

    # symmetric pair of phases keeps involution but breaks the cocycle
    bad = {("p0", "O1", "O2", "O3"): 1j, ("p0", "O3", "O2", "O1"): -1j}
    rep = sp.validate(planted(base, bad))
    fails = {c.name for c in rep.failures()}
    assert "involution-compatible" not in fails
    assert "cocycle" in fails


def test_require_valid_raises_with_location():
    base = sp.trivial_spaceoid(1, 2)
    with pytest.raises(InvalidSpaceoid):
        sp.require_valid(planted(base, {("p0", "O1", "O1", "O2"): 1j}))


def test_validate_counts_nan_as_failure():
    base = sp.trivial_spaceoid(3, 2)
    rep = sp.validate(planted(base, {("p1", "O1", "O2", "O1"): np.nan}))
    assert not rep.passed
    unimodular = next(c for c in rep.checks if c.name == "unimodular")
    assert not unimodular.passed and unimodular.residual == np.inf
    assert unimodular.detail == "('p1', 'O1', 'O2', 'O1')"


def test_validate_detail_names_first_worst_entry():
    # two equally bad entries: the first in (point, A, B, C) order wins
    base = sp.trivial_spaceoid(2, 2)
    bad = {("p1", "O2", "O1", "O1"): 2.0, ("p0", "O2", "O2", "O1"): -2.0}
    rep = sp.validate(planted(base, bad))
    unimodular = next(c for c in rep.checks if c.name == "unimodular")
    assert unimodular.residual == 1.0
    assert unimodular.detail == "('p0', 'O2', 'O2', 'O1')"


@pytest.mark.parametrize("key", [(0, 0, 0), (2, 1, 1)])
def test_validate_morphism_counts_nan_as_failure(key):
    # first and last fiber scalar: a NaN fails wherever it sits
    e = sp.trivial_spaceoid(3, 2)
    m = sp.identity_morphism(e)
    m.fiber_scalars[key] = complex("nan")
    assert not sp.validate_morphism(m, e, e).passed


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
    once = sp.apply_gauge(sp.apply_gauge(e, g), h)
    both = sp.apply_gauge(e, g * h)
    assert np.abs(once.table - both.table).max() <= 1e-12


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
    lam = e.lam
    # consecutive triple picks up both phases
    assert abs(lam[("p1", "B1", "B2", "B3")] - 1j) < 1e-12
    assert abs(lam[("p2", "B1", "B2", "B3")] - (-1j)) < 1e-12
    assert abs(lam[("p2", "B3", "B2", "B1")] - 1j) < 1e-12
    # triples inside one bundle stay trivial
    assert abs(lam[("p1", "B1", "B2", "B2")] - 1.0) < 1e-12


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


def test_identity_and_composition_of_morphisms():
    e, _ = random_spaceoid(11, 2, 3)
    ident = sp.identity_morphism(e)
    rep = sp.validate_morphism(ident, e, e, tol=1e-12)
    assert rep.passed, rep.summary()
    assert sp.morphism_distance(sp.compose(ident, ident), ident) <= 1e-12


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
    m.fiber_scalars[0, 0, 1] *= np.exp(0.1j)
    m.fiber_scalars[0, 1, 0] = np.conj(m.fiber_scalars[0, 0, 1])
    rep = sp.validate_morphism(m, dom, cod, tol=1e-10)
    assert not rep.passed
    assert "functoriality" in {c.name for c in rep.failures()}


def test_fiber_scalars_are_copied_and_compared_by_label():
    e, _ = random_spaceoid(17, 3, 2)
    m = random_morphism(18, e, e)
    scal = m.fiber_scalars.copy()
    same = sp.SpaceoidMorphism(m.f_delta, m.f_r, scal)
    scal[0, 0, 0] = 2.0
    assert same == m and same.fiber_scalars[0, 0, 0] != 2.0
    # the same morphism with its points listed backwards
    flipped = dict(reversed(m.f_delta.items()))
    rev = sp.SpaceoidMorphism(flipped, m.f_r, m.fiber_scalars[::-1])
    assert rev == m and not np.array_equal(rev.fiber_scalars, m.fiber_scalars)
    assert sp.morphism_distance(rev, m) == 0.0
    with pytest.raises(ValueError):
        sp.SpaceoidMorphism(m.f_delta, m.f_r, m.fiber_scalars[1:])


def _twisted(key, factor, partner=True):
    """Identity morphism of a trivial spaceoid with the fiber scalar at
    index ``key`` (and, with ``partner``, the one at the swapped pair,
    so the involution still holds) multiplied by ``factor``."""
    e = sp.trivial_spaceoid(2, 2)
    m = sp.identity_morphism(e)
    m.fiber_scalars[key] *= factor
    if partner and key[1] != key[2]:
        m.fiber_scalars[key[0], key[2], key[1]] *= factor
    return m, e


# one finite defect at ten times the default tol of 1e-9
MORPHISM_DEFECTS = {
    "fiber-scalars-unimodular": lambda: _twisted((0, 0, 1), 1 + 1e-8),
    "fiber-scalars-units": lambda: _twisted((1, 1, 1), np.exp(1e-8j)),
    "fiber-scalars-involution": lambda: _twisted(
        (0, 1, 0), np.exp(1e-8j), partner=False
    ),
}


@pytest.mark.parametrize("name", sorted(MORPHISM_DEFECTS))
def test_validate_morphism_trips_on_planted_defect(name):
    m, e = MORPHISM_DEFECTS[name]()
    check = next(c for c in sp.validate_morphism(m, e, e).checks if c.name == name)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


@pytest.mark.parametrize("images, bijective", [
    (("p1", "p2", "p0"), True),
    (("p0", "p0", "p2"), False),  # collapsed: p1 is missed
    (("p0", "p1", "p2", "p1"), False),  # every point hit, p1 twice
    (("p0", "p1"), False),
])
def test_base_bijective_needs_every_point_hit_once(images, bijective):
    cod = sp.trivial_spaceoid(3)
    m = sp.SpaceoidMorphism(
        {f"q{i}": p for i, p in enumerate(images)}, {"O1": "O1"},
        np.ones((len(images), 1, 1)),
    )
    assert sp._base_bijective(m, cod) is bijective


def test_morphism_distance_infinite_on_different_maps():
    e, _ = random_spaceoid(16, 2, 2)
    m1 = sp.identity_morphism(e)
    m2 = sp.identity_morphism(e)
    m2.f_delta = {"p0": "p1", "p1": "p0"}
    assert sp.morphism_distance(m1, m2) == float("inf")
    # equal maps, but a NaN fiber scalar on one side (last or first in
    # flat order: a plain max() drops a NaN after the first)
    for key in ((-1, -1, -1), (0, 0, 0)):
        m3 = sp.identity_morphism(e)
        m3.fiber_scalars[key] = np.nan
        assert sp.morphism_distance(m1, m3) == float("inf")


# --- the label-keyed constructions the table code replaced --------------------
#
# Each reference is the dict loop the dense code replaced, kept to show
# that the arrays are the same numbers to the bit, signed zeros included.


def ref_random_gauge(rng, base_points, objects) -> dict:
    gauge = {}
    objects = [str(o) for o in objects]
    for p in (str(q) for q in base_points):
        for i, a in enumerate(objects):
            gauge[(p, a, a)] = 1.0 + 0j
            for b in objects[i + 1:]:
                z = np.exp(2j * np.pi * rng.random())
                gauge[(p, a, b)] = z
                gauge[(p, b, a)] = np.conj(z)
    return gauge


def ref_apply_gauge(lam, gauge, points, objects) -> dict:
    out = {}
    for p in points:
        for a, b, c in itertools.product(objects, repeat=3):
            out[(p, a, b, c)] = (
                lam[(p, a, b, c)]
                * gauge[(p, a, b)]
                * gauge[(p, b, c)]
                * np.conj(gauge[(p, a, c)])
            )
    return out


def ref_trivializing_gauge(lam, points, objects) -> dict:
    return {
        (p, a, b): lam[(p, a, objects[0], b)]
        for p in points
        for a in objects
        for b in objects
    }


def ref_linking(n_points, bundle_phases) -> dict:
    phases = [np.asarray(pl, dtype=complex) for pl in bundle_phases]
    objects = [f"B{j + 1}" for j in range(len(phases) + 1)]

    def mu(pi, j, l):
        if j == l:
            return 1.0 + 0j
        if j < l:
            return phases[j][pi] if l == j + 1 else 1.0 + 0j
        return np.conj(mu(pi, l, j))

    lam = {}
    for pi in range(n_points):
        for ja, a in enumerate(objects):
            for jb, b in enumerate(objects):
                for jc, c in enumerate(objects):
                    lam[(f"p{pi}", a, b, c)] = (
                        mu(pi, ja, jb) * mu(pi, jb, jc) * np.conj(mu(pi, ja, jc))
                    )
    return lam


def ref_torsor(points, objects, reps) -> dict:
    lam = {}
    for p in points:
        rep = reps[p]
        for a, b, c in itertools.product(objects, repeat=3):
            lam[(p, a, b, c)] = rep.at(a, b) * rep.at(b, c) * np.conj(rep.at(a, c))
    return lam


def dense(d, *axes) -> np.ndarray:
    """A label-keyed dict as an array over the product of ``axes``."""
    values = [d[k] for k in itertools.product(*axes)]
    return np.array(values, dtype=complex).reshape([len(a) for a in axes])


def assert_same(want: np.ndarray, got: np.ndarray):
    assert np.array_equal(want, got) and want.tobytes() == got.tobytes()


def assert_same_spaceoid(want: dict, got: sp.SpaceoidData) -> sp.SpaceoidData:
    table = dense(want, got.base_points, *[got.objects] * 3)
    assert_same(table, got.table)
    return sp.SpaceoidData(got.base_points, got.objects, table)


# the (points, objects) schedule of the benchmark's spaceoid workload
SPACEOID_SHAPES = [(p, o) for o in range(1, 6) for p in range(2, 25) if p * o <= 48]


@pytest.mark.parametrize("seed", [101, 0, 1])
def test_tables_match_label_reference(seed):
    assert len(SPACEOID_SHAPES) == 80
    rng = np.random.default_rng(seed)
    for n_points, n_objects in SPACEOID_SHAPES:
        trivial = sp.trivial_spaceoid(n_points, n_objects)
        pts, objs = trivial.base_points, trivial.objects
        phases = [np.exp(2j * np.pi * rng.random(n_points)) for _ in objs[1:]]
        linking = sp.linking_spaceoid(n_points, phases)
        assert_same_spaceoid(ref_linking(n_points, phases), linking)
        reps = {
            p: sp.phase_functor_from_assignment(
                {o: np.exp(2j * np.pi * rng.random()) for o in objs}
            )
            for p in pts
        }
        torsor = sp.torsor_associated(n_objects, n_points, reps)
        assert_same_spaceoid(ref_torsor(pts, objs, reps), torsor)

        for e in (trivial, linking, torsor):
            pts, objs = e.base_points, e.objects
            draw = int(rng.integers(2**63))
            want = ref_random_gauge(np.random.default_rng(draw), pts, objs)
            gauge = sp.random_gauge(np.random.default_rng(draw), pts, objs)
            assert_same(dense(want, pts, objs, objs), gauge)
            twisted = sp.apply_gauge(e, gauge)
            assert_same_spaceoid(ref_apply_gauge(e.lam, want, pts, objs), twisted)

            lam = twisted.lam
            want = ref_trivializing_gauge(lam, pts, objs)
            gauge, flat = sp.trivialize(twisted)
            assert_same(dense(want, pts, objs, objs), gauge)
            ref = assert_same_spaceoid(ref_apply_gauge(lam, want, pts, objs), flat)
            # the bytes the benchmark's spaceoid workload writes out
            assert serial.emit("spaceoid", ref) == serial.emit("spaceoid", flat)


# --- the label-keyed morphism constructions the arrays replaced ---------------


def labeled(m: sp.SpaceoidMorphism) -> dict:
    """The fiber scalars keyed by ``(p, A, B)``, as morphisms held them."""
    keys = itertools.product(m.f_delta, m.f_r, m.f_r)
    return dict(zip(keys, m.fiber_scalars.ravel().tolist()))


def ref_identity(e) -> dict:
    return {
        (p, a, b): 1.0 + 0j
        for p in e.base_points
        for a in e.objects
        for b in e.objects
    }


def ref_random_morphism(seed, dom, cod):
    rng = np.random.default_rng(seed)
    g1 = ref_trivializing_gauge(dom.lam, dom.base_points, dom.objects)
    g2 = ref_trivializing_gauge(cod.lam, cod.base_points, cod.objects)
    f_delta = {
        p: cod.base_points[rng.integers(len(cod.base_points))]
        for p in dom.base_points
    }
    perm = rng.permutation(len(dom.objects))
    f_r = {a: cod.objects[perm[i]] for i, a in enumerate(dom.objects)}
    nu = np.exp(2j * np.pi * rng.random((len(dom.base_points), len(dom.objects))))
    scal = {}
    for i, p in enumerate(dom.base_points):
        for j, a in enumerate(dom.objects):
            for k, b in enumerate(dom.objects):
                scal[(p, a, b)] = (
                    complex(nu[i, j])
                    * complex(nu[i, k]).conjugate()
                    * g1[(p, a, b)]
                    * np.conj(g2[(f_delta[p], f_r[a], f_r[b])])
                )
    return f_delta, f_r, scal


def ref_compose(m2, m1) -> dict:
    s1, s2 = labeled(m1), labeled(m2)
    return {
        (p, a, b): z * s2[(m1.f_delta[p], m1.f_r[a], m1.f_r[b])]
        for (p, a, b), z in s1.items()
    }


def ref_section_blocks(m, dom, cod) -> dict:
    scal = labeled(m)
    inv_r = {v: k for k, v in m.f_r.items()}
    block_maps = {}
    for a2 in cod.objects:
        for b2 in cod.objects:
            a1, b1 = inv_r[a2], inv_r[b2]
            mat = np.zeros((len(dom.base_points), len(cod.base_points)), dtype=complex)
            for i, p in enumerate(dom.base_points):
                j = cod.base_points.index(m.f_delta[p])
                mat[i, j] = scal[(p, a1, b1)]
            block_maps[(a2, b2)] = mat
    return block_maps


def ref_evaluation_scalars(e, ev) -> dict:
    """v_A conj(v_B) g, one Python complex product at a time from the
    left, over its modulus (the frames are the identity)."""
    _, gauge = du.sections_with_gauge(e)
    spec = ev.spectrum
    scal = {}
    for q, p in enumerate(e.base_points):
        i = spec.spaceoid.base_points.index(ev.morphism.f_delta[p])
        for ai, a in enumerate(e.objects):
            for bi, b in enumerate(e.objects):
                z = complex(spec.bases[ai, q, i]) * complex(spec.bases[bi, q, i]).conjugate()
                z = z * complex(gauge[q, ai, bi])
                scal[(p, a, b)] = complex(z.real / abs(z), z.imag / abs(z))
    return scal


def ref_morphism_text(f_delta, f_r, scal) -> str:
    """The morphism file as it was written from a label-keyed dict."""
    return serial.canonical_text({
        "f_delta": {str(p): str(q) for p, q in f_delta.items()},
        "f_r": {str(a): str(b) for a, b in f_r.items()},
        "fiber_scalars": [
            [p, a, b, [z.real, z.imag]]
            for (p, a, b), z in sorted(scal.items())
        ],
    })


def assert_same_morphism(f_delta, f_r, scal, got: sp.SpaceoidMorphism):
    assert list(got.f_delta.items()) == list(f_delta.items())
    assert list(got.f_r.items()) == list(f_r.items())
    assert_same(dense(scal, f_delta, f_r, f_r), got.fiber_scalars)
    assert serial.emit("morphism", got) == ref_morphism_text(f_delta, f_r, scal)


@pytest.mark.parametrize("seed", [101, 0, 1])
def test_morphisms_match_label_reference(seed):
    rng = np.random.default_rng(seed)
    for n_points, n_objects in SPACEOID_SHAPES:
        trivial = sp.trivial_spaceoid(n_points, n_objects)
        pts, objs = trivial.base_points, trivial.objects
        dom = sp.apply_gauge(trivial, sp.random_gauge(rng, pts, objs))
        cod, _ = random_spaceoid(int(rng.integers(2**63)), n_points + 1, n_objects)
        ident = {p: p for p in pts}, {o: o for o in objs}
        assert_same_morphism(*ident, ref_identity(dom), sp.identity_morphism(dom))

        draws = rng.integers(2**63, size=2)
        m1 = random_morphism(int(draws[0]), dom, cod)
        assert_same_morphism(*ref_random_morphism(int(draws[0]), dom, cod), m1)
        m2 = random_morphism(int(draws[1]), cod, dom)
        f_delta = {p: m2.f_delta[q] for p, q in m1.f_delta.items()}
        f_r = {a: m2.f_r[b] for a, b in m1.f_r.items()}
        assert_same_morphism(f_delta, f_r, ref_compose(m2, m1), sp.compose(m2, m1))

        want = ref_section_blocks(m1, dom, cod)
        got = du.sections_on_morphism(m1, dom, cod).block_maps
        assert list(got) == list(want)
        for key, mat in want.items():
            assert_same(mat, got[key])

        ev = du.evaluation(dom)
        assert list(ev.morphism.f_delta) == list(pts)
        f_delta = {p: ev.morphism.f_delta[p] for p in pts}
        want = ref_evaluation_scalars(dom, ev)
        assert_same_morphism(f_delta, ident[1], want, ev.morphism)
