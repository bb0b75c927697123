"""Spectrum and section functors, characters, naturality."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectroid
from spectroid import cstarcat as cc
from spectroid import groups, selftest
from spectroid import duality as du
from spectroid import spaceoid as sp
from spectroid.errors import (
    AmbiguousMatching,
    NotCommutative,
    NotFull,
    NotOneDimensional,
    NotUnital,
    SpectrumMismatch,
)
from spectroid.numkit import hs_norm, joint_diagonalize, op_norm


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
    assert spec.ranks.tolist() == [1, 1, 1]
    assert spec.spaceoid.base_points == ("w0", "w1", "w2")
    # canonical class order sorts the eigenvalue keys, which reverses
    # the point order for indicator bases
    x = np.diag([5.0, 7.0, 11.0]).astype(complex)
    coeffs = spec.coefficients("A", "A", x)
    assert np.allclose(coeffs, [11.0, 7.0, 5.0], atol=1e-12)
    # reconstruction is exact
    assert hs_norm(spec.lift("A", "A", coeffs) - x) < 1e-12


SCALE_SCRIPT = """
import resource, time
from spectroid.duality import classical_category, spectrum
c = classical_category(128)
start = time.perf_counter()
spec = spectrum(c)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(seconds, peak_mb, spec.n_classes, max(spec.ranks))
"""


def test_spectrum_of_128_point_diagonal_algebra_fits():
    # one child process on one BLAS thread; ru_maxrss (KiB on Linux) is
    # the peak of that child alone, imports included
    env = dict(os.environ, PYTHONPATH=str(Path(spectroid.__file__).parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCALE_SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, peak_mb, n_classes, max_rank = proc.stdout.split()
    assert (int(n_classes), int(max_rank)) == (128, 1)
    assert float(seconds) < 2.0
    assert float(peak_mb) < 500.0

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
    # neither commutative nor full: commutativity is reported first
    c2b = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 2), ("B", 1)), generators={("A", "A"): [nil]}
        ),
        unitize=True,
    )
    assert not cc.is_full(c2b)
    with pytest.raises(NotCommutative):
        du.spectrum(c2b)
    # commutative but not full: two objects, no connecting block
    c3 = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 1), ("B", 1)), generators={}
        ),
        unitize=True,
    )
    with pytest.raises(NotFull):
        du.spectrum(c3)


def _two_object_family(c_aa, c_bb, c_ab):
    """A hand-built unital block family on two 2-dim objects (not
    closed under products: only the spectrum's own checks look at it)."""
    blocks = {
        ("A", "A"): c_aa,
        ("B", "B"): c_bb,
        ("A", "B"): c_ab,
        ("B", "A"): [x.conj().T for x in c_ab],
    }
    return cc.MatrixCategory((("A", 2), ("B", 2)), blocks, unital=True)


def test_spectrum_raises_ambiguous_matching():
    # both diagonals split into two lines; the (A, B) block mixes them
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    ones = np.ones((2, 2)) / 2
    flip = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 2
    c = _two_object_family([e11, e22], [e11, e22], [ones, flip])
    assert cc.is_commutative(c) and cc.is_full(c)
    with pytest.raises(AmbiguousMatching):
        du.spectrum(c)


def test_spectrum_raises_not_one_dimensional():
    # one rank-2 class per object, and a connecting element that is not
    # a multiple of a unitary
    eye = np.eye(2) / np.sqrt(2)
    x = np.diag([1.0, 2.0]) / np.sqrt(5)
    c = _two_object_family([eye], [eye], [x])
    assert cc.is_commutative(c) and cc.is_full(c)
    with pytest.raises(NotOneDimensional):
        du.spectrum(c)


def test_spectrum_rejects_a_two_dimensional_fiber_up_front():
    # one rank-2 class per object, and block (A, B) all of M_2: its one
    # fiber is two-dimensional, so the block has 4 dimensions for 1 class
    eye = np.eye(2) / np.sqrt(2)
    units = [np.outer(u, v) for u in np.eye(2) for v in np.eye(2)]
    c = _two_object_family([eye], [eye], units)
    assert cc.is_commutative(c) and cc.is_full(c)
    with pytest.raises(NotOneDimensional, match="dimension 4 for 1 classes"):
        du.spectrum(c)


@pytest.mark.parametrize("make", [
    lambda: cc.linking_category(3, [1, 2, 0], [1.0, 1j, -1.0]),
    pauli_triangle,
    lambda: cc.groupoid_category(groups.connected_groupoid(2, groups.klein_four())),
])
def test_spectrum_fields_are_dense_arrays(make):
    c = make()
    spec = du.spectrum(c)
    o, k, d = len(c.object_ids), spec.n_classes, c.dim(c.object_ids[0])
    assert spec.spaceoid.objects == c.object_ids
    assert len(spec.spaceoid.base_points) == k and spec.ranks.sum() == d
    want = {
        "ranks": ((k,), "i"),
        "class_block": ((o, k), "i"),
        "bases": ((o, d, d), "c"),
        "frames": ((o, o, d, d), "c"),
        "diag_table": ((o, k, k), "c"),
        "compressions": ((o, o, k, d, d), "c"),
    }
    for name, (shape, kind) in want.items():
        value = getattr(spec, name)
        assert isinstance(value, np.ndarray), name
        assert (value.shape, value.dtype.kind) == (shape, kind), name
    fields = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
    assert not any(isinstance(v, (dict, tuple)) for v in fields)


def test_linking_spectrum_frozen_coefficients():
    gen = cc.linking_generator(2, [0, 1], [1.0, 1j])
    c = cc.linking_category(2, [0, 1], [1.0, 1j])
    spec = du.spectrum(c)
    assert spec.n_classes == 2
    assert spec.ranks.tolist() == [1, 1]
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
    assert spec.ranks.tolist() == [2]
    f = spec.frames[0, 1]  # the one class owns every column
    assert np.allclose(f, np.diag([1.0, 1j]), atol=1e-12)


def test_pauli_triangle_structure_constant():
    c = pauli_triangle()
    spec = du.spectrum(c)
    assert spec.n_classes == 1
    assert spec.ranks.tolist() == [2]
    lam = spec.spaceoid.lam[("w0", "A", "B", "C")]
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


# --- whole-eigenbasis spectrum against the per-class reference ----------------


def reference_canonical_frame(comp):
    s = op_norm(comp)
    f = comp / s
    flat = f.ravel()
    mx = np.max(np.abs(flat))
    for z in flat:
        if abs(z) >= 0.1 * mx:
            return f * np.conj(z / abs(z))


def block_isometry(eig, b):
    """Columns of the joint eigenbasis spanning eigenblock ``b``."""
    return eig.unitary[:, eig.columns([b])]


def reference_parts(spec, tol=1e-9):
    """Class matching, frames, structure constants and coefficients by
    one compression per class, basis element and block, starting from
    the same joint eigenstructures as ``spec`` (default seed)."""
    c = spec.category
    ids = c.object_ids
    eigs = {o: joint_diagonalize(c.block(o, o), tol, dim=c.dim(o)) for o in ids}
    a0, k = ids[0], eigs[ids[0]].n_blocks
    class_block = {(i, a0): i for i in range(k)}
    for b in ids[1:]:
        basis = c.block(a0, b)
        thresh = tol * (1.0 + max(hs_norm(x) for x in basis))
        for i in range(k):
            vi = block_isometry(eigs[a0], i)
            hits = [
                j
                for j in range(k)
                if max(
                    hs_norm(vi.conj().T @ x @ block_isometry(eigs[b], j))
                    for x in basis
                ) > thresh
            ]
            assert len(hits) == 1
            class_block[(i, b)] = hits[0]
    ranks = eigs[a0].sizes.tolist()

    def iso(i, a):
        return block_isometry(eigs[a], class_block[(i, a)])

    frames = {}
    for i in range(k):
        for a in ids:
            frames[(i, a, a)] = np.eye(ranks[i])
    for ai, a in enumerate(ids):
        for b in ids[ai + 1:]:
            for i in range(k):
                comps = [iso(i, a).conj().T @ x @ iso(i, b) for x in c.block(a, b)]
                best = comps[int(np.argmax([hs_norm(m) for m in comps]))]
                frames[(i, a, b)] = reference_canonical_frame(best)
                frames[(i, b, a)] = frames[(i, a, b)].conj().T
    lam = {
        (i, a, b, cc_): np.trace(
            frames[(i, a, cc_)].conj().T @ frames[(i, a, b)] @ frames[(i, b, cc_)]
        ) / ranks[i]
        for i in range(k)
        for a in ids
        for b in ids
        for cc_ in ids
    }
    coeffs = {
        (a, b): np.array([
            [
                np.trace(frames[(i, a, b)].conj().T @ iso(i, a).conj().T @ x @ iso(i, b))
                / ranks[i]
                for i in range(k)
            ]
            for x in c.block(a, b)
        ]).reshape(-1, k)
        for a, b in c.pairs()
    }
    return class_block, frames, lam, coeffs


@pytest.mark.parametrize(
    "make",
    [
        lambda: cc.linking_category(3, [1, 2, 0], [1.0, 1j, -1.0]),
        lambda: scramble(cc.linking_category(4, [2, 0, 3, 1], [1j, -1.0, 1.0, 1j]), 7),
        lambda: scramble(
            cc.multi_linking(2, [[1, 0], [0, 1]], [[1.0, 1j], [np.exp(0.7j), 1.0]]), 8
        ),
        pauli_triangle,
        lambda: cc.groupoid_category(groups.connected_groupoid(3, groups.cyclic(4))),
        lambda: scramble(
            cc.groupoid_category(groups.connected_groupoid(2, groups.klein_four())), 9
        ),
    ],
)
def test_spectrum_matches_per_class_reference(make):
    spec = du.spectrum(make())
    class_block, frames, lam, coeffs = reference_parts(spec)
    table = spec.spaceoid.table
    ids = list(enumerate(spec.category.object_ids))
    for i in range(spec.n_classes):
        span = slice(spec.starts[i], spec.starts[i] + spec.ranks[i])
        for ai, a in ids:
            assert spec.class_block[ai, i] == class_block[(i, a)]
            for bi, b in ids:
                got_frame = spec.frames[ai, bi, span, span]
                assert np.allclose(got_frame, frames[(i, a, b)], atol=1e-11)
                for ci, cc_ in ids:
                    assert abs(table[i, ai, bi, ci] - lam[(i, a, b, cc_)]) < 1e-11
    for a, b in spec.category.pairs():
        stack = np.reshape(spec.category.block(a, b), (-1, spec.category.dim(a), spec.category.dim(b)))
        assert np.allclose(spec.coefficients(a, b, stack), coeffs[(a, b)], atol=1e-11)


# --- scale oracles: dual groups far past the acceptance sizes ------------------


def test_large_cyclic_groups_match_the_dft_table():
    report = selftest.suite_dft(tol=1e-9, m_range=(16, 32, 64))
    assert report.passed, report.summary()
    assert [c.name for c in report.checks] == ["dft-Z16", "dft-Z32", "dft-Z64"]


def test_product_group_matches_the_product_character_table():
    # Z4 x Z6: the character at frequency (j, l) takes element (a, b),
    # index 6a + b, to exp(-2 pi i (ja/4 + lb/6)), the DFT sign of
    # criterion 5
    group = groups.direct_product(groups.cyclic(4), groups.cyclic(6))
    cat = cc.groupoid_category(groups.connected_groupoid(1, group))
    obj, n = cat.object_ids[0], group.order
    # left regular representation of every element: i -> g*i
    rep_elt = np.zeros((n, n, n), dtype=complex)
    rep_elt[np.arange(n)[:, None], group.mult, np.arange(n)] = 1.0
    a, b = np.divmod(np.arange(n), 6)
    chars = du.characters(cat)
    assert len(chars) == n
    freqs = set()
    for w in chars:
        values = w.value(obj, obj, rep_elt)
        j = round(-np.angle(values[6]) * 4 / (2 * np.pi)) % 4  # element (1, 0)
        l_ = round(-np.angle(values[1]) * 6 / (2 * np.pi)) % 6  # element (0, 1)
        freqs.add((j, l_))
        table = np.exp(-2j * np.pi * (j * a / 4 + l_ * b / 6))
        assert np.abs(values - table).max() <= 1e-9
    assert len(freqs) == n


# --- sections ----------------------------------------------------------------


def test_sections_realize_structure_constants():
    e = random_spaceoid(21, n_points=3, n_objects=3)
    sec = du.sections(e)
    assert sec.unital
    assert cc.check_axioms(sec, tol=1e-10).passed
    assert cc.is_commutative(sec) and cc.is_full(sec)
    # composition of point basis elements reproduces the table
    a, b, c = e.objects
    table = e.lam
    for pos, p in enumerate(e.base_points):
        ab = sec.block(a, b)[pos]
        bc = sec.block(b, c)[pos]
        ac = sec.block(a, c)[pos]
        lam = table[(p, a, b, c)]
        assert hs_norm(ab @ bc - lam * ac) < 1e-12


def test_sections_of_invalid_table_rejected():
    base = sp.trivial_spaceoid(2, 2)
    bad = base.table.copy()
    bad[0, 0, 0, 1] = 1j  # (p0, O1, O1, O2)
    e = sp.SpaceoidData(base.base_points, base.objects, bad)
    with pytest.raises(Exception):
        du.sections(e)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_evaluation_roundtrip(seed):
    e = random_spaceoid(seed, n_points=3, n_objects=3)
    rep = du.roundtrip_spaceoid(e, tol=1e-9, seed=0)
    assert rep.passed, rep.summary()


def test_roundtrip_spaceoid_with_nan_reports_failure():
    base = sp.trivial_spaceoid(3, 2)
    bad = base.table.copy()
    bad[1, 0, 1, 0] = np.nan  # (p1, O1, O2, O1)
    rep = du.roundtrip_spaceoid(sp.SpaceoidData(base.base_points, base.objects, bad))
    assert not rep.passed
    assert "input-unimodular" in {c.name for c in rep.failures()}


def test_re_spectrum_constants_fold_counts_nan(monkeypatch):
    # a NaN in the last structure constant of the re-computed spectrum
    # (the position a plain max() fold drops) must fail the check
    evaluation = du.evaluation

    def broken(e, tol, seed):
        ev = evaluation(e, tol, seed)
        lam = ev.spectrum.spaceoid.table.copy()
        lam[-1, -1, -1, -1] = complex("nan")
        ev.spectrum.spaceoid = sp.SpaceoidData(
            ev.spectrum.spaceoid.base_points, ev.spectrum.spaceoid.objects, lam
        )
        return ev

    monkeypatch.setattr(du, "evaluation", broken)
    rep = du.roundtrip_spaceoid(random_spaceoid(4, n_points=2, n_objects=2))
    check = next(c for c in rep.checks if c.name == "re-spectrum-trivial-constants")
    assert not check.passed and check.residual == np.inf


def _gelfand_report_with_coefficients(monkeypatch, change):
    """``gelfand``'s report on a linking category when its spectrum's
    frame coefficients (classes along the last axis) pass through
    ``change``."""
    spectrum = du.spectrum

    def planted(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        coefficients = spec._frame_coefficients
        spec._frame_coefficients = lambda f, t: change(coefficients(f, t))
        return spec

    monkeypatch.setattr(du, "spectrum", planted)
    return du.gelfand(cc.linking_category(3, [1, 2, 0])).report


def test_gelfand_isometric_trips_on_planted_scale(monkeypatch):
    # the transform scaled by 1 + 3.7e-6: about ten times the bound on
    # combinations of operator norm about 2.7
    rep = _gelfand_report_with_coefficients(monkeypatch, lambda z: z * (1 + 3.7e-6))
    check = next(c for c in rep.checks if c.name == "isometric")
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


def test_gelfand_block_bijective_trips_on_a_dropped_class(monkeypatch):
    rep = _gelfand_report_with_coefficients(monkeypatch, lambda z: z * [1, 1, 0])
    check = next(c for c in rep.checks if c.name == "block-bijective")
    assert not check.passed


def test_evaluation_isomorphism_trips_on_collapsed_base_map(monkeypatch):
    # on a flat table every scalar is 1, so sending every point to one
    # class leaves a valid morphism that is not an isomorphism
    evaluation = du.evaluation

    def collapsed(e, tol, seed):
        ev = evaluation(e, tol, seed)
        first = ev.spectrum.spaceoid.base_points[0]
        ev.morphism.f_delta = dict.fromkeys(ev.morphism.f_delta, first)
        return ev

    monkeypatch.setattr(du, "evaluation", collapsed)
    rep = du.roundtrip_spaceoid(sp.trivial_spaceoid(3, 2))
    assert {c.name for c in rep.failures()} == {"evaluation-isomorphism"}


def test_evaluation_scalars_equal_trivializing_gauge():
    e = random_spaceoid(33, n_points=2, n_objects=3)
    gauge, _ = sp.trivialize(e)
    ev = du.evaluation(e)
    for z, g in zip(ev.morphism.fiber_scalars.ravel(), gauge.ravel()):
        assert abs(z - g) < 1e-10


@pytest.mark.parametrize("seed", [3, 33, 101])
def test_evaluation_scalars_follow_the_scalar_rounding_rule(seed):
    # each fiber scalar is v_A f_AB conj(v_B) g, one Python complex
    # product at a time from the left, over its modulus, bit for bit
    from test_spaceoid import assert_same, dense, ref_evaluation_scalars

    e = random_spaceoid(seed, n_points=6, n_objects=4)
    ev = du.evaluation(e)
    want = dense(ref_evaluation_scalars(e, ev), e.base_points, e.objects, e.objects)
    assert_same(want, ev.morphism.fiber_scalars)


# --- characters --------------------------------------------------------------


def assert_character_laws(c, seed=5):
    """Every character is multiplicative, involutive and unital on
    random elements of every block."""
    chars = du.characters(c)
    rng = np.random.default_rng(seed)
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
    return chars


def test_characters_multiplicative_and_involutive():
    c = cc.multi_linking(2, [[1, 0]], [[1j, -1.0]])
    assert len(assert_character_laws(c)) == 2


def test_characters_of_rank2_class_with_complex_gauge():
    # X in (A, B) and diag(1, w) in (B, C) close to one rank-2 class;
    # in scrambled coordinates its structure constant lam(B, A, C) is
    # not real, so the gauge of the character values must be
    # conjugated to keep them multiplicative
    w = np.exp(0.9j)
    pres = cc.CategoryPresentation(
        objects=(("A", 2), ("B", 2), ("C", 2)),
        generators={
            ("A", "B"): [np.array([[0, 1], [1, 0]], dtype=complex)],
            ("B", "C"): [np.diag([1.0, w])],
        },
    )
    c = scramble(cc.close(pres), 17)
    spec = du.spectrum(c)
    assert spec.ranks.tolist() == [2]
    lam = spec.spaceoid.lam[("w0", "B", "A", "C")]
    assert abs(abs(lam) - 1.0) < 1e-10 and abs(lam.imag) > 0.1
    assert len(assert_character_laws(c)) == 1


def test_match_classes_without_fit_is_mismatch():
    spec = du.spectrum(du.classical_category(2))

    def values(o, basis):
        return np.full((1, len(basis)), 17.0)  # no class takes this value

    with pytest.raises(SpectrumMismatch):
        du._match_classes(spec, values, 1, 1e-9)


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

    def nan_on_diagonals(a, b, x):
        return np.nan * w1.value(a, b, x) if a == b else w1.value(a, b, x)

    with pytest.raises(SpectrumMismatch):
        du.unitary_equivalence_gauge(w1, nan_on_diagonals)


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
    for i, a in enumerate(m.f_r):
        for j, b in enumerate(m.f_r):
            assert np.abs(m.fiber_scalars[:, i, j] - chi.at(a, b)).max() < 1e-12


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


# --- induced maps against the per-class reference -----------------------------


def reference_spectrum_on_morphism(phi, source, target, spec1, spec2, tol=1e-9):
    """One composed-character closure per target class, matched one
    class at a time, and one functor image per basis element and per
    (class, pair) frame."""

    def character(spec, j):
        def value(a, b, x):
            anchor = spec.spaceoid.objects[0]
            gauge = spec.spaceoid.lam[(spec.spaceoid.base_points[j], a, anchor, b)]
            return spec.coefficients(a, b, x)[j] * np.conj(gauge)

        return value

    def frame_matrix(spec, i, a, b):
        cols = slice(int(spec.starts[i]), int(spec.starts[i]) + spec.ranks[i])
        ai, bi = (spec.spaceoid.objects.index(o) for o in (a, b))
        u_a, u_b = spec.bases[ai][:, cols], spec.bases[bi][:, cols]
        return u_a @ spec.frames[ai, bi, cols, cols] @ u_b.conj().T

    points1, points2 = spec1.spaceoid.base_points, spec2.spaceoid.base_points
    f_delta = {}
    for j, pj in enumerate(points2):
        omega = character(spec2, j)
        candidates = set(range(spec1.n_classes))
        for oi, o in enumerate(source.object_ids):
            basis = source.block(o, o)
            o2 = phi.object_map[o]
            vals = np.array([
                omega(o2, o2, cc.functor_image(phi, source, target, o, o, x, tol))
                for x in basis
            ])
            scale = 1.0 + float(np.max(np.abs(vals), initial=0.0))
            candidates = {
                i for i in candidates
                if np.max(np.abs(spec1.diag_table[oi, i] - vals)) <= tol * 100 * scale
            }
        assert len(candidates) == 1
        f_delta[pj] = points1[candidates.pop()]
    inv = {v: k for k, v in phi.object_map.items()}
    scal = {}
    for j, pj in enumerate(points2):
        i = points1.index(f_delta[pj])
        for a2 in target.object_ids:
            for b2 in target.object_ids:
                u1 = frame_matrix(spec1, i, inv[a2], inv[b2])
                img = cc.functor_image(phi, source, target, inv[a2], inv[b2], u1, tol)
                z = spec2.coefficients(a2, b2, img)[j]
                scal[(pj, a2, b2)] = z / abs(z)
    return f_delta, {o: inv[o] for o in target.object_ids}, scal


def coordinate_functor(source, object_map=None, phases=None):
    """Identity coordinates between categories whose bases correspond
    one to one, each block scaled by an optional phase."""
    object_map = object_map or {o: o for o in source.object_ids}
    return cc.StarFunctor(
        object_map=object_map,
        block_maps={
            (a, b): (phases.at(a, b) if phases else 1.0)
            * np.eye(source.block_dim(a, b), dtype=complex)
            for a, b in source.pairs()
        },
    )


def induced_map_cases():
    multi = cc.multi_linking(2, [[1, 0], [0, 1]], [[1.0, 1j], [1.0, -1j]])
    chi = sp.phase_functor_from_assignment({"B1": 1.0, "B2": np.exp(0.9j), "B3": -1j})
    link = cc.linking_category(3, [1, 2, 0], [1.0, 1j, -1.0])
    relabelled = cc.linking_category(3, [1, 2, 0], [1.0, 1j, -1.0], a_id="X", b_id="Y")
    cyclic = cc.groupoid_category(groups.connected_groupoid(2, groups.cyclic(3)))
    chi2 = sp.phase_functor_from_assignment(dict(zip(cyclic.object_ids, [1.0, 1j])))
    perm = np.eye(3, dtype=complex)[[2, 0, 1]]
    return [
        ("phase automorphism", multi, multi, coordinate_functor(multi, phases=chi)),
        (
            "phase onto scrambled",
            multi,
            scramble(multi, 31),
            coordinate_functor(multi, phases=chi),
        ),
        (
            "relabelled and scrambled",
            link,
            scramble(relabelled, 32),
            coordinate_functor(link, {"A": "X", "B": "Y"}),
        ),
        (
            "scrambled groupoid with phases",
            cyclic,
            scramble(cyclic, 33),
            coordinate_functor(cyclic, phases=chi2),
        ),
        (
            "classical permutation",
            du.classical_category(3),
            scramble(du.classical_category(3), 34),
            cc.StarFunctor({"A": "A"}, {("A", "A"): perm}),
        ),
        (
            "classical fold",
            du.classical_category(2),
            du.classical_category(3),
            cc.StarFunctor(
                {"A": "A"},
                {("A", "A"): np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], complex)},
            ),
        ),
    ]


@pytest.mark.parametrize("case", induced_map_cases(), ids=lambda c: c[0])
def test_spectrum_on_morphism_matches_per_class_reference(case):
    _, source, target, phi = case
    assert cc.validate_functor(phi, source, target).passed
    spec1, spec2 = du.spectrum(source), du.spectrum(target)
    m = du.spectrum_on_morphism(
        phi, source, target, source_spectrum=spec1, target_spectrum=spec2
    )
    f_delta, f_r, scal = reference_spectrum_on_morphism(phi, source, target, spec1, spec2)
    assert m.f_delta == f_delta
    assert m.f_r == f_r
    want = [[[scal[(p, a, b)] for b in f_r] for a in f_r] for p in f_delta]
    assert np.abs(m.fiber_scalars - np.array(want)).max() <= 1e-12


def test_spectrum_on_morphism_scalars_are_unit_frame_coefficients():
    # each fiber scalar is spaceoid._unit of its frame coefficient, bit
    # for bit: the rounding rule of lambda and of evaluation's scalars,
    # not numpy's complex-by-real division
    for _, source, target, phi in induced_map_cases():
        spec1, spec2 = du.spectrum(source), du.spectrum(target)
        m = du.spectrum_on_morphism(
            phi, source, target, source_spectrum=spec1, target_spectrum=spec2
        )
        points1 = spec1.spaceoid.base_points
        match = [points1.index(m.f_delta[p]) for p in spec2.spaceoid.base_points]
        cls = np.arange(spec2.n_classes)
        for i, a2 in enumerate(m.f_r):
            for j, b2 in enumerate(m.f_r):
                a1, b1 = m.f_r[a2], m.f_r[b2]
                frames = spec1.lift(a1, b1, np.eye(spec1.n_classes))
                img = cc.functor_image(phi, source, target, a1, b1, frames)
                z = spec2.coefficients(a2, b2, img)[match, cls]
                assert sp._unit(z).tobytes() == m.fiber_scalars[:, i, j].tobytes()


def reference_functor_naturality(phi, c1, c2, tol, seed=0):
    """The naturality square checked one source basis element (unit
    coordinate vector) at a time."""
    g1, g2 = du.gelfand(c1, tol, seed), du.gelfand(c2, tol, seed)
    m = du.spectrum_on_morphism(
        phi, c1, c2, tol, seed, source_spectrum=g1.spectrum, target_spectrum=g2.spectrum
    )
    gamma = du.sections_on_morphism(m, g2.spectrum.spaceoid, g1.spectrum.spaceoid, tol)
    worst = 0.0
    for a1, b1 in c1.pairs():
        a2, b2 = phi.object_map[a1], phi.object_map[b1]
        for k in range(c1.block_dim(a1, b1)):
            unit = np.zeros(c1.block_dim(a1, b1), dtype=complex)
            unit[k] = 1.0
            left = gamma.block_maps[(a1, b1)] @ (g1.functor.block_maps[(a1, b1)] @ unit)
            right = g2.functor.block_maps[(a2, b2)] @ (phi.block_maps[(a1, b1)] @ unit)
            worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


@pytest.mark.parametrize("noise", [0.0, 1e-7])
@pytest.mark.parametrize("case", induced_map_cases(), ids=lambda c: c[0])
def test_functor_naturality_matches_unit_vector_loop(case, noise):
    # with noise the functor is slightly off, so the square has a
    # residual well above rounding for the two computations to agree on
    _, source, target, phi = case
    rng = np.random.default_rng(35)
    phi = cc.StarFunctor(
        phi.object_map,
        {
            key: m + noise * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
            for key, m in phi.block_maps.items()
        },
    )
    tol = 1e-5
    got = du._functor_naturality(phi, source, target, tol, 0)
    want = reference_functor_naturality(phi, source, target, tol)
    assert abs(got - want) <= 1e-15 + 1e-12 * want
    if noise:
        assert want > 1e-8
