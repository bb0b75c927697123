"""Spectrum and section functors, characters, naturality."""

import dataclasses
import itertools
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
from spectroid import groups, numkit, selftest
from spectroid import duality as du
from spectroid import spaceoid as sp
from spectroid.errors import (
    AmbiguousMatching,
    InvalidFunctor,
    InvalidSpaceoid,
    NotCommutative,
    NotFull,
    NotOneDimensional,
    NotUnital,
    SpectrumMismatch,
)
from spectroid.numkit import hs_norm, joint_diagonalize, op_norm

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
    commutative full category with a single rank-2 class."""
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
    assert hs_norm(spec._lift(*spec._index("A", "A"), coeffs) - x) < 1e-12


SCALE_SCRIPT = """
import resource, time
import speed
from spectroid.duality import classical_category, spectrum
c = classical_category(128)
before = speed.sample()
start = time.perf_counter()
spec = spectrum(c)
seconds = time.perf_counter() - start
reference_s = (before + speed.sample()) / 2
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(speed.scale(seconds, reference_s), peak_mb, spec.n_classes, max(spec.ranks))
"""


def test_spectrum_of_128_point_diagonal_algebra_fits():
    # one child process on one BLAS thread; ru_maxrss (KiB on Linux) is
    # the peak of that child alone, imports included.  The time is
    # scaled to the reference speed by perfbench/speed.py's kernel,
    # sampled in the same process before and after the call, so a
    # loaded host does not fail it
    src = Path(spectroid.__file__).parents[1]
    path = os.pathsep.join([str(src), str(src.parent / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
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


ROUNDTRIP_SPACEOID_SCRIPT = """
import resource
limit = 1800 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from spectroid import duality as du, spaceoid as sp
e = sp.trivial_spaceoid(128, 4)
e = sp.apply_gauge(e, sp.random_gauge(np.random.default_rng(0), e.base_points, e.objects))
print(du.roundtrip_spaceoid(e).passed)
"""


def test_roundtrip_spaceoid_of_128_points_fits_in_1800_mb():
    # the sections of a 128 x 4 spaceoid are one 537 MB stack, and the
    # spectrum keeps one copy of it: the round trip runs under a 1.4 GB
    # limit, and one more copy of the stack would take it past 1.8 GB.
    # The limit holds for the child process only
    env = dict(os.environ, PYTHONPATH=str(Path(spectroid.__file__).parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", ROUNDTRIP_SPACEOID_SCRIPT], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


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
    # full, with a commutative anchor: A is a line, C_BB is M_2, and
    # only the non-commutativity of a block the anchor does not see
    # decides the error
    c2c = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 1), ("B", 2)),
            generators={("A", "B"): [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]},
        ),
        unitize=True,
    )
    assert cc.is_full(c2c) and not cc.is_commutative(c2c)
    with pytest.raises(NotCommutative):
        du.spectrum(c2c)
    # commutative but not full: two objects, no connecting block
    c3 = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 1), ("B", 1)), generators={}
        ),
        unitize=True,
    )
    with pytest.raises(NotFull):
        du.spectrum(c3)


# one non-finite entry in a block of linking_category(3, [1, 2, 0]): the
# anchor's block, a diagonal block the anchor does not see, off-diagonal
# blocks
NON_FINITE = [
    (("A", "A"), np.nan),
    (("B", "B"), np.nan),
    (("A", "B"), np.nan),
    (("B", "B"), np.inf),
    (("B", "A"), -np.inf),
]


@pytest.mark.parametrize("call", ["spectrum", "gelfand", "roundtrip_category"])
@pytest.mark.parametrize("pair, value", NON_FINITE)
def test_non_finite_entries_are_rejected_up_front(call, pair, value):
    cat = cc.linking_category(3, [1, 2, 0])
    blocks = {key: list(basis) for key, basis in cat.blocks.items()}
    bad = blocks[pair][1].copy()
    bad[0, 0] = value
    blocks[pair][1] = bad
    with pytest.raises(ValueError, match="non-finite") as info:
        getattr(du, call)(cc.MatrixCategory(cat.objects, blocks, cat.unital))
    # numpy's LinAlgError is a ValueError too; the check must come first
    assert not isinstance(info.value, np.linalg.LinAlgError)


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


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")], ids=["A-first", "B-first"])
def test_non_commutative_full_category_raises_whichever_object_is_the_anchor(order):
    # A is a line and C_BB is M_2: anchored at A the transport meets the
    # non-commutative block only after the diagonalization, anchored at
    # B the diagonalization itself fails; both report NotCommutative
    c = cc.close(
        cc.CategoryPresentation(
            objects=(("A", 1), ("B", 2)),
            generators={("A", "B"): [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]},
        ),
        unitize=True,
    )
    dims = dict(c.objects)
    c = cc.MatrixCategory(tuple((o, dims[o]) for o in order), c.blocks, c.unital)
    assert c.object_ids == order
    assert cc.is_full(c) and not cc.is_commutative(c)
    with pytest.raises(NotCommutative):
        du.spectrum(c)


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")], ids=["A-first", "B-first"])
@pytest.mark.parametrize("empty", ["A", "B"])
def test_empty_diagonal_block_is_not_unital(order, empty):
    # a unital-flagged category whose C_XX holds no identity, whether X
    # is the anchor or not
    c = cc.linking_category(3, [1, 2, 0])
    blocks = dict(c.blocks)
    blocks[(empty, empty)] = []
    with pytest.raises(NotUnital, match=f"block \\({empty},{empty}\\) is empty"):
        du.spectrum(cc.MatrixCategory(tuple((o, 3) for o in order), blocks, True))


def _spy_on_commutators(monkeypatch):
    """Record the diagonal blocks ``spectrum`` leaves to the explicit
    commutator check, one stack per block it searches."""
    calls = []
    search = du._noncommuting_pair

    def spy(stack, tol):
        calls.append(stack)
        return search(stack, tol)

    monkeypatch.setattr(du, "_noncommuting_pair", spy)
    return calls


def _assert_whole_blocks_searched(c, calls):
    """The certificate stands in for the whole check or for none of it:
    an explicit search takes the whole diagonal blocks, in object
    order."""
    assert len(calls) <= len(c.object_ids)
    for stack, o in zip(calls, c.object_ids):
        assert np.array_equal(stack, np.stack(c.block(o, o)))


def _planted_b_defect(delta, order):
    """``linking_category(3, [1, 2, 0], [1, 1j, -1])`` with basis
    element 0 of (B, B) moved by ``delta * E_01``, objects in ``order``."""
    c = cc.linking_category(3, [1, 2, 0], [1, 1j, -1])
    blocks = {key: list(basis) for key, basis in c.blocks.items()}
    e01 = np.zeros((3, 3), dtype=complex)
    e01[0, 1] = 1.0
    blocks[("B", "B")][0] = blocks[("B", "B")][0] + delta * e01
    return cc.MatrixCategory(tuple((o, 3) for o in order), blocks, c.unital)


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")], ids=["A-first", "B-first"])
@pytest.mark.parametrize("delta", [1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7])
def test_planted_defect_verdict_does_not_depend_on_the_anchor(monkeypatch, order, delta):
    # from 3e-9 on, (B, B) fails is_commutative at tol 1e-9: spectrum
    # raises NotCommutative with either object first, though anchored
    # at A its diagonalization never sees (B, B); below, both orders
    # return a spectrum
    c = _planted_b_defect(delta, order)
    calls = _spy_on_commutators(monkeypatch)
    if cc.is_commutative(c, 1e-9):
        assert delta <= 1e-9
        du.spectrum(c, 1e-9)
    else:
        assert delta >= 3e-9
        with pytest.raises(NotCommutative):
            du.spectrum(c, 1e-9)
    _assert_whole_blocks_searched(c, calls)


def _planted_pair_category(factor, j, k, d=6, seed=0, tol=1e-9):
    """A one-object category whose ``d`` basis elements commute, are
    Hermitian and span the diagonal algebra of a random basis, with
    element ``k`` moved by ``eps H`` so that only the pair ``(j, k)``
    fails to commute, by ``factor`` times its bound ``tol (1 + ||m_j||
    ||m_k||)``.

    In the planted basis ``H`` swaps columns 0 and 1, on which every
    element but ``j`` is scalar."""
    rng = np.random.default_rng(seed)
    q = rand_unitary(rng, d)
    lam = rng.integers(-3, 4, size=(d, d)).astype(float)
    lam[:, 1] = lam[:, 0]
    lam[j, 1] = lam[j, 0] + 2.0
    assert abs(np.linalg.det(lam)) > 0.5  # the span holds the unit
    mats = [q @ np.diag(row) @ q.conj().T for row in lam]
    x = np.zeros((d, d))
    x[0, 1] = x[1, 0] = 1.0
    h = q @ x @ q.conj().T
    # ||[eps H, m_j]||_HS = eps * 2 sqrt(2), and H is HS-orthogonal to m_k
    eps = 0.0
    for _ in range(5):
        nk = np.sqrt(np.linalg.norm(mats[k]) ** 2 + 2 * eps ** 2)
        eps = factor * tol * (1.0 + np.linalg.norm(mats[j]) * nk) / (2 * np.sqrt(2))
    mats[k] = mats[k] + eps * h
    return cc.MatrixCategory((("A", d),), {("A", "A"): mats}, unital=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [0.5, 1.01, 2.0, 10.0])
def test_planted_pair_is_never_certified(monkeypatch, factor, seed):
    # spectrum leaves the planted pair, and with it the whole block, to
    # the explicit check at any size of its defect
    c = _planted_pair_category(factor, 1, 3, seed=seed)
    calls = _spy_on_commutators(monkeypatch)
    if factor < 1:
        du.spectrum(c, 1e-9)
    else:
        with pytest.raises(NotCommutative, match="elements 1 and 3 of block"):
            du.spectrum(c, 1e-9)
    assert len(calls) == 1
    _assert_whole_blocks_searched(c, calls)


@pytest.mark.parametrize("name", ["category-roundtrip", "spaceoid-roundtrip"])
def test_commuting_decks_form_no_commutator(monkeypatch, name):
    # the benchmark's seed-101 category and spaceoid decks: every pair
    # of every diagonal block is certified from the completeness check
    calls = _spy_on_commutators(monkeypatch)
    w = workloads.WORKLOADS[name]
    for case in w.make_deck(101):
        assert w.run(*case.inputs)[0], case.label
    assert not calls


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


# --- spectrum's completeness and fullness certificates -------------------------


def _linking_chain():
    phases = [np.exp([0.3j, 1.1j, -2.0j, 0.7j]), np.exp([0.5j, 0.2j, 2.5j, -1.3j])]
    return cc.multi_linking(4, [[1, 2, 3, 0], [0, 3, 1, 2]], phases)


@pytest.mark.parametrize("make", [
    _linking_chain,
    lambda: scramble(
        cc.groupoid_category(groups.connected_groupoid(3, groups.cyclic(4))), 8
    ),
    lambda: du.sections(random_spaceoid(21, n_points=4, n_objects=3)),
    lambda: du.classical_category(16),
], ids=["linking-chain", "groupoid-Z4-scrambled", "sections-gauged", "classical-16"])
def test_spectrum_certifies_completeness_and_fullness_without_forming_them(
    monkeypatch, make
):
    c = make()

    def formed(*args, **kwargs):
        raise AssertionError("formed on the success path")

    monkeypatch.setattr(du, "is_full", formed)
    monkeypatch.setattr(du.SpectrumResult, "_lift", formed)
    spec = du.spectrum(c)
    assert spec.n_classes == c.block_dim(c.object_ids[0], c.object_ids[0])


def _perturbed(cat, pair, size, seed=0):
    """``cat`` with basis element 0 of block ``pair`` moved by ``size``
    in HS norm, in a random direction."""
    rng = np.random.default_rng(seed)
    blocks = {key: list(basis) for key, basis in cat.blocks.items()}
    x = blocks[pair][0]
    g = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    blocks[pair][0] = x + size * g / np.linalg.norm(g)
    return cc.MatrixCategory(cat.objects, blocks, cat.unital)


def test_spectrum_lifts_explicitly_where_the_certificate_misses(monkeypatch):
    # an element 5e-8 from its block: CERT_SLACK times its bound misses
    # SPECTRAL_SLACK * tol * (1 + 1) = 2e-7, its explicit lift residual
    # clears it; the bounds stand in for all pairs or none, so every
    # pair is lifted, in one call; the perturbed block (B2, B3) does not
    # carry the classes
    c = _linking_chain()
    want = du.spectrum(c)
    lifted = []
    lift = du.SpectrumResult._lift

    def spy(self, i, j, coeffs):
        a, b = np.broadcast_arrays(i, j)
        lifted.append(set(zip(a.ravel().tolist(), b.ravel().tolist())))
        return lift(self, i, j, coeffs)

    monkeypatch.setattr(du.SpectrumResult, "_lift", spy)
    got = du.spectrum(_perturbed(c, ("B2", "B3"), 5e-8))
    assert lifted == [{(a, b) for a in range(3) for b in range(3)}]
    assert got.spaceoid.base_points == want.spaceoid.base_points
    assert np.array_equal(got.ranks, want.ranks)
    assert np.array_equal(got.bases, want.bases)
    assert np.allclose(got.block_maps, want.block_maps, rtol=0, atol=1e-7)
    with pytest.raises(NotOneDimensional, match=r"block \(B2,B3\)"):
        du.spectrum(_perturbed(c, ("B2", "B3"), 1e-6))


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")], ids=["A-first", "B-first"])
def test_spectrum_reads_a_vanishing_class_off_the_block_maps(order):
    # block (A, B) is complete, but one class's fiber in it is 1e-9 of
    # the other's: is_full's Gram ratio is 1e-18, and so is the block
    # map's ratio of squared row norms
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    c = _two_object_family([e11, e22], [e11, e22], [e11, 1e-9 * e22])
    c = cc.MatrixCategory(tuple((o, 2) for o in order), c.blocks, c.unital)
    assert cc.is_commutative(c) and not cc.is_full(c)
    with pytest.raises(NotFull, match=r"class w\d vanishes in block"):
        du.spectrum(c)


@pytest.mark.parametrize("seed", range(12))
def test_lift_bound_covers_the_explicit_lift_residual(seed):
    # random class ranks; bases 1e-12 to 1e-1 from unitary; elements
    # 1e-12 to 1 from the lift of a block-scalar model
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, 4, size=rng.integers(1, 5))
    o, k, d = 2, len(ranks), int(ranks.sum())

    def noise(size, *shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return size * z / np.linalg.norm(z, axis=(-2, -1), keepdims=True)

    u = np.stack([
        rand_unitary(rng, d) + noise(10 ** rng.uniform(-12, -1), d, d) for _ in range(o)
    ])
    uh = np.swapaxes(u.conj(), -1, -2)

    def lift(coeffs):  # U_A blockdiag_p(c_p I) U_B* for every pair and element
        rows = np.repeat(coeffs, ranks, axis=-1)
        return (u[:, None, None] * rows[..., None, :]) @ uh[None, :, None]

    size = 10 ** rng.uniform(-12, 0, (o, o, k, 1, 1))
    x = lift(rng.standard_normal((o, o, k, k))) + size * noise(1.0, o, o, k, d, d)
    comp = uh[:, None, None] @ x @ u[None, :, None]
    # eta as spectrum takes it, from the compressions' diagonals and the
    # norms of what they hold off them
    diag, off = diagonal_and_off_norms(comp)
    coeffs = du._class_means(diag, ranks)
    _, eta = du._residual_parts(diag, off, coeffs, ranks)
    norm = np.linalg.norm(x, axis=(-2, -1))
    delta = np.linalg.norm(uh @ u - np.eye(d), axis=(-2, -1))
    explicit = np.linalg.norm(x - lift(coeffs), axis=(-2, -1))
    assert np.all(du._lift_bound(eta, norm, delta, d) >= explicit)


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
        "bases": ((o, d, d), "c"),
        "diag_table": ((o, k, k), "c"),
        "diagonals": ((o, o, k, d), "c"),
        "off_norms": ((o, o, k), "f"),
        "block_maps": ((o, o, k, k), "c"),
    }
    for name, (shape, kind) in want.items():
        value = getattr(spec, name)
        assert isinstance(value, np.ndarray), name
        assert (value.shape, value.dtype.kind) == (shape, kind), name
    fields = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
    assert not any(isinstance(v, (dict, tuple)) for v in fields)
    # the blocks are kept as one full stack, and no other array is that big
    assert spec.elements.shape == (o, o, k, d, d)
    big = [f.name for f in dataclasses.fields(spec)
           if np.size(getattr(spec, f.name)) >= spec.elements.size]
    assert big == ["elements"]
    # block_maps[A, B][p, j] is c_p(e_j), the mean of the diagonal of
    # e_j's compression over class p's columns; diag_table is its diagonal
    diag = spec.diagonals
    for p, cols in enumerate(np.split(np.arange(d), np.cumsum(spec.ranks)[:-1])):
        assert np.array_equal(
            spec.block_maps[:, :, p], diag[..., cols].sum(axis=-1) / len(cols)
        )
    n = np.arange(o)
    assert np.array_equal(spec.diag_table, spec.block_maps[n, n])
    # the anchor's gauge: every structure constant is exactly 1
    assert spec.spaceoid.table.shape == (k, o, o, o)
    assert np.all(spec.spaceoid.table == 1)


def test_linking_spectrum_frozen_coefficients():
    # closed by close from the presentation linking_category once used:
    # the frozen values test spectrum, not the constructor
    gen = cc.multi_linking_generator(2, [[0, 1]], [[1.0, 1j]], 0, 1)
    units = [np.diag(row).astype(complex) for row in np.eye(2)]
    c = cc.close(cc.CategoryPresentation(
        objects=(("A", 2), ("B", 2)),
        generators={("A", "A"): units, ("B", "B"): units, ("A", "B"): [gen]},
    ))
    spec = du.spectrum(c)
    assert spec.n_classes == 2
    assert spec.ranks.tolist() == [1, 1]
    # the first basis element of block (A, B) is gen / sqrt(2), and B's
    # basis is the anchor's carried along it, so gen is positive on
    # every class
    assert np.allclose(c.block("A", "B")[0], gen / np.sqrt(2), atol=1e-12)
    coeffs = spec.coefficients("A", "B", gen)
    assert np.allclose(coeffs, [1.0, 1.0], atol=1e-12)
    # B's basis keeps the phases instead: class order reverses points
    assert np.allclose(spec.bases[0], [[0, 1], [1, 0]], atol=1e-12)
    assert np.allclose(spec.bases[1], [[0, 1], [-1j, 0]], atol=1e-12)
    # transform is isometric: sup of |coeffs| equals the operator norm
    assert abs(np.max(np.abs(coeffs)) - op_norm(gen)) < 1e-12


def test_single_generator_linking_has_one_rank2_class():
    # without the diagonal algebras the two points merge into one
    # class of rank 2; B's basis, carried along gen, keeps the phases
    gen = cc.multi_linking_generator(2, [[0, 1]], [[1.0, 1j]], 0, 1)
    pres = cc.CategoryPresentation(
        objects=(("A", 2), ("B", 2)), generators={("A", "B"): [gen]}
    )
    c = cc.close(pres)
    assert c.unital
    spec = du.spectrum(c)
    assert spec.n_classes == 1
    assert spec.ranks.tolist() == [2]
    assert np.allclose(spec.bases[0], np.eye(2), atol=1e-12)
    assert np.allclose(spec.bases[1], np.diag([1.0, -1j]), atol=1e-12)
    assert np.allclose(spec.coefficients("A", "B", gen), [1.0], atol=1e-12)


def test_pauli_triangle_structure_constant():
    c = pauli_triangle()
    spec = du.spectrum(c)
    assert spec.n_classes == 1
    assert spec.ranks.tolist() == [2]
    # in the anchor's gauge B's basis is X and C's is (XZ)*, the
    # transports along the first basis elements of (A, B) and (A, C),
    # and the structure constant is exactly 1
    x = np.array([[0, 1], [1, 0]])
    assert np.allclose(spec.bases[1], x, atol=1e-12)
    assert np.allclose(spec.bases[2], [[0, 1], [-1, 0]], atol=1e-12)
    assert spec.spaceoid.lam[("w0", "A", "B", "C")] == 1.0
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
    return eig.unitary[:, eig.starts[b]:eig.starts[b] + eig.sizes[b]]


def reference_parts(spec, tol=1e-9):
    """Ranks, diagonal eigenvalue tables and character values by one
    compression per class, basis element and block, from one joint
    eigenstructure per object (default seed), classes matched across
    objects by a cut and frames phase-normalized on their first
    significant entry: an oracle that shares no step with the
    transport."""
    c = spec.category
    ids = c.object_ids
    eigs = {o: joint_diagonalize(c.block(o, o), tol) for o in ids}
    a0, k = ids[0], eigs[ids[0]].n_blocks
    blocks = {(o, j): block_isometry(eigs[o], j) for o in ids for j in range(k)}
    class_block = {(i, a0): i for i in range(k)}
    for b in ids[1:]:
        basis = c.block(a0, b)
        thresh = tol * (1.0 + max(hs_norm(x) for x in basis))
        for i in range(k):
            vi = blocks[(a0, i)]
            hits = [
                j
                for j in range(k)
                if max(hs_norm(vi.conj().T @ x @ blocks[(b, j)]) for x in basis) > thresh
            ]
            assert len(hits) == 1
            class_block[(i, b)] = hits[0]
    ranks = eigs[a0].sizes.tolist()

    def iso(i, a):
        return blocks[(a, class_block[(i, a)])]

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

    # frame coefficients times the conjugate trivializing gauge
    # lam(i; a, anchor, b): the characters, multiplicative in any gauge
    gauge = {
        (i, a, b): np.trace(
            frames[(i, a, b)].conj().T @ frames[(i, a, a0)] @ frames[(i, a0, b)]
        ) / ranks[i]
        for i in range(k)
        for a, b in c.pairs()
    }
    chars = {
        (a, b): np.array([
            [
                np.trace(frames[(i, a, b)].conj().T @ iso(i, a).conj().T @ x @ iso(i, b))
                / ranks[i] * np.conj(gauge[(i, a, b)])
                for i in range(k)
            ]
            for x in c.block(a, b)
        ]).reshape(-1, k)
        for a, b in c.pairs()
    }
    diag_table = np.stack([chars[(o, o)].T for o in ids])
    return ranks, diag_table, chars


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
    # the two differ by a gauge only: equal ranks and diagonal tables,
    # and characters that differ by a unit phase per class and block,
    # multiplicative across blocks
    spec = du.spectrum(make())
    ranks, diag_table, chars = reference_parts(spec)
    assert spec.ranks.tolist() == ranks
    assert np.allclose(spec.diag_table, diag_table, atol=1e-11)
    assert_same_characters_up_to_gauge(spec, chars)


def assert_same_characters_up_to_gauge(spec, chars):
    """``spec``'s coefficients on every block's basis equal ``chars``
    (``(a, b) -> (n, k)``, classes in ``spec``'s order) times a unit
    phase per class and block, multiplicative across blocks."""
    c, k = spec.category, spec.n_classes
    ids = list(enumerate(c.object_ids))
    phase = np.empty((k, len(ids), len(ids)), dtype=complex)
    for (ai, a), (bi, b) in itertools.product(ids, repeat=2):
        got = spec.coefficients(a, b, np.array(c.block(a, b)))
        want = chars[(a, b)]
        assert np.allclose(np.abs(got), np.abs(want), atol=1e-11)
        top = np.argmax(np.abs(want), axis=0)  # per class, its largest value
        g = got[top, np.arange(k)] / want[top, np.arange(k)]
        assert np.allclose(np.abs(g), 1.0, atol=1e-11)
        assert np.allclose(got, want * g, atol=1e-11)
        phase[:, ai, bi] = g
    assert np.allclose(
        phase[:, :, :, None] * phase[:, None, :, :], phase[:, :, None, :], atol=1e-11
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: scramble(cc.linking_category(4, [2, 0, 3, 1], [1j, -1.0, 1.0, 1j]), 7),
        pauli_triangle,
        lambda: scramble(
            cc.groupoid_category(groups.connected_groupoid(3, groups.klein_four())), 9
        ),
        lambda: selftest.random_commutative_category(9),
    ],
)
def test_spectrum_is_the_same_from_every_anchor(make):
    # rotating the objects puts each one first in turn: the same ranks,
    # diagonal tables and characters up to a gauge, once the classes
    # are matched on their diagonal tables
    c = make()
    spec = du.spectrum(c)
    ids, k = c.object_ids, spec.n_classes
    # (class, object x element): each class's values on every diagonal block
    profile = np.swapaxes(spec.diag_table, 0, 1).reshape(k, -1)
    for shift in range(1, len(ids)):
        objects = c.objects[shift:] + c.objects[:shift]
        other = du.spectrum(cc.MatrixCategory(objects, c.blocks, c.unital))
        back = [other.category.object_ids.index(o) for o in ids]
        theirs = np.swapaxes(other.diag_table[back], 0, 1).reshape(k, -1)
        dist = np.linalg.norm(profile[:, None] - theirs[None], axis=-1)
        match = np.argmin(dist, axis=1)  # spec's class -> other's class
        assert sorted(match.tolist()) == list(range(k))
        assert np.all(dist[np.arange(k), match] < 1e-10)
        assert other.ranks[match].tolist() == spec.ranks.tolist()
        chars = {
            (a, b): other.coefficients(a, b, np.array(c.block(a, b)))[:, match]
            for a, b in c.pairs()
        }
        assert_same_characters_up_to_gauge(spec, chars)


def _count_joint_diagonalizations(monkeypatch):
    """Patch ``duality``'s ``joint_diagonalize`` to count its calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return joint_diagonalize(*args, **kwargs)

    monkeypatch.setattr(du, "joint_diagonalize", counted)
    return calls


def test_transport_matches_per_object_diagonalization_on_many_objects(monkeypatch):
    # 100 random commutative categories and 16 classes over 8 objects:
    # one diagonalization per spectrum, and the ranks and diagonal
    # tables of one diagonalization per object
    rng = np.random.default_rng(16)
    cats = [selftest.random_commutative_category(seed) for seed in range(100)]
    cats.append(cc.multi_linking(
        16,
        [rng.permutation(16) for _ in range(7)],
        [np.exp(2j * np.pi * rng.random(16)) for _ in range(7)],
    ))
    assert len(cats[-1].object_ids) == 8
    calls = _count_joint_diagonalizations(monkeypatch)
    for n, cat in enumerate(cats):
        spec = du.spectrum(cat)
        assert len(calls) == n + 1
        ranks, diag_table, _ = reference_parts(spec)
        assert spec.ranks.tolist() == ranks
        assert np.allclose(spec.diag_table, diag_table, atol=1e-11)


# --- spectrum's diagonal path ------------------------------------------------


def gauged_spaceoid(kind, n_points, n_objects, rng):
    """A trivial, linking or torsor-associated spaceoid under a random
    gauge, as the benchmark's spaceoid deck builds them."""
    if kind == "trivial":
        e = sp.trivial_spaceoid(n_points, n_objects)
    elif kind == "linking":
        phases = [np.exp(2j * np.pi * rng.random(n_points)) for _ in range(n_objects - 1)]
        e = sp.linking_spaceoid(n_points, phases)
    else:
        e = sp.torsor_associated(n_objects, n_points)
    return sp.apply_gauge(e, sp.random_gauge(rng, e.base_points, e.objects))


def rank2_diagonal_category(n_objects, ranks, seed):
    """A diagonal category read off classes of the given ranks: every
    class owns a random set of coordinates, the same on every object,
    each under a random phase of modulus exactly 1, so that the entries
    of a class on the anchor are exactly equal."""
    rng = np.random.default_rng(seed)
    d, phases = sum(ranks), np.array([1, 1j, -1, -1j])
    w = [np.zeros((n_objects * d, r), dtype=complex) for r in ranks]
    coords = np.split(rng.permutation(d), np.cumsum(ranks)[:-1])
    for i in range(n_objects):
        for p, rows in enumerate(coords):
            w[p][i * d + rows, np.arange(len(rows))] = rng.choice(phases, len(rows))
    objects = tuple((f"O{i}", d) for i in range(n_objects))
    return cc._from_classes(objects, w)


def diagonal_categories():
    """Gauged trivial, linking and torsor sections (70 of each), the
    classical categories up to 64 points, and diagonal categories with
    rank-2 classes."""
    rng = np.random.default_rng(36)
    cats = []
    for i in range(210):
        kind = ("trivial", "linking", "torsor")[i % 3]
        n_objects = int(rng.integers(2 if kind == "linking" else 1, 6))
        e = gauged_spaceoid(kind, int(rng.integers(1, 13)), n_objects, rng)
        cats.append(du.sections(e))
    cats += [du.classical_category(k) for k in (1, 2, 3, 16, 64)]
    cats += [rank2_diagonal_category(3, [2, 1, 2], s) for s in range(4)]
    return cats


def dense_reference(c, tol=1e-9):
    """The bases, compressions and block maps of the dense path, formed
    here: the transported bases and the two products."""
    ids = c.object_ids
    o, n = len(ids), c.block_dim(ids[0], ids[0])
    x = np.array([c.block(a, b) for a, b in c.pairs()], dtype=complex)
    x = x.reshape((o, o, n) + x.shape[-2:])
    eig = joint_diagonalize(x[0, 0], tol)
    bases, _ = du._transported_bases(x, ids, eig, tol)
    comp = np.conj(np.swapaxes(bases, -1, -2))[:, None, None] @ x @ bases[None, :, None]
    coeffs = du._class_means(np.diagonal(comp, axis1=-2, axis2=-1), eig.sizes)
    return bases, comp, np.swapaxes(coeffs, -1, -2)


def diagonal_and_off_norms(comp):
    """The diagonals of a stack of compressions and the HS norms of what
    they hold off them."""
    diag = np.diagonal(comp, axis1=-2, axis2=-1)
    off = comp - diag[..., None] * np.eye(comp.shape[-1])
    return diag, np.linalg.norm(off, axis=(-2, -1))


def _spy_on_dense_parts(monkeypatch):
    """Patch ``duality._dense_parts`` to count its calls."""
    calls = []
    dense = du._dense_parts

    def counted(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(du, "_dense_parts", counted)
    return calls


def test_diagonal_path_matches_the_dense_products(monkeypatch):
    calls = _spy_on_dense_parts(monkeypatch)
    cats = diagonal_categories()
    assert len(cats) >= 215
    for c in cats:
        spec = du.spectrum(c)
        bases, comp, maps = dense_reference(c)
        diag, off = diagonal_and_off_norms(comp)
        assert np.abs(spec.bases - bases).max() <= 1e-15
        assert np.abs(spec.diagonals - diag).max() <= 1e-15
        # the dense products are exactly zero off their diagonals too
        assert not off.any() and not spec.off_norms.any()
        assert np.abs(spec.block_maps - maps).max() <= 1e-15
    assert not calls


def _near_cluster_category():
    # the anchor's rank-2 class has diagonal entries 1e-12 apart, inside
    # the cluster cut, so numkit takes its seeded route
    c = rank2_diagonal_category(2, [2, 1], 0)
    anchor = c.block("O0", "O0")
    big = int(np.argmax([np.count_nonzero(m) for m in anchor]))
    first = np.flatnonzero(np.diagonal(anchor[big]))[0]
    nudged = anchor[big].copy()
    nudged[first, first] *= 1 + 1e-12
    blocks = dict(c.blocks)
    blocks["O0", "O0"] = [nudged if i == big else m for i, m in enumerate(anchor)]
    assert numkit._diagonal_joint(np.array(blocks["O0", "O0"])) is None
    return cc.MatrixCategory(c.objects, blocks, c.unital)


def _picked_zero_category():
    # one rank-2 class; block (A, B)'s one element has a zero where the
    # transport reads its phase
    eye = np.eye(2) / np.sqrt(2)
    return _two_object_family([eye], [eye], [np.diag([1.0, 0.0])])


@pytest.mark.parametrize("make, error", [
    (_near_cluster_category, None),
    (_picked_zero_category, NotFull),
    (lambda: scramble(du.sections(random_spaceoid(7, n_points=4, n_objects=3)), 3), None),
], ids=["near-cluster", "picked-zero", "scrambled"])
def test_diagonal_path_falls_back_to_the_dense_one(monkeypatch, make, error):
    c = make()
    calls = _spy_on_dense_parts(monkeypatch)
    if error is not None:
        # the element with the zero is not a multiple of a unitary
        with pytest.raises(error):
            du.spectrum(c)
        assert len(calls) == 1
        return
    got = du.spectrum(c)
    assert len(calls) == 1
    bases, comp, maps = dense_reference(c)
    diag, off = diagonal_and_off_norms(comp)
    assert np.array_equal(got.bases, bases)
    assert np.allclose(got.diagonals, diag, rtol=0, atol=1e-15)
    assert np.allclose(got.off_norms, off, rtol=0, atol=1e-15)
    assert np.allclose(got.block_maps, maps, rtol=0, atol=1e-15)


def _with_block(c, pair, basis):
    return cc.MatrixCategory(c.objects, {**c.blocks, pair: basis}, c.unital)


def _planted_nan():
    c = du.sections(random_spaceoid(5, n_points=3, n_objects=2))
    basis = [m.copy() for m in c.block("O1", "O2")]
    basis[1][2, 2] = np.nan
    return _with_block(c, ("O1", "O2"), basis)


def _vanishing_class():
    # point 0's element of block (O2, O3) is 1e-9 of a unit, so point
    # 0's class vanishes there; the anchor's blocks carry every class
    c = du.sections(random_spaceoid(6, n_points=3, n_objects=3))
    basis = list(c.block("O2", "O3"))
    basis[0] = 1e-9 * basis[0]
    return _with_block(c, ("O2", "O3"), basis)


def _dimension_mismatch():
    # O2 is O1's space embedded in four dimensions: the dimension check
    # raises AmbiguousMatching, and the category is not full
    c = du.sections(random_spaceoid(8, n_points=3, n_objects=2))
    e = np.eye(4)[:, :3]
    blocks = {
        (a, b): [
            (e if a == "O2" else np.eye(3)) @ m @ (e if b == "O2" else np.eye(3)).T
            for m in basis
        ]
        for (a, b), basis in c.blocks.items()
    }
    return cc.MatrixCategory((("O1", 3), ("O2", 4)), blocks, True)


def _diagonal_lift():
    # one element 5e-8 off its class model along its diagonal, inside a
    # rank-2 class: the certificate misses, and the explicit lift clears it
    c = rank2_diagonal_category(3, [2, 1, 2], 5)
    basis = [m.copy() for m in c.block("O1", "O2")]
    row = np.flatnonzero(np.diagonal(basis[0]))[0]
    basis[0][row, row] += 5e-8
    return _with_block(c, ("O1", "O2"), basis)


@pytest.mark.parametrize("make, error", [
    (_planted_nan, ValueError),
    (_vanishing_class, NotFull),
    (_dimension_mismatch, NotFull),
    (_diagonal_lift, None),
], ids=["nan", "vanishing-class", "dimension-mismatch", "explicit-lift"])
def test_both_paths_give_the_same_verdict(monkeypatch, make, error):
    c = make()

    def outcome():
        try:
            return du.spectrum(c)
        except Exception as exc:
            return exc

    lifted = []
    lift = du.SpectrumResult._lift
    monkeypatch.setattr(
        du.SpectrumResult, "_lift", lambda *a: lifted.append(1) or lift(*a)
    )
    calls = _spy_on_dense_parts(monkeypatch)
    diagonal = outcome()
    assert not calls
    monkeypatch.setattr(du, "_diagonal_parts", lambda *args: None)
    dense = outcome()
    if error is not None:
        assert type(diagonal) is type(dense) is error
        assert str(diagonal) == str(dense)
        return
    assert lifted == [1, 1]
    assert np.array_equal(diagonal.bases, dense.bases)
    assert np.allclose(diagonal.diagonals, dense.diagonals, rtol=0, atol=1e-15)
    assert not diagonal.off_norms.any()
    assert np.allclose(dense.off_norms, 0, rtol=0, atol=1e-15)
    assert np.allclose(diagonal.block_maps, dense.block_maps, rtol=0, atol=1e-15)


def residual_rows(spec, maps):
    """The rows ``(o, o, n, d*d)`` of ``T(e) - blockdiag_p(c_p(e) I)``,
    each compression ``T(e) = U_A* e U_B`` formed here from the
    spectrum's bases and elements, and ``c(e)`` read from ``maps``."""
    uh = np.conj(np.swapaxes(spec.bases, -1, -2))
    comp = uh[:, None, None] @ spec.elements @ spec.bases[None, :, None]
    i = np.arange(comp.shape[-1])
    comp[..., i, i] -= np.repeat(np.swapaxes(maps, -1, -2), spec.ranks, axis=-1)
    return comp.reshape(comp.shape[:3] + (-1,))


def test_eta_from_the_diagonals_is_the_norm_of_the_residual_rows(monkeypatch):
    # gelfand's eta, read off the compressions' diagonals and the norms
    # of what they hold off them, on the benchmark's seed-101 category
    # deck, scrambled groupoids (the dense path) and the sections of
    # gauged spaceoids (the diagonal path)
    seen = []
    measure = du._compressions
    monkeypatch.setattr(
        du, "_compressions", lambda *args: seen.append(args) or measure(*args)
    )
    w = workloads.WORKLOADS["category-roundtrip"]
    for case in w.make_deck(101):
        assert w.run(*case.inputs)[0], case.label
    rng = np.random.default_rng(38)
    diagonal = [
        du.sections(gauged_spaceoid(kind, 5, 3, rng))
        for kind in ("trivial", "linking", "torsor")
    ]
    dense = [
        scramble(cc.groupoid_category(groups.connected_groupoid(3, group)), seed)
        for seed, group in enumerate([groups.cyclic(4), groups.klein_four()])
    ]
    for c in diagonal + dense:
        assert du.gelfand(c).report.passed
    assert len(seen) == 43 + len(diagonal) + len(dense)
    assert not any(spec.off_norms.any() for spec, _ in seen[43:46])
    assert all(spec.off_norms.any() for spec, _ in seen[46:])
    # one element moved by 1e-10 in a random direction, inside the
    # completeness cut: its compression holds about that much off its
    # diagonal
    c = dense[0]
    basis = [m.copy() for m in c.block("X1", "X2")]
    basis[1] += 1e-10 * rand_unitary(rng, len(basis[1])) / 2
    spec = du.spectrum(_with_block(c, ("X1", "X2"), basis))
    assert spec.off_norms.max() > 1e-11
    seen.append((spec, spec.block_maps))
    for spec, maps in seen:
        q = measure(spec, maps)
        want = np.linalg.norm(residual_rows(spec, maps), axis=-1)
        assert np.all(np.abs(q.eta - want) <= 1e-15 * (1 + q.norm))


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


@pytest.mark.parametrize("shape", [(2, 1), (5, 3), (8, 2)])
def test_evaluation_reads_the_section_anchor_off_its_diagonal(monkeypatch, shape):
    # every element of the anchor's diagonal block is conj(g) E_pp, so
    # joint_diagonalize makes no seeded attempt, and the round trip passes
    def seeded(*args):
        raise AssertionError("a seeded attempt ran")

    e = random_spaceoid(40 + shape[0], *shape)
    monkeypatch.setattr(numkit, "_attempt_joint", seeded)
    ev = du.evaluation(e, 1e-9)
    assert sp.validate_morphism(ev.morphism, e, ev.spectrum.spaceoid, 1e-9).passed
    assert sp._base_bijective(ev.morphism, ev.spectrum.spaceoid)
    rep = du.roundtrip_spaceoid(e, 1e-9)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("kind", ["trivial", "linking", "torsor"])
@pytest.mark.parametrize("shape", [(48, 5), (96, 2)], ids=["48x5", "96x2"])
def test_roundtrip_spaceoid_passes_past_24_points(monkeypatch, kind, shape):
    n_points, n_objects = shape
    e = gauged_spaceoid(kind, n_points, n_objects, np.random.default_rng(n_points))
    spectra = []
    spectrum = du.spectrum

    def kept(*args):
        spectra.append(spectrum(*args))
        return spectra[-1]

    monkeypatch.setattr(du, "spectrum", kept)
    rep = du.roundtrip_spaceoid(e, 1e-9)
    assert rep.passed, rep.summary()
    assert [c.passed for c in rep.checks if c.name == "evaluation-isomorphism"] == [True]
    assert [s.n_classes for s in spectra] == [n_points]


def test_roundtrip_spaceoid_with_nan_reports_failure():
    base = sp.trivial_spaceoid(3, 2)
    bad = base.table.copy()
    bad[1, 0, 1, 0] = np.nan  # (p1, O1, O2, O1)
    rep = du.roundtrip_spaceoid(sp.SpaceoidData(base.base_points, base.objects, bad))
    assert not rep.passed
    assert "input-unimodular" in {c.name for c in rep.failures()}


def test_round_trips_validate_each_table_once(monkeypatch):
    # roundtrip_spaceoid validates its input, and roundtrip_category the
    # spectrum's table, exactly once: evaluation and gelfand build their
    # sections without validating again
    calls = []
    validate = sp.validate

    def counted(e, tol=None):
        calls.append(e)
        return validate(e, tol)

    monkeypatch.setattr(sp, "validate", counted)
    monkeypatch.setattr(du, "validate", counted)
    e = random_spaceoid(7)
    assert du.roundtrip_spaceoid(e).passed
    assert len(calls) == 1 and calls[0] is e
    calls.clear()
    assert du.roundtrip_category(cc.linking_category(3, [1, 2, 0])).passed
    assert len(calls) == 1


def test_evaluation_alone_rejects_an_invalid_table():
    base = sp.trivial_spaceoid(2, 2)
    bad = base.table.copy()
    bad[0, 0, 0, 1] = 1j  # (p0, O1, O1, O2)
    with pytest.raises(InvalidSpaceoid):
        du.evaluation(sp.SpaceoidData(base.base_points, base.objects, bad))


def test_re_spectrum_constants_fold_counts_nan(monkeypatch):
    # a NaN in the last structure constant of the re-computed spectrum
    # (the position a plain max() fold drops) must fail the check
    evaluation = du.evaluation

    def broken(e, tol, seed, **private):
        ev = evaluation(e, tol, seed, **private)
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
    class coefficients (classes along the last axis) pass through
    ``change``."""
    spectrum = du.spectrum

    def planted(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        coeffs = np.swapaxes(spec.block_maps, -1, -2)
        spec.block_maps = np.swapaxes(change(coeffs), -1, -2)
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

    def collapsed(e, tol, seed, **private):
        ev = evaluation(e, tol, seed, **private)
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
    # each fiber scalar is v_A conj(v_B) g, one Python complex
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
            assert abs(w.value(a, a, np.eye(c.dim(a))) - 1.0) < 1e-10
    return chars


def test_characters_multiplicative_and_involutive():
    c = cc.multi_linking(2, [[1, 0]], [[1j, -1.0]])
    assert len(assert_character_laws(c)) == 2


def test_characters_of_rank2_class_with_complex_gauge():
    # X in (A, B) and diag(1, w) in (B, C) close to one rank-2 class,
    # in scrambled coordinates; its characters stay multiplicative
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
    assert abs(abs(lam) - 1.0) < 1e-10
    assert len(assert_character_laws(c)) == 1


def test_match_classes_without_fit_is_mismatch():
    table = du.spectrum(du.classical_category(2)).diag_table  # (1, 2, 2)
    with pytest.raises(SpectrumMismatch):
        # no class takes this value
        du._match_classes(table, np.full((1, 1, 2), 17.0), 1e-9)
    # the characters in reverse class order match back
    assert du._match_classes(table, table[:, ::-1], 1e-9).tolist() == [1, 0]
    # classes 0 and 1 agree on the first object and differ on the
    # second: that object alone fits both, the two together one
    table = np.array([[[1.0, 2.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
    values = np.array([[[1.0, 2.0]], [[0.0, 1.0]]])
    with pytest.raises(AmbiguousMatching, match="2 spectrum classes"):
        du._match_classes(table[:1], values[:1], 1e-9)
    assert du._match_classes(table, values, 1e-9).tolist() == [1]
    values[1, 0, 0] = np.nan
    with pytest.raises(SpectrumMismatch):
        du._match_classes(table, values, 1e-9)


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


def test_unitary_equivalence_gauge_takes_an_empty_block_as_vanishing():
    # two lines with no morphisms between them: the empty blocks take
    # the vanishing branch, psi = 1, instead of an argmax of nothing
    one = np.ones((1, 1), dtype=complex)
    c = cc.MatrixCategory(
        (("A", 1), ("B", 1)),
        {("A", "A"): [one], ("A", "B"): [], ("B", "A"): [], ("B", "B"): [one]},
        unital=True,
    )

    def w1(a, b, x):
        return complex(x[0, 0])

    psi = du.unitary_equivalence_gauge(w1, w1, c)
    assert {pair: psi.at(*pair) for pair in c.pairs()} == dict.fromkeys(c.pairs(), 1)


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
    (class, pair) unit."""

    def character(spec, j):
        def value(a, b, x):
            return spec.coefficients(a, b, x)[j]

        return value

    def class_unit(spec, i, a, b):
        start = int(np.cumsum(spec.ranks)[i] - spec.ranks[i])
        cols = slice(start, start + spec.ranks[i])
        ai, bi = (spec.spaceoid.objects.index(o) for o in (a, b))
        u_a, u_b = spec.bases[ai][:, cols], spec.bases[bi][:, cols]
        return u_a @ u_b.conj().T

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
                u1 = class_unit(spec1, i, inv[a2], inv[b2])
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


def random_functor_cases():
    """``selftest.random_functor`` draws, as criterion 3 makes them: a
    random commutative category and a scrambled copy joined by a random
    phase automorphism."""
    cases = []
    for seed in range(12):
        cat = selftest.random_commutative_category(700 + seed, 5, 4)
        phi, target = selftest.random_functor(800 + seed, cat)
        cases.append((f"random functor {seed}", cat, target, phi))
    return cases


@pytest.mark.parametrize(
    "case", induced_map_cases() + random_functor_cases(), ids=lambda c: c[0]
)
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
    # each fiber scalar is spaceoid._unit, bit for bit, of its class
    # unit's image's coefficient read off the block maps, C2 Phi C1*
    # diag(r): the rounding rule of lambda and of evaluation's scalars,
    # not numpy's complex-by-real division; that coefficient is the one
    # of the materialized image of the lifted class unit
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
                c1 = spec1.block_maps[spec1._index(a1, b1)]
                c2 = spec2.block_maps[spec2._index(a2, b2)]
                units = c1.conj().T * spec1.ranks
                z = (c2 @ phi.block_maps[(a1, b1)] @ units)[cls, match]
                assert sp._unit(z).tobytes() == m.fiber_scalars[:, i, j].tobytes()
                lifted = spec1._lift(*spec1._index(a1, b1), np.eye(spec1.n_classes))
                img = cc.functor_image(phi, source, target, a1, b1, lifted)
                want = spec2.coefficients(a2, b2, img)[match, cls]
                assert np.abs(z - want).max() <= 1e-12


def test_spectrum_on_morphism_rejects_a_non_injective_object_map(monkeypatch):
    source = cc.linking_category(2, [0, 1])
    target = du.classical_category(2)
    phi = cc.StarFunctor(
        {"A": "A", "B": "A"},
        {pair: np.eye(2, dtype=complex) for pair in source.pairs()},
    )
    assert not cc.validate_functor(phi, source, target).passed

    def no_spectrum(*args, **kwargs):
        raise AssertionError("the object map is checked first")

    monkeypatch.setattr(du, "spectrum", no_spectrum)
    with pytest.raises(InvalidFunctor, match="bijection"):
        du.spectrum_on_morphism(phi, source, target)


def test_spectrum_on_morphism_names_a_block_map_of_the_wrong_shape(monkeypatch):
    cat = cc.linking_category(2, [1, 0], [1, 1j])
    phi = cc.identity_functor(cat)
    phi.block_maps[("A", "B")] = np.eye(2, 3)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("the block maps are checked first")

    monkeypatch.setattr(du, "spectrum", no_spectrum)
    want = r"block map \(A,B\) has shape \(2, 3\), expected \(2, 2\)"
    with pytest.raises(InvalidFunctor, match=want):
        du.spectrum_on_morphism(phi, cat, cat)


def test_induced_maps_read_only_the_block_maps(monkeypatch):
    # the induced morphism and the naturality square are k x k algebra
    # on the block maps: no element is lifted, imaged or compressed, and
    # no gelfand certificate runs
    _, source, target, phi = induced_map_cases()[2]
    spec1, spec2 = du.spectrum(source), du.spectrum(target)
    want = du.spectrum_on_morphism(
        phi, source, target, source_spectrum=spec1, target_spectrum=spec2
    )
    square = du._functor_naturality(phi, source, target, 1e-9, 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("a d x d route was taken")

    for name in ("coefficients", "_lift"):
        monkeypatch.setattr(du.SpectrumResult, name, forbidden)
    for name in ("_image", "functor_image"):
        monkeypatch.setattr(cc, name, forbidden)
    monkeypatch.setattr(du, "gelfand", forbidden)
    got = du.spectrum_on_morphism(
        phi, source, target, source_spectrum=spec1, target_spectrum=spec2
    )
    assert sp.morphism_distance(got, want) == 0.0
    assert du._functor_naturality(phi, source, target, 1e-9, 0) == square


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
