"""Functional calculus against the SVD/eigendecomposition oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectroid import funcalc as fc
from spectroid.errors import NotNormal, SpectrumMismatch
from spectroid.numkit import op_norm


def rand_rect(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def rand_normal_matrix(rng, n):
    z = rand_rect(rng, n, n)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return q @ np.diag(w) @ q.conj().T


# --- spectrum_of_element ------------------------------------------------------


def test_spectrum_of_row_vector():
    pts = fc.spectrum_of_element(np.array([[3.0, 4.0]]), "A", "B")
    assert np.allclose(pts, [5.0], atol=1e-12)


def test_spectrum_of_diagonal_with_multiplicity():
    pts = fc.spectrum_of_element(np.diag([2.0, 2.0, 3.0]), "A", "A")
    assert np.allclose(pts, [2.0, 3.0], atol=1e-12)


def test_spectrum_of_nilpotent_cross_object():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    pts = fc.spectrum_of_element(x, "A", "B")
    assert np.allclose(pts, [1.0], atol=1e-12)


def test_spectrum_same_object_requires_normal():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotNormal):
        fc.spectrum_of_element(x, "A", "A")


def test_spectrum_of_zero_is_empty():
    assert fc.spectrum_of_element(np.zeros((2, 3)), "A", "B").size == 0


# --- frozen funcalc examples --------------------------------------------------


def test_identity_table_returns_x():
    x = np.array([[3.0, 4.0]])
    f = fc.SpectralFunction.from_table({5.0: 5.0})
    out = fc.funcalc(x, "A", "B", f)
    assert np.allclose(out, x, atol=1e-12)


def test_sqrt_table():
    x = np.array([[3.0, 4.0]])
    f = fc.SpectralFunction.from_table({5.0: np.sqrt(5.0)})
    out = fc.funcalc(x, "A", "B", f)
    assert np.allclose(out, x / np.sqrt(5.0), atol=1e-12)


def test_cube_polynomial_is_matrix_product():
    rng = np.random.default_rng(3)
    x = rand_rect(rng, 6, 4)
    f = fc.SpectralFunction.from_coeffs([0, 0, 0, 1.0])
    out = fc.svd_oracle(x, "A", "B", f)
    assert np.allclose(out, x @ (x.conj().T @ x), atol=1e-9)
    assert np.allclose(fc.funcalc(x, "A", "B", f), out, atol=1e-8)


def test_normal_sign_table():
    x = np.diag([1j, -1j])
    f = fc.SpectralFunction.from_table({1j: 1.0, -1j: -1.0})
    out = fc.svd_oracle(x, "A", "A", f)
    assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-12)
    assert np.allclose(fc.funcalc(x, "A", "A", f), out, atol=1e-10)


def test_zero_element():
    x = np.zeros((2, 2))
    assert np.allclose(fc.funcalc(x, "A", "B", fc.SpectralFunction()), 0.0)
    with pytest.raises(SpectrumMismatch):
        fc.funcalc(x, "A", "B", fc.SpectralFunction.from_table({1.0: 1.0}))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "b_id, x",
    [("B", np.arange(6.0).reshape(2, 3)), ("A", np.diag([1.0, 2.0, 3.0]))],
    ids=["A-B", "A-A"],
)
def test_non_finite_element_is_rejected_up_front(monkeypatch, b_id, x, bad):
    # spectrum's contract: ValueError before any norm, closure or warning
    x = x.astype(complex)
    x[0, 1] = bad

    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was taken")

    monkeypatch.setattr(fc, "op_norm", no_norm)
    with pytest.raises(ValueError, match="non-finite"):
        fc.funcalc(x, "A", b_id, fc.SpectralFunction.from_coeffs([0.0, 1.0]))


def test_wrong_table_key_rejected():
    x = np.array([[3.0, 4.0]])
    with pytest.raises(SpectrumMismatch):
        fc.funcalc(x, "A", "B", fc.SpectralFunction.from_table({4.0: 1.0}))
    # superfluous keys are wrong too: the table must cover exactly
    with pytest.raises(SpectrumMismatch):
        fc.funcalc(
            x, "A", "B", fc.SpectralFunction.from_table({5.0: 1.0, 9.0: 2.0})
        )


# --- oracle equivalence -------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
# an 8x8 draw with a degree-5 polynomial: 1.7e-6 off the oracle, with
# every block of its closure at rank 8, inside criterion 6's bound
@example(seed=1_152_865_252)
def test_rectangular_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    x = rand_rect(rng, m, n)
    deg = int(rng.integers(1, 6))
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[1:] = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    f = fc.SpectralFunction.from_coeffs(coeffs)
    got = fc.funcalc(x, "A", "B", f)
    want = fc.svd_oracle(x, "A", "B", f)
    # criterion 6's bound: relative to |f| on the spectrum, not to the
    # coefficients
    fmax = max((abs(f(s)) for s in fc.spectrum_of_element(x, "A", "B")), default=0.0)
    assert op_norm(got - want) <= 1e-8 * (1 + fmax)


def coeff_sum(f):
    """``sum |c_k|``, a bound on ``|f|`` over the unit disc."""
    return float(sum(abs(c) for c in f.coeffs))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_normal_square_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    x = rand_normal_matrix(rng, n)
    coeffs = np.concatenate(
        [[0], rng.standard_normal(3) + 1j * rng.standard_normal(3)]
    )
    f = fc.SpectralFunction.from_coeffs(coeffs)
    got = fc.funcalc(x, "A", "A", f)
    want = fc.svd_oracle(x, "A", "A", f)
    assert op_norm(got - want) <= 1e-8 * (1 + coeff_sum(f))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
# these draws must close without drift and give x back exactly
@example(seed=197)
@example(seed=763)
@example(seed=1945)
def test_identity_function_exact(seed):
    rng = np.random.default_rng(seed)
    x = rand_rect(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    out = fc.funcalc(x, "A", "B", lambda s: s)
    assert op_norm(out - x) <= 1e-10 * (1 + op_norm(x))


def test_rank_deficient_element():
    rng = np.random.default_rng(11)
    # 5x3 of rank 2: both kernels are nontrivial and must be dropped
    x = rand_rect(rng, 5, 2) @ rand_rect(rng, 2, 3)
    f = fc.SpectralFunction.from_coeffs([0, 2.0, 0.5])
    got = fc.funcalc(x, "A", "B", f)
    want = fc.svd_oracle(x, "A", "B", f)
    assert op_norm(got - want) <= 1e-8 * (1 + coeff_sum(f))


def test_repeated_singular_value():
    # x = 3 * unitary has one class of full rank
    rng = np.random.default_rng(13)
    z = rand_rect(rng, 4, 4)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    x = 3.0 * q
    f = fc.SpectralFunction.from_table({3.0: -1j})
    got = fc.funcalc(x, "A", "B", f)
    assert np.allclose(got, -1j * q, atol=1e-9)


# --- structural properties ----------------------------------------------------


def test_star_functoriality():
    rng = np.random.default_rng(17)
    x = rand_rect(rng, 4, 6)
    f = fc.SpectralFunction.from_coeffs([0, 1.0, 2j, -0.5])

    def f_conj(s):
        return np.conj(f(np.conj(s)))

    lhs = fc.funcalc(x.conj().T, "B", "A", f_conj)
    rhs = fc.funcalc(x, "A", "B", f).conj().T
    assert op_norm(lhs - rhs) <= 1e-9 * (1 + coeff_sum(f))


def test_isometry_of_the_calculus():
    rng = np.random.default_rng(19)
    x = rand_rect(rng, 5, 5) + np.eye(5) * 0.1
    f = fc.SpectralFunction.from_coeffs([0, 0.3, -1j, 0.2])
    out = fc.funcalc(x, "A", "B", f)
    pts = fc.spectrum_of_element(x, "A", "B")
    best = max(abs(f(complex(s))) for s in pts)
    assert abs(op_norm(out) - best) <= 1e-9 * (1 + best)


def test_indicator_gives_scaled_partial_isometry():
    rng = np.random.default_rng(23)
    x = rand_rect(rng, 4, 4)
    pts = fc.spectrum_of_element(x, "A", "B")
    s = complex(pts[-1])
    table = {complex(p): (s if abs(p - s) < 1e-10 else 0.0) for p in pts}
    f = fc.SpectralFunction.from_table(table)
    out = fc.funcalc(x, "A", "B", f)
    # out = s * u for the singular subspace's partial isometry, so
    # out out* is s^2 times the corresponding spectral projection
    u, sv, vh = np.linalg.svd(x)
    i = int(np.argmin(np.abs(sv - s.real)))
    proj = np.outer(u[:, i], u[:, i].conj())
    assert np.allclose(out @ out.conj().T, (s.real**2) * proj, atol=1e-8)


def test_funcalc_result_in_generated_block():
    from spectroid.cstarcat import generated_by
    from spectroid.numkit import hs_member

    rng = np.random.default_rng(29)
    x = rand_rect(rng, 3, 5)
    f = fc.SpectralFunction.from_coeffs([0, 0, 1.0])
    out = fc.funcalc(x, "A", "B", f)
    cat = generated_by(x)
    member, residual, _ = hs_member(out, cat.block("A", "B"), 1e-9)
    assert member, residual


# --- closure size -------------------------------------------------------------


def drift_element():
    """test_identity_function_exact's draw for seed 18620970, a 7x7
    element whose closure must stay at rank 7 in every block (no
    rounding residue kept as a new direction) and whose identity
    function must give it back to 1e-10."""
    rng = np.random.default_rng(18620970)
    return rand_rect(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))


def test_closure_never_exceeds_block_dimension():
    from spectroid.cstarcat import generated_by

    x = drift_element()
    cat = generated_by(x)
    assert x.shape == (7, 7)
    for pair in cat.blocks:
        assert cat.block_dim(*pair) == 7, pair
    out = fc.funcalc(x, "A", "B", lambda s: s)
    assert op_norm(out - x) <= 1e-10 * (1 + op_norm(x))


def benchmark_rectangles():
    """The 144 rectangular elements of the benchmark's funcalc deck:
    sides 1-12, drawn from its fixed rectangle seed 0 in the same order,
    three in ten with a planted kernel.  Each comes with a degree 1-5
    polynomial with zero constant term from a separate stream."""
    rect_rng, f_rng = np.random.default_rng(0), np.random.default_rng(101)
    rect = [(qa, qb) for qa in range(1, 13) for qb in range(1, 13)]
    for j, (qa, qb) in enumerate(rect):
        erng = np.random.default_rng(int(rect_rng.integers(2**63)))
        x = rand_rect(erng, qa, qb)
        label = f"rect {qa}x{qb}"
        if j % 10 in (2, 5, 8) and min(qa, qb) > 1:
            r = 1 + j % (min(qa, qb) - 1)
            u, sv, vh = np.linalg.svd(x, full_matrices=False)
            x = (u[:, :r] * sv[:r]) @ vh[:r]
            label += f" rank {r}"
        deg = int(f_rng.integers(1, 6))
        coeffs = np.zeros(deg + 1, dtype=complex)
        coeffs[1:] = f_rng.standard_normal(deg) + 1j * f_rng.standard_normal(deg)
        yield pytest.param(x, fc.SpectralFunction.from_coeffs(coeffs), id=label)


@pytest.mark.parametrize("x, f", benchmark_rectangles())
def test_benchmark_rectangles_close_on_their_singular_values(x, f):
    # each block of the generated category has one dimension per
    # distinct nonzero singular value and a basis orthonormal within
    # check_axioms' bound, and funcalc meets the oracle within criterion
    # 6's bound, 1e-8 (1 + max |f| over the spectrum)
    from spectroid.config import DEFAULT_TOL, GRAM_SLACK
    from spectroid.cstarcat import generated_by

    points = fc.spectrum_of_element(x, "A", "B")
    cat = generated_by(x)
    for pair, basis in cat.blocks.items():
        assert len(basis) == len(points), pair
        q = np.reshape(basis, (len(basis), -1))
        gram = np.linalg.norm(q.conj() @ q.T - np.eye(len(q)))
        assert gram <= GRAM_SLACK * DEFAULT_TOL, pair
    fmax = max((abs(f(s)) for s in points), default=0.0)
    got, want = fc.funcalc(x, "A", "B", f), fc.svd_oracle(x, "A", "B", f)
    assert op_norm(got - want) <= 1e-8 * (1 + fmax)


# --- whole-eigenbasis funcalc against the per-class reference -----------------


def reference_funcalc(x, a_id, b_id, f, tol=1e-9, seed=0):
    """funcalc by one compression per class and class pair, from its
    own joint diagonalization of every object of the generated
    category, classes matched across objects by their norms."""
    from spectroid.cstarcat import generated_by
    from spectroid.errors import AmbiguousMatching
    from spectroid.numkit import hs_norm, joint_diagonalize

    def iso(eig, b):
        return eig.unitary[:, eig.starts[b]:eig.starts[b] + eig.sizes[b]]

    def surviving(eig, gens, thresh):
        keep = []
        for b in range(eig.n_blocks):
            v = iso(eig, b)
            if any(
                hs_norm(v.conj().T @ g @ v) > thresh * np.sqrt(v.shape[1])
                for g in gens
            ):
                keep.append(b)
        return keep

    x = np.asarray(x, dtype=complex)
    scale = op_norm(x)
    cat = generated_by(x, a_id, b_id, tol)
    thresh = tol * 10 * (1 + scale)
    parts = []
    if a_id == b_id:
        fam = list(cat.block(a_id, a_id))
        eig = joint_diagonalize(fam + [np.eye(len(x), dtype=complex)], tol, seed=seed)
        for b in surviving(eig, fam, tol * (1 + scale)):
            v = iso(eig, b)
            lam = complex(np.trace(v.conj().T @ x @ v) / v.shape[1])
            if abs(lam) > thresh:
                parts.append((lam, v @ (v.conj().T @ x @ v) @ v.conj().T / lam))
    else:
        fam_a = list(cat.block(a_id, a_id))
        fam_b = list(cat.block(b_id, b_id))
        eig_a = joint_diagonalize(fam_a + [np.eye(x.shape[0])], tol, seed=seed)
        eig_b = joint_diagonalize(fam_b + [np.eye(x.shape[1])], tol, seed=seed)
        keep_a = surviving(eig_a, fam_a, tol * (1 + scale))
        keep_b = surviving(eig_b, fam_b, tol * (1 + scale))
        if len(keep_a) != len(keep_b):
            raise AmbiguousMatching("sides disagree")
        used = set()
        for i in keep_a:
            vi = iso(eig_a, i)
            hits = [
                j for j in keep_b if hs_norm(vi.conj().T @ x @ iso(eig_b, j)) > thresh
            ]
            if len(hits) != 1 or hits[0] in used:
                raise AmbiguousMatching("not a bijection")
            used.add(hits[0])
            wj = iso(eig_b, hits[0])
            comp = vi.conj().T @ x @ wj
            s = op_norm(comp)
            parts.append((complex(s), vi @ comp @ wj.conj().T / s))
    fc._check_table_covers(f, [p for p, _ in parts], scale)
    out = np.zeros_like(x)
    for p, frame in parts:
        out += fc._call(f, p, scale) * frame
    return out


def planted_rank(rng, m, n, r):
    return rand_rect(rng, m, r) @ rand_rect(rng, r, n)


def with_spectrum(rng, m, n, values, normal=False):
    """``U diag(values) V*`` for random partial isometries ``U, V`` (``V
    = U`` for a normal square element)."""
    u, _ = np.linalg.qr(rand_rect(rng, m, m))
    v = u if normal else np.linalg.qr(rand_rect(rng, n, n))[0]
    k = len(values)
    return (u[:, :k] * np.asarray(values)) @ v[:, :k].conj().T


def reference_cases():
    rng = np.random.default_rng(71)
    q, _ = np.linalg.qr(rand_rect(rng, 4, 4))
    return [
        ("kernel 5x3 rank 2", planted_rank(rng, 5, 3, 2), "B"),
        ("kernel 6x4 rank 1", planted_rank(rng, 6, 4, 1), "B"),
        ("kernel 7x7 rank 4", planted_rank(rng, 7, 7, 4), "B"),
        ("kernel 3x8 rank 2", planted_rank(rng, 3, 8, 2), "B"),
        ("3 unitary", 3.0 * q, "B"),
        ("repeated 5x6", with_spectrum(rng, 5, 6, [2.0, 2.0, 0.5]), "B"),
        ("row vector", np.array([[3.0, 4.0]]), "B"),
        ("row 1x5", rand_rect(rng, 1, 5), "B"),
        ("column 5x1", rand_rect(rng, 5, 1), "B"),
        ("gaussian 6x6", rand_rect(rng, 6, 6), "B"),
        ("normal 1x1", rand_normal_matrix(rng, 1), "A"),
        ("normal 4x4", rand_normal_matrix(rng, 4), "A"),
        ("normal 6x6", rand_normal_matrix(rng, 6), "A"),
        ("normal repeated", with_spectrum(rng, 4, 4, [1j, 1j, 2.0], normal=True), "A"),
        ("diagonal with kernel", np.diag([2.0, 0.0, 2.0, -1.0]).astype(complex), "A"),
        # the 1.5e-8 class survives but its point is below the zero cut
        ("tiny eigenvalue", np.diag([1.5e-8, 1.0, 2.0]).astype(complex), "A"),
        ("drifting closure", drift_element(), "B"),
    ]


@pytest.mark.parametrize("case", reference_cases(), ids=lambda c: c[0])
def test_funcalc_matches_per_class_reference(case):
    # funcalc and the reference share no eigenstructure, so both are
    # measured against the oracle: funcalc is no farther from it than
    # twice the reference's own distance, or rounding at the scale of x
    # (the drifting closure reads 1.2e-11 and 1.1e-11)
    _, x, b_id = case
    f = fc.SpectralFunction.from_coeffs([0, 0.5 - 1j, 0.25j, -0.1])
    for func in (f, lambda s: s):
        want = fc.svd_oracle(x, "A", b_id, func)
        got = op_norm(fc.funcalc(x, "A", b_id, func) - want)
        ref = op_norm(reference_funcalc(x, "A", b_id, func) - want)
        assert got <= max(1e-12 * (1 + op_norm(x)), 2 * ref)


def rank_classes(x, b_id):
    """The ranks of x's classes: the multiplicities of its distinct
    nonzero eigenvalues (b_id "A") or singular values."""
    vals = np.linalg.eigvals(x) if b_id == "A" else np.linalg.svd(x, compute_uv=False)
    vals = vals[np.abs(vals) > 1e-8]
    return np.unique(np.round(vals, 6), return_counts=True)[1]


KERNEL_CASES = (
    "kernel 5x3 rank 2",
    "kernel 6x4 rank 1",
    "kernel 7x7 rank 4",
    "kernel 3x8 rank 2",
    "diagonal with kernel",
)


@pytest.mark.parametrize(
    "case",
    [c for c in reference_cases() if c[0] in KERNEL_CASES],
    ids=lambda c: c[0],
)
def test_support_cut_has_its_margin_on_planted_kernels(case):
    # sum_b b b* over a diagonal block's HS-orthonormal basis is sum_i
    # P_i / r_i: its eigenvalues sit at 1/r_i on the support and under
    # tol off it, far on either side of the cut at 1/(2d); the support
    # then has x's rank on both objects
    from spectroid.config import DEFAULT_TOL
    from spectroid.cstarcat import _stack, generated_by

    _, x, b_id = case
    ranks = rank_classes(x, b_id)
    rank = np.linalg.matrix_rank(x)
    assert ranks.sum() == rank
    cat = generated_by(x, "A", b_id)
    for o, d in cat.objects:
        cols = np.transpose(_stack(cat, o, o), (1, 0, 2)).reshape(d, -1)
        w = np.linalg.eigvalsh(cols @ cols.conj().T)
        assert np.all(np.abs(w[: d - rank]) < DEFAULT_TOL), o
        want = np.sort(np.repeat(1.0 / ranks, ranks))
        assert np.allclose(w[d - rank:], want, rtol=0, atol=DEFAULT_TOL), o
        assert fc._support(_stack(cat, o, o), d).shape == (d, rank), o


def raising_cases():
    row = np.array([[3.0, 4.0]])
    return [
        ("not normal", np.array([[0.0, 1.0], [0.0, 0.0]]), "A", lambda s: s),
        ("missing table point", row, "B", fc.SpectralFunction.from_table({4.0: 1.0})),
        (
            "superfluous table key",
            row,
            "B",
            fc.SpectralFunction.from_table({5.0: 1.0, 9.0: 2.0}),
        ),
    ]


@pytest.mark.parametrize("case", raising_cases(), ids=lambda c: c[0])
def test_funcalc_raises_like_reference(case):
    from spectroid.errors import SpectroidError

    _, x, b_id, f = case
    with pytest.raises(SpectroidError) as want:
        reference_funcalc(x, "A", b_id, f)
    with pytest.raises(SpectroidError) as got:
        fc.funcalc(x, "A", b_id, f)
    assert type(got.value) is type(want.value)


def test_singular_value_under_the_zero_cut_is_dropped():
    # the 1.5e-8 class survives the closure on both objects, but its
    # coefficient is under the zero cut: funcalc drops it, as svd_oracle
    # and spectrum_of_element do, and a table on the other two points
    # covers the spectrum
    x = np.diag([1.5e-8, 1.0, 2.0]).astype(complex)
    assert np.allclose(fc.spectrum_of_element(x, "A", "B"), [1.0, 2.0], atol=1e-12)
    table = fc.SpectralFunction.from_table({1.0: 3.0, 2.0: -1j})
    for func in (lambda s: s, table):
        got = fc.funcalc(x, "A", "B", func)
        assert np.array_equal(got, fc.svd_oracle(x, "A", "B", func))
