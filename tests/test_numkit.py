import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectroid import numkit
from spectroid.errors import (
    DiagonalizationFailed,
    NotCommuting,
    NotNormal,
    NotSelfAdjoint,
)

# ---------------------------------------------------------------------------
# independent oracles


def quad_eigs(m):
    """Eigenvalues of a 2x2 matrix straight from the characteristic
    polynomial (quadratic formula), independent of LAPACK."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    tr, det = a + d, a * d - b * c
    disc = np.sqrt(complex(tr * tr - 4 * det))
    return sorted([(tr + disc) / 2, (tr - disc) / 2], key=lambda z: (z.real, z.imag))


def op_norm_2x2(m):
    """Operator norm of a 2x2 (or 1xN/Nx1) via the characteristic
    polynomial of m m*."""
    g = m @ m.conj().T
    if g.shape == (1, 1):
        return float(np.sqrt(g[0, 0].real))
    lam = quad_eigs(g)
    return float(np.sqrt(max(z.real for z in lam)))


def rand_matrix(rng, rows, cols, scale=1.0):
    return scale * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# adjoint / norms


def test_adjoint_hand_value():
    m = np.array([[1 + 2j, 3], [0, -1j]])
    expected = np.array([[1 - 2j, 0], [3, 1j]])
    assert np.allclose(numkit.adjoint(m), expected)


def test_op_norm_row_vector_is_pythagorean():
    # ||[3 4]|| = 5, frozen by hand
    assert numkit.op_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_op_norm_matches_charpoly_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rand_matrix(rng, 2, 2, scale=3.0)
        assert numkit.op_norm(m) == pytest.approx(op_norm_2x2(m), abs=1e-10)


def test_hs_inner_is_trace_form():
    a = np.array([[1j, 0], [2, 0]])
    b = np.array([[3, 1], [0, 5j]])
    # tr(a* b) by hand: conj(1j)*3 + conj(2)*0 + 0 + 0 = -3j
    assert numkit.hs_inner(a, b) == pytest.approx(-3j)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cstar_identity_of_op_norm(seed):
    rng = np.random.default_rng(seed)
    m = rand_matrix(rng, 3, 2)
    # ||m* m|| = ||m||^2 and submultiplicativity
    assert numkit.op_norm(m.conj().T @ m) == pytest.approx(
        numkit.op_norm(m) ** 2, rel=1e-9
    )
    n = rand_matrix(rng, 2, 4)
    assert numkit.op_norm(m @ n) <= numkit.op_norm(m) * numkit.op_norm(n) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_adjoint_is_involutive_and_antimultiplicative(seed):
    rng = np.random.default_rng(seed)
    m = rand_matrix(rng, 3, 2)
    n = rand_matrix(rng, 2, 3)
    assert np.allclose(numkit.adjoint(numkit.adjoint(m)), m)
    assert np.allclose(numkit.adjoint(m @ n), numkit.adjoint(n) @ numkit.adjoint(m))


# ---------------------------------------------------------------------------
# eigendecompositions


def test_hermitian_eig_hand_values():
    # char poly of [[0,1],[1,0]] is l^2 - 1 -> eigenvalues -1, +1
    w, u = numkit.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(u @ np.diag(w) @ u.conj().T, [[0, 1], [1, 0]])


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotSelfAdjoint):
        numkit.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_normal_eig_rotation_matrix():
    # char poly of [[0,1],[-1,0]] is l^2 + 1 -> eigenvalues +-i
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    evals, u = numkit.normal_eig(m)
    assert sorted(np.round(evals, 10), key=lambda z: z.imag) == [
        pytest.approx(-1j),
        pytest.approx(1j),
    ]
    assert np.allclose(u @ np.diag(evals) @ u.conj().T, m)


def test_normal_eig_rejects_nonnormal():
    with pytest.raises(NotNormal):
        numkit.normal_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd_reconstructs():
    rng = np.random.default_rng(3)
    m = rand_matrix(rng, 3, 5)
    u, s, vh = numkit.svd(m)
    assert np.allclose(u @ np.diag(s) @ vh[: len(s)], m)


# ---------------------------------------------------------------------------
# joint diagonalization


def planted_family(rng, d, n_inputs, n_blocks):
    """Commuting normal family with a known joint block structure."""
    sizes = rng.multinomial(d - n_blocks, np.ones(n_blocks) / n_blocks) + 1
    q = rand_unitary(rng, d)
    evals = np.round(
        rng.integers(-3, 4, size=(n_inputs, n_blocks))
        + 1j * rng.integers(-3, 4, size=(n_inputs, n_blocks)),
        6,
    ).astype(complex)
    # make the eigenvalue TUPLES distinct per block
    for b in range(n_blocks):
        evals[0, b] += 10 * b
    mats = []
    for i in range(n_inputs):
        diag = np.concatenate(
            [np.full(sizes[b], evals[i, b]) for b in range(n_blocks)]
        )
        mats.append(q @ np.diag(diag) @ q.conj().T)
    return mats, sizes, evals


def test_joint_diagonalize_recovers_planted_structure():
    rng = np.random.default_rng(11)
    for trial in range(10):
        d = int(rng.integers(3, 9))
        n_blocks = int(rng.integers(1, min(d, 4) + 1))
        n_inputs = int(rng.integers(1, 4))
        mats, sizes, evals = planted_family(rng, d, n_inputs, n_blocks)
        je = numkit.joint_diagonalize(mats, 1e-9, seed=trial)
        assert je.n_blocks == n_blocks
        # multiset of (eigentuple, size) must match the planted one
        got = sorted(
            (tuple(np.round(je.eigentuple(b), 6)), len(je.blocks[b]))
            for b in range(je.n_blocks)
        )
        want = sorted(
            (tuple(np.round(evals[:, b], 6)), int(sizes[b]))
            for b in range(n_blocks)
        )
        assert got == want
        # reconstruction: U* m U block-scalar
        u = je.unitary
        for i, m in enumerate(mats):
            conj = u.conj().T @ m @ u
            model = np.zeros_like(conj)
            for b, blk in enumerate(je.blocks):
                ix = np.ix_(list(blk), list(blk))
                model[ix] = je.eigenvalues[i, b] * np.eye(len(blk))
            assert np.linalg.norm(conj - model) < 1e-8


def test_joint_diagonalize_blocks_are_canonically_ordered():
    rng = np.random.default_rng(5)
    mats, _, _ = planted_family(rng, 7, 2, 3)
    je = numkit.joint_diagonalize(mats, 1e-9, seed=0)
    keys = []
    for b in range(je.n_blocks):
        key = []
        for z in je.eigentuple(b):
            key += [round(z.real, 8), round(z.imag, 8)]
        keys.append(tuple(key))
    assert keys == sorted(keys)
    # determinism: same call, same result
    je2 = numkit.joint_diagonalize(mats, 1e-9, seed=0)
    assert np.array_equal(je.unitary, je2.unitary)
    assert je.blocks == je2.blocks


def test_joint_diagonalize_circulant_shift():
    # cyclic shift on C^4 and its square; eigenvalues of the shift are
    # the 4th roots of unity (char poly l^4 - 1, by hand)
    s = np.zeros((4, 4))
    for h in range(4):
        s[(h + 1) % 4, h] = 1.0
    je = numkit.joint_diagonalize([s, s @ s], 1e-9)
    assert je.n_blocks == 4
    got = sorted(np.round(je.eigenvalues[0], 8), key=lambda z: (z.real, z.imag))
    want = sorted(
        np.round([1, 1j, -1, -1j], 8), key=lambda z: (z.real, z.imag)
    )
    assert np.allclose(got, want)
    # second input's eigenvalue is the square of the first on every block
    for b in range(4):
        assert je.eigenvalues[1, b] == pytest.approx(je.eigenvalues[0, b] ** 2)


def test_joint_diagonalize_empty_family():
    je = numkit.joint_diagonalize([], dim=3)
    assert je.n_blocks == 1
    assert je.blocks == ((0, 1, 2),)
    assert np.array_equal(je.unitary, np.eye(3))


def test_joint_diagonalize_rejects_noncommuting():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    with pytest.raises(NotCommuting) as exc:
        numkit.joint_diagonalize([x, z])
    assert exc.value.pair == (0, 1)
    assert exc.value.residual > 1.0


def test_joint_diagonalize_rejects_nonnormal():
    with pytest.raises(NotNormal):
        numkit.joint_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_joint_diagonalize_degenerate_pair_needs_refinement():
    # first input has a degenerate eigenvalue that only the second splits
    a = np.diag([1.0, 1.0, 2.0])
    b = np.diag([5.0, 7.0, 7.0])
    je = numkit.joint_diagonalize([a, b], 1e-9)
    assert je.n_blocks == 3
    tuples = {tuple(np.round(je.eigentuple(k), 8)) for k in range(3)}
    assert tuples == {(1, 5), (1, 7), (2, 7)}


# ---------------------------------------------------------------------------
# HS orthonormalization / membership


def test_hs_orthonormalize_drops_dependent():
    eye = np.eye(2)
    basis, rank = numkit.hs_orthonormalize([eye, 2 * eye])
    assert rank == 1
    assert np.allclose(basis[0], eye / np.sqrt(2))


def test_hs_orthonormalize_keeps_independent():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    basis, rank = numkit.hs_orthonormalize([e11, e11 + e12])
    assert rank == 2
    # span check: membership of both generators
    for m in (e11, e12):
        member, residual, _ = numkit.hs_member(m, basis)
        assert member and residual < 1e-12


def test_hs_orthonormalize_keeps_input_order():
    rng = np.random.default_rng(3)
    x, y, z = (rand_matrix(rng, 2, 3) for _ in range(3))
    basis, rank = numkit.hs_orthonormalize([x, 2 * x, y, x - 3 * y, z])
    assert rank == 3
    # the k-th output spans the first k independent inputs
    assert np.allclose(basis[0], x / numkit.hs_norm(x))
    assert numkit.hs_member(y, basis[:2])[0]
    assert not numkit.hs_member(z, basis[:2])[0]


def test_hs_orthonormalize_orthogonal_inputs_exact():
    # disjoint supports: the output is m / ||m|| bit for bit
    rng = np.random.default_rng(5)
    mats = []
    for k in range(4):
        m = np.zeros((3, 4), dtype=complex)
        m[k % 3, k] = rng.normal() + 1j * rng.normal()
        m[(k + 1) % 3, k] = rng.normal()
        mats.append(m)
    basis, rank = numkit.hs_orthonormalize(mats)
    assert rank == 4
    for b, m in zip(basis, mats):
        assert np.array_equal(b, m / np.linalg.norm(m))


def reference_orthonormalize(mats, tol=1e-9):
    """One matrix at a time: modified Gram-Schmidt, two passes."""
    basis = []
    for m in mats:
        v = np.array(m, dtype=complex)
        n0 = np.linalg.norm(v)
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        r = np.linalg.norm(v)
        if r > tol * (1.0 + n0):
            basis.append(v / r)
    return basis


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
def test_hs_orthonormalize_matches_reference_loop(seed, count):
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(count):
        if k % 3 == 2:  # dependent: a combination of the inputs before
            mats.append(sum(rng.normal() * x for x in mats))
        else:
            mats.append(rand_matrix(rng, 2, 2))
    want = reference_orthonormalize(mats)
    basis, rank = numkit.hs_orthonormalize(mats)
    assert rank == len(want)
    for b, w in zip(basis, want):
        assert np.allclose(b, w, atol=1e-11)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hs_orthonormalize_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(ValueError):
        numkit.hs_orthonormalize([np.eye(2), m])


def test_hs_member_coefficients():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, -1j], [1j, 0.0]])
    basis, _ = numkit.hs_orthonormalize([x, y])
    member, _, coeffs = numkit.hs_member(x + 2 * y, basis)
    assert member
    # frozen by hand: basis is x/sqrt2, y/sqrt2; coefficients sqrt2, 2*sqrt2
    assert coeffs[0] == pytest.approx(np.sqrt(2))
    assert coeffs[1] == pytest.approx(2 * np.sqrt(2))


def test_hs_member_rejects_outside():
    basis, _ = numkit.hs_orthonormalize([np.eye(2)])
    member, residual, _ = numkit.hs_member(
        np.array([[1.0, 1.0], [0.0, 1.0]]), basis
    )
    assert not member
    assert residual == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_hs_orthonormalize_is_orthonormal_and_spanning(seed, count):
    rng = np.random.default_rng(seed)
    mats = [rand_matrix(rng, 2, 3) for _ in range(count)]
    basis, rank = numkit.hs_orthonormalize(mats)
    assert rank == len(basis) <= min(count, 6)
    gram = np.array([[numkit.hs_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(rank), atol=1e-10)
    for m in mats:
        member, _, _ = numkit.hs_member(m, basis)
        assert member
