import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectroid import duality as du
from spectroid import numkit
from spectroid import spaceoid as sp
from spectroid.errors import DiagonalizationFailed, NotNormal

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
    assert np.allclose(numkit._adjoints(m), expected)


def test_op_norm_row_vector_is_pythagorean():
    # ||[3 4]|| = 5, frozen by hand
    assert numkit.op_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_op_norm_matches_charpoly_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rand_matrix(rng, 2, 2, scale=3.0)
        assert numkit.op_norm(m) == pytest.approx(op_norm_2x2(m), abs=1e-10)


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
    adj = numkit._adjoints
    assert np.allclose(adj(adj(m)), m)
    assert np.allclose(adj(m @ n), adj(n) @ adj(m))


# ---------------------------------------------------------------------------
# eigendecompositions


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


def hermitian(m):
    """The Hermitian part of ``m``, whose anti-Hermitian part is then
    exactly zero."""
    return (m + m.conj().T) / 2.0


def dilation(x):
    """``[[0, x], [x*, 0]]``, as ``cstarcat.generated_by`` builds it."""
    m, n = x.shape
    return np.block([[np.zeros((m, m)), x], [x.conj().T, np.zeros((n, n))]])


def block_columns(je, b):
    """Column indices of eigenblock ``b``."""
    return np.arange(je.starts[b], je.starts[b] + je.sizes[b])


def test_joint_diagonalize_recovers_planted_structure():
    rng = np.random.default_rng(11)
    for trial in range(10):
        d = int(rng.integers(3, 9))
        n_blocks = int(rng.integers(1, min(d, 4) + 1))
        n_inputs = int(rng.integers(1, 4))
        mats, sizes, evals = planted_family(rng, d, n_inputs, n_blocks)
        je = numkit.joint_diagonalize(mats, 1e-9, seed=trial)
        assert je.n_blocks == n_blocks
        # multiset of (eigenvalue tuple, size) must match the planted one
        got = sorted(
            (tuple(np.round(je.eigenvalues[:, b], 6)), int(je.sizes[b]))
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
            for b in range(je.n_blocks):
                blk = block_columns(je, b)
                model[np.ix_(blk, blk)] = je.eigenvalues[i, b] * np.eye(len(blk))
            assert np.linalg.norm(conj - model) < 1e-8


def test_joint_diagonalize_blocks_are_canonically_ordered():
    rng = np.random.default_rng(5)
    mats, _, _ = planted_family(rng, 7, 2, 3)
    je = numkit.joint_diagonalize(mats, 1e-9, seed=0)
    keys = []
    for b in range(je.n_blocks):
        key = []
        for z in je.eigenvalues[:, b]:
            key += [round(z.real, 8), round(z.imag, 8)]
        keys.append(tuple(key))
    assert keys == sorted(keys)
    # determinism: same call, same result
    je2 = numkit.joint_diagonalize(mats, 1e-9, seed=0)
    assert np.array_equal(je.unitary, je2.unitary)
    assert np.array_equal(je.sizes, je2.sizes)


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


@pytest.mark.parametrize("sizes", [[1, 1], [2, 2], [3, 0], [4, -1]])
def test_joint_eigenstructure_rejects_bad_sizes(sizes):
    # a non-positive size, or sizes that do not sum to the column count
    u, evals = np.eye(3, dtype=complex), np.zeros((1, len(sizes)), complex)
    assert numkit.JointEigenstructure(u, np.array([1, 2]), evals[:, :2]).n_blocks == 2
    with pytest.raises(ValueError, match="eigenblock sizes"):
        numkit.JointEigenstructure(u, np.array(sizes), evals)


def test_joint_diagonalize_rejects_empty_family():
    with pytest.raises(ValueError, match="non-empty"):
        numkit.joint_diagonalize([])


NOT_DIAGONALIZABLE = {
    "paulis": [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
    "non-normal": [np.array([[0.0, 1.0], [0.0, 0.0]])],
    "commuting-then-not": [np.diag([1.0, -1.0]), 2 * np.eye(2), np.ones((2, 2))],
}


@pytest.mark.parametrize("name", NOT_DIAGONALIZABLE)
def test_joint_diagonalize_fails_to_verify_without_a_check_of_its_own(monkeypatch, name):
    # commutation and normality are the caller's to prove: a family
    # without them fails the verification, and no commutator or
    # normality product is formed on the way
    def forbidden(*args, **kwargs):
        raise AssertionError("joint_diagonalize formed a commutator")

    monkeypatch.setattr(numkit, "_noncommuting_pair", forbidden)
    with pytest.raises(DiagonalizationFailed, match="after 5 seeds"):
        numkit.joint_diagonalize(NOT_DIAGONALIZABLE[name], 1e-9)


@pytest.mark.parametrize("scrambled", [True, False], ids=["scrambled", "diagonal"])
def test_joint_diagonalize_degenerate_pair_needs_refinement(scrambled):
    # first input has a degenerate eigenvalue that only the second
    # splits; conjugated by a random unitary the family takes the seeded
    # route, and its diagonal twin is read off its diagonals
    u = rand_unitary(np.random.default_rng(4), 3) if scrambled else np.eye(3)
    a = u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T
    b = u @ np.diag([5.0, 7.0, 7.0]) @ u.conj().T
    je = numkit.joint_diagonalize([a, b], 1e-9)
    assert je.n_blocks == 3
    tuples = {tuple(np.round(je.eigenvalues[:, k], 8)) for k in range(3)}
    assert tuples == {(1, 5), (1, 7), (2, 7)}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_joint_diagonalize_rejects_non_finite(bad):
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    m[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        numkit.joint_diagonalize([np.eye(3), m])


@pytest.mark.parametrize("where", [(0, 0, 0), (-1, -1, -1)])
def test_verify_joint_counts_nan_as_infinite(where):
    stack = np.stack([np.diag([1.0, 2.0, 2.0]), np.diag([5.0, 5.0, 7.0])]).astype(complex)
    je = numkit.joint_diagonalize(stack, 1e-9)
    comp = numkit._compress(je.unitary, stack)
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    assert numkit._verify_joint(je, comp, scales) < 1e-12
    comp[where] = np.nan
    assert numkit._verify_joint(je, comp, scales) == np.inf


def near_degenerate_family(gap, seed, defect=0.0):
    """Two commuting inputs on C^6 with planted classes of sizes 1, 2
    and 3.  Input 0 is 1, 1 + gap and 2 on them; input 1 only separates
    the third class (3 + 0.5j against 3).  The change of basis is a
    random unitary plus ``defect`` times a real Gaussian matrix (its
    inverse replaces the adjoint), so the family is normal and
    commuting only to about ``defect``."""
    rng = np.random.default_rng(seed)
    q = rand_unitary(rng, 6) + defect * rng.standard_normal((6, 6))
    evals = np.array([[1.0, 1.0 + gap, 2.0], [3.0, 3.0, 3.0 + 0.5j]])
    labels = np.repeat([0, 1, 2], [1, 2, 3])
    mats = [q @ np.diag(e[labels]) @ np.linalg.inv(q) for e in evals]
    return mats, q, labels


def assert_planted_partition(je, q, labels, atol):
    """Each block has the size of one planted class and its columns lie
    in that class's eigenspace."""
    assert sorted(je.sizes.tolist()) == [1, 2, 3]
    projectors = []
    for cls in range(3):
        basis, _ = np.linalg.qr(q[:, labels == cls])
        projectors.append(basis @ basis.conj().T)
    seen = set()
    for b in range(je.n_blocks):
        blk = block_columns(je, b)
        u = je.unitary[:, blk]
        misses = [np.linalg.norm(u - p @ u) for p in projectors]
        cls = int(np.argmin(misses))
        assert misses[cls] < atol and np.sum(labels == cls) == len(blk)
        seen.add(cls)
    assert seen == {0, 1, 2}


def test_joint_diagonalize_refines_classes_merged_by_the_combination(monkeypatch):
    # classes 1e-6 apart sit inside one 1e-4 gap group of the random
    # combination; only the per-input refinement separates them
    splits = []
    core = numkit._normal_eig_core

    def spy(a, threshold):
        splits.append(a.shape[0])
        return core(a, threshold)

    monkeypatch.setattr(numkit, "_normal_eig_core", spy)
    for seed in range(5):
        splits.clear()
        mats, q, labels = near_degenerate_family(1e-6, seed)
        je = numkit.joint_diagonalize(mats, 1e-9, seed=seed)
        assert splits, "the refinement path did not run"
        assert_planted_partition(je, q, labels, 1e-8)


@pytest.mark.parametrize("defect", [0.0, 1e-11, 1e-9])
@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_joint_diagonalize_near_degenerate_never_wrong(monkeypatch, gap, defect):
    """Relative class gaps 1e-3 down to 1e-7, in a unitary scramble and
    in scrambles that are unitary only up to 1e-11 and 1e-9.

    The outcome must be the planted partition or
    ``DiagonalizationFailed``, never another partition.  Measured on
    seeds 0-2: with the exact unitary every gap verifies on the first
    attempt (residual about 2e-15, no retry).  With either defect every
    gap runs all five attempts of the retry loop (best residual about
    the defect, above the 1e-12 target) and returns through the
    loose-tolerance ``best`` branch, with the planted partition.  None
    raised ``DiagonalizationFailed``.  Gaps of 1e-8 and below fall
    under ``config.CLUSTER_RTOL`` and are one class by definition.
    """
    residuals = []
    verify = numkit._verify_joint

    def spy(result, comp, scales):
        residuals.append(verify(result, comp, scales))
        return residuals[-1]

    monkeypatch.setattr(numkit, "_verify_joint", spy)
    for seed in range(3):
        residuals.clear()
        mats, q, labels = near_degenerate_family(gap, seed, defect)
        try:
            je = numkit.joint_diagonalize(mats, 1e-9, seed=seed)
        except DiagonalizationFailed:
            continue
        assert_planted_partition(je, q, labels, 1e-6)
        if defect == 0.0:
            assert len(residuals) == 1 and residuals[0] <= 1e-12
        else:
            assert len(residuals) == 5 and min(residuals) > 1e-12


# ---------------------------------------------------------------------------
# the seeded attempts and the target/fallback rule, checked against a
# reference of the rule alone


def reference_joint_diagonalize(family, tol, seed):
    """The seeded attempts, then the target/fallback rule; no
    commutation or normality check comes before them."""
    stack = np.stack([np.asarray(m, dtype=complex) for m in family])
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    best, best_residual = None, np.inf
    for attempt in range(5):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, attempt, 0x6A0D])
        result, comp = numkit._attempt_joint(stack, rng, scales)
        residual = numkit._verify_joint(result, comp, scales)
        if residual <= numkit.JOINT_TARGET_RTOL:
            return result, "target"
        if residual < best_residual:
            best, best_residual = result, residual
    if best_residual <= numkit.JOINT_FALLBACK_SLACK * tol * scales.max():
        return best, "fallback"
    raise DiagonalizationFailed(
        f"joint diagonalization failed to verify after 5 seeds "
        f"(best residual {best_residual:.3e})"
    )


def outcome(call):
    """A result's arrays, or an exception's type and message."""
    try:
        je = call()
    except DiagonalizationFailed as exc:
        return (DiagonalizationFailed, str(exc))
    return ("ok", je.unitary.tobytes(), je.sizes.tolist(), je.eigenvalues.tobytes())


def planted_pair_family(factor, j, k, n=6, d=8, seed=0, tol=1e-9):
    """``n`` commuting Hermitian inputs on C^d, with input ``k`` moved
    by ``eps H`` so that only the pair ``(j, k)`` fails to commute, by
    ``factor`` times its bound ``tol (1 + ||m_j|| ||m_k||)``.

    In the planted eigenbasis ``H`` swaps columns 0 and 1, on which
    every input but ``j`` is scalar."""
    rng = np.random.default_rng(seed)
    q = rand_unitary(rng, d)
    lam = rng.integers(-3, 4, size=(n, d)).astype(float)
    lam[:, 1] = lam[:, 0]
    lam[j, 1] = lam[j, 0] + 2.0
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
    return mats


def nilpotent_family(rng, d=5):
    """A commuting family whose first input is not normal: a Jordan
    block on the first two planted directions, where the other inputs
    are scalar."""
    q = rand_unitary(rng, d)
    jordan = np.diag(rng.integers(1, 4, size=d).astype(complex))
    jordan[1, 1] = jordan[0, 0]
    jordan[0, 1] = 1.0
    other = np.diag(np.arange(d, dtype=complex))
    other[1, 1] = other[0, 0]
    return [q @ jordan @ q.conj().T, q @ other @ q.conj().T, np.eye(d)]


def attempt_cases():
    rng = np.random.default_rng(8)
    for trial in range(8):  # commuting scrambles
        d = int(rng.integers(2, 9))
        n_blocks = int(rng.integers(1, min(d, 4) + 1))
        mats, _, _ = planted_family(rng, d, int(rng.integers(1, 6)), n_blocks)
        yield f"scramble-{trial}", mats, 1e-9
    yield "scramble-tiny-tol", planted_family(rng, 7, 4, 3)[0], 1e-15
    for gap in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        for defect in (0.0, 1e-11, 1e-9):
            mats, _, _ = near_degenerate_family(gap, 1, defect)
            yield f"near-{gap}-{defect}", mats, 1e-9
    for factor in (0.5, 1.01, 2.0, 10.0):
        for j, k in ((1, 3), (0, 5), (4, 2)):
            mats = planted_pair_family(factor, j, k, seed=j + k)
            yield f"pair-{factor}-{j}{k}", mats, 1e-9
    yield "non-normal", nilpotent_family(rng), 1e-9
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    yield "non-normal-non-commuting", [np.eye(2), n, n.T], 1e-9
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    yield "paulis", [np.diag([1.0, -1.0]), np.eye(2), x], 1e-9


@pytest.mark.parametrize(
    "mats, tol", [pytest.param(m, t, id=name) for name, m, t in attempt_cases()]
)
def test_joint_diagonalize_matches_attempts_reference(mats, tol):
    # a family of two or more inputs, or one input that misses the target
    # on its own eigendecomposition: the same result bit for bit, or the
    # same exception and message.  One input that meets it: the reference's
    # class sizes, and its eigenvalues and class projectors U_i U_i*
    # within JOINT_TARGET_RTOL (1 + ||m||_op)
    stack = np.stack([np.asarray(m, dtype=complex) for m in mats])
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    own = numkit._normal_joint(stack)[0] if len(stack) == 1 else None
    for seed in range(2):
        want = outcome(lambda: reference_joint_diagonalize(mats, tol, seed)[0])
        got = outcome(lambda: numkit.joint_diagonalize(mats, tol, seed=seed))
        if own is None:
            assert got == want
            continue
        assert got == outcome(lambda: own)
        ref = reference_joint_diagonalize(mats, tol, seed)[0]
        assert own.sizes.tolist() == ref.sizes.tolist()
        bound = numkit.JOINT_TARGET_RTOL * scales[0]
        assert np.abs(own.eigenvalues - ref.eigenvalues).max() <= bound
        for b in range(own.n_blocks):
            u, v = (je.unitary[:, block_columns(je, b)] for je in (own, ref))
            assert np.linalg.norm(u @ u.conj().T - v @ v.conj().T) <= bound


def test_attempt_cases_reach_every_outcome():
    kinds, names = {}, []
    for name, mats, tol in attempt_cases():
        names.append(name)
        try:
            kind = reference_joint_diagonalize(mats, tol, 0)[1]
        except DiagonalizationFailed:
            kind = DiagonalizationFailed
        kinds.setdefault(kind, []).append(name)
    # the reference test above covers both returns and the failure
    assert set(kinds) == {"target", "fallback", DiagonalizationFailed}
    # exactly commuting normal families reach the target
    assert {n for n in names if n.startswith("scramble")} <= set(kinds["target"])
    # no check of its own, so a family that is not commuting and normal
    # fails the verification, and a defect within the fallback bound is
    # returned for the caller to reject
    assert {"non-normal", "non-normal-non-commuting", "paulis"} <= set(
        kinds[DiagonalizationFailed]
    )
    assert "pair-2.0-13" in kinds["fallback"]


# ---------------------------------------------------------------------------
# the diagonal path: a family with no nonzero entry off the diagonal is
# read off its diagonals, without a seeded attempt


def diagonal_family(seed, n=3):
    """``n`` diagonal inputs on C^9 whose columns fall into four classes
    of sizes 1, 2, 2 and 4, shuffled; input 0 tells the classes apart,
    and the others repeat values across classes."""
    rng = np.random.default_rng(seed)
    tuples = rng.integers(-2, 3, size=(n, 4)) + 1j * rng.integers(-1, 2, size=(n, 4))
    tuples[0] = [0.0, 1.5, -2.0, 3.0j]
    labels = rng.permutation(np.repeat(np.arange(4), [1, 2, 2, 4]))
    return [np.diag(row[labels]) for row in tuples]


def section_anchor(seed, n_points, n_objects):
    """The anchor's diagonal block of the sections of a gauged spaceoid:
    every element is ``conj(g) E_pp``."""
    e = sp.trivial_spaceoid(n_points, n_objects)
    rng = np.random.default_rng(seed)
    c = du.sections(sp.apply_gauge(e, sp.random_gauge(rng, e.base_points, e.objects)))
    return c.block(c.object_ids[0], c.object_ids[0])


DIAGONAL_FAMILIES = {
    "repeated-tuples-0": lambda: diagonal_family(0),
    "repeated-tuples-1": lambda: diagonal_family(1, n=5),
    "sections-gauged-5x3": lambda: section_anchor(2, 5, 3),
    "sections-gauged-9x1": lambda: section_anchor(3, 9, 1),
    "classical-16": lambda: du.classical_category(16).block("A", "A"),
}


def block_supports(je):
    """Each block's rows: where its columns' row norms exceed 1/2."""
    return [
        frozenset(np.flatnonzero(
            np.linalg.norm(je.unitary[:, block_columns(je, b)], axis=1) > 0.5
        ).tolist())
        for b in range(je.n_blocks)
    ]


def forbid_seeded_attempts(monkeypatch):
    def seeded(*args):
        raise AssertionError("a seeded attempt ran")

    monkeypatch.setattr(numkit, "_attempt_joint", seeded)


@pytest.mark.parametrize("name", sorted(DIAGONAL_FAMILIES))
def test_joint_diagonalize_reads_a_diagonal_family_off_its_diagonals(monkeypatch, name):
    mats = DIAGONAL_FAMILIES[name]()
    want = reference_joint_diagonalize(mats, 1e-9, 0)[0]
    forbid_seeded_attempts(monkeypatch)
    got = numkit.joint_diagonalize(mats, 1e-9)
    # the seeded route's classes, sizes and eigenvalues, in its order;
    # columns may be ordered otherwise inside a class
    assert got.sizes.tolist() == want.sizes.tolist()
    assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)
    assert block_supports(got) == block_supports(want)
    # a permutation of the standard basis, whatever the seed
    d = len(got.unitary)
    assert np.array_equal(np.sort(np.abs(got.unitary), axis=0)[-1], np.ones(d))
    assert np.array_equal(got.unitary @ got.unitary.conj().T, np.eye(d))
    for seed in (1, 7, 2 ** 32 - 1):
        again = outcome(lambda: numkit.joint_diagonalize(mats, 1e-9, seed=seed))
        assert again == outcome(lambda: got)
    if name.startswith("repeated"):
        assert got.sizes.max() > 1


def _near_ties():
    base = [np.diag([1.0, 1.0, 2.0, 3.0]), np.diag([5.0, 7.0, 7.0, 5.0])]
    for gap in (1e-10, 1e-15):
        mats = [m.astype(complex) for m in base]
        mats[0][1, 1] += gap
        yield f"tie-{gap}", mats
    mats = [m.astype(complex) for m in base]
    mats[1][0, 3] = 1e-300
    yield "off-diagonal-1e-300", mats


@pytest.mark.parametrize("mats", [pytest.param(m, id=n) for n, m in _near_ties()])
def test_joint_diagonalize_sends_near_ties_to_the_seeded_route(monkeypatch, mats):
    attempts = []
    attempt = numkit._attempt_joint

    def spy(*args):
        attempts.append(args)
        return attempt(*args)

    monkeypatch.setattr(numkit, "_attempt_joint", spy)
    for seed in range(2):
        want = outcome(lambda: reference_joint_diagonalize(mats, 1e-9, seed)[0])
        attempts.clear()
        got = outcome(lambda: numkit.joint_diagonalize(mats, 1e-9, seed=seed))
        assert attempts and got == want


# ---------------------------------------------------------------------------
# one rule decides the classes on both routes: eigenvalues of one input
# within CLUSTER_RTOL * (1 + ||m||_op) of each other are one class, and
# no others are


def assert_same_classes_on_both_routes(mats, sizes=None):
    """The family has ``sizes`` (when given), and its conjugations by
    the random unitaries of seeds 0-2, diagonalized with those seeds,
    have its sizes, in order, and its eigenvalues within 1e-12."""
    want = numkit.joint_diagonalize(mats, 1e-9)
    if sizes is not None:
        assert want.sizes.tolist() == sizes
    for seed in range(3):
        q = rand_unitary(np.random.default_rng(seed), len(mats[0]))
        family = [q @ m @ q.conj().T for m in mats]
        je = numkit.joint_diagonalize(family, 1e-9, seed=seed)
        assert je.sizes.tolist() == want.sizes.tolist(), seed
        assert np.allclose(je.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12), seed


# z's distinct values are 1.27e-8 apart, beyond the 1.0e-8 cut, yet
# round to one key at 8 decimals (-0.0 and 0.0); w's are 0.9e-8 apart,
# inside it.  w's block keeps 0.74e-8 of HS defect, more than cut /
# sqrt(2), so the refinement runs and clusters it whole again.
_Z = 0.45e-8 * (1 + 1j)
_W = 0.45e-8
PLANTED_CLASSES = {
    "one-rounded-key-alone": ([np.diag([-_Z, -_Z, _Z])], [2, 1]),
    "one-rounded-key-with-unit": ([np.diag([-_Z, -_Z, _Z]), np.eye(3)], [2, 1]),
    # the pair (-z, z) shares a class of the second input, and its HS
    # defect 0.9e-8 is under the cut but over cut / sqrt(2)
    "one-rounded-key": ([np.diag([-_Z, -_Z, _Z]), np.diag([1.0, 2.0, 2.0])], [1, 1, 1]),
    "within-the-cut": ([np.diag([-_W, -_W, _W])], [3]),
}


@pytest.mark.parametrize("name", sorted(PLANTED_CLASSES))
def test_joint_diagonalize_classes_follow_the_cluster_rule(name):
    mats, sizes = PLANTED_CLASSES[name]
    assert_same_classes_on_both_routes(mats, sizes)


def test_refinement_splits_classes_that_share_a_rounded_key(monkeypatch):
    # the conjugated family reaches the per-input refinement: the
    # eigensolve of the whole block and a union of its equal pair
    calls = []
    core, cluster = numkit._normal_eig_core, numkit._cluster_complex

    def core_spy(a, threshold):
        calls.append("core")
        return core(a, threshold)

    def cluster_spy(values, threshold):
        groups = cluster(values, threshold)
        calls.append(("cluster", sorted(len(g) for g in groups)))
        return groups

    monkeypatch.setattr(numkit, "_normal_eig_core", core_spy)
    monkeypatch.setattr(numkit, "_cluster_complex", cluster_spy)
    q = rand_unitary(np.random.default_rng(0), 3)
    je = numkit.joint_diagonalize([q @ np.diag([-_Z, -_Z, _Z]) @ q.conj().T], 1e-9)
    assert je.sizes.tolist() == [2, 1]
    assert calls == ["core", ("cluster", [1, 2])]


def one_input_misses():
    """One-input families that miss JOINT_TARGET_RTOL on their own
    eigendecomposition, and whether the seeded route then fails at tol
    1e-10.  w's three values lie within one cut, so the one class keeps
    a block-scalar residual of 7.35e-9.  In "near-real-parts" two
    eigenvalues' real parts lie 1e-5 apart, over the cut, but their
    imaginary parts 1.5 apart: the Hermitian part's eigenvectors mix
    them by about eps / 1e-5, which the anti-Hermitian part turns into a
    residual over the target."""
    rng = np.random.default_rng(0)
    q = rand_unitary(rng, 3)
    yield "within-the-cut", np.diag([-_W, -_W, _W]), True
    yield "within-the-cut-scrambled", q @ np.diag([-_W, -_W, _W]) @ q.conj().T, True
    w = hermitian(q @ np.diag([-_W, -_W, _W]) @ q.conj().T)
    yield "within-the-cut-hermitian", w, True
    q = rand_unitary(rng, 4)
    near = np.diag([0.3 + 1j, 0.3 + 1e-5 - 0.5j, -1.0, 2.0j])
    yield "near-real-parts", q @ near @ q.conj().T, False


@pytest.mark.parametrize(
    "m, fails", [pytest.param(m, f, id=name) for name, m, f in one_input_misses()]
)
def test_one_input_that_misses_its_own_eigendecomposition_takes_the_seeded_route(
    monkeypatch, m, fails
):
    # the seeded route's outcome bit for bit, at tol 1e-10 and at the
    # default tolerance
    attempts = []
    attempt = numkit._attempt_joint

    def spy(*args):
        attempts.append(args)
        return attempt(*args)

    monkeypatch.setattr(numkit, "_attempt_joint", spy)
    stack = np.stack([m.astype(complex)])
    assert numkit._normal_joint(stack)[0] is None
    kinds = set()
    for tol in (1e-10, None):
        for seed in range(2):
            ref_tol = numkit.resolve_tol(tol)
            want = outcome(lambda: reference_joint_diagonalize([m], ref_tol, seed)[0])
            attempts.clear()
            got = outcome(lambda: numkit.joint_diagonalize([m], tol, seed=seed))
            assert attempts and got == want
            kinds.add((tol, got[0]))
    assert kinds == {(1e-10, DiagonalizationFailed if fails else "ok"), (None, "ok")}


def parent_normal_joint(stack):
    """The one-input route as it reads a non-Hermitian input, on any
    input: the scale by SVD, :func:`numkit._normal_eig_core` with its
    rotation pass, the one rule.  Returns the result and whether it
    meets ``JOINT_TARGET_RTOL``."""
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    threshold = numkit.CLUSTER_RTOL * scales[0]
    evals, u = numkit._normal_eig_core(stack[0], threshold)
    blocks = numkit._cluster_complex(evals, threshold)
    perm, sizes, eigenvalues = numkit._class_order(evals[None], blocks)
    u_perm = u[:, perm]
    result = numkit.JointEigenstructure(
        u_perm * numkit._column_phases(u_perm), sizes, eigenvalues
    )
    comp = numkit._compress(result.unitary, stack)
    residual = numkit._verify_joint(result, comp, scales)
    return result, residual <= numkit.JOINT_TARGET_RTOL


def hermitian_inputs():
    """Exactly Hermitian one-input families that are not diagonal:
    ``cstarcat.generated_by``'s dilations of a Gaussian rectangle, of a
    planted kernel and of a repeated singular value, and scrambled
    Hermitian inputs with and without repeated eigenvalues."""
    from spectroid import cstarcat

    rng = np.random.default_rng(23)
    q = rand_unitary(rng, 5)
    kernel = rand_matrix(rng, 4, 2) @ rand_matrix(rng, 2, 6)
    repeated = 2.0 * rand_unitary(rng, 3)[:, :2] @ rand_unitary(rng, 4)[:2]
    for name, x in (
        ("gaussian 3x5", rand_matrix(rng, 3, 5)),
        ("kernel 4x6 rank 2", kernel),
        ("repeated 3x4", repeated),
    ):
        families = []
        joint = cstarcat.joint_diagonalize

        def capture(family, tol=None, *, seed=0):
            families.append(family)
            return joint(family, tol, seed=seed)

        cstarcat.joint_diagonalize = capture
        try:
            cstarcat.generated_by(x)
        finally:
            cstarcat.joint_diagonalize = joint
        assert np.array_equal(families[0][0], dilation(x))
        yield f"dilation {name}", families[0][0]
    for name, levels in (
        ("scrambled", [-2.0, -0.5, 0.1, 1.0, 3.0]),
        ("scrambled repeated", [1.0, 1.0, 1.0, -1.0, 0.0]),
    ):
        yield name, hermitian(q @ np.diag(levels) @ q.conj().T)
    yield "real symmetric", hermitian(rng.standard_normal((4, 4)))


@pytest.mark.parametrize(
    "m", [pytest.param(m, id=name) for name, m in hermitian_inputs()]
)
def test_hermitian_one_input_takes_one_eigh_and_no_svd(monkeypatch, m):
    # its operator norm is max |w| of that one eigh, and no rotation pass
    # nor seeded attempt follows; the classes, their eigenvalues and
    # projectors are those of the route that reads a non-Hermitian input
    want, verified = parent_normal_joint(np.stack([m.astype(complex)]))
    assert verified
    calls = []

    def counting(name, fn):
        def call(*args, **kwargs):
            if name != "norm" or 2 in args[1:2] or kwargs.get("ord") == 2:
                calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("eigh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))

    def never(*args):
        raise AssertionError("a rotation pass or seeded attempt ran")

    monkeypatch.setattr(numkit, "_normal_eig_core", never)
    monkeypatch.setattr(numkit, "_attempt_joint", never)
    got = numkit.joint_diagonalize([m])
    assert calls == ["eigh"]
    assert got.sizes.tolist() == want.sizes.tolist()
    bound = numkit.JOINT_TARGET_RTOL * (1.0 + np.abs(np.linalg.eigvalsh(m)).max())
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= bound
    for b in range(got.n_blocks):
        u, v = (je.unitary[:, block_columns(je, b)] for je in (got, want))
        assert np.linalg.norm(u @ u.conj().T - v @ v.conj().T) <= bound


def planted_gap_families():
    """Hermitian inputs with two eigenvalues a factor 1 -+ 1e-3 of the
    cut ``CLUSTER_RTOL (1 + ||m||_op)`` apart, scrambled, and the
    dilation of a rectangle with two singular values so far apart."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for factor in (1 - 1e-3, 1 + 1e-3):
            gap = factor * numkit.CLUSTER_RTOL * (1.0 + 2.0)
            q = rand_unitary(rng, 5)
            levels = np.diag([-1.0, 0.5, 0.5 + gap, 0.5 + gap, 2.0])
            yield f"scrambled {factor} seed {seed}", hermitian(q @ levels @ q.conj().T)
            u, v = rand_unitary(rng, 3), rand_unitary(rng, 4)
            x = (u[:, :2] * [1.0, 1.0 + factor * numkit.CLUSTER_RTOL * 2.0]) @ v[:2]
            yield f"dilation {factor} seed {seed}", dilation(x)


@pytest.mark.parametrize(
    "m", [pytest.param(m, id=name) for name, m in planted_gap_families()]
)
def test_hermitian_route_splits_at_the_cut_as_the_rotation_route(m):
    # a gap over the cut: both routes verify with the same classes; under
    # it both miss, and joint_diagonalize returns the seeded route's
    # outcome bit for bit
    stack = np.stack([m])
    want, verified = parent_normal_joint(stack)
    got = numkit._normal_joint(stack)[0]
    assert (got is not None) == verified
    if got is None:
        for seed in range(2):
            ref = outcome(lambda: reference_joint_diagonalize([m], 1e-9, seed)[0])
            assert outcome(lambda: numkit.joint_diagonalize([m], seed=seed)) == ref
        return
    assert got.sizes.tolist() == want.sizes.tolist()
    for b in range(got.n_blocks):
        u, v = (je.unitary[:, block_columns(je, b)] for je in (got, want))
        assert np.linalg.norm(u @ u.conj().T - v @ v.conj().T) <= 1e-6


def test_planted_gap_families_reach_both_outcomes():
    outcomes = {}
    for name, m in planted_gap_families():
        verified = numkit._normal_joint(np.stack([m]))[0] is not None
        outcomes.setdefault(name.split(" seed")[0], set()).add(verified)
    assert outcomes == {
        f"{kind} {factor}": {factor > 1}
        for kind in ("scrambled", "dilation") for factor in (1 - 1e-3, 1 + 1e-3)
    }


def near_cut_family(seed):
    """1-3 diagonal inputs on C^2 to C^7; each input's distinct levels
    lie on a line, consecutive ones 1.05-1.4 cuts apart, so the rule
    separates all of them, though a block of just two of them keeps
    less than one cut of HS defect."""
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    mats = []
    for _ in range(n):
        k = int(rng.integers(1, min(d, 3) + 1))
        base = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        # an upper bound on the cut: the levels stay within 1e-7 of base
        cut = numkit.CLUSTER_RTOL * (1.0 + abs(base) + 1e-7)
        steps = np.cumsum(rng.uniform(1.05, 1.4, size=k - 1) * cut)
        levels = base + np.exp(2j * np.pi * rng.uniform()) * np.append(0.0, steps)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, d - k)])
        mats.append(np.diag(levels[rng.permutation(labels)]))
    return mats


def test_joint_diagonalize_routes_agree_at_the_cut(monkeypatch):
    attempts = []
    attempt = numkit._attempt_joint

    def spy(*args):
        attempts.append(args)
        return attempt(*args)

    monkeypatch.setattr(numkit, "_attempt_joint", spy)
    for seed in range(100):
        mats = near_cut_family(seed)
        attempts.clear()
        numkit.joint_diagonalize(mats, 1e-9)
        assert not attempts, "the diagonal family took a seeded attempt"
        assert_same_classes_on_both_routes(mats)
    assert attempts


# ---------------------------------------------------------------------------
# the class rule's single linkage, against a union-find loop


def reference_cluster(values, threshold):
    """Union-find on every pair within ``threshold``; groups in order of
    their smallest index, each ascending."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


CLUSTER_CASES = {
    "empty": [],
    "one": [1 + 1j],
    "one-nan": [np.nan],
    # a chain of four links, each within the cut, whose ends lie 4 cuts
    # apart, shuffled so the chain's members are not neighbours in order
    "chain": [3.0, 0.0, 9.0, 1.0, 2.0, 4.0, 7.5],
    "chain-complex": [0.0, 1j, 2j, 2j + 1, 5.0, 1 + 1j],
    "exact-ties": [2.0, 2.0, 5.0, 2.0, 5.0, 5.0 + 1j],
    "at-the-cut": [0.0, 1.0, 2.0 + 1e-15, 3.0],
    "nan": [1.0, np.nan, 1.5, np.nan, 9.0, complex(np.nan, 1.0)],
    "apart": [0.0, 10.0, 20.0, 30.0],
}


@pytest.mark.parametrize("name", sorted(CLUSTER_CASES))
def test_cluster_complex_matches_union_find(name):
    values = np.array(CLUSTER_CASES[name], dtype=complex)
    assert numkit._cluster_complex(values, 1.0) == reference_cluster(values, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 30))
def test_cluster_complex_matches_union_find_on_random_values(seed, n):
    # integer grids make exact ties and links at exactly the cut
    rng = np.random.default_rng(seed)
    values = rng.integers(-4, 5, n) + 1j * rng.integers(-2, 3, n)
    values = values * rng.choice([1.0, 0.5]) + rng.choice([0.0, 1e-9], n)
    for threshold in (0.0, 0.5, 1.0, 1.5):
        want = reference_cluster(values, threshold)
        assert numkit._cluster_complex(values, threshold) == want


# ---------------------------------------------------------------------------
# commutation: the explicit search, in chunks


def reference_noncommuting_pair(stack, tol):
    """The pairwise search over one stack of all n(n-1)/2 commutators."""
    i, j = np.triu_indices(len(stack), 1)
    if not len(i):
        return None
    dev = np.linalg.norm(stack[i] @ stack[j] - stack[j] @ stack[i], axis=(1, 2))
    norms = np.linalg.norm(stack, axis=(1, 2))
    bad = ~(dev <= tol * (1.0 + norms[i] * norms[j]))
    if not bad.any():
        return None
    f = int(np.argmax(bad))
    return int(i[f]), int(j[f]), float(dev[f])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(1, 40))
def test_chunked_search_matches_one_stack(seed, d, n):
    # the first failing pair and its residual bit for bit, with chunks
    # of one pair, of a few pairs and of all of them
    rng = np.random.default_rng(seed)
    q = rand_unitary(rng, d)
    diagonals = rand_matrix(rng, n, d)
    stack = np.stack([q @ np.diag(row) @ q.conj().T for row in diagonals])
    for k in rng.choice(n, size=min(n, 3), replace=False):
        stack[k] += rng.choice([1e-12, 1e-9, 1e-6]) * rand_matrix(rng, d, d)
    want = reference_noncommuting_pair(stack, 1e-9)
    for chunk in (1, 3 * d * d, numkit._PAIR_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numkit, "_PAIR_CHUNK", chunk)
            assert numkit._noncommuting_pair(stack, 1e-9) == want


def test_search_in_row_major_order():
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    stack = np.stack([z, x, 2 * z, 3 * x])
    assert numkit._noncommuting_pair(stack, 1e-9)[:2] == (0, 1)
    # (z, 2z) commutes, so the first failing pair is (z, 3x), before (2z, 3x)
    assert numkit._noncommuting_pair(stack[[0, 2, 3]], 1e-9)[:2] == (0, 2)
    assert numkit._noncommuting_pair(stack[[0, 2]], 1e-9) is None


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


def kernel_extend(basis, mats, tol, best_first=False):
    """The Gram-Schmidt kernel as written with ``np.linalg.norm`` row
    norms, a compacting copy of the survivors on every step and an
    ``np.outer`` rank-one update; ``numkit._extend`` must match it bit
    for bit."""
    stack = np.array(mats, dtype=complex)
    shape = stack.shape[1:]
    rows = stack.reshape(len(stack), -1)
    cut = tol * (1.0 + np.linalg.norm(rows, axis=1))
    room = rows.shape[1] - len(basis)
    if len(basis):
        old = np.asarray(basis, dtype=complex).reshape(len(basis), -1)
        old_h = old.conj().T
        for _ in range(2):
            rows -= (rows @ old_h) @ old
    new = []
    while len(new) < room:
        norms = np.linalg.norm(rows, axis=1)
        live = norms > cut
        rows, cut = rows[live], cut[live]
        if not len(rows):
            break
        k = (norms[live] / cut).argmax() if best_first else 0
        q = rows[k] / np.linalg.norm(rows[k])
        new.append(q.reshape(shape))
        if k:
            rows[k], cut[k] = rows[0], cut[0]
        rows, cut = rows[1:], cut[1:]
        for _ in range(2):
            rows -= np.outer(rows @ q.conj(), q)
    return new


def kernel_project(basis, mats, tol):
    """``numkit._project`` as written with ``np.linalg.norm`` row norms."""
    x = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    if len(basis):
        q = np.asarray(basis, dtype=complex).reshape(len(basis), -1)
        coeffs = x @ q.conj().T
        residual = np.linalg.norm(x - coeffs @ q, axis=1)
    else:
        coeffs = np.zeros((len(x), 0), dtype=complex)
        residual = np.linalg.norm(x, axis=1)
    member = residual <= tol * (1.0 + np.linalg.norm(x, axis=1))
    return member, residual, coeffs


def kernel_stack(seed):
    """A random ``(n, d_A, d_B)`` stack and an HS-orthonormal basis of
    the same shape (possibly empty): by ``seed % 4`` independent,
    dependent (every third a combination of the ones before),
    rank-deficient, or rank-deficient with noise near the drop cut; on
    odd ``seed // 4`` every matrix is scaled by 10^u, u uniform in [-8,
    8]."""
    rng = np.random.default_rng([seed, 0x6D5])
    d_a, d_b = (int(v) for v in rng.integers(1, 5, size=2))
    n = int(rng.integers(1, 2 * d_a * d_b + 2))
    kind = seed % 4
    if kind == 0:
        mats = rand_matrix(rng, n * d_a, d_b).reshape(n, d_a, d_b)
    elif kind == 1:
        mats = list(rand_matrix(rng, n * d_a, d_b).reshape(n, d_a, d_b))
        for k in range(2, n, 3):
            mats[k] = sum(rng.normal() * m for m in mats[:k])
        mats = np.array(mats)
    else:
        r = int(rng.integers(1, d_a * d_b + 1))
        span = rand_matrix(rng, r, d_a * d_b)
        mats = (rand_matrix(rng, n, r) @ span).reshape(n, d_a, d_b)
        if kind == 3:
            mats = mats + rand_matrix(rng, n * d_a, d_b, 10.0 ** rng.uniform(-11, -7)).reshape(
                n, d_a, d_b
            )
    if (seed // 4) % 2:
        mats = mats * 10.0 ** rng.uniform(-8, 8, size=(n, 1, 1))
    extra = rand_matrix(rng, d_a * int(rng.integers(0, d_a * d_b)), d_b)
    basis = kernel_extend([], extra.reshape(-1, d_a, d_b), 1e-9) if len(extra) else []
    return basis, mats


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("chunk", range(8))
def test_gram_schmidt_kernel_matches_its_unwrapped_form_bit_for_bit(chunk):
    # 8 chunks of 60 stacks: 480 stacks, each kind 120 times
    for seed in range(60 * chunk, 60 * (chunk + 1)):
        basis, mats = kernel_stack(seed)
        for tol in (1e-9, 1e-12):
            for best_first in (False, True):
                assert_same_bits(
                    numkit._extend(basis, mats, tol, best_first),
                    kernel_extend(basis, mats, tol, best_first),
                )
            assert_same_bits(numkit._project(basis, mats, tol), kernel_project(basis, mats, tol))
            got = numkit.hs_orthonormalize(mats, tol)
            assert_same_bits(got.basis, kernel_extend([], mats, tol))
            assert got.rank == len(got.basis)
        rows = mats.reshape(len(mats), -1)
        assert np.array_equal(numkit._row_norms(rows), np.linalg.norm(rows, axis=1))


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
    q = np.reshape(basis, (rank, -1))
    gram = q.conj() @ q.T
    assert np.allclose(gram, np.eye(rank), atol=1e-10)
    for m in mats:
        member, _, _ = numkit.hs_member(m, basis)
        assert member


REFINED = {  # two input diagonals, and the sizes of the blocks refinement splits
    "two-blocks": (
        [np.r_[0, 3e-7, 1, 1 + 3e-7, 2:10], np.r_[0, 0, 1, 1, 2, 0, 1, 2, 0, 1, 2, 0]],
        [2, 2],
    ),
    "every-block": ([np.repeat([0, 3e-7, 1, 1 + 3e-7], 3), np.tile([0, 1, 2], 4)], [2] * 6),
}


@pytest.mark.parametrize("noise", [0.0, 1e-7])
@pytest.mark.parametrize("case", sorted(REFINED))
def test_refinement_recompresses_rotated_columns(monkeypatch, case, noise):
    # eigenvalue gaps of 3e-7 sit under the first grouping's cut, so the
    # per-input refinement splits those blocks; the compressions it
    # updates at the rotated columns (all of them in "every-block")
    # match a full recompression into the final basis, also off the
    # blocks of a noisy (not quite commuting) pair, where a stale row
    # or column would show
    diagonals, split = REFINED[case]
    rng = np.random.default_rng(3)
    u = rand_unitary(rng, 12)
    stack = np.stack([u @ np.diag(row) @ u.conj().T for row in diagonals]).astype(complex)
    h = rng.standard_normal((12, 12))
    stack[1] += noise * (h + h.T)
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    rotations = []
    core = numkit._normal_eig_core

    def rephased(c, threshold):  # an eigenbasis with other column phases
        rotations.append(len(c))
        evals, w = core(c, threshold)
        return evals, w * np.exp(1j * np.arange(1, len(w) + 1))

    monkeypatch.setattr(numkit, "_normal_eig_core", rephased)
    result, comp = numkit._attempt_joint(stack, np.random.default_rng(1), scales)
    assert rotations == split and result.n_blocks == 12
    full = numkit._compress(result.unitary, stack)
    assert np.abs(comp - full).max() <= 1e-13
    residual = numkit._verify_joint(result, comp, scales)
    assert (residual <= numkit.JOINT_TARGET_RTOL) == (not noise)
    assert residual == pytest.approx(numkit._verify_joint(result, full, scales), abs=1e-14)
