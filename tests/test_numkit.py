import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectroid import numkit
from spectroid.errors import DiagonalizationFailed, NotCommuting, NotNormal

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
                blk = je.columns([b])
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


def test_joint_diagonalize_empty_family():
    je = numkit.joint_diagonalize([], dim=3)
    assert je.n_blocks == 1
    assert je.sizes.tolist() == [3]
    assert np.array_equal(je.unitary, np.eye(3))


def test_joint_diagonalize_rejects_noncommuting():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    with pytest.raises(NotCommuting) as exc:
        numkit.joint_diagonalize([x, z])
    assert exc.value.pair == (0, 1)
    assert exc.value.residual > 1.0


def test_joint_diagonalize_names_first_noncommuting_pair():
    # (0, 1) commute; (0, 2) and (1, 2) do not: the first in (i, j)
    # order is named, with its own residual
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotCommuting) as exc:
        numkit.joint_diagonalize([z, 2 * z, 3 * x])
    assert exc.value.pair == (0, 2)
    assert exc.value.residual == pytest.approx(np.linalg.norm(z @ x - x @ z) * 3)


def test_joint_diagonalize_rejects_nonnormal():
    with pytest.raises(NotNormal):
        numkit.joint_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_joint_diagonalize_degenerate_pair_needs_refinement():
    # first input has a degenerate eigenvalue that only the second splits
    a = np.diag([1.0, 1.0, 2.0])
    b = np.diag([5.0, 7.0, 7.0])
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
    assert numkit._verify_joint(je, comp, scales)[0] < 1e-12
    comp[where] = np.nan
    assert numkit._verify_joint(je, comp, scales)[0] == np.inf


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
        blk = je.columns([b])
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
        out = verify(result, comp, scales)
        residuals.append(out[0])
        return out

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
# commutation: certified from the eigenbasis, searched in chunks


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


def reference_joint_diagonalize(family, tol, seed):
    """The order of checks without the certificate: the pairwise
    search, then normality, then the seeded attempts."""
    stack = np.stack([np.asarray(m, dtype=complex) for m in family])
    pair = reference_noncommuting_pair(stack, tol)
    if pair is not None:
        i, j, dev = pair
        raise NotCommuting(
            f"inputs {i} and {j} do not commute (residual {dev:.3e})",
            pair=(i, j), residual=dev,
        )
    numkit._check_normal(stack, tol)
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    best, best_residual = None, np.inf
    for attempt in range(5):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, attempt, 0x6A0D])
        result, comp = numkit._attempt_joint(stack, rng, scales)
        residual = numkit._verify_joint(result, comp, scales)[0]
        if residual <= numkit.JOINT_TARGET_RTOL:
            return result
        if residual < best_residual:
            best, best_residual = result, residual
    if best_residual <= numkit.JOINT_FALLBACK_SLACK * tol * scales.max():
        return best
    raise DiagonalizationFailed(
        f"joint diagonalization failed to verify after 5 seeds "
        f"(best residual {best_residual:.3e})"
    )


def outcome(call):
    """A result's arrays, or an exception's type, message, pair and
    residual."""
    try:
        je = call()
    except (NotCommuting, NotNormal, DiagonalizationFailed) as exc:
        return (type(exc), str(exc), getattr(exc, "pair", None),
                getattr(exc, "residual", None))
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


def equivalence_cases():
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
    "mats, tol", [pytest.param(m, t, id=name) for name, m, t in equivalence_cases()]
)
def test_joint_diagonalize_matches_search_first_reference(mats, tol):
    # the same result bit for bit, or the same exception, pair and residual
    for seed in range(2):
        want = outcome(lambda: reference_joint_diagonalize(mats, tol, seed))
        got = outcome(lambda: numkit.joint_diagonalize(mats, tol, seed=seed))
        assert got == want


def test_equivalence_cases_reach_every_outcome():
    kinds = {}
    for name, mats, tol in equivalence_cases():
        kind = outcome(lambda: reference_joint_diagonalize(mats, tol, 0))[0]
        kinds.setdefault(kind, []).append(name)
    assert set(kinds) == {"ok", NotCommuting, NotNormal}
    # the planted pair is named at 1.01x and above, and passes at 0.5x
    assert not any(n.startswith("pair-0.5") for n in kinds[NotCommuting])
    assert sum(n.startswith("pair-") for n in kinds[NotCommuting]) == 9


def counting(monkeypatch, name):
    calls = []
    original = getattr(numkit, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(numkit, name, counted)
    return calls


def test_commuting_family_accepted_at_target_forms_no_commutator(monkeypatch):
    searches = counting(monkeypatch, "_noncommuting_pair")
    rng = np.random.default_rng(21)
    for trial in range(5):
        mats, _, _ = planted_family(rng, 8, 6, 3)
        numkit.joint_diagonalize(mats, 1e-9, seed=trial)
    mats, _, _ = near_degenerate_family(1e-6, 0)
    numkit.joint_diagonalize(mats, 1e-9)
    # every search ran over the empty set of uncertified pairs
    assert len(searches) == 6
    assert all(len(args[2][0]) == 0 for args in searches)


def test_non_commuting_family_pays_for_one_attempt(monkeypatch):
    attempts = counting(monkeypatch, "_attempt_joint")
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotCommuting) as exc:
        numkit.joint_diagonalize([np.diag([1.0, -1.0]), x])
    assert exc.value.pair == (0, 1) and len(attempts) == 1


def test_unverified_attempts_search_every_pair_once(monkeypatch):
    # attempts that miss the fallback bound: the first one triggers the
    # full search, so DiagonalizationFailed (or NotCommuting) comes
    # after it, and a later attempt at the target needs no certificate
    verify = numkit._verify_joint
    misses = []

    def spy(result, comp, scales):
        residual, defects, delta = verify(result, comp, scales)
        if len(misses) < budget:
            misses.append(residual)
            return np.inf, defects, delta
        return residual, defects, delta

    monkeypatch.setattr(numkit, "_verify_joint", spy)
    searches = counting(monkeypatch, "_noncommuting_pair")
    mats, _, _ = planted_family(np.random.default_rng(4), 6, 3, 2)
    budget = 5
    with pytest.raises(DiagonalizationFailed):
        numkit.joint_diagonalize(mats, 1e-9)
    assert len(misses) == 5 and len(searches) == 1 and searches[0][2] is None
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    misses.clear()
    searches.clear()
    with pytest.raises(NotCommuting):
        numkit.joint_diagonalize([np.diag([1.0, -1.0]), x])
    assert len(misses) == 1 and len(searches) == 1
    misses.clear()
    searches.clear()
    budget = 2
    numkit.joint_diagonalize(mats, 1e-9)
    assert len(misses) == 2 and len(searches) == 1


@pytest.mark.parametrize("factor", [0.5, 1.01, 2.0, 10.0])
def test_planted_pair_is_never_certified(factor):
    # the certificate leaves the planted pair to the explicit search at
    # any size of its defect; every pair it certifies passes that search
    stack = np.stack(planted_pair_family(factor, 1, 3)).astype(complex)
    scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    norms = np.linalg.norm(stack, axis=(1, 2))
    for attempt in range(3):
        rng = np.random.default_rng([0, attempt, 0x6A0D])
        result, comp = numkit._attempt_joint(stack, rng, scales)
        _, defects, delta = numkit._verify_joint(result, comp, scales)
        i, j = numkit._uncertified_pairs(stack, 1e-9, result, defects, delta)
        assert (1, 3) in set(zip(i.tolist(), j.tolist()))
        every = set(zip(*np.triu_indices(len(stack), 1)))
        for a, b in every - set(zip(i.tolist(), j.tolist())):
            dev = np.linalg.norm(stack[a] @ stack[b] - stack[b] @ stack[a])
            assert dev <= 1e-9 * (1.0 + norms[a] * norms[b])


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


def test_search_over_given_pairs_in_row_major_order():
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    stack = np.stack([z, x, 2 * z, 3 * x])
    assert numkit._noncommuting_pair(stack, 1e-9)[:2] == (0, 1)
    pairs = (np.array([0, 2, 2]), np.array([2, 3, 3]))
    assert numkit._noncommuting_pair(stack, 1e-9, pairs)[:2] == (2, 3)
    assert numkit._noncommuting_pair(stack, 1e-9, (pairs[0][:1], pairs[1][:1])) is None


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
    residual, defects, _ = numkit._verify_joint(result, comp, scales)
    assert (residual <= numkit.JOINT_TARGET_RTOL) == (not noise)
    model = numkit._diag(np.repeat(result.eigenvalues, result.sizes, axis=1))
    assert np.allclose(defects, np.linalg.norm(full - model, axis=(1, 2)), atol=1e-14)
