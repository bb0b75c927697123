import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from spectroid import cstarcat, groups, numkit, selftest, serial
from spectroid.cstarcat import (
    CategoryPresentation,
    StarFunctor,
    close,
    check_axioms,
    compose_functors,
    generated_by,
    groupoid_category,
    identity_functor,
    is_commutative,
    is_full,
    linking_category,
    multi_linking,
    multi_linking_generator,
    validate_functor,
)
from spectroid.config import AXIOM_SLACK, GRAM_SLACK
from spectroid.errors import InvalidFunctor, InvalidGroupoid, NotNormal
from spectroid.groups import groupoid_report, validate_groupoid
from spectroid.reporting import Report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("b", ["A", "B"])
def test_generated_by_rejects_non_finite_input_up_front(monkeypatch, value, b):
    # no commutator is formed (an inf would warn) and no norm is taken
    def no_norm(*args, **kwargs):
        raise AssertionError("non-finite input is rejected before any norm")

    monkeypatch.setattr(cstarcat, "hs_norm", no_norm)
    x = np.eye(2, dtype=complex)
    x[0, 1] = value
    with pytest.raises(ValueError, match="non-finite entries in generated_by"):
        generated_by(x, "A", b)


def test_generated_by_normality_test_is_nan_safe(monkeypatch):
    # a NaN normality defect fails the test instead of passing it
    monkeypatch.setattr(cstarcat, "hs_norm", lambda m: np.nan)
    with pytest.raises(NotNormal):
        generated_by(np.diag([1.0, 2.0]), "A", "A")


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


def reference_close(presentation, unitize=False, tol=1e-9, rounds=None):
    """The full-recompute closure: every round offers every adjoint and
    every product of the whole current bases, and orthonormalizes the
    old basis and the candidates together.  A ``rounds`` list gets one
    entry per round run, whether it added a direction."""
    objects = tuple((str(o), int(d)) for o, d in presentation.objects)
    dims = dict(objects)
    ids = [o for o, _ in objects]
    blocks = {(a, b): [] for a in ids for b in ids}
    for pair, mats in presentation.generators.items():
        blocks[pair] += [np.asarray(m, dtype=complex) for m in mats]
    if unitize:
        for o, d in objects:
            blocks[(o, o)].append(np.eye(d, dtype=complex))
    for pair in blocks:
        blocks[pair] = numkit.hs_orthonormalize(blocks[pair], tol).basis
    for _ in range(sum(dims[a] * dims[b] for a in ids for b in ids) + 1):
        changed = False
        candidates = {
            pair: [] for pair, basis in blocks.items()
            if len(basis) < dims[pair[0]] * dims[pair[1]]
        }
        for (a, b), basis in blocks.items():
            if (b, a) in candidates:
                candidates[(b, a)] += [x.conj().T for x in basis]
        for a, b, c in itertools.product(ids, ids, ids):
            if (a, c) in candidates:
                candidates[(a, c)] += [
                    x @ y for x in blocks[(a, b)] for y in blocks[(b, c)]
                ]
        for pair, extra in candidates.items():
            if extra:
                new = numkit.hs_orthonormalize(blocks[pair] + extra, tol).basis
                if len(new) > len(blocks[pair]):
                    blocks[pair] = new
                    changed = True
        if rounds is not None:
            rounds.append(changed)
        if not changed:
            break
    else:
        raise AssertionError("reference closure did not stabilize")
    unital = unitize or all(
        numkit.hs_member(np.eye(d), blocks[(o, o)], tol)[0] for o, d in objects
    )
    return cstarcat.MatrixCategory(objects, blocks, unital)


def projector_distance(basis1, basis2):
    """Frobenius distance between the HS projectors onto the spans of
    two orthonormal bases."""
    q1, q2 = (np.reshape(b, (len(b), -1)) for b in (basis1, basis2))
    return float(np.linalg.norm(q1.T @ q1.conj() - q2.T @ q2.conj()))


def _chain_presentation(k, n, rng, scrambled):
    """Diagonal units on n objects of size k and one linking generator
    with random phases per adjacent pair, optionally scrambled."""
    ids = [f"B{j + 1}" for j in range(n)]
    units = [np.diag(np.eye(k)[i]).astype(complex) for i in range(k)]
    gens = {(o, o): list(units) for o in ids}
    for j in range(n - 1):
        phases = np.exp(2j * np.pi * rng.random(k))
        gens[(ids[j], ids[j + 1])] = [
            multi_linking_generator(k, [rng.permutation(k)], [phases], 0, 1)
        ]
    objects = tuple((o, k) for o in ids)
    if scrambled:
        gens = selftest.scramble_category(
            cstarcat.MatrixCategory(objects, gens, False), rng
        ).blocks
    return CategoryPresentation(objects=objects, generators=gens)


def _groupoid_presentation(g, rng):
    """One random element of every non-empty block of a groupoid
    category, with units adjoined at closure."""
    cat = groupoid_category(g)
    gens = {
        pair: [sum(rng.standard_normal() * x for x in basis)]
        for pair, basis in cat.blocks.items() if basis
    }
    return CategoryPresentation(objects=cat.objects, generators=gens)


def _single_presentation(x, a, b):
    objects = ((a, x.shape[0]),) if a == b else ((a, x.shape[0]), (b, x.shape[1]))
    return CategoryPresentation(objects=objects, generators={(a, b): [x]})


def _single_generators():
    """Seeded rectangles with sides 1-9 and normal squares of sides
    1-9."""
    rng = np.random.default_rng(2025)
    for qa in range(1, 10):
        for qb in range(1, 10):
            yield rng.standard_normal((qa, qb)) + 1j * rng.standard_normal((qa, qb)), "B"
    for q in range(1, 10):
        u = selftest.rand_unitary(rng, q)
        eigs = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        yield u @ np.diag(eigs) @ u.conj().T, "A"


def svd_closure(x):
    """The category generated by a generic rectangle ``x`` in block (A,
    B), from its SVD: with ``x = sum_i s_i u_i v_i*`` and distinct
    nonzero ``s_i``, block (A, B) is spanned by the ``u_i v_i*``, and
    (A, A), (B, A), (B, B) by the ``u_i u_i*``, ``v_i u_i*`` and ``v_i
    v_i*`` (each set HS-orthonormal)."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    assert np.all(np.diff(s) < 0) and s[-1] > 0
    vecs = {"A": u.T, "B": vh.conj()}
    blocks = {
        (a, b): [np.outer(p, q.conj()) for p, q in zip(vecs[a], vecs[b])]
        for a in "AB" for b in "AB"
    }
    objects = (("A", x.shape[0]), ("B", x.shape[1]))
    return cstarcat.MatrixCategory(objects, blocks, x.shape[0] == x.shape[1])


def assert_same_closure(got, want):
    assert got.unital == want.unital
    for pair in want.blocks:
        assert got.block_dim(*pair) == want.block_dim(*pair), pair
        if want.block(*pair):
            assert projector_distance(got.block(*pair), want.block(*pair)) <= 1e-10, pair


def test_close_matches_full_recompute_reference():
    rng = np.random.default_rng(2024)
    cases = [
        (_chain_presentation(k, n, rng, scrambled), False)
        for k in range(1, 6) for n in range(1, 5) for scrambled in (False, True)
    ]
    cases += [
        (_groupoid_presentation(g, rng), True)
        for _, g in selftest.groupoid_classification_cases()
    ]
    assert len(cases) == 40 + 45
    for pres, unitize in cases:
        assert_same_closure(close(pres, unitize=unitize), reference_close(pres, unitize))


def test_generated_by_matches_full_recompute_reference():
    # generic rectangles with both sides 7 or more close on a power
    # basis in the squared singular values, ill conditioned enough that
    # the input-order reference can drift: they are held to their SVD
    # spans instead
    cases = list(_single_generators())
    assert len(cases) == 81 + 9
    for x, b in cases:
        if b == "B" and min(x.shape) >= 7:
            want = svd_closure(x)
        else:
            want = reference_close(_single_presentation(x, "A", b))
        assert_same_closure(generated_by(x, "A", b), want)


def test_generated_by_matches_close_without_calling_it(monkeypatch):
    # one eigendecomposition gives close's closure: the same block
    # dimensions and unital flag, spans within the default tolerance
    # (3.1e-11 at worst here)
    from spectroid.config import DEFAULT_TOL

    cases = list(_single_generators())
    wants = [close(_single_presentation(x, "A", b)) for x, b in cases]

    def no_close(*args, **kwargs):
        raise AssertionError("generated_by called close")

    monkeypatch.setattr(cstarcat, "close", no_close)
    for (x, b), want in zip(cases, wants):
        got = generated_by(x, "A", b)
        assert got.unital == want.unital
        for pair in want.blocks:
            assert got.block_dim(*pair) == want.block_dim(*pair), pair
            if want.block(*pair):
                dist = projector_distance(got.block(*pair), want.block(*pair))
                assert dist <= DEFAULT_TOL, pair


def _repeats(rows):
    """Pairs (i < j) of equal-length rows within 1e-9 of each other."""
    found = []
    by_len = {}
    for i, r in enumerate(rows):
        by_len.setdefault(len(r), []).append(i)
    for idx in by_len.values():
        x = np.array([rows[i] for i in idx])
        dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        found += [(idx[i], idx[j]) for i, j in zip(*np.nonzero(np.triu(dist <= 1e-9, 1)))]
    return found


def _once_cases():
    # scrambled chains and a generic generator: no two basis elements
    # share a value, so a repeated factor is the same element again
    for k, n in [(3, 3), (4, 2), (2, 4)]:
        yield _chain_presentation(k, n, np.random.default_rng(10 * k + n), True)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    yield _single_presentation(x, "A", "B")


once_cases = pytest.mark.parametrize(
    "pres", list(_once_cases()), ids=["chain3x3", "chain4x2", "chain2x4", "rect4x3"]
)


def _record_close(monkeypatch, pres):
    """Close ``pres`` recording what is made and where.  The set-up and
    the ends of rounds sync the blocks below the diagonal, as the
    adjoints of their mirrors; the stop test's products and adjoints
    (``_generators_act``) and the rounds' candidates are kept apart
    from those syncs.  A round is a run of ``_extend`` calls between two
    batches of made candidates, and an ``_adjoints`` call that follows
    ``_extend`` calls is a sync."""
    products, adjoints = cstarcat._products, cstarcat._adjoints
    extend, project, act = cstarcat._extend, cstarcat._project, cstarcat._generators_act
    made = {
        part: {"pairs": [], "adjoints": [], "made": 0}
        for part in ("setup", "test", "round")
    }
    rec = {
        "part": "setup", "kernel": 0, "projected": 0, "rounds": [], "extending": False,
        "syncs": {"setup": [], "round": []}, "extended": [], "tests": [],
    }

    def record_products(left, right):
        made[rec["part"]]["pairs"] += [np.append(x, y) for x in left for y in right]
        out = products(left, right)
        made[rec["part"]]["made"] += len(out)
        rec["extending"] = False
        return out

    def record_adjoints(mats):
        out = adjoints(mats)
        if rec["part"] == "setup" or (rec["part"] == "round" and rec["extending"]):
            rec["syncs"][rec["part"]].append(out)
            return out
        made[rec["part"]]["adjoints"] += [np.ravel(x) for x in mats]
        made[rec["part"]]["made"] += len(out)
        rec["extending"] = False
        return out

    def record_act(*args):
        rec["part"] = "test"
        try:
            rec["tests"].append(act(*args))
            return rec["tests"][-1]
        finally:
            rec["part"] = "round"

    def record_project(basis, mats, tol):
        rec["projected"] += len(mats)
        return project(basis, mats, tol)

    def record_extend(basis, mats, tol, best_first=False):
        rec["kernel"] += len(mats)
        rec["extended"].append(basis)
        new = extend(basis, mats, tol, best_first)
        if not rec["extending"]:
            rec["rounds"].append(False)
            rec["extending"] = True
        rec["rounds"][-1] |= bool(new)
        return new

    monkeypatch.setattr(cstarcat, "_products", record_products)
    monkeypatch.setattr(cstarcat, "_adjoints", record_adjoints)
    monkeypatch.setattr(cstarcat, "_generators_act", record_act)
    monkeypatch.setattr(cstarcat, "_project", record_project)
    monkeypatch.setattr(cstarcat, "_extend", record_extend)
    return close(pres), made, rec


def _start(pres, a, b):
    """Block (a, b)'s starting basis, for a at or before b: its
    generators and the adjoints of block (b, a)'s, orthonormalized."""
    gens = pres.generators
    mats = list(gens.get((a, b), [])) + [m.conj().T for m in gens.get((b, a), [])]
    return numkit.hs_orthonormalize(mats).basis


def _upper(ids):
    return [(a, b) for i, a in enumerate(ids) for b in ids[i:]]


@once_cases
def test_close_offers_each_product_and_adjoint_once(monkeypatch, pres):
    cat, made, rec = _record_close(monkeypatch, pres)
    ids = cat.object_ids
    # the set-up makes no product and no candidate: its adjoints are the
    # blocks below the diagonal, synced from their mirrors
    assert made["setup"] == {"pairs": [], "adjoints": [], "made": 0}
    lower = [(b, a) for i, b in enumerate(ids) for a in ids[:i]]  # row-major
    assert [len(x) for x in rec["syncs"]["setup"]] == [len(_start(pres, a, b)) for b, a in lower]
    # the stop test projects everything it makes
    assert made["test"]["made"] == rec["projected"] > 0
    # everything the kernel is offered is one of the rounds' candidates;
    # a synced block is never extended, so every candidate targets a
    # block on or above the diagonal
    assert made["round"]["made"] == rec["kernel"] > 0
    syncs = rec["syncs"]["setup"] + rec["syncs"]["round"]
    assert not any(basis is x for basis in rec["extended"] for x in syncs)
    assert len(rec["extended"]) <= len(_upper(ids)) * len(rec["rounds"])
    assert not _repeats(made["round"]["adjoints"])
    assert not _repeats(made["round"]["pairs"])


@once_cases
def test_close_runs_no_round_that_adds_nothing(monkeypatch, pres):
    # the semi-naive rounds add the reference's spans round by round,
    # one round ahead: the starting blocks already hold the generators'
    # adjoints, which the reference offers in its round 0.  Every round
    # adds a direction, and the stop test ends close after the last one
    cat, _, rec = _record_close(monkeypatch, pres)
    ref_rounds = []
    assert_same_closure(cat, reference_close(pres, rounds=ref_rounds))
    assert ref_rounds[-1] is False and all(ref_rounds[:-1])
    assert len(ref_rounds) >= 3
    assert rec["rounds"] == ref_rounds[:-2]
    assert rec["tests"] == [False] * len(rec["rounds"]) + [True]


def _is_star_symmetric(cat):
    """Every block off the diagonal is bit for bit the adjoints of its
    mirror."""
    return all(
        np.array_equal(
            cstarcat._stack(cat, b, a), numkit._adjoints(cstarcat._stack(cat, a, b))
        )
        for a, b in cat.pairs() if a != b
    )


def test_close_keeps_the_category_deck_exactly_star_symmetric():
    closes = 0
    for seed in (101, 1, 2, 3, 4, 5):
        for case in workloads.category_deck(seed):
            stored = serial.parse("category", case.inputs[0])
            pres = CategoryPresentation(
                objects=stored.objects,
                generators={k: list(v) for k, v in stored.blocks.items() if v},
            )
            assert _is_star_symmetric(close(pres, stored.unital, workloads.TOL))
            closes += 1
    assert closes == 6 * 43


def _sided_presentation(name, rng):
    """Random generators placed to exercise the blocks' mirrors: only
    below the diagonal, independently on both sides, between objects of
    different dimensions, or low-rank ones closed with units."""
    def rand(m, n, rank=None):
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if rank is not None:
            x = x[:, :rank] @ (rng.standard_normal((rank, n)) + 0j)
        return x

    if name == "lower-only":
        objects = (("A", 2), ("B", 3), ("C", 2))
        gens = {("B", "A"): [rand(3, 2, 1)], ("C", "B"): [rand(2, 3, 1)], ("C", "A"): [rand(2, 2, 1)]}
    elif name == "both-sides":
        objects = (("A", 3), ("B", 3))
        gens = {("A", "B"): [rand(3, 3, 1)], ("B", "A"): [rand(3, 3, 1)]}
    elif name == "mixed-dims":
        objects = (("A", 1), ("B", 4), ("C", 3))
        gens = {("A", "B"): [rand(1, 4)], ("C", "B"): [rand(3, 4, 2)], ("C", "C"): [rand(3, 3, 1)]}
    else:
        objects = (("A", 4), ("B", 2))
        gens = {("A", "A"): [rand(4, 4, 1)], ("B", "A"): [rand(2, 4, 1)]}
    return CategoryPresentation(objects=objects, generators=gens)


@pytest.mark.parametrize("name", ["lower-only", "both-sides", "mixed-dims", "unitized"])
def test_close_from_generators_on_either_side_of_the_diagonal(name):
    rng = np.random.default_rng(47)
    for _ in range(5):
        pres = _sided_presentation(name, rng)
        unitize = name == "unitized"
        got = close(pres, unitize=unitize)
        assert_same_closure(got, reference_close(pres, unitize))
        assert _is_star_symmetric(got)


@pytest.mark.parametrize("n", [2, 3])
def test_stop_test_runs_before_round_1(monkeypatch, n):
    # the starting blocks hold the generators and their adjoints, so a
    # linking chain of two objects is closed after one round, and the
    # test before round 1 stops close; on three objects it does not
    pres = _chain_presentation(3, n, np.random.default_rng(53), True)
    cat, _, rec = _record_close(monkeypatch, pres)
    assert_same_closure(cat, reference_close(pres))
    if n == 2:
        assert rec["tests"] == [False, True] and rec["rounds"] == [True]
    else:
        assert rec["tests"][:2] == [False, False] and rec["rounds"][:2] == [True, True]


@once_cases
def test_stop_test_generators_repeat_no_direction(monkeypatch, pres):
    # the stop test's generator stacks are the starting blocks, already
    # closed under adjoints, so no direction enters a stack twice
    act = cstarcat._generators_act
    calls = []

    def record_act(blocks, gens, *args):
        calls.append((dict(blocks), gens))
        return act(blocks, gens, *args)

    monkeypatch.setattr(cstarcat, "_generators_act", record_act)
    close(pres)
    start, gens = calls[0]
    assert all(g is gens for _, g in calls)
    for pair, stack in gens.items():
        assert np.array_equal(stack, start[pair])
        assert not _repeats([np.ravel(g) for g in stack])


@pytest.mark.parametrize("name", ["z5-algebra", "z5-algebra-unitized", "diagonal-unitized"])
def test_close_of_a_star_algebra_makes_no_extend_call(monkeypatch, name):
    rng = np.random.default_rng(41)
    if name.startswith("z5"):
        cat = selftest.scramble_category(
            groupoid_category(groups.connected_groupoid(1, groups.cyclic(5))), rng
        )
        pres = CategoryPresentation(objects=cat.objects, generators=cat.blocks)
    else:
        pres = diag_presentation(4, ids=("A", "B"))
    unitize = name.endswith("unitized")

    def no_extend(*args, **kwargs):
        raise AssertionError("the stop test before round 0 passes")

    monkeypatch.setattr(cstarcat, "_extend", no_extend)
    got = close(pres, unitize=unitize)
    assert_same_closure(got, reference_close(pres, unitize))
    assert got.unital


@pytest.mark.parametrize(
    "name", ["hermitian-diagonal", "x-and-adjoint", "unitized-pair", "first-column"]
)
def test_close_continues_past_a_span_the_generators_do_not_act_on(name):
    # the first three presentations are closed under adjoints but not
    # under products with their generators; the last, the matrices
    # supported on the first column, under products with the generators
    # and their adjoints (E12 E21 = E11) but not under adjoints: the
    # stop test before round 0 must fail on each
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    if name == "hermitian-diagonal":
        objects, gens = (("A", 3),), {("A", "A"): [np.diag([1.0, 2.0, 4.0])]}
    elif name == "first-column":
        units = np.eye(4).reshape(4, 2, 2)  # E11, E12, E21, E22
        objects, gens = (("A", 2),), {("A", "A"): [units[0], units[2]]}
    else:
        objects = (("A", 3), ("B", 2))
        gens = {("A", "B"): [x], ("B", "A"): [x.conj().T]}
    pres = CategoryPresentation(objects=objects, generators=gens)
    unitize = name == "unitized-pair"
    got = close(pres, unitize=unitize)
    assert_same_closure(got, reference_close(pres, unitize))
    grown = sum(len(b) for b in got.blocks.values())
    assert grown > sum(map(len, gens.values())) + unitize * len(objects)


@pytest.mark.parametrize("scrambled", [False, True])
def test_closing_a_closed_category_adds_nothing(scrambled):
    rng = np.random.default_rng(31)
    cats = [
        cstarcat.multi_linking(
            3, [rng.permutation(3) for _ in range(2)],
            [np.exp(2j * np.pi * rng.random(3)) for _ in range(2)],
        ),
        groupoid_category(groups.connected_groupoid(2, groups.symmetric(3))),
        generated_by(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))),
    ]
    for cat in cats:
        if scrambled:
            cat = selftest.scramble_category(cat, rng)
        pres = CategoryPresentation(
            objects=cat.objects,
            generators={p: list(b) for p, b in cat.blocks.items()},
        )
        again = close(pres)
        # each block on or above the diagonal is its starting basis, and
        # each block below is the adjoints of its mirror
        for a, b in _upper(cat.object_ids):
            want = _start(pres, a, b)
            assert len(again.block(a, b)) == len(want)
            for got, w in zip(again.block(a, b), want):
                assert np.array_equal(got, w)
        assert _is_star_symmetric(again)


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
    z = multi_linking_generator(2, [[1, 0]], [[1.0, 1j]], 0, 1)
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


def _linking_presentation(k, ids, perms, phases):
    """The presentation the linking constructors once closed: diagonal
    units on every object and one generator per adjacent pair."""
    units = [np.diag(row).astype(complex) for row in np.eye(k)]
    gens = {(o, o): list(units) for o in ids}
    for j in range(len(ids) - 1):
        gens[(ids[j], ids[j + 1])] = [multi_linking_generator(k, perms, phases, j, j + 1)]
    return CategoryPresentation(objects=tuple((o, k) for o in ids), generators=gens)


def _random_chain(seed):
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 9)), int(rng.integers(2, 6))
    perms = [rng.permutation(k) for _ in range(n - 1)]
    phases = [np.exp(2j * np.pi * rng.random(k)) for _ in range(n - 1)]
    return k, perms, phases


@pytest.mark.parametrize("seed", range(30))
def test_closed_form_linking_chain_matches_close(seed):
    # close is the oracle: the same block dimensions, unital flag and spans
    k, perms, phases = _random_chain(seed)
    if len(perms) == 1:
        cat, ids = linking_category(k, perms[0], phases[0]), ("A", "B")
    else:
        cat = multi_linking(k, perms, phases)
        ids = tuple(f"B{j + 1}" for j in range(len(perms) + 1))
    ref = close(_linking_presentation(k, ids, perms, phases))
    assert cat.objects == ref.objects and cat.unital == ref.unital
    for pair in ref.pairs():
        assert cat.block_dim(*pair) == ref.block_dim(*pair)
        assert projector_distance(cat.block(*pair), ref.block(*pair)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_elements_are_the_generator_entries(seed):
    # element i of block (B_j, B_l) is gen[i, pi(i)] E_{i, pi(i)} bit for
    # bit, block (B_l, B_j) holds their adjoints in the same order, and
    # every diagonal block holds E_00, E_11, ...
    k, perms, phases = _random_chain(seed)
    cat = multi_linking(k, perms, phases)
    ids, rows = cat.object_ids, np.arange(k)
    for o in ids:
        assert np.array_equal(np.stack(cat.block(o, o)), np.eye(k)[:, None] * np.eye(k))
    for j, l in itertools.combinations(range(len(ids)), 2):
        gen = multi_linking_generator(k, perms, phases, j, l)
        cols = np.argmax(gen != 0, axis=1)
        want = np.zeros((k, k, k), dtype=complex)
        want[rows, rows, cols] = gen[rows, cols]
        assert np.array_equal(np.stack(cat.block(ids[j], ids[l])), want)
        assert np.array_equal(
            np.stack(cat.block(ids[l], ids[j])), want.conj().transpose(0, 2, 1)
        )


def test_linking_constructors_never_close(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("close called")

    monkeypatch.setattr(cstarcat, "close", forbidden)
    linking_category(4, [1, 2, 3, 0], np.exp([0.1j, 0.2j, 0.3j, 0.4j]))
    multi_linking(3, [[1, 2, 0], [2, 0, 1], [0, 2, 1]])
    for seed in range(12):  # every kind of random category
        selftest.random_commutative_category(seed)


@pytest.mark.parametrize("k, n", [(16, 8), (32, 4)])
def test_large_linking_chains_pass_the_axioms(k, n):
    rng = np.random.default_rng(k + n)
    perms = [rng.permutation(k) for _ in range(n - 1)]
    phases = [np.exp(2j * np.pi * rng.random(k)) for _ in range(n - 1)]
    rep = check_axioms(multi_linking(k, perms, phases))
    assert rep.passed, rep.summary()


def test_linking_category_rejects_one_object_twice():
    with pytest.raises(ValueError, match="duplicate object ids"):
        linking_category(2, [1, 0], a_id="A", b_id="A")


# ---------------------------------------------------------------------------
# functors


def test_identity_functor_validates():
    cat = linking_category(2, [0, 1])
    rep = validate_functor(identity_functor(cat), cat, cat)
    assert rep.passed, rep.summary()


def gauge_functor(cat, nu):
    """Block (A, B) multiplied by the phase ``nu_A conj(nu_B)``."""
    return StarFunctor(
        {o: o for o in cat.object_ids},
        {
            (a, b): nu[a] * np.conj(nu[b]) * np.eye(len(basis))
            for (a, b), basis in cat.blocks.items()
        },
    )


def test_gauge_automorphism_is_star_functor():
    # multiply block (A,B) by a phase nu_A conj(nu_B): always a functor
    cat = linking_category(3, [2, 0, 1], phases=[1.0, 1j, -1.0])
    nu = {"A": np.exp(0.7j), "B": np.exp(-1.2j)}
    phi = gauge_functor(cat, nu)
    rep = validate_functor(phi, cat, cat)
    assert rep.passed, rep.summary()


def test_broken_functor_fails_validation():
    cat = linking_category(2, [1, 0])
    phi = identity_functor(cat)
    phi.block_maps[("A", "B")] = 2.0 * phi.block_maps[("A", "B")]  # not isometric
    rep = validate_functor(phi, cat, cat)
    assert not rep.passed


def test_validate_functor_names_a_block_map_of_the_wrong_shape():
    cat = linking_category(2, [1, 0], [1, 1j])
    phi = identity_functor(cat)
    phi.block_maps[("A", "B")] = np.eye(2, 3)
    want = r"block map \(A,B\) has shape \(2, 3\), expected \(2, 2\)"
    with pytest.raises(InvalidFunctor, match=want):
        validate_functor(phi, cat, cat)


def test_validate_functor_rejects_product_outside_source():
    # span{sigma_x} is closed under adjoints but sigma_x^2 = 1 leaves it
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2)
    cat = cstarcat.MatrixCategory((("A", 2),), {("A", "A"): [sx]}, unital=False)
    with pytest.raises(InvalidFunctor):
        validate_functor(identity_functor(cat), cat, cat)


# ---------------------------------------------------------------------------
# planted failures: each numeric check trips on one finite defect at
# about ten times its bound, and on a NaN wherever it sits


def _unit(k, i, j):
    m = np.zeros((k, k), dtype=complex)
    m[i, j] = 1.0
    return m


def _with_element(cat, pair, i, m, unital=None):
    """``cat`` with basis element ``i`` of block ``pair`` replaced."""
    blocks = {key: list(basis) for key, basis in cat.blocks.items()}
    blocks[pair][i] = np.asarray(m, dtype=complex)
    return cstarcat.MatrixCategory(
        cat.objects, blocks, cat.unital if unital is None else unital
    )


def _tilted_projector(theta):
    """e_00 tilted by ``theta`` toward the Hermitian e_01 + e_10, HS
    unit norm: the span stays self-adjoint and orthonormal, but its
    products with e_11 leave it, and the unit leaves it."""
    m = _unit(2, 0, 0) + theta * (_unit(2, 0, 1) + _unit(2, 1, 0)) / np.sqrt(2)
    return m / np.linalg.norm(m)


# on linking_category(2, [1, 0]): block (A, A) is [e_00, e_11] and block
# (A, B) spans e_01, e_10
AXIOM_DEFECTS = {
    "orthonormal-bases": lambda c: _with_element(
        c, ("A", "B"), 0, (1 + 5e-7) * c.block("A", "B")[0]
    ),
    # a diagonal direction in (A, B) whose adjoint (B, A) does not span
    "adjoint-closure": lambda c: _with_element(
        c, ("A", "B"), 0, c.block("A", "B")[0] + 1e-7 * _unit(2, 0, 0)
    ),
    "composition-closure": lambda c: _with_element(
        c, ("A", "A"), 0, _tilted_projector(1.4e-7), unital=False
    ),
    "units": lambda c: _with_element(c, ("A", "A"), 0, _tilted_projector(1e-7)),
}


@pytest.mark.parametrize("name", sorted(AXIOM_DEFECTS))
def test_check_axioms_trips_on_planted_defect(name):
    cat = linking_category(2, [1, 0])
    assert check_axioms(cat).passed
    check = next(c for c in check_axioms(AXIOM_DEFECTS[name](cat)).checks
                 if c.name == name)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


def test_check_axioms_counts_nan_basis_entry_as_failure():
    cat = linking_category(2, [1, 0])
    bad = cat.block("A", "B")[1].copy()
    bad[0, 1] = np.nan
    rep = check_axioms(_with_element(cat, ("A", "B"), 1, bad))
    ortho = next(c for c in rep.checks if c.name == "orthonormal-bases")
    assert not ortho.passed and ortho.residual == np.inf


def _axioms_block_by_block(cat, tol):
    """``check_axioms`` as one loop over the blocks: a Gram matrix per
    filled block, an adjoint projection per filled pair, every product
    per triple, and one ``hs_member`` per object.  Returns the report
    and each check's items, in the order the checks list them."""

    def stack(a, b):
        return np.reshape(cat.block(a, b), (-1, cat.dim(a), cat.dim(b)))

    ids = cat.object_ids
    filled = [pair for pair, basis in cat.blocks.items() if basis]
    triples = [
        (a, b, c) for a, b, c in itertools.product(ids, repeat=3)
        if cat.block(a, b) and cat.block(b, c)
    ]
    gram, adjoint, closure = [], [], []
    for a, b in filled:
        q = stack(a, b).reshape(cat.block_dim(a, b), -1)
        gram.append(np.linalg.norm(q.conj() @ q.T - np.eye(len(q))))
        adjoints = numkit._adjoints(stack(a, b))
        adjoint.append(numkit._project(stack(b, a), adjoints, tol)[1].max())
    for a, b, c in triples:
        prods = np.array([x @ y for x in stack(a, b) for y in stack(b, c)])
        closure.append(numkit._project(stack(a, c), prods, tol)[1].max())
    items = {
        "orthonormal-bases": gram,
        "adjoint-closure": adjoint,
        "composition-closure": closure,
    }
    if cat.unital:
        items["units"] = [
            numkit.hs_member(np.eye(d), cat.block(o, o), tol)[1] for o, d in cat.objects
        ]
    labels = {
        "adjoint-closure": lambda i: "({},{})".format(*filled[i]),
        "composition-closure": lambda i: "({0},{1})x({1},{2})".format(*triples[i]),
    }
    report = Report()
    for name, devs in items.items():
        slack = GRAM_SLACK if name == "orthonormal-bases" else AXIOM_SLACK
        report.check(name, devs, slack * tol, labels.get(name))
    return report, items


def _emptied_diagonal():
    """A unital-flagged linking chain whose block (B2, B2), the second
    of three diagonal blocks, is empty, so its shape differs from the
    diagonal blocks on either side."""
    cat = multi_linking(3, [[1, 2, 0], [0, 2, 1]])
    blocks = {key: list(basis) for key, basis in cat.blocks.items()}
    blocks[("B2", "B2")] = []
    return cstarcat.MatrixCategory(cat.objects, blocks, True)


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mixed_close():
    """The closure of two random generators over objects of dimensions
    2, 3 and 2, unitized: blocks of one shape sit apart in row-major
    order."""
    rng = np.random.default_rng(5)
    pres = CategoryPresentation(
        objects=(("A", 2), ("B", 3), ("C", 2)),
        generators={
            ("A", "B"): [_gaussian(rng, (2, 3))],
            ("B", "C"): [_gaussian(rng, (3, 2))],
        },
    )
    return close(pres, unitize=True)


AXIOM_REFERENCE_CASES = {
    "rect-3x2": lambda: generated_by(_gaussian(np.random.default_rng(1), (3, 2))),
    "rect-2x3": lambda: generated_by(_gaussian(np.random.default_rng(2), (2, 3))),
    "emptied-diagonal": _emptied_diagonal,
    "mixed-close": _mixed_close,
    "linking-chain": lambda: multi_linking(
        3,
        [[1, 2, 0], [0, 2, 1]],
        [np.exp([0.3j, 1.1j, -2.0j]), np.exp([0.5j, 0.2j, 2.5j])],
    ),
}


@pytest.mark.parametrize("name", sorted(AXIOM_REFERENCE_CASES))
def test_check_axioms_matches_a_block_by_block_reference(monkeypatch, name):
    # check_axioms forms the Gram matrices and the units' projections
    # per group of same-shaped blocks; its report, and each check's
    # items in order, are the block-by-block loop's up to rounding
    cat = AXIOM_REFERENCE_CASES[name]()
    want, want_items = _axioms_block_by_block(cat, 1e-9)
    got_items = {}
    real = Report.check

    def record(self, name, devs, bound, label=None):
        got_items[name] = np.asarray(devs, dtype=float)
        real(self, name, devs, bound, label)

    monkeypatch.setattr(Report, "check", record)
    got = check_axioms(cat, 1e-9)
    monkeypatch.undo()
    assert [(c.name, c.passed, c.detail, c.bound) for c in got.checks] == [
        (c.name, c.passed, c.detail, c.bound) for c in want.checks
    ]
    for c, w in zip(got.checks, want.checks):
        assert abs(c.residual - w.residual) <= 1e-15, (c, w)
    assert list(got_items) == list(want_items)
    for key, devs in want_items.items():
        np.testing.assert_allclose(
            got_items[key], devs, rtol=0, atol=1e-15, err_msg=key
        )


def test_check_axioms_reference_cases_cover_their_shapes():
    # the rectangles' four blocks have four shapes, the emptied block's
    # unit fails between two that pass, and the closure's same-shaped
    # blocks are not adjacent in row-major order
    for name in ("rect-3x2", "rect-2x3"):
        cat = AXIOM_REFERENCE_CASES[name]()
        assert len({np.shape(basis) for basis in cat.blocks.values()}) == 4
    units = check_axioms(_emptied_diagonal()).checks[-1]
    assert units.name == "units" and not units.passed
    assert units.residual == pytest.approx(np.sqrt(3))
    shapes = [np.shape(basis) for basis in _mixed_close().blocks.values()]
    assert any(s == shapes[i + 2] != shapes[i + 1] for i, s in enumerate(shapes[:-2]))


def _scaled_block_map(pair, factor):
    cat = linking_category(2, [1, 0])
    phi = identity_functor(cat)
    phi.block_maps[pair] = factor * phi.block_maps[pair]
    return phi, cat


FUNCTOR_DEFECTS = {
    # phi(x*) = x* but phi(x)* = exp(-i theta) x*
    "involution": lambda: _scaled_block_map(("A", "B"), np.exp(1e-6j)),
    # phi(e e) = (1 + eps) e but phi(e) phi(e) = (1 + eps)^2 e
    "multiplicativity": lambda: _scaled_block_map(("A", "A"), 1 + 1e-6),
    "units": lambda: _scaled_block_map(("A", "A"), 1 + 7e-7),
}


@pytest.mark.parametrize("name", sorted(FUNCTOR_DEFECTS))
def test_validate_functor_trips_on_planted_defect(name):
    phi, cat = FUNCTOR_DEFECTS[name]()
    check = next(c for c in validate_functor(phi, cat, cat).checks
                 if c.name == name)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


@pytest.mark.parametrize("where", [0, -1])
def test_validate_functor_counts_nan_as_failure(where):
    # first and last block map: a NaN fails wherever it sits
    cat = linking_category(2, [1, 0])
    phi = identity_functor(cat)
    key = list(phi.block_maps)[where]
    phi.block_maps[key] = phi.block_maps[key].copy()
    phi.block_maps[key][0, 0] = np.nan
    rep = validate_functor(phi, cat, cat)
    assert not rep.passed
    assert rep.worst_residual == np.inf


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_linking_generator_rejects_non_unimodular_phase(bad):
    with pytest.raises(ValueError):
        multi_linking_generator(2, [[1, 0]], [[1.0, bad]], 0, 1)


def test_compose_functors_matches_pointwise():
    cat = linking_category(2, [1, 0], phases=[1.0, 1j])
    nu1 = {"A": 1j, "B": 1.0}
    nu2 = {"A": np.exp(0.3j), "B": np.exp(0.9j)}

    phi1, phi2 = gauge_functor(cat, nu1), gauge_functor(cat, nu2)
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


def reference_is_full(cat, tol=1e-9):
    """The dimension test: Gram-Schmidt rank of all products x* y (and
    x y*) of a block against the dimension of the diagonal block."""
    for a, b in cat.pairs():
        basis = cat.block(a, b)
        right = [x.conj().T @ y for x in basis for y in basis]
        left = [x @ y.conj().T for x in basis for y in basis]
        if numkit.hs_orthonormalize(right, tol).rank != cat.block_dim(b, b):
            return False
        if numkit.hs_orthonormalize(left, tol).rank != cat.block_dim(a, a):
            return False
    return True


def _non_full_cases():
    yield close(diag_presentation(2, ids=("A", "B")), unitize=True)
    yield groupoid_category(
        groups.disjoint_union(
            groups.connected_groupoid(1, groups.cyclic(2)),
            groups.connected_groupoid(1, groups.cyclic(3)),
        )
    )
    yield groupoid_category(
        groups.disjoint_union(
            groups.connected_groupoid(1, groups.symmetric(3)),
            groups.connected_groupoid(1, groups.cyclic(2)),
        )
    )


def test_is_full_matches_rank_test():
    # the invertibility criterion of unital categories against the rank
    # test on the whole classification family (S3 cases included) and
    # the non-full categories above
    cats = [groupoid_category(g) for _, g in selftest.groupoid_classification_cases()]
    cats += list(_non_full_cases())
    assert len(cats) == 48 and all(cat.unital for cat in cats)
    got = [is_full(cat) for cat in cats]
    assert got == [reference_is_full(cat) for cat in cats]
    assert got.count(False) == 24


def test_is_full_rank_path_without_units():
    # a row vector closes to a non-unital category; its blocks are full
    # by the rank test, which is the path taken without units
    x = np.array([[1.0, 2.0, 0.5]], dtype=complex)
    cat = generated_by(x, "A", "B")
    assert not cat.unital
    assert is_full(cat) == reference_is_full(cat)


def test_groupoid_block_dims_match_hom_sets():
    g = groups.connected_groupoid(2, groups.cyclic(2))
    cat = groupoid_category(g)
    for i, a in enumerate(g.objects):
        for j, b in enumerate(g.objects):
            hom = (g.target == i) & (g.source == j)
            assert cat.block_dim(a, b) == hom.sum()


def test_invalid_groupoid_rejected():
    g = groups.connected_groupoid(1, groups.cyclic(2))
    junk = np.where(g.compose >= 0, g.compose[0, 0], -1)  # every product the same
    with pytest.raises(InvalidGroupoid):
        groupoid_category(dataclasses.replace(g, compose=junk))


# ---------------------------------------------------------------------------
# chunked products: the same reports and messages at every chunk size


def _not_closed():
    """Three Hermitian directions of M_2 whose products leave their
    span (sigma_x sigma_z = -i sigma_y), with a noisy functor."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2)
    e = np.eye(2, dtype=complex) / np.sqrt(2)
    return cstarcat.MatrixCategory((("A", 2),), {("A", "A"): [e, sx, sz]}, unital=False)


def _noisy_identity(cat, seed):
    rng = np.random.default_rng(seed)
    phi = identity_functor(cat)
    for pair, m in phi.block_maps.items():
        phi.block_maps[pair] = m + 1e-7 * rng.standard_normal(m.shape)
    return phi


CHUNK_CASES = {
    "linking": lambda: linking_category(3, [2, 0, 1], phases=[1.0, 1j, -1.0]),
    "groupoid": lambda: groupoid_category(
        groups.connected_groupoid(3, groups.cyclic(3))
    ),
    "multi-linking": lambda: multi_linking(3, [[1, 2, 0], [2, 1, 0]]),
}


def _same_up_to_rounding(got, want):
    """Equal reports, residuals within rounding of each other (a
    projection's last bits depend on how many rows BLAS multiplies at
    once)."""
    assert [(c.name, c.passed, c.detail, c.bound) for c in got] == [
        (c.name, c.passed, c.detail, c.bound) for c in want
    ]
    for g, w in zip(got, want):
        assert g.residual == pytest.approx(w.residual, rel=1e-6, abs=1e-15), g


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_chunked_products_match_one_stack(monkeypatch, name):
    cat = CHUNK_CASES[name]()
    phi = _noisy_identity(cat, 3)
    # the unchunked products, as one stack per triple
    stacks = {p: np.array(cat.block(*p)) for p in cat.pairs()}
    closure = [
        numkit._project(
            cat.block(a, c), cstarcat._products(stacks[(a, b)], stacks[(b, c)]), 1e-9
        )[1].max()
        for a, b, c in itertools.product(cat.object_ids, repeat=3)
        if cat.block(a, b) and cat.block(b, c)
    ]
    want_axioms = check_axioms(cat).checks
    want_functor = validate_functor(phi, cat, cat).checks
    # the default chunk holds every triple here: bit for bit
    assert next(c for c in want_axioms if c.name == "composition-closure").residual == max(closure)
    d = max(dim for _, dim in cat.objects)
    for chunk in (1, 7, 3 * d * d):
        monkeypatch.setattr(cstarcat, "_PAIR_CHUNK", chunk)
        _same_up_to_rounding(check_axioms(cat).checks, want_axioms)
        _same_up_to_rounding(validate_functor(phi, cat, cat).checks, want_functor)
        # whole bound arrays (every block here has dimension n): the two
        # checks report them and form no product; the others are unchanged
        o, n = len(cat.objects), len(cat.block(*cat.pairs()[0]))
        bounds = np.full((o, o, n), 1e-9), np.full((o, o, o, n, n), 2e-9)
        with monkeypatch.context() as m:
            m.setattr(cstarcat, "_product_defects", None)  # a call would raise
            got = validate_functor(phi, cat, cat, _certified=bounds).checks
        names = ("involution", "multiplicativity")
        assert [c.residual for c in got if c.name in names] == [1e-9, 2e-9]
        _same_up_to_rounding(
            [c for c in got if c.name not in names],
            [c for c in want_functor if c.name not in names],
        )


def test_chunked_product_outside_source_names_the_same_residual(monkeypatch):
    cat = _not_closed()
    with pytest.raises(InvalidFunctor) as want:
        validate_functor(identity_functor(cat), cat, cat)
    assert check_axioms(cat).failures()
    closure = next(c for c in check_axioms(cat).checks if c.name == "composition-closure")
    for chunk in (1, 4, 12):
        monkeypatch.setattr(cstarcat, "_PAIR_CHUNK", chunk)
        with pytest.raises(InvalidFunctor) as got:
            validate_functor(identity_functor(cat), cat, cat)
        assert str(got.value) == str(want.value)
        assert next(
            c for c in check_axioms(cat).checks if c.name == "composition-closure"
        ) == closure
