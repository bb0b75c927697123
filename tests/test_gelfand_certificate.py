"""gelfand's certificate: its proven bounds against the explicit
adjoints, products and operator norms they stand in for, in gelfand
and in the round trip's input checks."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectroid
from spectroid import cstarcat as cc
from spectroid import duality as du
from spectroid import groups, selftest
from spectroid import spaceoid as sp
from spectroid.config import AXIOM_SLACK, CERT_SLACK, FUNCTOR_SLACK, ISOMETRY_SLACK
from spectroid.errors import InvalidFunctor
from spectroid.reporting import Report

TOL = 1e-9
BOUND = FUNCTOR_SLACK * TOL  # validate_functor's multiplicativity bound


def _linking():
    phases = [np.exp([0.3j, 1.1j, -2.0j]), np.exp([0.5j, 0.2j, 2.5j])]
    return cc.multi_linking(3, [[1, 2, 0], [0, 2, 1]], phases)


def _groupoid(n, group):
    return cc.groupoid_category(groups.connected_groupoid(n, group))


def _scrambled(cat, seed):
    return selftest.scramble_category(cat, np.random.default_rng(seed))


# the deck's kinds: linking chains and abelian groupoids (class ranks 1
# to 4), plain and in scrambled coordinates
CATEGORIES = {
    "linking": _linking,
    "groupoid-Z3": lambda: _groupoid(2, groups.cyclic(3)),
    "groupoid-V4-rank4": lambda: _groupoid(4, groups.klein_four()),
    "linking-scrambled": lambda: _scrambled(_linking(), 11),
    "groupoid-Z4-scrambled": lambda: _scrambled(_groupoid(3, groups.cyclic(4)), 12),
    "classical": lambda: du.classical_category(6),
}


def gelfand_parts(cat):
    """``gelfand``'s spectrum, sections and block maps, ``(o, o, n,
    n)``."""
    spec = du.spectrum(cat, TOL)
    sec = du.sections(spec.spaceoid, TOL)
    return spec, sec, spec.block_maps


def functor(cat, maps):
    ids = list(enumerate(cat.object_ids))
    block_maps = {
        (a, b): maps[i, j] for (i, a), (j, b) in itertools.product(ids, repeat=2)
    }
    return cc.StarFunctor({o: o for o in cat.object_ids}, block_maps)


def explicit_products(cat, sec, maps):
    """Per triple ``(a, b, c)``: every pair's multiplicativity defect and
    its product's HS residual outside block (a, c), all products of
    the triple formed at once."""
    out = {}
    ids = list(enumerate(cat.object_ids))
    for (i, a), (j, b), (k, c) in itertools.product(ids, repeat=3):
        left, right, basis = (np.array(cat.block(*p)) for p in [(a, b), (b, c), (a, c)])
        prods = left[:, None] @ right[None]
        coeffs = np.einsum("kxy,ijxy->ijk", basis.conj(), prods)
        outside = np.linalg.norm(
            prods - np.einsum("ijk,kxy->ijxy", coeffs, basis), axis=(-2, -1)
        )

        def image(at, pair, co):
            return np.tensordot(co @ maps[at].T, np.array(sec.block(*pair)), 1)

        defect = image((i, k), (a, c), coeffs) - (
            image((i, j), (a, b), np.eye(len(left)))[:, None]
            @ image((j, k), (b, c), np.eye(len(right)))[None]
        )
        out[(a, b, c)] = np.linalg.norm(defect, axis=(-2, -1)), outside
    return out


def explicit_adjoints(cat, sec, maps):
    """Per pair ``(a, b)``: every basis element's involution defect and
    its adjoint's HS residual outside block (b, a)."""
    out = {}
    ids = list(enumerate(cat.object_ids))
    for (i, a), (j, b) in itertools.product(ids, repeat=2):
        basis, other = np.array(cat.block(a, b)), np.array(cat.block(b, a))
        adj = np.swapaxes(basis.conj(), -1, -2)
        coeffs = np.einsum("kxy,ixy->ik", other.conj(), adj)
        outside = np.linalg.norm(
            adj - np.einsum("ik,kxy->ixy", coeffs, other), axis=(-2, -1)
        )
        img = np.tensordot(maps[i, j].T, np.array(sec.block(a, b)), 1)
        alt = np.tensordot(coeffs @ maps[j, i].T, np.array(sec.block(b, a)), 1)
        defect = alt - np.swapaxes(img.conj(), -1, -2)
        out[(a, b)] = np.linalg.norm(defect, axis=(-2, -1)), outside
    return out


def planted(maps, pair, scale, rng):
    """``maps`` with one entry of the map of the block at positions
    ``pair`` moved by ``scale`` times the multiplicativity bound."""
    out = maps.copy()
    m = out[pair]
    p, k = rng.integers(len(m), size=2)
    m[p, k] += scale * BOUND * np.exp(2j * np.pi * rng.random())
    return out


def multiplicativity(report):
    return next(c for c in report.checks if c.name == "multiplicativity")


@pytest.mark.parametrize("scale", [0.0, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_certified_pairs_bound_their_explicit_defects(name, scale):
    cat = CATEGORIES[name]()
    spec, sec, maps = gelfand_parts(cat)
    ids = cat.object_ids
    maps = planted(maps, (0, -1), scale, np.random.default_rng(7))
    q = du._compressions(spec, maps)
    mult, outside = du._product_bounds(q)
    certified, _ = du._certificates(q, TOL)
    explicit = explicit_products(cat, sec, maps)
    worst = 0.0
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(ids), repeat=3):
        defect, resid = explicit[(a, b, c)]
        # every bound holds, on every pair, certified or not
        assert np.all(mult[i, j, k] >= defect), (a, b, c)
        assert np.all(outside[i, j, k] >= resid), (a, b, c)
        worst = max(worst, defect.max())
    if certified is not None:
        assert np.array_equal(certified[1], mult)
        # no defect at or above the check's bound is ever certified
        assert worst < BOUND
    if not scale:  # an exact functor is certified
        assert certified is not None
    phi = functor(cat, maps)
    rep = cc.validate_functor(phi, cat, sec, TOL, _certified=certified)
    check = multiplicativity(rep)
    if certified is None:
        # the check is formed whole, as validate_functor forms it alone
        assert rep == cc.validate_functor(phi, cat, sec, TOL)
    if worst > BOUND:
        # a failing check reports the explicit residual, as before
        assert not check.passed
        assert check.residual == pytest.approx(worst, rel=1e-12)
    else:
        assert check.passed


def involution(report):
    return next(c for c in report.checks if c.name == "involution")


@pytest.mark.parametrize("scale", [0.0, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_certified_adjoints_bound_their_explicit_defects(name, scale):
    cat = CATEGORIES[name]()
    spec, sec, maps = gelfand_parts(cat)
    ids = cat.object_ids
    maps = planted(maps, (0, -1), scale, np.random.default_rng(7))
    q = du._compressions(spec, maps)
    inv, outside = du._adjoint_bounds(q)
    certified, axioms = du._certificates(q, TOL)
    explicit = explicit_adjoints(cat, sec, maps)
    worst = worst_resid = 0.0
    for (i, a), (j, b) in itertools.product(enumerate(ids), repeat=2):
        defect, resid = explicit[(a, b)]
        # every bound holds, on every element, certified or not
        assert np.all(inv[i, j] >= defect), (a, b)
        assert np.all(outside[i, j] >= resid), (a, b)
        worst = max(worst, defect.max())
        worst_resid = max(worst_resid, resid.max())
    # no defect or residual at or above its check's bound is certified
    if certified is not None:
        assert np.array_equal(certified[0], inv)
        assert worst < BOUND
    if axioms is not None:
        assert np.array_equal(axioms[0], outside)
        assert worst_resid < AXIOM_SLACK * TOL
    if not scale:  # an exact functor is certified
        assert certified is not None
    phi = functor(cat, maps)
    rep = cc.validate_functor(phi, cat, sec, TOL, _certified=certified)
    check = involution(rep)
    if certified is None:
        # the check is formed whole, as validate_functor forms it alone
        assert rep == cc.validate_functor(phi, cat, sec, TOL)
    if worst > BOUND:
        # a failing check reports the explicit residual, as before
        assert not check.passed
        assert check.residual == pytest.approx(worst, rel=1e-12)
    else:
        assert check.passed


def test_one_bad_pair_among_many_is_named_as_before():
    n, k = 12, 5
    cat = du.classical_category(n)
    spec, sec, maps = gelfand_parts(cat)
    # phi(e_k) scaled by 1 + 1e-6: only the pair (k, k) fails, at ten
    # times the bound
    maps = maps.copy()
    maps[0, 0, :, k] *= 1 + 10 * BOUND
    q = du._compressions(spec, maps)
    certified, _ = du._certificates(q, TOL)
    mult = du._product_bounds(q)[0][0, 0, 0]
    assert not CERT_SLACK * mult[k, k] <= BOUND
    # products that vanish, away from e_k, have bounds that clear, but
    # one pair that does not leaves the whole check to the explicit one
    away = ~np.eye(n, dtype=bool)
    away[k] = away[:, k] = False
    assert np.all(CERT_SLACK * mult[away] <= BOUND)
    assert certified is None
    phi = functor(cat, maps)
    rep = cc.validate_functor(phi, cat, sec, TOL, _certified=certified)
    # the same checks, residuals, bounds and details as the call alone
    assert rep == cc.validate_functor(phi, cat, sec, TOL)
    check = multiplicativity(rep)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


def test_gelfand_reports_the_explicit_residual_of_a_planted_pair(monkeypatch):
    spectrum = du.spectrum

    def planted_spectrum(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        spec.block_maps = spec.block_maps.copy()
        # the image of basis element 2 of (A, A)
        spec.block_maps[0, 0, :, 2] *= 1 + 10 * BOUND
        return spec

    monkeypatch.setattr(du, "spectrum", planted_spectrum)
    g = du.gelfand(du.classical_category(8), TOL)
    check = next(c for c in g.report.checks if c.name == "functor-multiplicativity")
    assert not check.passed
    # every functor check, the involution too, as the call alone makes
    # it: residual, bound and detail
    plain = cc.validate_functor(g.functor, g.spectrum.category, g.sections, TOL)
    got = [c for c in g.report.checks if c.name.startswith("functor-")]
    assert got == [c._replace(name="functor-" + c.name) for c in plain.checks]


# --- the round trip's certified input checks ---------------------------------


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


@pytest.mark.parametrize("name", ["adjoint-closure", "composition-closure"])
def test_roundtrip_reports_a_planted_closure_defect_as_check_axioms_does(name):
    # basis element 2 of (A, B) moved by 1e-7 e_00, a direction outside
    # the span: its adjoint, and its product with a projection of (A, A),
    # leave their blocks at about ten times AXIOM_SLACK * tol
    cat = cc.linking_category(3, [1, 2, 0])
    blocks = {key: list(basis) for key, basis in cat.blocks.items()}
    blocks[("A", "B")][2] = blocks[("A", "B")][2] + 1e-7 * np.diag([1.0, 0, 0])
    cat = cc.MatrixCategory(cat.objects, blocks, cat.unital)
    plain = _check(cc.check_axioms(cat, TOL), name)
    check = _check(du.roundtrip_category(cat, TOL), "input-" + name)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check
    assert (check.residual, check.bound, check.detail) == (
        plain.residual, plain.bound, plain.detail
    )


RANDOM = {
    f"random-{seed}": (lambda seed=seed: selftest.random_commutative_category(seed))
    for seed in range(8)
}
EQUIVALENCE = {
    **RANDOM,
    "linking-scrambled": CATEGORIES["linking-scrambled"],
    "groupoid-V4": lambda: _groupoid(3, groups.klein_four()),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_roundtrip_matches_its_parts_run_apart(name):
    cat = EQUIVALENCE[name]()
    report = du.roundtrip_category(cat, TOL)
    axioms = cc.check_axioms(cat, TOL)
    g = du.gelfand(cat, TOL)
    apart = Report()
    apart.extend(axioms, "input-")
    apart.extend(g.report, "gelfand-")
    apart.extend(sp.validate(g.spectrum.spaceoid, TOL), "spaceoid-")
    assert [(c.name, c.passed) for c in report.checks] == [
        (c.name, c.passed) for c in apart.checks
    ]
    # a certified check's value is at least the residual formed
    # explicitly; a measured one, batched in the round trip, is that
    # residual up to rounding
    explicit = {"input-" + c.name: c for c in axioms.checks}
    functor = cc.validate_functor(g.functor, cat, g.sections, TOL)
    explicit.update({"gelfand-functor-" + c.name: c for c in functor.checks})
    measured = {"input-orthonormal-bases", "input-units", "gelfand-functor-units"}
    for c in report.checks:
        want = explicit.get(c.name, c).residual
        if c.name in measured:
            assert c.residual == pytest.approx(want, rel=0, abs=1e-14), c.name
        else:
            assert c.residual >= want, c.name
    # and so is every certified item's
    bounds = []
    du.gelfand(cat, TOL, _axioms=bounds)
    (axiom_bounds,) = bounds
    assert axiom_bounds is not None
    adj, prod = axiom_bounds
    _, sec, maps = gelfand_parts(cat)
    adjoints, products = explicit_adjoints(cat, sec, maps), explicit_products(cat, sec, maps)
    at = {o: i for i, o in enumerate(cat.object_ids)}
    for key, (_, resid) in adjoints.items():
        assert np.all(adj[tuple(at[o] for o in key)] >= resid), key
    for key, (_, resid) in products.items():
        assert np.all(prod[tuple(at[o] for o in key)] >= resid), key


def _reversed_blocks(cat):
    """``cat`` with its ``blocks`` dict in reverse row-major order."""
    return cc.MatrixCategory(cat.objects, dict(reversed(cat.blocks.items())), cat.unital)


AXIOM_CASES = {
    **RANDOM,
    **CATEGORIES,
    "linking-reversed": lambda: _reversed_blocks(_scrambled(_linking(), 11)),
    "groupoid-reversed": lambda: _reversed_blocks(_groupoid(3, groups.cyclic(4))),
}


def _axiom_bounds(cat):
    """``gelfand``'s bounds for ``check_axioms``' ``_certified``."""
    bounds = []
    du.gelfand(cat, TOL, _axioms=bounds)
    assert bounds[0] is not None
    return bounds[0]


def _bound_checks(cat, bounds) -> Report:
    """The closure checks the bounds stand in for, read pair by pair in
    the order of ``cat.blocks`` and triple by triple in object order."""
    adj, prod = bounds
    ids = cat.object_ids
    at = {o: i for i, o in enumerate(ids)}
    pairs = list(cat.blocks)
    triples = list(itertools.product(ids, repeat=3))
    report = Report()
    report.check(
        "adjoint-closure",
        [adj[at[a], at[b]].max() for a, b in pairs],
        AXIOM_SLACK * TOL,
        lambda i: "({},{})".format(*pairs[i]),
    )
    report.check(
        "composition-closure",
        [prod[at[a], at[b], at[c]].max() for a, b, c in triples],
        AXIOM_SLACK * TOL,
        lambda i: "({0},{1})x({1},{2})".format(*triples[i]),
    )
    return report


@pytest.mark.parametrize("name", sorted(AXIOM_CASES))
def test_certified_axioms_match_the_block_by_block_checks(name):
    cat = AXIOM_CASES[name]()
    bounds = _axiom_bounds(cat)
    got = cc.check_axioms(cat, TOL, _certified=bounds).checks
    explicit = cc.check_axioms(cat, TOL).checks
    assert [(c.name, c.passed, c.bound) for c in got] == [
        (c.name, c.passed, c.bound) for c in explicit
    ]
    # the closure checks report the bounds, labelled by their pairs and
    # triples; the others measure what the explicit checks measure
    closure = {c.name: c for c in _bound_checks(cat, bounds).checks}
    for c, e in zip(got, explicit):
        if c.name in closure:
            assert c == closure[c.name]
        else:
            assert c.detail == e.detail
            assert abs(c.residual - e.residual) <= 1e-14, (c, e)
    if "reversed" in name:
        # values read in row-major order but labelled from cat.blocks
        # would name another pair
        at = {o: i for i, o in enumerate(cat.object_ids)}
        row_major = [bounds[0][at[a], at[b]].max() for a, b in cat.pairs()]
        mislabel = "({},{})".format(*list(cat.blocks)[int(np.argmax(row_major))])
        assert closure["adjoint-closure"].detail not in ("", mislabel)


def _with_block(cat, pair, basis):
    blocks = {key: list(b) for key, b in cat.blocks.items()}
    blocks[pair] = basis
    return cc.MatrixCategory(cat.objects, blocks, cat.unital)


def _unit_plants(cat):
    """Block (B1, B1) of a linking chain, E_00, E_11, E_22, without the
    identity in its span: E_11 removed, or replaced by E_01, which keeps
    the basis orthonormal and every block's shape."""
    e = list(cat.block("B1", "B1"))
    off = np.zeros_like(e[0])
    off[0, 1] = 1.0
    return {
        "removed": _with_block(cat, ("B1", "B1"), [e[0], e[2]]),
        "replaced": _with_block(cat, ("B1", "B1"), [e[0], off, e[2]]),
    }


def test_certified_axioms_catch_a_planted_basis_scale():
    cat = _linking()
    bounds = _axiom_bounds(cat)
    basis = list(cat.block("B1", "B2"))
    basis[1] = basis[1] * (1 + 1e-6)
    bad = _with_block(cat, ("B1", "B2"), basis)
    got = _check(cc.check_axioms(bad, TOL, _certified=bounds), "orthonormal-bases")
    want = _check(cc.check_axioms(bad, TOL), "orthonormal-bases")
    assert not got.passed
    assert got.residual == pytest.approx(want.residual, rel=1e-9)


@pytest.mark.parametrize("plant", ["removed", "replaced"])
def test_certified_axioms_catch_a_planted_missing_unit(plant):
    cat = _linking()
    bounds = _axiom_bounds(cat)
    bad = _unit_plants(cat)[plant]
    got = _check(cc.check_axioms(bad, TOL, _certified=bounds), "units")
    want = _check(cc.check_axioms(bad, TOL), "units")
    assert not got.passed
    assert got.residual == pytest.approx(want.residual, rel=1e-12)


def test_certified_functor_units_match_and_catch_a_planted_defect():
    cat = _linking()
    spec, sec, maps = gelfand_parts(cat)
    certified, _ = du._certificates(du._compressions(spec, maps), TOL)
    assert certified is not None
    # phi(1) scaled by 1 + 1e-6 at the first object
    maps = maps.copy()
    maps[0, 0] *= 1 + 1e-6
    phi = functor(cat, maps)
    got = _check(cc.validate_functor(phi, cat, sec, TOL, _certified=certified), "units")
    want = _check(cc.validate_functor(phi, cat, sec, TOL), "units")
    assert not got.passed
    assert got.residual == pytest.approx(want.residual, rel=1e-9)
    # an identity outside its block raises, as functor_image does
    with pytest.raises(InvalidFunctor, match=r"source block \(B1,B1\)"):
        cc.validate_functor(
            phi, _unit_plants(cat)["replaced"], sec, TOL, _certified=certified
        )


def _explicit_work(monkeypatch, cat):
    """Run ``roundtrip_category`` on ``cat`` and count the explicit
    adjoints, products and operator norms it forms: calls of
    ``cstarcat``'s ``_adjoints``, ``_product_defects`` and
    ``_closure_residual``, and isometry deviations that are not the
    proven bounds."""
    counts = dict.fromkeys(["_adjoints", "_product_defects", "_closure_residual"], 0)
    for name in counts:
        def spy(*args, name=name, real=getattr(cc, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(cc, name, spy)
    seen = {"_isometry_bounds": [], "_isometry_devs": []}
    for name, out in seen.items():
        def record(*args, out=out, real=getattr(du, name)):
            out.append(real(*args))
            return out[-1]

        monkeypatch.setattr(du, name, record)
    assert du.roundtrip_category(cat, TOL).passed
    counts["isometry"] = sum(d is not b for b, d in zip(*seen.values(), strict=True))
    return counts


TRAFFIC = {**CATEGORIES, **RANDOM}


@pytest.mark.parametrize("name", sorted(TRAFFIC))
def test_roundtrip_forms_no_explicit_item_on_its_traffic(monkeypatch, name):
    # the certificates stand in for every check, so the round trip
    # forms no adjoint, product or operator norm of its own
    counts = _explicit_work(monkeypatch, TRAFFIC[name]())
    assert not any(counts.values()), counts


def test_traffic_guard_fires_when_the_bounds_do_not_clear(monkeypatch):
    # no bound clears an infinite slack; the traffic's bounds sit at
    # 1.2e-4 of their cuts or below, so even 100 times the slack clears
    monkeypatch.setattr(du, "CERT_SLACK", np.inf)
    counts = _explicit_work(monkeypatch, CATEGORIES["linking-scrambled"]())
    assert all(counts.values()), counts


# --- NaN certifies nothing --------------------------------------------------


def _nan_at(arr, index=0):
    out = np.array(arr, dtype=complex, order="C")
    out.reshape(-1)[index] = np.nan
    return out


def _plant_nan(where, spec, maps):
    """One NaN in one input of the certificate; returns the inputs."""
    if where == "block-map":
        maps = maps.copy()
        maps[0, 0] = _nan_at(maps[0, 0], 1)
    elif where == "basis":  # entry 3 of the first block's first element
        spec = dataclasses.replace(spec, elements=_nan_at(spec.elements, 3))
    elif where == "bases":
        spec = dataclasses.replace(spec, bases=_nan_at(spec.bases, 2))
    elif where == "compressions":
        comp = _nan_at(spec.compressions, 5)
        spec = dataclasses.replace(spec, compressions=comp)
    return spec, maps


NAN_INPUTS = ["block-map", "basis", "bases", "compressions"]


@pytest.mark.parametrize("where", NAN_INPUTS)
@pytest.mark.parametrize("make", [
    lambda: du.classical_category(4), lambda: _groupoid(1, groups.cyclic(5)),
], ids=["classical", "group-Z5"])
def test_nan_in_any_input_certifies_nothing(make, where):
    # one object, so every pair and every combination reads every input
    spec, _, maps = gelfand_parts(make())
    spec, maps = _plant_nan(where, spec, maps)
    q = du._compressions(spec, maps)
    functor, axioms = du._certificates(q, TOL)
    assert functor is None
    inv, outside = du._adjoint_bounds(q)
    assert np.isnan(inv).all()
    assert axioms is None
    assert np.isnan(outside).all()
    if where != "basis":  # the inputs the isometry reads
        z = np.ones((1, 1, 3, maps.shape[-1]), dtype=complex)
        assert np.isnan(du._isometry_bounds(q, z, np.ones((1, 1, 3)))).all()


def test_gelfand_with_a_nan_coefficient_fails_without_raising(monkeypatch):
    spectrum = du.spectrum

    def planted_spectrum(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        spec.block_maps = spec.block_maps.copy()
        spec.block_maps[..., 1, 1] = np.nan  # entry 4 of every block's 3 x 3 map
        return spec

    monkeypatch.setattr(du, "spectrum", planted_spectrum)
    rep = du.gelfand(_linking(), TOL).report
    failed = {c.name: c.residual for c in rep.failures()}
    assert failed["functor-multiplicativity"] == np.inf
    assert failed["isometric"] == np.inf
    assert "block-bijective" in failed


# --- isometry ----------------------------------------------------------------


@pytest.mark.parametrize("scale", [0.0, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_isometry_bounds_hold_and_large_defects_stay_explicit(name, scale):
    cat = CATEGORIES[name]()
    spec, _, maps = gelfand_parts(cat)
    # one block's transform scaled: about `scale` times the isometry bound
    # on combinations of operator norm about 1-3
    maps = maps.copy()
    maps[0, -1] *= 1 + scale * ISOMETRY_SLACK * TOL / 2
    q = du._compressions(spec, maps)
    # a NaN unitarity defect certifies nothing: every deviation explicit
    explicit = du._isometry_devs(
        q._replace(delta=np.full_like(q.delta, np.nan)), TOL, seed=3
    )
    reported = du._isometry_devs(q, TOL, seed=3)
    assert np.all(reported >= explicit)
    large = explicit >= ISOMETRY_SLACK * TOL
    assert np.array_equal(reported[large], explicit[large])
    if not scale:  # an exact transform: every combination is certified
        assert np.all(reported != explicit)


# --- scale -------------------------------------------------------------------


SCALE_SCRIPT = """
import resource, time
from spectroid.duality import classical_category, gelfand
c = classical_category(128)
start = time.perf_counter()
g = gelfand(c)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(seconds, peak_mb, g.report.passed)
"""


def test_gelfand_of_128_point_diagonal_algebra_fits():
    # one child process on one BLAS thread; ru_maxrss (KiB on Linux) is
    # the peak of that child alone, imports included
    env = dict(os.environ, PYTHONPATH=str(Path(spectroid.__file__).parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCALE_SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, peak_mb, passed = proc.stdout.split()
    assert passed == "True"
    assert float(peak_mb) < 500.0
