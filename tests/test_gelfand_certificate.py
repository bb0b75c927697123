"""gelfand's certificate: its proven bounds against the explicit
products and operator norms they stand in for."""

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
from spectroid.config import FUNCTOR_SLACK, ISOMETRY_SLACK

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
    """``gelfand``'s spectrum, sections, gauge and block maps, ``(o, o,
    n, n)``."""
    spec = du.spectrum(cat, TOL)
    sec, gauge = du.sections_with_gauge(spec.spaceoid, TOL)
    coeffs = spec._class_means(np.diagonal(spec.compressions, axis1=-2, axis2=-1))
    return spec, sec, gauge, np.swapaxes(coeffs, -1, -2)


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
    spec, sec, gauge, maps = gelfand_parts(cat)
    ids = cat.object_ids
    maps = planted(maps, (0, -1), scale, np.random.default_rng(7))
    q = du._compressions(cat, spec, maps)
    mult, outside = du._product_bounds(q, gauge)
    certified = du._certified_products(cat, q, gauge, TOL)
    explicit = explicit_products(cat, sec, maps)
    worst, n_done = 0.0, 0
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(ids), repeat=3):
        defect, resid = explicit[(a, b, c)]
        done, bound = certified[(a, b, c)]
        assert np.array_equal(bound, mult[i, j, k])
        # every bound holds, on every pair, not only on the certified ones
        assert np.all(mult[i, j, k] >= defect), (a, b, c)
        assert np.all(outside[i, j, k] >= resid), (a, b, c)
        # no defect at or above the check's bound is ever certified
        assert not np.any(done & (defect >= BOUND)), (a, b, c)
        worst, n_done = max(worst, defect.max()), n_done + done.sum()
    if not scale:  # an exact functor: every pair is certified
        assert n_done == sum(d.size for d, _ in explicit.values())
    phi = functor(cat, maps)
    check = multiplicativity(
        cc.validate_functor(phi, cat, sec, TOL, _certified=certified)
    )
    if worst > BOUND:
        # a failing check reports the explicit residual, as before
        assert not check.passed
        assert check == multiplicativity(cc.validate_functor(phi, cat, sec, TOL))
        assert check.residual == pytest.approx(worst, rel=1e-12)
    else:
        assert check.passed


def test_one_bad_pair_among_many_is_named_as_before():
    n, k = 12, 5
    cat = du.classical_category(n)
    spec, sec, gauge, maps = gelfand_parts(cat)
    # phi(e_k) scaled by 1 + 1e-6: only the pair (k, k) fails, at ten
    # times the bound
    maps = maps.copy()
    maps[0, 0, :, k] *= 1 + 10 * BOUND
    certified = du._certified_products(
        cat, du._compressions(cat, spec, maps), gauge, TOL
    )
    done, _ = certified[("A", "A", "A")]
    assert not done[k, k]
    # products that vanish, away from e_k, stay certified
    away = ~np.eye(n, dtype=bool)
    away[k] = away[:, k] = False
    assert done[away].all()
    phi = functor(cat, maps)
    rep = cc.validate_functor(phi, cat, sec, TOL, _certified=certified)
    assert rep.checks == cc.validate_functor(phi, cat, sec, TOL).checks
    check = multiplicativity(rep)
    assert not check.passed
    assert 5 <= check.residual / check.bound <= 20, check


def test_gelfand_reports_the_explicit_residual_of_a_planted_pair(monkeypatch):
    spectrum = du.spectrum

    def planted_spectrum(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        class_means = spec._class_means

        def scaled(diag):  # the image of basis element 2 of (A, A)
            z = class_means(diag)
            if np.ndim(diag) == 4:  # gelfand's block maps, all pairs at once
                z = z.copy()
                z[0, 0, 2] *= 1 + 10 * BOUND
            return z

        spec._class_means = scaled
        return spec

    monkeypatch.setattr(du, "spectrum", planted_spectrum)
    g = du.gelfand(du.classical_category(8), TOL)
    check = next(c for c in g.report.checks if c.name == "functor-multiplicativity")
    plain = multiplicativity(
        cc.validate_functor(g.functor, g.spectrum.category, g.sections, TOL)
    )
    assert not check.passed
    assert (check.residual, check.bound, check.detail) == (
        plain.residual, plain.bound, plain.detail
    )


# --- NaN certifies nothing --------------------------------------------------


def _nan_at(arr, index=0):
    out = np.array(arr, dtype=complex, order="C")
    out.reshape(-1)[index] = np.nan
    return out


def _plant_nan(where, cat, spec, gauge, maps):
    """One NaN in one input of the certificate; returns the inputs."""
    a = cat.object_ids[0]
    if where == "block-map":
        maps = maps.copy()
        maps[0, 0] = _nan_at(maps[0, 0], 1)
    elif where == "basis":
        blocks = dict(cat.blocks)
        blocks[(a, a)] = [_nan_at(blocks[(a, a)][0], 3)] + blocks[(a, a)][1:]
        cat = cc.MatrixCategory(cat.objects, blocks, cat.unital)
    elif where == "bases":
        spec = dataclasses.replace(spec, bases=_nan_at(spec.bases, 2))
    elif where == "compressions":
        comp = _nan_at(spec.compressions, 5)
        spec = dataclasses.replace(spec, compressions=comp)
    elif where == "gauge":
        gauge = _nan_at(gauge, 1)
    return cat, spec, gauge, maps


NAN_INPUTS = ["block-map", "basis", "bases", "compressions", "gauge"]


@pytest.mark.parametrize("where", NAN_INPUTS)
@pytest.mark.parametrize("make", [
    lambda: du.classical_category(4), lambda: _groupoid(1, groups.cyclic(5)),
], ids=["classical", "group-Z5"])
def test_nan_in_any_input_certifies_nothing(make, where):
    # one object, so every pair and every combination reads every input
    spec, _, gauge, maps = gelfand_parts(make())
    cat, spec, gauge, maps = _plant_nan(where, make(), spec, gauge, maps)
    q = du._compressions(cat, spec, maps)
    (done, _), = du._certified_products(cat, q, gauge, TOL).values()
    assert not done.any()
    if where not in ("basis", "gauge"):  # the inputs the isometry reads
        z = np.ones((1, 1, 3, maps.shape[-1]), dtype=complex)
        assert np.isnan(du._isometry_bounds(q, z, np.ones((1, 1, 3)))).all()


def test_gelfand_with_a_nan_coefficient_fails_without_raising(monkeypatch):
    spectrum = du.spectrum

    def planted_spectrum(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        class_means = spec._class_means

        def with_nan(diag):  # entry 4 of every block's 3 x 3 coefficients
            z = class_means(diag).copy()
            z[..., 1, 1] = np.nan
            return z

        spec._class_means = with_nan
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
    spec, _, _, maps = gelfand_parts(cat)
    # one block's transform scaled: about `scale` times the isometry bound
    # on combinations of operator norm about 1-3
    maps = maps.copy()
    maps[0, -1] *= 1 + scale * ISOMETRY_SLACK * TOL / 2
    q = du._compressions(cat, spec, maps)
    # a NaN unitarity defect certifies nothing: every deviation explicit
    explicit = du._isometry_devs(
        cat, q._replace(delta=np.full_like(q.delta, np.nan)), TOL, seed=3
    )
    reported = du._isometry_devs(cat, q, TOL, seed=3)
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
