"""Rank-one bundle data over a finite base.

A spaceoid here is the finite combinatorial core of a unital rank-one
Fell-type line bundle living over (base points) x (pairs of objects):
once a unit frame is fixed in every fiber, all that remains of the
bundle is the table of unimodular structure constants

    u(p; A, B) o u(p; B, C) = lambda(p; A, B, C) * u(p; A, C)

together with the normalizations forced by the involution (frames are
locked to u(p; B, A) = u(p; A, B)*) and by positivity.  This module
stores and validates those tables, applies and finds gauges (frame
changes), and implements morphisms and the standard
constructions (trivial bundles, chains of line bundles, bundles
associated to phase-torsors).

Every finite bundle of this kind is trivializable; ``trivialize``
exhibits the gauge explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import PHASE_ATOL, resolve_tol
from .errors import (
    InvalidMorphism,
    InvalidPhaseFunctor,
    InvalidSpaceoid,
)
from .reporting import Report, worst

__all__ = [
    "SpaceoidData",
    "PhaseFunctor",
    "SpaceoidMorphism",
    "validate",
    "require_valid",
    "phase_functor_from_assignment",
    "validate_phase_functor",
    "random_gauge",
    "apply_gauge",
    "Trivialization",
    "trivialize",
    "trivial_spaceoid",
    "linking_spaceoid",
    "torsor_associated",
    "validate_morphism",
    "compose",
    "identity_morphism",
    "morphism_distance",
]


@dataclass
class SpaceoidData:
    """Base points, objects, and the dense structure-constant table.

    ``table[p, a, b, c]`` is lambda(p; A, B, C), with axes in the order
    of ``base_points`` and ``objects``: shape ``(points, objects,
    objects, objects)``.  The table is copied on construction and its
    shape checked; its values are not (a NaN is stored, and
    :func:`validate` fails it).  Two spaceoids are equal when their
    labels and tables are.
    """

    base_points: tuple
    objects: tuple
    table: np.ndarray

    def __post_init__(self):
        self.base_points = tuple(str(p) for p in self.base_points)
        self.objects = tuple(str(o) for o in self.objects)
        if len(set(self.base_points)) != len(self.base_points):
            raise ValueError("duplicate base points")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        self.table = np.array(self.table, dtype=complex)
        shape = (len(self.base_points),) + (len(self.objects),) * 3
        if self.table.shape != shape:
            raise ValueError(f"table has shape {self.table.shape}, expected {shape}")

    def __eq__(self, other):
        if not isinstance(other, SpaceoidData):
            return NotImplemented
        return (self.base_points, self.objects) == (
            other.base_points, other.objects
        ) and np.array_equal(self.table, other.table)

    @property
    def lam(self) -> dict:
        """The table keyed by labels ``(p, A, B, C)``: a new dict per
        call, for readers that work by label."""
        keys = itertools.product(self.base_points, *[self.objects] * 3)
        return dict(zip(keys, self.table.ravel().tolist()))


@dataclass(frozen=True)
class PhaseFunctor:
    """A multiplicative unimodular phase per ordered pair of objects."""

    psi: dict  # (A, B) -> complex

    def at(self, a, b) -> complex:
        return self.psi[(a, b)]


@dataclass
class SpaceoidMorphism:
    """Morphism data from a domain spaceoid to a codomain spaceoid.

    ``f_delta`` maps domain base points to codomain base points,
    ``f_r`` is a bijection of objects in the same direction, and
    ``fiber_scalars[p, a, b]`` is the coefficient of the bundle map
    carrying the pulled-back codomain frame at ``(f_delta(p), f_r(A),
    f_r(B))`` onto the domain frame at ``(p, A, B)``, with the axes in
    the key order of ``f_delta`` and ``f_r`` (the domain's labels).
    Functoriality of that bundle map reads

        s(p;A,B) s(p;B,C) lam_dom(p;A,B,C)
            = lam_cod(f(p); f(A), f(B), f(C)) s(p;A,C).

    The array is copied and its shape checked on construction.  Equal
    morphisms have equal maps and, aligned by label, equal scalars.
    """

    f_delta: dict
    f_r: dict
    fiber_scalars: np.ndarray

    def __post_init__(self):
        self.fiber_scalars = np.array(self.fiber_scalars, dtype=complex)
        shape = (len(self.f_delta),) + (len(self.f_r),) * 2
        if self.fiber_scalars.shape != shape:
            raise ValueError(f"fiber_scalars {self.fiber_scalars.shape}, not {shape}")

    def __eq__(self, other):
        if not isinstance(other, SpaceoidMorphism):
            return NotImplemented
        return (self.f_delta, self.f_r) == (other.f_delta, other.f_r) and (
            np.array_equal(self.fiber_scalars, _aligned(other, self.f_delta, self.f_r))
        )


def _aligned(m: SpaceoidMorphism, points, objects) -> np.ndarray:
    """``m.fiber_scalars`` at the given keys of ``m.f_delta`` and
    ``m.f_r``, in their order (a key may repeat)."""
    pi = {p: i for i, p in enumerate(m.f_delta)}
    oi = {a: i for i, a in enumerate(m.f_r)}
    r = [oi[a] for a in objects]
    return m.fiber_scalars[np.ix_([pi[p] for p in points], r, r)]


# ---------------------------------------------------------------------------
# validation


def _mul(x, y) -> np.ndarray:
    """Elementwise complex product, rounded as Python's scalar ``x * y``
    rounds it (numpy's vector loops may fuse the multiply-adds).

    This is the one rounding rule for structure constants, gauges and
    fiber scalars: every product of them goes through ``_mul``, chained
    left to right, so a table does not depend on the machine's vector
    unit."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _abs(z) -> np.ndarray:
    """Elementwise modulus, rounded as Python's ``abs(complex)``."""
    return np.hypot(z.real, z.imag)


def _unit(z) -> np.ndarray:
    """Elementwise ``z / |z|``: each part divided by ``_abs(z)``
    (numpy's complex-by-real division multiplies by a reciprocal)."""
    r = _abs(z)
    out = np.empty(z.shape, dtype=complex)
    out.real = z.real / r
    out.imag = z.imag / r
    return out


def validate(e: SpaceoidData, tol: float | None = None) -> Report:
    """Check every structure-constant invariant; returns a report with
    one named check per invariant family.  Each family is one broadcast
    over the dense table; its detail names the first worst entry in
    (point, object, ...) order, and a NaN counts as an infinite
    residual."""
    tol = resolve_tol(tol)
    report = Report()
    pts, objs = e.base_points, e.objects
    lam = e.table
    o = np.arange(len(objs))
    row, col = o[:, None], o[None, :]

    report.check(
        "unimodular", np.abs(_abs(lam) - 1.0), tol,
        lambda p, a, b, c: str((pts[p], objs[a], objs[b], objs[c])),
    )
    # per (p, a, b): lam(p; a, a, b) then lam(p; a, b, b)
    units = np.stack(
        [lam[:, row, row, col], lam[:, row, col, col]], axis=-1
    )
    report.check(
        "unit-normalization", _abs(units - 1.0), tol,
        lambda p, a, b, _: f"({pts[p]},{objs[a]},{objs[b]})",
    )
    # per (p, a, b): lam(p; b, a, b)
    report.check(
        "positivity-normalization", _abs(lam[:, col, row, col] - 1.0),
        tol, lambda p, a, b: f"({pts[p]},{objs[b]},{objs[a]},{objs[b]})",
    )
    report.check(
        "involution-compatible",
        _abs(lam.transpose(0, 3, 2, 1) - lam.conj()), tol,
        lambda p, a, b, c: f"({pts[p]},{objs[a]},{objs[b]},{objs[c]})",
    )
    # lam(p;a,b,c) lam(p;a,c,d) = lam(p;b,c,d) lam(p;a,b,d)
    lhs = _mul(lam[:, :, :, :, None], lam[:, :, None, :, :])
    rhs = _mul(lam[:, None, :, :, :], lam[:, :, :, None, :])
    report.check(
        "cocycle", _abs(lhs - rhs), tol,
        lambda p, a, b, c, d: (
            f"({pts[p]},{objs[a]},{objs[b]},{objs[c]},{objs[d]})"
        ),
    )
    return report


def require_valid(e: SpaceoidData, tol: float | None = None) -> None:
    rep = validate(e, tol)
    if not rep.passed:
        bad = rep.failures()[0]
        raise InvalidSpaceoid(
            f"{bad.name} violated (residual {bad.residual:.3e} at {bad.detail})"
        )


# ---------------------------------------------------------------------------
# phase functors


def phase_functor_from_assignment(nu: dict) -> PhaseFunctor:
    """Build the multiplicative functor psi_AB = nu_A * conj(nu_B)."""
    objs = list(nu)
    psi = {}
    for a in objs:
        za = complex(nu[a])
        if not abs(abs(za) - 1.0) <= PHASE_ATOL:
            raise InvalidPhaseFunctor(f"assignment at {a} is not unimodular")
        for b in objs:
            psi[(a, b)] = za * np.conj(complex(nu[b]))
    return PhaseFunctor(psi)


def validate_phase_functor(
    pf: PhaseFunctor, objects, tol: float | None = None
) -> Report:
    tol = resolve_tol(tol)
    report = Report()
    objects = tuple(objects)
    total = all((a, b) in pf.psi for a in objects for b in objects)
    report.add("total", total)
    if not total:
        return report
    n = len(objects)
    psi = np.reshape([complex(pf.at(a, b)) for a in objects for b in objects], (n, n))
    report.check("unimodular", np.abs(_abs(psi) - 1.0), tol)
    report.check("units", _abs(np.diagonal(psi) - 1.0), tol)
    # psi(a, b) psi(b, c) - psi(a, c) at (a, b, c)
    prod = _mul(psi[:, :, None], psi[None, :, :])
    report.check("multiplicative", _abs(prod - psi[:, None, :]), tol)
    return report


def require_phase_functor(pf: PhaseFunctor, objects, tol=None) -> None:
    rep = validate_phase_functor(pf, objects, tol)
    if not rep.passed:
        raise InvalidPhaseFunctor(
            "; ".join(c.name for c in rep.failures())
        )


# ---------------------------------------------------------------------------
# gauges


def random_gauge(rng: np.random.Generator, base_points, objects) -> np.ndarray:
    """Random unit frame change: a ``(points, objects, objects)`` array,
    conjugate-symmetric and 1 on the diagonal.  It draws one
    ``rng.random()`` per point and per pair a < b, in that order."""
    n = len(objects)
    upper = np.triu_indices(n, 1)
    z = np.exp(2j * np.pi * rng.random((len(base_points), len(upper[0]))))
    gauge = np.ones((len(base_points), n, n), dtype=complex)
    gauge[:, upper[0], upper[1]] = z
    gauge[:, upper[1], upper[0]] = z.conj()
    return gauge


def apply_gauge(e: SpaceoidData, gauge: np.ndarray) -> SpaceoidData:
    """Rewrite the structure constants in the frames scaled by ``gauge``.

    A gauge is a ``(points, objects, objects)`` array in the order of
    ``e``'s labels.  New frames v(p;A,B) = gauge(p;A,B) * u(p;A,B) give

        lam'(p;A,B,C) = lam * g_AB * g_BC * conj(g_AC).
    """
    g = np.asarray(gauge, dtype=complex)
    lam = _mul(_mul(e.table, g[:, :, :, None]), g[:, None, :, :])
    return SpaceoidData(
        e.base_points, e.objects, _mul(lam, g.conj()[:, :, None, :])
    )


class Trivialization(NamedTuple):
    gauge: np.ndarray  # (points, objects, objects) phases reaching the trivial frame
    spaceoid: SpaceoidData  # constants in the new frame (all 1)


def trivialize(e: SpaceoidData, tol: float | None = None) -> Trivialization:
    """Exhibit the gauge that makes every structure constant 1.

    Anchored at the first stored object A0: the frame change
    g(p; A, B) = lam(p; A, A0, B) rewrites the table to the constant 1
    (finite line bundles over a matched base are always trivializable).
    The output spaceoid's table is the numerically recomputed one, so
    its distance from 1 measures the input's internal consistency.
    """
    tol = resolve_tol(tol)
    require_valid(e, tol)
    gauge = e.table[:, :, 0, :].copy()
    return Trivialization(gauge, apply_gauge(e, gauge))


# ---------------------------------------------------------------------------
# constructions


def trivial_spaceoid(n_points: int, n_objects: int = 1) -> SpaceoidData:
    """All structure constants 1; points p0..., objects O1...."""
    return SpaceoidData(
        base_points=tuple(f"p{i}" for i in range(n_points)),
        objects=tuple(f"O{i + 1}" for i in range(n_objects)),
        table=np.ones((n_points,) + (n_objects,) * 3),
    )


def linking_spaceoid(n_points: int, bundle_phases) -> SpaceoidData:
    """Chain of ``n`` phase-framed line bundles over ``n_points``.

    ``bundle_phases`` holds one unimodular list per bundle (length
    ``n_points`` each); the result has ``n + 1`` objects ``B1 ...
    B{n+1}``.  Adjacent blocks carry the phase-twisted frames while
    composite blocks keep the plain tensor frames, so the table is the
    flat one with those frame coefficients applied as a gauge, and for
    consecutive objects the constants multiply the phases:

        lam(p; B_j, B_{j+1}, B_{j+2}) = phases_j(p) * phases_{j+1}(p).
    """
    phases = [np.asarray(pl, dtype=complex) for pl in bundle_phases]
    n = len(phases)
    for pl in phases:
        if pl.shape != (n_points,):
            raise ValueError("each phase list must have one entry per point")
        if not np.all(np.abs(np.abs(pl) - 1.0) <= PHASE_ATOL):
            raise InvalidPhaseFunctor("bundle phases must be unimodular")
    objects = tuple(f"B{j + 1}" for j in range(n + 1))
    points = tuple(f"p{i}" for i in range(n_points))
    # frame coefficient of block (B_{j+1}, B_{l+1}) in the tensor model
    mu = np.ones((n_points, n + 1, n + 1), dtype=complex)
    j = np.arange(n)
    mu[:, j, j + 1] = np.reshape(phases, (n, n_points)).T
    lower = np.tril_indices(n + 1, -1)
    mu[:, lower[0], lower[1]] = mu[:, lower[1], lower[0]].conj()
    flat = SpaceoidData(points, objects, np.ones((n_points,) + (n + 1,) * 3))
    return apply_gauge(flat, mu)


def torsor_associated(
    o_size: int, x_size: int, torsor_reps: dict | None = None
) -> SpaceoidData:
    """Bundle associated to a pointwise family of phase-functor torsor
    representatives.

    The representatives, stacked, are a gauge on the trivial table.
    Each is exactly multiplicative, so the associated constants are the
    coboundary psi_AB psi_BC conj(psi_AC) == 1: the output is the
    trivial spaceoid however the representatives are chosen.
    """
    e = trivial_spaceoid(x_size, o_size)
    if torsor_reps is None:
        return e
    reps = [torsor_reps[p] for p in e.base_points]
    for rep in reps:
        require_phase_functor(rep, e.objects)
    psi = [[[rep.at(a, b) for b in e.objects] for a in e.objects] for rep in reps]
    return apply_gauge(e, psi)


# ---------------------------------------------------------------------------
# morphisms


def validate_morphism(
    m: SpaceoidMorphism,
    dom: SpaceoidData,
    cod: SpaceoidData,
    tol: float | None = None,
) -> Report:
    """Totality, object bijection, unimodularity, involution symmetry,
    units, and the functoriality constraint tying both tables."""
    tol = resolve_tol(tol)
    report = Report()

    total = set(m.f_delta) == set(dom.base_points) and set(
        m.f_delta.values()
    ) <= set(cod.base_points)
    report.add("base-map-total", total)
    bij = (
        set(m.f_r) == set(dom.objects)
        and set(m.f_r.values()) == set(cod.objects)
        and len(set(m.f_r.values())) == len(m.f_r)
    )
    report.add("object-bijection", bij)
    report.add("fiber-scalars-total", m.fiber_scalars.shape == dom.table.shape[:3])
    if not report.passed:
        return report

    pts, objs = dom.base_points, dom.objects
    scal = _aligned(m, pts, objs)
    o = np.arange(len(objs))
    report.check("fiber-scalars-unimodular", np.abs(_abs(scal) - 1.0), tol)
    report.check("fiber-scalars-units", _abs(scal[:, o, o] - 1.0), tol)
    report.check(
        "fiber-scalars-involution",
        _abs(scal.transpose(0, 2, 1) - scal.conj()), tol,
    )
    # s(p;a,b) s(p;b,c) lam_dom(p;a,b,c) = lam_cod(f p; f a, f b, f c) s(p;a,c)
    q = [cod.base_points.index(str(m.f_delta[p])) for p in pts]
    r = [cod.objects.index(str(m.f_r[a])) for a in objs]
    lhs = _mul(_mul(scal[:, :, :, None], scal[:, None, :, :]), dom.table)
    rhs = _mul(cod.table[np.ix_(q, r, r, r)], scal[:, :, None, :])
    report.check(
        "functoriality", _abs(lhs - rhs), tol,
        lambda p, a, b, c: f"({pts[p]},{objs[a]},{objs[b]},{objs[c]})",
    )
    return report


def require_morphism(m, dom, cod, tol=None) -> None:
    rep = validate_morphism(m, dom, cod, tol)
    if not rep.passed:
        bad = rep.failures()[0]
        raise InvalidMorphism(
            f"{bad.name} violated (residual {bad.residual:.3e} {bad.detail})"
        )


def identity_morphism(e: SpaceoidData) -> SpaceoidMorphism:
    return SpaceoidMorphism(
        f_delta={p: p for p in e.base_points},
        f_r={o: o for o in e.objects},
        fiber_scalars=np.ones(e.table.shape[:3]),
    )


def compose(m2: SpaceoidMorphism, m1: SpaceoidMorphism) -> SpaceoidMorphism:
    """Composite applying ``m1`` first (m1: E1->E2, m2: E2->E3).

    At rank one the bundle parts collapse to pointwise products of the
    fiber scalars with the maps composed.
    """
    f_delta = {p: m2.f_delta[q] for p, q in m1.f_delta.items()}
    f_r = {a: m2.f_r[b] for a, b in m1.f_r.items()}
    s2 = _aligned(m2, m1.f_delta.values(), m1.f_r.values())
    return SpaceoidMorphism(f_delta, f_r, _mul(m1.fiber_scalars, s2))


def _base_bijective(m: SpaceoidMorphism, cod: SpaceoidData) -> bool:
    """Whether the base map of ``m`` hits each of ``cod``'s points once."""
    return sorted(m.f_delta.values()) == sorted(cod.base_points)


def morphism_distance(m1: SpaceoidMorphism, m2: SpaceoidMorphism) -> float:
    """Sup distance between two morphisms with equal maps; infinity
    when the underlying maps differ."""
    if m1.f_delta != m2.f_delta or m1.f_r != m2.f_r:
        return float("inf")
    return worst(_abs(m1.fiber_scalars - _aligned(m2, m1.f_delta, m1.f_r)))[0]
