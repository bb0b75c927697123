"""Rank-one bundle data over a finite base.

A spaceoid here is the finite combinatorial core of a unital rank-one
Fell-type line bundle living over (base points) x (pairs of objects):
once a unit frame is fixed in every fiber, all that remains of the
bundle is the table of unimodular structure constants

    u(p; A, B) o u(p; B, C) = lambda(p; A, B, C) * u(p; A, C)

together with the normalizations forced by the involution (frames are
locked to u(p; B, A) = u(p; A, B)*) and by positivity.  This module
stores and validates those tables, applies and finds gauges (frame
changes), and implements morphisms, pullbacks and the standard
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

from .config import resolve_tol
from .errors import (
    DomainMismatch,
    InvalidMorphism,
    InvalidPhaseFunctor,
    InvalidSpaceoid,
)
from .reporting import Report

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
    "torsor_change_morphism",
    "validate_morphism",
    "compose",
    "identity_morphism",
    "pullback",
    "is_isomorphism",
    "morphism_distance",
]


@dataclass
class SpaceoidData:
    """Base points, objects, and the dense structure-constant table.

    ``lam`` maps ``(p, A, B, C)`` to the unimodular constant; missing
    entries are filled with 1 on construction so the table is total.
    """

    base_points: tuple
    objects: tuple
    lam: dict

    def __post_init__(self):
        self.base_points = tuple(str(p) for p in self.base_points)
        self.objects = tuple(str(o) for o in self.objects)
        if len(set(self.base_points)) != len(self.base_points):
            raise ValueError("duplicate base points")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        table = {}
        for p in self.base_points:
            for a, b, c in itertools.product(self.objects, repeat=3):
                table[(p, a, b, c)] = complex(
                    self.lam.get((p, a, b, c), 1.0)
                )
        extra = set(self.lam) - set(table)
        if extra:
            raise ValueError(f"lambda entries outside the base: {sorted(extra)[:3]}")
        self.lam = table

    def lam_at(self, p, a, b, c) -> complex:
        return self.lam[(str(p), str(a), str(b), str(c))]


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
    ``fiber_scalars[(p, A, B)]`` (domain labels) is the coefficient of
    the bundle map carrying the pulled-back codomain frame at
    ``(f_delta(p), f_r(A), f_r(B))`` onto the domain frame at
    ``(p, A, B)``.  Functoriality of that bundle map reads

        s(p;A,B) s(p;B,C) lam_dom(p;A,B,C)
            = lam_cod(f(p); f(A), f(B), f(C)) s(p;A,C).
    """

    f_delta: dict
    f_r: dict
    fiber_scalars: dict


# ---------------------------------------------------------------------------
# validation


def validate(e: SpaceoidData, tol: float | None = None) -> Report:
    """Check every structure-constant invariant; returns a report with
    one named check per invariant family."""
    tol = resolve_tol(tol)
    report = Report()
    pts, objs = e.base_points, e.objects

    worst, where = 0.0, ""
    for key, z in e.lam.items():
        dev = abs(abs(z) - 1.0)
        if dev > worst:
            worst, where = dev, str(key)
    report.add("unimodular", worst <= tol, worst, where)

    worst, where = 0.0, ""
    for p in pts:
        for a, b in itertools.product(objs, repeat=2):
            for z in (e.lam_at(p, a, a, b), e.lam_at(p, a, b, b)):
                dev = abs(z - 1.0)
                if dev > worst:
                    worst, where = dev, f"({p},{a},{b})"
    report.add("unit-normalization", worst <= tol, worst, where)

    worst, where = 0.0, ""
    for p in pts:
        for a, b in itertools.product(objs, repeat=2):
            dev = abs(e.lam_at(p, b, a, b) - 1.0)
            if dev > worst:
                worst, where = dev, f"({p},{b},{a},{b})"
    report.add("positivity-normalization", worst <= tol, worst, where)

    worst, where = 0.0, ""
    for p in pts:
        for a, b, c in itertools.product(objs, repeat=3):
            dev = abs(e.lam_at(p, c, b, a) - np.conj(e.lam_at(p, a, b, c)))
            if dev > worst:
                worst, where = dev, f"({p},{a},{b},{c})"
    report.add("involution-compatible", worst <= tol, worst, where)

    worst, where = 0.0, ""
    for p in pts:
        for a, b, c, d in itertools.product(objs, repeat=4):
            lhs = e.lam_at(p, a, b, c) * e.lam_at(p, a, c, d)
            rhs = e.lam_at(p, b, c, d) * e.lam_at(p, a, b, d)
            dev = abs(lhs - rhs)
            if dev > worst:
                worst, where = dev, f"({p},{a},{b},{c},{d})"
    report.add("cocycle", worst <= tol, worst, where)
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
        if abs(abs(za) - 1.0) > 1e-12:
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
    worst = max(
        abs(abs(pf.at(a, b)) - 1.0)
        for a in objects
        for b in objects
    )
    report.add("unimodular", worst <= tol, worst)
    worst = max(abs(pf.at(a, a) - 1.0) for a in objects)
    report.add("units", worst <= tol, worst)
    worst = 0.0
    for a, b, c in itertools.product(objects, repeat=3):
        worst = max(worst, abs(pf.at(a, b) * pf.at(b, c) - pf.at(a, c)))
    report.add("multiplicative", worst <= tol, worst)
    return report


def require_phase_functor(pf: PhaseFunctor, objects, tol=None) -> None:
    rep = validate_phase_functor(pf, objects, tol)
    if not rep.passed:
        raise InvalidPhaseFunctor(
            "; ".join(c.name for c in rep.failures())
        )


# ---------------------------------------------------------------------------
# gauges


def random_gauge(rng: np.random.Generator, base_points, objects) -> dict:
    """Random unit frame change: conjugate-symmetric, 1 on diagonals."""
    gauge = {}
    objects = [str(o) for o in objects]
    for p in (str(q) for q in base_points):
        for i, a in enumerate(objects):
            gauge[(p, a, a)] = 1.0 + 0j
            for b in objects[i + 1:]:
                z = np.exp(2j * np.pi * rng.random())
                gauge[(p, a, b)] = z
                gauge[(p, b, a)] = np.conj(z)
    return gauge


def apply_gauge(e: SpaceoidData, gauge: dict) -> SpaceoidData:
    """Rewrite the structure constants in the frames scaled by ``gauge``.

    New frames v(p;A,B) = gauge(p;A,B) * u(p;A,B) give

        lam'(p;A,B,C) = lam * g_AB * g_BC * conj(g_AC).
    """
    lam = {}
    for p in e.base_points:
        for a, b, c in itertools.product(e.objects, repeat=3):
            lam[(p, a, b, c)] = (
                e.lam_at(p, a, b, c)
                * gauge[(p, a, b)]
                * gauge[(p, b, c)]
                * np.conj(gauge[(p, a, c)])
            )
    return SpaceoidData(e.base_points, e.objects, lam)


class Trivialization(NamedTuple):
    gauge: dict  # (p, A, B) -> phase applied to reach the trivial frame
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
    anchor = e.objects[0]
    gauge = {
        (p, a, b): e.lam_at(p, a, anchor, b)
        for p in e.base_points
        for a in e.objects
        for b in e.objects
    }
    return Trivialization(gauge, apply_gauge(e, gauge))


# ---------------------------------------------------------------------------
# constructions


def trivial_spaceoid(n_points: int, n_objects: int = 1) -> SpaceoidData:
    """All structure constants 1; points p0..., objects O1...."""
    return SpaceoidData(
        base_points=tuple(f"p{i}" for i in range(n_points)),
        objects=tuple(f"O{i + 1}" for i in range(n_objects)),
        lam={},
    )


def linking_spaceoid(n_points: int, bundle_phases) -> SpaceoidData:
    """Chain of ``n`` phase-framed line bundles over ``n_points``.

    ``bundle_phases`` holds one unimodular list per bundle (length
    ``n_points`` each); the result has ``n + 1`` objects ``B1 ...
    B{n+1}``.  Adjacent blocks carry the phase-twisted frames while
    composite blocks keep the plain tensor frames, so for consecutive
    objects the constants multiply the phases:

        lam(p; B_j, B_{j+1}, B_{j+2}) = phases_j(p) * phases_{j+1}(p).
    """
    phases = [np.asarray(pl, dtype=complex) for pl in bundle_phases]
    n = len(phases)
    for pl in phases:
        if pl.shape != (n_points,):
            raise ValueError("each phase list must have one entry per point")
        if np.any(np.abs(np.abs(pl) - 1.0) > 1e-12):
            raise InvalidPhaseFunctor("bundle phases must be unimodular")
    objects = tuple(f"B{j + 1}" for j in range(n + 1))
    points = tuple(f"p{i}" for i in range(n_points))

    def mu(pi, j, l):
        # frame coefficient of block (B_{j+1}, B_{l+1}) in the tensor model
        if j == l:
            return 1.0 + 0j
        if j < l:
            return phases[j][pi] if l == j + 1 else 1.0 + 0j
        return np.conj(mu(pi, l, j))

    lam = {}
    for pi, p in enumerate(points):
        for ja, a in enumerate(objects):
            for jb, b in enumerate(objects):
                for jc, c in enumerate(objects):
                    lam[(p, a, b, c)] = (
                        mu(pi, ja, jb)
                        * mu(pi, jb, jc)
                        * np.conj(mu(pi, ja, jc))
                    )
    return SpaceoidData(points, objects, lam)


def torsor_associated(
    o_size: int, x_size: int, torsor_reps: dict | None = None
) -> SpaceoidData:
    """Bundle associated to a pointwise family of phase-functor torsor
    representatives.

    Each representative is exactly multiplicative, so the associated
    constants are the coboundary psi_AB psi_BC conj(psi_AC) == 1: the
    output is the trivial spaceoid however the representatives are
    chosen (changing them moves the result by an isomorphism, see
    :func:`torsor_change_morphism`).
    """
    e = trivial_spaceoid(x_size, o_size)
    if torsor_reps is None:
        return e
    lam = {}
    for p in e.base_points:
        rep = torsor_reps[p]
        require_phase_functor(rep, e.objects)
        for a, b, c in itertools.product(e.objects, repeat=3):
            lam[(p, a, b, c)] = (
                rep.at(a, b) * rep.at(b, c) * np.conj(rep.at(a, c))
            )
    return SpaceoidData(e.base_points, e.objects, lam)


def torsor_change_morphism(
    o_size: int, x_size: int, chi: PhaseFunctor
) -> SpaceoidMorphism:
    """The isomorphism induced by multiplying every torsor
    representative by the fixed functor ``chi``."""
    e = trivial_spaceoid(x_size, o_size)
    require_phase_functor(chi, e.objects)
    scal = {
        (p, a, b): chi.at(a, b)
        for p in e.base_points
        for a in e.objects
        for b in e.objects
    }
    return SpaceoidMorphism(
        f_delta={p: p for p in e.base_points},
        f_r={o: o for o in e.objects},
        fiber_scalars=scal,
    )


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
    scal_total = all(
        (p, a, b) in m.fiber_scalars
        for p in dom.base_points
        for a in dom.objects
        for b in dom.objects
    )
    report.add("fiber-scalars-total", scal_total)
    if not (total and bij and scal_total):
        return report

    worst = max(
        abs(abs(z) - 1.0) for z in m.fiber_scalars.values()
    )
    report.add("fiber-scalars-unimodular", worst <= tol, worst)

    worst = max(
        abs(m.fiber_scalars[(p, a, a)] - 1.0)
        for p in dom.base_points
        for a in dom.objects
    )
    report.add("fiber-scalars-units", worst <= tol, worst)

    worst = 0.0
    for p in dom.base_points:
        for a, b in itertools.product(dom.objects, repeat=2):
            dev = abs(
                m.fiber_scalars[(p, b, a)]
                - np.conj(m.fiber_scalars[(p, a, b)])
            )
            worst = max(worst, dev)
    report.add("fiber-scalars-involution", worst <= tol, worst)

    worst, where = 0.0, ""
    for p in dom.base_points:
        q = m.f_delta[p]
        for a, b, c in itertools.product(dom.objects, repeat=3):
            lhs = (
                m.fiber_scalars[(p, a, b)]
                * m.fiber_scalars[(p, b, c)]
                * dom.lam_at(p, a, b, c)
            )
            rhs = cod.lam_at(
                q, m.f_r[a], m.f_r[b], m.f_r[c]
            ) * m.fiber_scalars[(p, a, c)]
            dev = abs(lhs - rhs)
            if dev > worst:
                worst, where = dev, f"({p},{a},{b},{c})"
    report.add("functoriality", worst <= tol, worst, where)
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
        fiber_scalars={
            (p, a, b): 1.0 + 0j
            for p in e.base_points
            for a in e.objects
            for b in e.objects
        },
    )


def compose(m2: SpaceoidMorphism, m1: SpaceoidMorphism) -> SpaceoidMorphism:
    """Composite applying ``m1`` first (m1: E1->E2, m2: E2->E3).

    At rank one the bundle parts collapse to pointwise products of the
    fiber scalars with the maps composed.
    """
    f_delta = {p: m2.f_delta[q] for p, q in m1.f_delta.items()}
    f_r = {a: m2.f_r[b] for a, b in m1.f_r.items()}
    scal = {}
    for (p, a, b), z in m1.fiber_scalars.items():
        scal[(p, a, b)] = z * m2.fiber_scalars[
            (m1.f_delta[p], m1.f_r[a], m1.f_r[b])
        ]
    return SpaceoidMorphism(f_delta, f_r, scal)


def pullback(f_delta: dict, f_r: dict, e: SpaceoidData) -> SpaceoidData:
    """Reindex a spaceoid along maps of points and objects.

    The new base points/objects are the domains of the two maps (in
    insertion order); constants are looked up through the maps.
    """
    points = tuple(str(p) for p in f_delta)
    objects = tuple(str(o) for o in f_r)
    missing = set(map(str, f_delta.values())) - set(e.base_points)
    if missing or set(map(str, f_r.values())) - set(e.objects):
        raise DomainMismatch("maps do not land in the given spaceoid")
    lam = {}
    for p in points:
        q = str(f_delta[p])
        for a, b, c in itertools.product(objects, repeat=3):
            lam[(p, a, b, c)] = e.lam_at(
                q, str(f_r[a]), str(f_r[b]), str(f_r[c])
            )
    return SpaceoidData(points, objects, lam)


def is_isomorphism(
    m: SpaceoidMorphism,
    dom: SpaceoidData,
    cod: SpaceoidData,
    tol: float | None = None,
) -> bool:
    """Valid morphism whose base map is a bijection."""
    rep = validate_morphism(m, dom, cod, tol)
    if not rep.passed:
        return False
    values = list(m.f_delta.values())
    return len(set(values)) == len(values) and set(values) == set(
        cod.base_points
    )


def morphism_distance(m1: SpaceoidMorphism, m2: SpaceoidMorphism) -> float:
    """Sup distance between two morphisms with equal maps; infinity
    when the underlying maps differ."""
    if m1.f_delta != m2.f_delta or m1.f_r != m2.f_r:
        return float("inf")
    keys = set(m1.fiber_scalars) | set(m2.fiber_scalars)
    return max(
        abs(m1.fiber_scalars.get(k, np.nan) - m2.fiber_scalars.get(k, np.nan))
        for k in keys
    )
