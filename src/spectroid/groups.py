"""Finite groups and groupoids as integer index tables.

A group is its multiplication table ``mult`` (``(n, n)``), ``inverse``
and ``identity``.  A groupoid is ``source`` and ``target`` (object
indices per arrow), ``compose`` (``(A, A)``: the index of ``x o y``, -1
where undefined), ``identities`` (per object) and ``inverses``.  Names
are kept only for files and messages.  The builders make connected
groupoids (one orbit times a group) and disjoint unions of those, which
together exhaust finite groupoids up to isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .reporting import Report

__all__ = [
    "FiniteGroup",
    "cyclic",
    "direct_product",
    "symmetric",
    "klein_four",
    "group_by_name",
    "FiniteGroupoid",
    "connected_groupoid",
    "disjoint_union",
    "validate_groupoid",
    "GroupoidTraits",
    "groupoid_report",
]


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    elements: tuple[str, ...]
    mult: np.ndarray  # (n, n): index of a*b
    inverse: np.ndarray  # (n,): index of a^{-1}
    identity: int

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order ``n``, elements named ``"0"..."n-1"``."""
    if n < 1:
        raise ValueError("order must be >= 1")
    a = np.arange(n)
    return FiniteGroup(
        f"Z{n}", tuple(map(str, range(n))), (a[:, None] + a) % n, -a % n, 0
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Element ``(a, b)`` has index ``a * |h| + b`` and name ``"a,b"``."""
    m = h.order
    mult = g.mult[:, None, :, None] * m + h.mult[None, :, None, :]
    return FiniteGroup(
        f"{g.name}x{h.name}",
        tuple(map(",".join, itertools.product(g.elements, h.elements))),
        mult.reshape(g.order * m, g.order * m),
        (g.inverse[:, None] * m + h.inverse).ravel(),
        g.identity * m + h.identity,
    )


def symmetric(n: int) -> FiniteGroup:
    """The symmetric group on ``n`` letters (meant for tiny ``n``), its
    permutations in lexicographic order; ``p * q`` is ``p`` after ``q``."""
    perms = np.array(sorted(itertools.permutations(range(n))), dtype=np.intp)
    perms = perms.reshape(-1, n)
    # base-n codes rank the permutations in lexicographic order
    weights = n ** np.arange(n)[::-1]
    codes = perms @ weights

    def index(p):
        return np.searchsorted(codes, p @ weights)

    return FiniteGroup(
        f"S{n}",
        tuple("".join(map(str, p)) for p in perms.tolist()),
        index(perms[np.arange(len(perms))[:, None, None], perms[None]]),
        index(np.argsort(perms, axis=1)),
        0,
    )


def klein_four() -> FiniteGroup:
    return replace(direct_product(cyclic(2), cyclic(2)), name="V4")


_NAMED = {
    **{f"Z{n}": partial(cyclic, n) for n in range(1, 13)},
    "1": partial(cyclic, 1),
    "V4": klein_four,
    "Z2xZ2": klein_four,
    "S3": partial(symmetric, 3),
}


def group_by_name(name: str) -> FiniteGroup:
    """Look up a group by conventional name (Z2...Z12, V4, S3)."""
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(
            f"unknown group {name!r}; known: {sorted(_NAMED)}"
        ) from None


# ---------------------------------------------------------------------------
# groupoids


@dataclass(frozen=True)
class FiniteGroupoid:
    """Objects and arrows by name; the structure as index tables."""

    objects: tuple
    arrows: tuple
    source: np.ndarray  # (A,) object index
    target: np.ndarray  # (A,) object index
    compose: np.ndarray  # (A, A): index of x o y, -1 where undefined
    identities: np.ndarray  # (O,) arrow index
    inverses: np.ndarray  # (A,) arrow index


def connected_groupoid(
    n_objects: int, group: FiniteGroup, prefix: str = "X"
) -> FiniteGroupoid:
    """Transitive groupoid on ``n_objects`` objects with the given
    isotropy group: arrow ``(t, g, s)`` runs from object ``s`` to object
    ``t``, has index ``(t * |G| + g) * n_objects + s`` and name
    ``"X<t>|<g>|X<s>"``, and ``(t, g, m) o (m, h, s) = (t, g*h, s)``."""
    if n_objects < 1:
        raise ValueError("need at least one object")
    objects = tuple(f"{prefix}{i}" for i in range(n_objects))
    m = group.order
    t, g, s = np.unravel_index(
        np.arange(n_objects * m * n_objects), (n_objects, m, n_objects)
    )

    def arrow(t, g, s):
        return (t * m + g) * n_objects + s

    names, elements = np.array(objects), np.array(group.elements)
    return FiniteGroupoid(
        objects=objects,
        arrows=tuple(map("|".join, zip(names[t], elements[g], names[s]))),
        source=s,
        target=t,
        compose=np.where(
            s[:, None] == t,
            arrow(t[:, None], group.mult[g[:, None], g], s),
            -1,
        ),
        identities=arrow(np.arange(n_objects), group.identity, np.arange(n_objects)),
        inverses=arrow(s, group.inverse[g], t),
    )


def _shifted(parts, offsets) -> np.ndarray:
    shifted = [p + o for p, o in zip(parts, offsets)]
    return np.concatenate([np.zeros(0, np.intp), *shifted])


def disjoint_union(*groupoids: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union of groupoids; components are kept disconnected.

    Object and arrow names are prefixed with the component index
    (``c0.``, ``c1.``, ...) so the inputs never clash.
    """
    obj_at = np.cumsum([0] + [len(g.objects) for g in groupoids])
    arr_at = np.cumsum([0] + [len(g.arrows) for g in groupoids])
    compose = np.full((arr_at[-1], arr_at[-1]), -1, dtype=np.intp)
    for g, lo, hi in zip(groupoids, arr_at, arr_at[1:]):
        compose[lo:hi, lo:hi] = np.where(g.compose >= 0, g.compose + lo, -1)
    return FiniteGroupoid(
        objects=tuple(
            f"c{i}.{o}" for i, g in enumerate(groupoids) for o in g.objects
        ),
        arrows=tuple(f"c{i}.{a}" for i, g in enumerate(groupoids) for a in g.arrows),
        source=_shifted([g.source for g in groupoids], obj_at),
        target=_shifted([g.target for g in groupoids], obj_at),
        compose=compose,
        identities=_shifted([g.identities for g in groupoids], arr_at),
        inverses=_shifted([g.inverses for g in groupoids], arr_at),
    )


def _within(index, n: int) -> bool:
    return bool(((index >= 0) & (index < n)).all())


def validate_groupoid(g: FiniteGroupoid) -> Report:
    """Exhaustive axiom check (composability, associativity, units,
    inverses).

    A failed composition table names its first bad pair ``(x,y)`` (or
    ``(x,y)->z`` when the result has the wrong ends), and failed
    associativity its first bad triple ``(x,y,z)``, in row-major order.
    Associativity runs one left factor at a time, so memory stays
    ``O(A^2)``.
    """
    report = Report()
    n_obj, n_arr = len(g.objects), len(g.arrows)
    ok = _within(g.source, n_obj) and _within(g.target, n_obj)
    report.add("source-target-defined", ok)
    if not ok:
        return report

    c = g.compose
    defined = c >= 0
    z = np.where(defined & (c < n_arr), c, 0)
    composable = g.source[:, None] == g.target
    bad = (composable != defined) | defined & (
        (c >= n_arr)
        | (g.source[z] != g.source)
        | (g.target[z] != g.target[:, None])
    )
    ok, detail = not bad.any(), ""
    if not ok:
        x, y = np.unravel_index(np.argmax(bad), bad.shape)
        detail = f"({g.arrows[x]},{g.arrows[y]})"
        if composable[x, y] == defined[x, y]:
            detail += f"->{g.arrows[c[x, y]] if c[x, y] < n_arr else c[x, y]}"
    report.add("composition-table", ok, detail=detail)
    if not ok:
        return report

    ok, detail = True, ""
    for x in range(n_arr):
        ys = np.flatnonzero(defined[x])
        yz = c[ys]
        # (x o y) o z against x o (y o z), over the composable (y, z)
        bad = (yz >= 0) & (c[c[x, ys]] != c[x, yz])
        if bad.any():
            i, z = np.unravel_index(np.argmax(bad), bad.shape)
            ok = False
            detail = f"({g.arrows[x]},{g.arrows[ys[i]]},{g.arrows[z]})"
            break
    report.add("associativity", ok, detail=detail)

    e, every = g.identities, np.arange(n_arr)
    ok = _within(e, n_arr) and bool(
        (g.source[e] == np.arange(n_obj)).all()
        and (g.target[e] == np.arange(n_obj)).all()
        and (c[e[g.target], every] == every).all()
        and (c[every, e[g.source]] == every).all()
    )
    report.add("identities", ok)

    inv = g.inverses
    ok = _within(inv, n_arr) and bool(
        (c[every, inv] == e[g.target]).all() and (c[inv, every] == e[g.source]).all()
    )
    report.add("inverses", ok)
    return report


class GroupoidTraits(NamedTuple):
    stabilizers_abelian: bool
    transitive: bool


def groupoid_report(g: FiniteGroupoid) -> GroupoidTraits:
    """Combinatorial classification used to cross-check the category:
    commutativity should match abelian stabilizers, fullness should
    match transitivity."""
    loop = g.source == g.target
    same_stabilizer = loop[:, None] & loop & (g.source[:, None] == g.source)
    reach = np.zeros((len(g.objects),) * 2, dtype=bool)
    reach[g.target, g.source] = True
    return GroupoidTraits(
        bool((g.compose == g.compose.T)[same_stabilizer].all()),
        bool(reach.all()),
    )
