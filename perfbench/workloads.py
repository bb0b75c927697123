"""The benchmark's workloads: seeded case decks and the call each case makes.

A deck is the list of cases a run times; every pass of the run goes
over the same deck.  Its shape schedule (sizes, kinds) is fixed, so
every seed runs the same mix of sizes, and each case is small enough
to be timed several times in a run; the seed draws the contents
(permutations, phases, unitaries, gauges, matrix entries, functions).
Each case's inputs are built before timing starts; ``Workload.run``
is the timed call.  It returns ``(ok, output)``: ``ok`` is the
certificate or oracle verdict, ``output`` the bytes the matching CLI
command would emit, used to check that traced and untraced runs agree.

Module functions are looked up as attributes at call time (``cc.close``
rather than a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spectroid import cstarcat as cc
from spectroid import duality as du
from spectroid import funcalc as fc
from spectroid import groups, selftest, serial
from spectroid import spaceoid as sp

TOL = 1e-9
# Tolerance of the functional-calculus oracle comparison, relative to
# 1 + max |f| over the spectrum (the bound criterion 6 uses).
FUNCALC_TOL = 1e-8


@dataclass(frozen=True)
class Case:
    label: str
    inputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    # A case running longer than this fails.  It is at least three times
    # the slowest passing case measured on a 2-CPU VM, so it cuts off
    # runaway calls and leaves room for tracing overhead and a slow box.
    deadline_s: float
    make_deck: Callable[[int], list]
    run: Callable[..., tuple]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _file_text(payload) -> str:
    """A valid input file in compact JSON; the indented canonical form
    goes through the pure-Python encoder and would dominate set-up."""
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# category-roundtrip: category generator files -> close -> certified Gelfand
# round trip (the `spectroid roundtrip` path for category files)

_ABELIAN = (
    ("Z2", groups.cyclic(2)),
    ("Z3", groups.cyclic(3)),
    ("Z4", groups.cyclic(4)),
    ("Z5", groups.cyclic(5)),
    ("Z6", groups.cyclic(6)),
    ("V4", groups.klein_four()),
)


def _linking_chain_file(k: int, n: int, rng) -> cc.MatrixCategory:
    """Generators only: diagonal matrix units on every object and one
    linking generator per adjacent pair; ``close`` builds the rest."""
    perms = [rng.permutation(k) for _ in range(n - 1)]
    phases = [np.exp(2j * np.pi * rng.random(k)) for _ in range(n - 1)]
    ids = [f"B{j + 1}" for j in range(n)]
    units = []
    for i in range(k):
        u = np.zeros((k, k), dtype=complex)
        u[i, i] = 1.0
        units.append(u)
    blocks = {(a, b): [] for a in ids for b in ids}
    for o in ids:
        blocks[(o, o)] = list(units)
    for j in range(n - 1):
        blocks[(ids[j], ids[j + 1])] = [
            cc.multi_linking_generator(k, perms, phases, j, j + 1)
        ]
    return cc.MatrixCategory(tuple((o, k) for o in ids), blocks, unital=False)


def _groupoid_file(n: int, group) -> cc.MatrixCategory:
    """Generators only: the group algebra at the first object and one
    arrow from it to each other object of the connected groupoid."""
    full = cc.groupoid_category(groups.connected_groupoid(n, group))
    ids = full.object_ids
    blocks = {pair: [] for pair in full.blocks}
    blocks[(ids[0], ids[0])] = list(full.blocks[(ids[0], ids[0])])
    for o in ids[1:]:
        blocks[(ids[0], o)] = [full.blocks[(ids[0], o)][0]]
    return cc.MatrixCategory(full.objects, blocks, unital=True)


# Linking chains (classes k, objects n) and groupoids (group, objects n)
# whose round trip takes at most about 0.8 s: the corner of large k and
# n is left out, since a case there takes 1-5 s and a few of them would
# fill a pass.
_LINK_SHAPES = (
    [(k, 2) for k in range(2, 9)]
    + [(k, 3) for k in range(2, 8)]
    + [(k, 4) for k in range(2, 6)]
    + [(k, 5) for k in range(2, 5)]
)
_GROUPOID_SHAPES = [  # all but Z6 on 4 objects
    (g, n) for g in range(len(_ABELIAN)) for n in range(1, 5) if (g, n) != (4, 4)
]


def category_deck(seed: int) -> list:
    """43 cases: linking chains with 2-8 classes on 2-5 objects and
    abelian groupoid algebras (Z2-Z6, V4) on 1-4 objects, each shape
    once, every other one conjugated by random per-object unitaries."""
    rng = _rng(seed)
    shapes = [("link", k, n) for k, n in _LINK_SHAPES]
    shapes += [("groupoid", g, n) for g, n in _GROUPOID_SHAPES]
    deck = []
    for j, (kind, size, n) in enumerate(shapes):
        if kind == "link":
            cat = _linking_chain_file(size, n, rng)
            label = f"link k={size} n={n}"
        else:
            gname, group = _ABELIAN[size]
            cat = _groupoid_file(n, group)
            label = f"groupoid {gname} n={n}"
        if j % 2:
            cat = selftest.scramble_category(cat, rng)
            label += " scrambled"
        deck.append(Case(label, (_file_text(serial.category_to_json(cat)),)))
    return deck


def run_category(text: str) -> tuple:
    stored = serial.parse("category", text)
    pres = cc.CategoryPresentation(
        objects=stored.objects,
        generators={k: list(v) for k, v in stored.blocks.items() if v},
    )
    cat = cc.close(pres, unitize=stored.unital, tol=TOL)
    report = du.roundtrip_category(cat, TOL, 0)
    return report.passed, serial.emit("report", report).encode()


# ---------------------------------------------------------------------------
# spaceoid-roundtrip: spaceoid files -> certified evaluation round trip ->
# gauge fixing -> flat table written out

# Every (base points, objects) with 2-24 points and 1-5 objects whose
# product is at most 48: the largest cases take about 0.5 s.
_SPACEOID_SHAPES = [
    (p, o) for o in range(1, 6) for p in range(2, 25) if p * o <= 48
]


def spaceoid_deck(seed: int) -> list:
    """80 gauge-twisted spaceoids built as ``selftest.random_spaceoid``
    builds them, one per shape of ``_SPACEOID_SHAPES``; case i is
    trivial, linking or torsor-associated by i mod 3 (linking needs two
    objects; one-object cases fall back to the torsor kind)."""
    rng = _rng(seed)
    deck = []
    for i, (n_points, n_objects) in enumerate(_SPACEOID_SHAPES):
        kind = i % 3
        if kind == 1 and n_objects == 1:
            kind = 2
        if kind == 0:
            e, name = sp.trivial_spaceoid(n_points, n_objects), "trivial"
        elif kind == 1:
            phases = [
                np.exp(2j * np.pi * rng.random(n_points)) for _ in range(n_objects - 1)
            ]
            e, name = sp.linking_spaceoid(n_points, phases), "linking"
        else:
            e, name = sp.torsor_associated(n_objects, n_points), "torsor"
        e = sp.apply_gauge(e, sp.random_gauge(rng, e.base_points, e.objects))
        label = f"{name} points={n_points} objects={n_objects}"
        deck.append(Case(label, (_file_text(serial.spaceoid_to_json(e)),)))
    return deck


def run_spaceoid(text: str) -> tuple:
    e = serial.parse("spaceoid", text)
    report = du.roundtrip_spaceoid(e, TOL, 0)
    flat = sp.trivialize(e, TOL).spaceoid
    # the gauge-fixed table must be the constant 1
    dev = max((abs(z - 1.0) for z in flat.lam.values()), default=0.0)
    return report.passed and dev <= TOL, serial.emit("spaceoid", flat).encode()


# ---------------------------------------------------------------------------
# funcalc: criterion 6's input mix at sides 1-12


def _random_polynomial(rng) -> fc.SpectralFunction:
    """Degree 1-5, complex Gaussian coefficients, zero constant term."""
    deg = int(rng.integers(1, 6))
    coeffs = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    return fc.SpectralFunction.from_coeffs([0.0] + [complex(z) for z in coeffs])


# Seed of the rectangular elements.  ``close`` blows up on some generic
# near-square rectangles from about 9x9 upward, and which ones depends
# on the entries: drawn from the run seed, 3 to 7 of every 288 hit the
# deadline, varying with the seed, and each hit costs a whole deadline,
# so cases_per_s followed that count.  Drawn from this fixed seed, every
# run meets the same blow-up (rect 10x10, case 117); the run seed draws
# the normal elements, the functions and funcalc's own seeds.
RECT_SEED = 0


def funcalc_deck(seed: int) -> list:
    """240 cases: every Gaussian rectangular A x B element with sides
    1-12, and 8 normal square A x A elements per side 1-12.  Three
    rectangular cases in ten get a planted kernel; which ones, and the
    rank, are part of the schedule, since they change the cost of a case
    several-fold."""
    rng = _rng(seed)
    rect_rng = _rng(RECT_SEED)
    deck = []
    rect = [(qa, qb) for qa in range(1, 13) for qb in range(1, 13)]
    for j, (qa, qb) in enumerate(rect):
        erng = _case_rng(rect_rng)
        x = erng.standard_normal((qa, qb)) + 1j * erng.standard_normal((qa, qb))
        label = f"rect {qa}x{qb}"
        if j % 10 in (2, 5, 8) and min(qa, qb) > 1:
            r = 1 + j % (min(qa, qb) - 1)
            u, s, vh = np.linalg.svd(x, full_matrices=False)
            x = (u[:, :r] * s[:r]) @ vh[:r]
            label += f" rank {r}"
        deck.append(_funcalc_case(label, x, "B", _case_rng(rng)))
    for q in range(1, 13):
        for _ in range(8):
            crng = _case_rng(rng)
            u = selftest.rand_unitary(crng, q)
            eigs = crng.standard_normal(q) + 1j * crng.standard_normal(q)
            x = u @ np.diag(eigs) @ u.conj().T
            deck.append(_funcalc_case(f"normal {q}x{q}", x, "A", crng))
    return deck


def _case_rng(rng) -> np.random.Generator:
    return np.random.default_rng(int(rng.integers(2**63)))


def _funcalc_case(label, x, b_id, crng) -> Case:
    f = _random_polynomial(crng)
    return Case(label, (x, "A", b_id, f, int(crng.integers(2**31))))


def run_funcalc(x, a_id, b_id, f, case_seed) -> tuple:
    got = fc.funcalc(x, a_id, b_id, f, seed=case_seed)
    want = fc.svd_oracle(x, a_id, b_id, f)
    points = fc.spectrum_of_element(x, a_id, b_id)
    fmax = max((abs(f(s)) for s in points), default=0.0)
    err = float(np.linalg.norm(got - want, 2))
    return err <= FUNCALC_TOL * (1.0 + fmax), got.tobytes()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("category-roundtrip", 30.0, category_deck, run_category),
        Workload("spaceoid-roundtrip", 30.0, spaceoid_deck, run_spaceoid),
        Workload("funcalc", 1.5, funcalc_deck, run_funcalc),
    )
}
