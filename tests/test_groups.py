"""Finite groups and groupoids as index tables, checked against the
label-keyed dict construction and loops they replaced: the same names
and tables, the same axiom reports (check names, verdicts and details)
on valid and planted inputs, and bit-identical regular-representation
bases."""

import dataclasses
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spectroid import cstarcat, groups, numkit, selftest
from spectroid.errors import InvalidGroupoid

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _name(names, i) -> str:
    return names[i] if 0 <= i < len(names) else str(i)


def labeled(g: groups.FiniteGroupoid) -> SimpleNamespace:
    """The groupoid keyed by names, as the dict representation held it
    (an index outside its range becomes a name outside the groupoid)."""
    arrows = g.arrows

    def obj(i):
        return _name(g.objects, int(i))

    def arr(i):
        return _name(arrows, int(i))

    d = SimpleNamespace(
        objects=g.objects,
        arrows=arrows,
        source={a: obj(s) for a, s in zip(arrows, g.source)},
        target={a: obj(t) for a, t in zip(arrows, g.target)},
        compose={
            (arrows[x], arrows[y]): arr(g.compose[x, y])
            for x, y in zip(*np.nonzero(g.compose >= 0))
        },
        identities={o: arr(e) for o, e in zip(g.objects, g.identities)},
        inverses={a: arr(b) for a, b in zip(arrows, g.inverses)},
    )
    d.hom = lambda a, b: [
        x for x in d.arrows if d.source[x] == b and d.target[x] == a
    ]
    return d


# ---------------------------------------------------------------------------
# the dict construction and loops the tables replaced


def ref_mult(group: groups.FiniteGroup) -> dict:
    """``(a, b) -> a*b`` by name, from the element names alone."""
    names = group.elements

    def product(a, b):
        if group.name.startswith("S"):  # permutations, p after q
            return "".join(a[int(i)] for i in b)
        if "," in a:  # pairs in Z2 x Z2
            pairs = zip(a.split(","), b.split(","))
            return ",".join(str((int(x) + int(y)) % 2) for x, y in pairs)
        return str((int(a) + int(b)) % group.order)

    return {(a, b): product(a, b) for a in names for b in names}


def ref_connected_groupoid(n_objects, group, prefix="X") -> SimpleNamespace:
    mult = ref_mult(group)
    e = group.elements[group.identity]
    inverse = {a: b for (a, b), c in mult.items() if c == e}
    objects = tuple(f"{prefix}{i}" for i in range(n_objects))

    def arrow_id(t, g, s):
        return f"{t}|{g}|{s}"

    arrows, source, target = [], {}, {}
    for t, g, s in itertools.product(objects, group.elements, objects):
        a = arrow_id(t, g, s)
        arrows.append(a)
        source[a], target[a] = s, t
    compose = {}
    for t, g, mid in itertools.product(objects, group.elements, objects):
        for h, s in itertools.product(group.elements, objects):
            compose[(arrow_id(t, g, mid), arrow_id(mid, h, s))] = arrow_id(
                t, mult[(g, h)], s
            )
    return SimpleNamespace(
        objects=objects,
        arrows=tuple(arrows),
        source=source,
        target=target,
        compose=compose,
        identities={
            o: arrow_id(o, e, o) for o in objects
        },
        inverses={
            arrow_id(t, g, s): arrow_id(s, inverse[g], t)
            for t, g, s in itertools.product(objects, group.elements, objects)
        },
    )


def ref_disjoint_union(*parts) -> SimpleNamespace:
    u = SimpleNamespace(
        objects=[], arrows=[], source={}, target={}, compose={},
        identities={}, inverses={},
    )
    for idx, g in enumerate(parts):
        obj = {o: f"c{idx}.{o}" for o in g.objects}
        arr = {a: f"c{idx}.{a}" for a in g.arrows}
        u.objects += obj.values()
        u.arrows += arr.values()
        for a in g.arrows:
            u.source[arr[a]] = obj[g.source[a]]
            u.target[arr[a]] = obj[g.target[a]]
        for (x, y), z in g.compose.items():
            u.compose[(arr[x], arr[y])] = arr[z]
        u.identities.update({obj[o]: arr[a] for o, a in g.identities.items()})
        u.inverses.update({arr[a]: arr[b] for a, b in g.inverses.items()})
    u.objects, u.arrows = tuple(u.objects), tuple(u.arrows)
    return u


def ref_validate_groupoid(g) -> list:
    """The axiom loops over a labeled groupoid, as ``(name, passed,
    detail)`` rows."""
    rows = []
    ok = all(
        g.source.get(a) in g.objects and g.target.get(a) in g.objects
        for a in g.arrows
    )
    rows.append(("source-target-defined", ok, ""))
    if not ok:
        return rows

    ok, detail = True, ""
    for x in g.arrows:
        for y in g.arrows:
            composable = g.source[x] == g.target[y]
            defined = (x, y) in g.compose
            if composable != defined:
                ok, detail = False, f"({x},{y})"
                break
            if defined:
                z = g.compose[(x, y)]
                if (
                    z not in g.arrows
                    or g.source[z] != g.source[y]
                    or g.target[z] != g.target[x]
                ):
                    ok, detail = False, f"({x},{y})->{z}"
                    break
        if not ok:
            break
    rows.append(("composition-table", ok, detail))
    if not ok:
        return rows

    ok, detail = True, ""
    for x in g.arrows:
        for y in g.arrows:
            if g.source[x] != g.target[y]:
                continue
            xy = g.compose[(x, y)]
            for z in g.arrows:
                if g.source[y] != g.target[z]:
                    continue
                if g.compose[(xy, z)] != g.compose[(x, g.compose[(y, z)])]:
                    ok, detail = False, f"({x},{y},{z})"
                    break
            if not ok:
                break
        if not ok:
            break
    rows.append(("associativity", ok, detail))

    ok = True
    for o in g.objects:
        e = g.identities.get(o)
        if e is None or g.source.get(e) != o or g.target.get(e) != o:
            ok = False
            break
        if any(
            g.compose[(e, y)] != y for y in g.arrows if g.target[y] == o
        ) or any(g.compose[(x, e)] != x for x in g.arrows if g.source[x] == o):
            ok = False
            break
    rows.append(("identities", ok, ""))

    ok = True
    for x in g.arrows:
        inv = g.inverses.get(x)
        if inv is None or (
            g.compose.get((x, inv)) != g.identities[g.target[x]]
            or g.compose.get((inv, x)) != g.identities[g.source[x]]
        ):
            ok = False
            break
    rows.append(("inverses", ok, ""))
    return rows


def ref_operators(g) -> dict:
    """Block ``(a, b)``'s left-regular operators, arrow by arrow."""
    spaces = {o: [h for h in g.arrows if g.target[h] == o] for o in g.objects}
    index = {o: {h: i for i, h in enumerate(spaces[o])} for o in g.objects}
    blocks = {}
    for a in g.objects:
        for b in g.objects:
            arrows = g.hom(a, b)
            ops = np.zeros(
                (len(arrows), len(spaces[a]), len(spaces[b])), dtype=complex
            )
            for k, f in enumerate(arrows):
                for h in spaces[b]:
                    ops[k, index[a][g.compose[(f, h)]], index[b][h]] = 1.0
            blocks[(a, b)] = ops
    return blocks


def ref_traits(g) -> tuple:
    abelian = all(
        g.compose[(x, y)] == g.compose[(y, x)]
        for o in g.objects
        for x in g.hom(o, o)
        for y in g.hom(o, o)
    )
    transitive = all(g.hom(a, b) for a in g.objects for b in g.objects)
    return abelian, transitive


def rows(report) -> list:
    return [(c.name, c.passed, c.detail) for c in report.checks]


# ---------------------------------------------------------------------------
# the groupoids compared

CRITERION_4 = [g for _, g in selftest.groupoid_classification_cases()]
DECK = [
    groups.connected_groupoid(n, workloads._ABELIAN[k][1])
    for k, n in workloads._GROUPOID_SHAPES
]
EIGHT_GROUPS = [
    groups.cyclic(1), groups.cyclic(2), groups.cyclic(3), groups.cyclic(4),
    groups.cyclic(5), groups.cyclic(6), groups.klein_four(), groups.symmetric(3),
]


def test_family_sizes():
    assert len(CRITERION_4) == 45 and len(DECK) == 23


@pytest.mark.parametrize("group", EIGHT_GROUPS, ids=lambda g: g.name)
def test_group_tables_match_names(group):
    want = ref_mult(group)
    names = group.elements
    got = {
        (names[a], names[b]): names[group.mult[a, b]]
        for a, b in itertools.product(range(group.order), repeat=2)
    }
    assert got == want
    e = names[group.identity]
    for a, b in zip(names, np.array(names)[group.inverse]):
        assert want[(a, b)] == e


@pytest.mark.parametrize("name", sorted(groups._NAMED))
def test_named_groups_are_one_object_groupoids(name):
    group = groups.group_by_name(name)
    g = groups.connected_groupoid(1, group)
    assert groups.validate_groupoid(g).passed
    abelian = groups.groupoid_report(g).stabilizers_abelian
    assert abelian == (name != "S3")
    if name in ("V4", "Z2xZ2"):
        assert group.order == 4 and group.name == "V4"


@pytest.mark.parametrize("group", EIGHT_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_connected_groupoid_matches_dict_construction(group, n):
    got = labeled(groups.connected_groupoid(n, group))
    want = ref_connected_groupoid(n, group)
    assert vars(got).keys() - {"hom"} == vars(want).keys()
    for field in vars(want):
        assert getattr(got, field) == getattr(want, field), field


def test_disjoint_union_matches_dict_construction():
    parts = [
        (groups.connected_groupoid(2, groups.symmetric(3), "X"),
         groups.connected_groupoid(1, groups.cyclic(2), "Y")),
        (groups.connected_groupoid(1, groups.cyclic(4)),
         groups.connected_groupoid(3, groups.klein_four()),
         groups.connected_groupoid(1, groups.cyclic(1))),
    ]
    for components in parts:
        got = labeled(groups.disjoint_union(*components))
        want = ref_disjoint_union(*map(labeled, components))
        for field in vars(want):
            assert getattr(got, field) == getattr(want, field), field


def test_validate_matches_loops_on_valid_groupoids():
    for g in CRITERION_4 + DECK:
        got = rows(groups.validate_groupoid(g))
        assert got == ref_validate_groupoid(labeled(g))
        assert all(passed for _, passed, _ in got)


def test_traits_match_loops():
    for g in CRITERION_4:
        assert tuple(groups.groupoid_report(g)) == ref_traits(labeled(g))


def test_regular_representation_bases_are_bit_identical():
    for g in CRITERION_4 + DECK:
        cat = cstarcat.groupoid_category(g)
        ref = ref_operators(labeled(g))
        assert list(cat.blocks) == list(ref)
        for pair, ops in ref.items():
            want = np.asarray(numkit.hs_orthonormalize(ops, 1e-9).basis)
            got = np.asarray(cat.blocks[pair])
            assert want.shape == got.shape and want.tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# planted failures


def _set(g, field, index, value):
    table = getattr(g, field).copy()
    table[index] = value
    return dataclasses.replace(g, **{field: table})


def _swapped(g, x, y1, y2):
    """Results of ``x o y1`` and ``x o y2`` exchanged."""
    table = g.compose.copy()
    table[x, [y1, y2]] = table[x, [y2, y1]]
    return dataclasses.replace(g, compose=table)


_Z3 = groups.connected_groupoid(1, groups.cyclic(3))
# arrow (t, g, s) of S3 on two objects has index (t * 6 + g) * 2 + s;
# g = 3 is the 3-cycle "120"
_S3_2 = groups.connected_groupoid(2, groups.symmetric(3))

PLANTED = {
    # an arrow whose source is no object
    "source-target-defined": (_set(_S3_2, "source", 5, 2), "source-target-defined"),
    # x o y given where y ends elsewhere
    "junk-compose": (_set(_S3_2, "compose", (3, 0), 7), "composition-table"),
    # x o y missing where it is defined
    "dropped-compose": (_set(_S3_2, "compose", (4, 9), -1), "composition-table"),
    # x o y with the wrong ends
    "wrong-ends": (_set(_S3_2, "compose", (2, 1), 14), "composition-table"),
    # a result outside the arrows
    "no-such-arrow": (_set(_S3_2, "compose", (2, 1), 99), "composition-table"),
    # ends right, products of the generator exchanged
    "swapped-results": (_swapped(_Z3, 1, 1, 2), "associativity"),
    # a non-identity loop named as the identity
    "wrong-identity": (_set(_S3_2, "identities", 1, 15), "identities"),
    # an arrow of order 3 named as its own inverse
    "wrong-inverse": (_set(_S3_2, "inverses", 6, 6), "inverses"),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_failure_matches_loops(case):
    g, name = PLANTED[case]
    got = rows(groups.validate_groupoid(g))
    assert got == ref_validate_groupoid(labeled(g))
    assert [n for n, passed, _ in got if not passed][0] == name


def test_random_mutations_match_loops():
    rng = np.random.default_rng(7)
    family = CRITERION_4[1:24:3] + CRITERION_4[24::4]
    seen = set()
    for _ in range(120):
        g = family[rng.integers(len(family))]
        n_arr, n_obj = len(g.arrows), len(g.objects)
        field = ["compose", "compose", "compose", "identities", "inverses"][
            rng.integers(5)
        ]
        if field == "compose":
            x, y = rng.integers(n_arr, size=2)
            value = rng.integers(-1, n_arr)
            g = _set(g, field, (x, y), value)
        elif field == "identities":
            g = _set(g, field, rng.integers(n_obj), rng.integers(n_arr))
        else:
            g = _set(g, field, rng.integers(n_arr), rng.integers(n_arr))
        got = rows(groups.validate_groupoid(g))
        assert got == ref_validate_groupoid(labeled(g))
        seen.update(n for n, passed, _ in got if not passed)
    assert seen >= {"composition-table", "identities", "inverses"}


def test_invalid_groupoid_names_failed_checks():
    g, _ = PLANTED["wrong-inverse"]
    with pytest.raises(InvalidGroupoid, match="^inverses$"):
        cstarcat.groupoid_category(g)


def test_validate_scales_past_the_acceptance_sizes():
    # 8 objects x S3: 384 arrows, a 147,456-entry table
    g = groups.connected_groupoid(8, groups.symmetric(3))
    assert groups.validate_groupoid(g).passed
    # x = (0, e, 7) times (7, g, 0) for the first two elements g
    bad = groups.validate_groupoid(_swapped(g, 7, 7 * 48, 7 * 48 + 8))
    assert [c.name for c in bad.failures()] == ["associativity", "inverses"]
