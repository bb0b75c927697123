"""Seeded randomized verification suites behind the acceptance gate.

Each ``suite_*`` function runs one family of checks and returns a
:class:`Report`; :func:`run` assembles the whole battery.  Every random
draw flows from the integer seed argument, so runs are reproducible,
and a case that raises is recorded as a failed check rather than
aborting the battery (a deliberately broken tolerance must produce a
failing report, not a crash).
"""

from __future__ import annotations

import numpy as np

from . import cstarcat as cc
from . import duality as du
from . import funcalc as fc
from . import groups
from . import spaceoid as sp
from .config import resolve_tol
from .errors import SpectroidError
from .reporting import Report

__all__ = [
    "rand_unitary",
    "scramble_category",
    "random_commutative_category",
    "random_spaceoid",
    "random_morphism",
    "random_functor",
    "suite_gelfand",
    "suite_evaluation",
    "suite_naturality",
    "groupoid_classification_cases",
    "suite_groupoid_classification",
    "suite_dft",
    "suite_funcalc",
    "suite_gauge",
    "suite_classical",
    "run",
]


# ---------------------------------------------------------------------------
# random case generators


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def scramble_category(cat, rng: np.random.Generator):
    """Conjugate every object space by a random unitary: an invisible
    change of coordinates preserving all categorical structure."""
    us = {o: rand_unitary(rng, d) for o, d in cat.objects}
    blocks = {
        (a, b): [us[a] @ x @ us[b].conj().T for x in basis]
        for (a, b), basis in cat.blocks.items()
    }
    return cc.MatrixCategory(cat.objects, blocks, cat.unital)


def _random_phases(rng, k):
    return np.exp(2j * np.pi * rng.random(k))


_ABELIAN = tuple(map(groups.group_by_name, ("Z2", "Z3", "Z4", "Z5", "Z6", "V4")))


def random_commutative_category(
    seed: int, max_points: int = 8, max_objects: int = 5
):
    """One random commutative full category drawn from the generating
    constructions (linking chains and abelian groupoid algebras),
    optionally in scrambled coordinates."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(3)
    if kind == 0:
        k = int(rng.integers(2, max_points + 1))
        cat = cc.linking_category(
            k, rng.permutation(k), _random_phases(rng, k)
        )
    elif kind == 1:
        k = int(rng.integers(2, max_points + 1))
        n = int(rng.integers(2, max_objects + 1))
        cat = cc.multi_linking(
            k,
            [rng.permutation(k) for _ in range(n - 1)],
            [_random_phases(rng, k) for _ in range(n - 1)],
        )
    else:
        g = _ABELIAN[rng.integers(len(_ABELIAN))]
        n = int(rng.integers(1, min(4, max_objects) + 1))
        cat = cc.groupoid_category(groups.connected_groupoid(n, g))
    if rng.random() < 0.5:
        cat = scramble_category(cat, rng)
    return cat


def random_spaceoid(
    seed: int,
    max_points: int = 8,
    max_objects: int = 5,
    n_points: int | None = None,
    n_objects: int | None = None,
):
    """A random valid gauge applied to a random direct construction.

    Sizes are drawn up to the ``max_*`` bounds unless pinned exactly
    with ``n_points``/``n_objects``.
    """
    rng = np.random.default_rng(seed)
    if n_points is None:
        n_points = int(rng.integers(1, max_points + 1))
    if n_objects is None:
        n_objects = int(rng.integers(1, max_objects + 1))
    kind = rng.integers(3)
    if kind == 0:
        e = sp.trivial_spaceoid(n_points, n_objects)
    elif kind == 1 and n_objects >= 2:
        e = sp.linking_spaceoid(
            n_points,
            [_random_phases(rng, n_points) for _ in range(n_objects - 1)],
        )
    else:
        e = sp.torsor_associated(n_objects, n_points)
    gauge = sp.random_gauge(rng, e.base_points, e.objects)
    return sp.apply_gauge(e, gauge)


def random_morphism(seed: int, dom, cod, f_delta=None, f_r=None):
    """A valid random morphism ``dom -> cod``: trivializing gauges of
    both sides glued by a free multiplicative phase per domain point."""
    if len(dom.objects) != len(cod.objects):
        raise ValueError("object sets must have equal size")
    rng = np.random.default_rng(seed)
    g1 = sp.trivialize(dom).gauge
    g2 = sp.trivialize(cod).gauge
    if f_delta is None:
        f_delta = {
            p: cod.base_points[rng.integers(len(cod.base_points))]
            for p in dom.base_points
        }
    if f_r is None:
        perm = rng.permutation(len(dom.objects))
        f_r = {a: cod.objects[perm[i]] for i, a in enumerate(dom.objects)}
    f_delta = {p: f_delta[p] for p in dom.base_points}  # in the scalars' order
    f_r = {a: f_r[a] for a in dom.objects}
    q = [cod.base_points.index(v) for v in f_delta.values()]
    r = [cod.objects.index(v) for v in f_r.values()]
    nu = np.exp(2j * np.pi * rng.random((len(dom.base_points), len(dom.objects))))
    scal = sp._mul(sp._mul(nu[:, :, None], nu.conj()[:, None, :]), g1)
    return sp.SpaceoidMorphism(f_delta, f_r, sp._mul(scal, g2[np.ix_(q, r, r)].conj()))


def random_functor(seed: int, cat):
    """A random *-isomorphism out of ``cat``: scrambled coordinates on
    the target composed with a random phase automorphism.  Returns
    ``(phi, target)``."""
    rng = np.random.default_rng(seed)
    target = scramble_category(cat, rng)
    nu = {o: np.exp(2j * np.pi * rng.random()) for o in cat.object_ids}
    block_maps = {
        (a, b): nu[a]
        * np.conj(nu[b])
        * np.eye(cat.block_dim(a, b), dtype=complex)
        for a, b in cat.pairs()
    }
    phi = cc.StarFunctor(
        object_map={o: o for o in cat.object_ids}, block_maps=block_maps
    )
    return phi, target


# ---------------------------------------------------------------------------
# suites


def _guard(report: Report, name: str, body) -> None:
    """Run one case; an exception becomes a failed check, not a crash."""
    try:
        body()
    except (SpectroidError, np.linalg.LinAlgError, ValueError) as exc:
        report.add(name, False, float("nan"), f"{type(exc).__name__}: {exc}")


def suite_gelfand(
    n_cases: int = 200,
    seed: int = 0,
    tol: float | None = None,
    max_points: int = 8,
    max_objects: int = 5,
) -> Report:
    """Gel'fand transform is a bijective isometric *-functor on random
    commutative full categories."""
    tol = resolve_tol(tol)
    rng = np.random.default_rng(seed)
    report = Report()
    for i in range(n_cases):
        case_seed = int(rng.integers(2**63))

        def body(i=i, case_seed=case_seed):
            cat = random_commutative_category(case_seed, max_points, max_objects)
            g = du.gelfand(cat, tol, seed=case_seed)
            report.add(
                f"gelfand-{i}", g.report.passed, g.report.worst_residual
            )

        _guard(report, f"gelfand-{i}", body)
    return report


def suite_evaluation(
    n_cases: int = 200,
    seed: int = 0,
    tol: float | None = None,
    max_points: int = 8,
    max_objects: int = 5,
) -> Report:
    """Evaluation is an isomorphism of spaceoids on random valid
    gauge-twisted constructions."""
    tol = resolve_tol(tol)
    rng = np.random.default_rng(seed)
    report = Report()
    for i in range(n_cases):
        case_seed = int(rng.integers(2**63))

        def body(i=i, case_seed=case_seed):
            e = random_spaceoid(case_seed, max_points, max_objects)
            ev = du.evaluation(e, tol, seed=case_seed)
            # validate_morphism holds the comparison scalars to
            # unimodularity within tol (fiber-scalars-unimodular)
            rep = sp.validate_morphism(ev.morphism, e, ev.spectrum.spaceoid, tol)
            iso = rep.passed and sp._base_bijective(ev.morphism, ev.spectrum.spaceoid)
            report.add(f"evaluation-{i}", iso, rep.worst_residual)

        _guard(report, f"evaluation-{i}", body)
    return report


def suite_naturality(
    n_cases: int = 100,
    seed: int = 0,
    tol: float | None = None,
    max_points: int = 5,
    max_objects: int = 4,
) -> Report:
    """Both naturality squares on random functors and random spaceoid
    morphisms."""
    tol = resolve_tol(tol)
    rng = np.random.default_rng(seed)
    report = Report()
    for i in range(n_cases):
        case_seed = int(rng.integers(2**63))

        def functor_body(i=i, case_seed=case_seed):
            cat = random_commutative_category(case_seed, max_points, max_objects)
            phi, target = random_functor(case_seed + 1, cat)
            rep = du.verify_duality(
                functors=[(phi, cat, target)], tol=tol, seed=case_seed
            )
            report.add(
                f"functor-square-{i}", rep.passed, rep.worst_residual
            )

        _guard(report, f"functor-square-{i}", functor_body)

        def morphism_body(i=i, case_seed=case_seed):
            # equal object counts so the object bijection exists
            n_obj = int(
                np.random.default_rng(case_seed).integers(1, max_objects + 1)
            )
            dom = random_spaceoid(case_seed + 2, max_points, n_objects=n_obj)
            cod = random_spaceoid(case_seed + 3, max_points, n_objects=n_obj)
            m = random_morphism(case_seed + 4, dom, cod)
            rep = du.verify_duality(
                morphisms=[(m, dom, cod)], tol=tol, seed=case_seed
            )
            report.add(
                f"morphism-square-{i}", rep.passed, rep.worst_residual
            )

        _guard(report, f"morphism-square-{i}", morphism_body)
    return report


def groupoid_classification_cases() -> list:
    """``(name, groupoid)`` for the classification suite: transitive
    groupoids of six groups on 1-4 objects, then disjoint unions."""
    named, connected = groups.group_by_name, groups.connected_groupoid
    cases = [
        (f"{name}-transitive-{n}obj", connected(n, named(name)))
        for name in ("1", "Z2", "Z3", "Z4", "V4", "S3")
        for n in (1, 2, 3, 4)
    ]
    # non-transitive: disjoint unions keeping at most four objects
    for na, nb in [
        ("1", "1"), ("Z2", "Z2"), ("Z2", "Z3"), ("Z4", "V4"), ("S3", "Z2"),
        ("S3", "S3"), ("Z3", "1"),
    ]:
        for split in ((1, 1), (2, 2), (1, 3)):
            u = groups.disjoint_union(
                connected(split[0], named(na), prefix="X"),
                connected(split[1], named(nb), prefix="Y"),
            )
            cases.append((f"{na}+{nb}-union-{split[0]}+{split[1]}obj", u))
    return cases


def suite_groupoid_classification(tol: float | None = None) -> Report:
    """Commutativity matches abelian stabilizers and fullness matches
    transitivity over the enumerated groupoid family."""
    tol = resolve_tol(tol)
    cases = groupoid_classification_cases()
    report = Report()
    for name, g in cases:
        def body(name=name, g=g):
            traits = groups.groupoid_report(g)
            cat = cc.groupoid_category(g)
            ok_comm = cc.is_commutative(cat, tol) == traits.stabilizers_abelian
            ok_full = cc.is_full(cat, tol) == traits.transitive
            report.add(
                f"classify-{name}",
                ok_comm and ok_full,
                0.0,
                f"abelian={traits.stabilizers_abelian} "
                f"transitive={traits.transitive}",
            )

        _guard(report, f"classify-{name}", body)
    return report


def suite_dft(tol: float | None = None, m_range=range(2, 13)) -> Report:
    """Cyclic group algebras: the spectrum is the dual group and the
    Gel'fand transform of every group element matches the DFT character
    table under one consistent matching of classes to frequencies."""
    tol = resolve_tol(tol)
    report = Report()
    for m in m_range:
        def body(m=m):
            group = groups.cyclic(m)
            cat = cc.groupoid_category(groups.connected_groupoid(1, group))
            obj = cat.object_ids[0]
            chars = du.characters(cat)
            if len(chars) != m:
                report.add(
                    f"dft-Z{m}", False, float("nan"),
                    f"expected {m} classes, got {len(chars)}",
                )
                return
            # left regular representation of every element: i -> j*i
            rep_elt = np.zeros((m, m, m), dtype=complex)
            rep_elt[np.arange(m)[:, None], group.mult, np.arange(m)] = 1.0
            # each class must sit at one frequency, bijectively
            freqs, devs = [], []
            for w in chars:
                z = w.value(obj, obj, rep_elt[1])
                k = int(round((-np.angle(z) * m) / (2 * np.pi))) % m
                freqs.append(k)
                for j in range(m):
                    target = np.exp(-2j * np.pi * k * j / m)
                    devs.append(abs(w.value(obj, obj, rep_elt[j]) - target))
            if sorted(freqs) != list(range(m)):
                report.add(f"dft-Z{m}", False, detail=f"frequencies {freqs}")
                return
            report.check(f"dft-Z{m}", devs, tol)

        _guard(report, f"dft-Z{m}", body)
    return report


def _random_polynomial(rng, degree_max=5):
    """Zero-constant-term polynomial with complex coefficients."""
    deg = int(rng.integers(1, degree_max + 1))
    coeffs = [0.0] + [
        complex(z)
        for z in rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    ]
    return fc.SpectralFunction.from_coeffs(coeffs)


def suite_funcalc(
    n_cases: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
    max_dim: int = 8,
) -> Report:
    """Functional calculus matches the decomposition oracle on random
    rectangular and normal-square inputs; identity is exact."""
    rng = np.random.default_rng(seed)
    report = Report()
    for i in range(n_cases):
        case_seed = int(rng.integers(2**63))

        def body(i=i, case_seed=case_seed):
            case = _funcalc_case(case_seed, tol, max_dim)
            report.add(f"funcalc-{i}", case.passed, case.worst_residual)

        _guard(report, f"funcalc-{i}", body)
    return report


def _funcalc_case(case_seed: int, tol: float, max_dim: int) -> Report:
    """One case of :func:`suite_funcalc`, drawn from its seed: the
    oracle check and the identity check."""
    crng = np.random.default_rng(case_seed)
    qa = int(crng.integers(1, max_dim + 1))
    qb = int(crng.integers(1, max_dim + 1))
    square_normal = crng.random() < 0.4
    if square_normal:
        u = rand_unitary(crng, qa)
        eigs = crng.standard_normal(qa) + 1j * crng.standard_normal(qa)
        x = u @ np.diag(eigs) @ u.conj().T
        a_id, b_id = "A", "A"
    else:
        x = crng.standard_normal((qa, qb)) + 1j * crng.standard_normal(
            (qa, qb)
        )
        if crng.random() < 0.3 and min(qa, qb) > 1:
            # plant a kernel: zero out trailing singular values
            u_, s_, vh_ = np.linalg.svd(x, full_matrices=False)
            r = int(crng.integers(1, min(qa, qb)))
            x = (u_[:, :r] * s_[:r]) @ vh_[:r]
        a_id, b_id = "A", "B"
    f = _random_polynomial(crng)
    got = fc.funcalc(x, a_id, b_id, f, seed=case_seed)
    want = fc.svd_oracle(x, a_id, b_id, f)
    pts = fc.spectrum_of_element(x, a_id, b_id)
    fmax = max((abs(fc._call(f, s, 1.0)) for s in pts), default=0.0)
    case = Report()
    case.check("oracle", np.linalg.norm(got - want, 2), tol * (1.0 + fmax))
    identity = fc.SpectralFunction.from_coeffs([0.0, 1.0])
    ident = fc.funcalc(x, a_id, b_id, identity)
    case.check("identity", np.linalg.norm(ident - x, 2), 1e-10)
    return case


def suite_gauge(
    n_cases: int = 500,
    seed: int = 0,
    tol: float = 1e-12,
    max_points: int = 6,
    max_objects: int = 4,
) -> Report:
    """Gauge theory of the structure constants: trivialize always
    reaches the unit table, and the phase relating two equivalent
    characters is recovered exactly when planted."""
    rng = np.random.default_rng(seed)
    report = Report()
    for i in range(n_cases):
        case_seed = int(rng.integers(2**63))

        def body(i=i, case_seed=case_seed):
            e = random_spaceoid(case_seed, max_points, max_objects)
            flat = sp.trivialize(e).spaceoid
            report.check(f"trivialize-{i}", sp._abs(flat.table - 1.0), tol)

        _guard(report, f"trivialize-{i}", body)

        if i % 5 == 0:

            def plant_body(i=i, case_seed=case_seed):
                crng = np.random.default_rng(case_seed + 1)
                cat = random_commutative_category(
                    case_seed + 1, max_points=4, max_objects=3
                )
                chars = du.characters(cat, seed=case_seed)
                w1 = chars[int(crng.integers(len(chars)))]
                nu = {
                    o: np.exp(2j * np.pi * crng.random())
                    for o in cat.object_ids
                }
                planted = sp.phase_functor_from_assignment(nu)

                def w2(a, b, x):
                    return planted.at(a, b) * w1.value(a, b, x)

                found = du.unitary_equivalence_gauge(w1, w2, cat)
                devs = [abs(found.at(*p) - planted.at(*p)) for p in cat.pairs()]
                report.check(f"planted-phase-{i}", devs, tol)

            _guard(report, f"planted-phase-{i}", plant_body)
    return report


def suite_classical(k_max: int = 16, tol: float = 1e-10) -> Report:
    """One-object diagonal algebras reproduce classical finite duality:
    k spectrum points, unit structure constants, and an exact
    reconstruction along the canonical point matching."""
    report = Report()
    for k in range(1, k_max + 1):
        def body(k=k):
            cat = du.classical_category(k)
            g = du.gelfand(cat, tol)
            if not (g.report.passed and g.spectrum.ranks.tolist() == [1] * k):
                report.add(f"classical-{k}", False, g.report.worst_residual)
                return
            # the comparison functor must be a permutation matrix exactly:
            # sections of the trivial k-point spaceoid are again indicator
            # functions, so the only freedom is the point matching; every
            # residual, the gelfand report's included, is held to tol
            mat = g.functor.block_maps[("A", "A")]
            devs = [
                [g.report.worst_residual],
                np.abs(g.spectrum.spaceoid.table - 1.0).ravel(),
                np.abs(np.abs(mat) - np.round(np.abs(mat))).ravel(),
                np.abs(mat.sum(axis=0) - 1.0),
                np.abs(mat.sum(axis=1) - 1.0),
            ]
            report.check(f"classical-{k}", np.concatenate(devs), tol)

        _guard(report, f"classical-{k}", body)
    return report


# ---------------------------------------------------------------------------
# the full battery


def run(
    seed: int = 0,
    tol: float | None = None,
    cases: int | None = None,
    max_points: int = 8,
    max_objects: int = 5,
) -> Report:
    """The whole randomized battery.  ``cases`` caps the per-suite case
    counts (None = the full acceptance-scale counts)."""
    tol = resolve_tol(tol)

    def n(default):
        return default if cases is None else min(cases, default)

    report = Report()
    report.extend(
        suite_gelfand(n(200), seed, tol, max_points, max_objects), "1-"
    )
    report.extend(
        suite_evaluation(n(200), seed + 1, tol, max_points, max_objects), "2-"
    )
    report.extend(
        suite_naturality(
            n(100), seed + 2, tol,
            max_points=min(5, max_points), max_objects=min(4, max_objects),
        ),
        "3-",
    )
    report.extend(suite_groupoid_classification(tol), "4-")
    report.extend(suite_dft(max(tol, 1e-9)), "5-")
    report.extend(suite_funcalc(n(500), seed + 3, max(tol, 1e-8)), "6-")
    report.extend(
        suite_gauge(
            n(500), seed + 4, max(min(tol, 1e-9), 1e-12),
            max_points=min(6, max_points), max_objects=min(4, max_objects),
        ),
        "7-",
    )
    report.extend(suite_classical(16, max(tol, 1e-10)), "8-")
    return report
