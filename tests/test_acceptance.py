"""Acceptance gate: every advertised guarantee, at its stated
tolerance and case count, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  These are the same randomized suites the ``spectroid
selftest`` command runs; here each criterion is pinned to its exact
contract (counts, bounds, and the wall-clock budget for the big
round-trip batch).
"""

import time

from spectroid import selftest
from spectroid.reporting import Report


def _verdict(num: int, name: str, report: Report, extra: str = "") -> None:
    status = "PASS" if report.passed else "FAIL"
    n_checks = len(report.checks)
    line = (
        f"ACCEPTANCE {num} {name}: {status} "
        f"({n_checks} checks, worst residual {report.worst_residual:.3e}{extra})"
    )
    print(line, flush=True)
    if not report.passed:
        failing = [c for c in report.checks if not c.passed][:10]
        for c in failing:
            print(f"  FAIL {c.name} residual={c.residual:.3e} {c.detail}")
    assert report.passed, line


def test_criterion_1_gelfand_roundtrips():
    """200 category -> spaceoid -> category round trips within 1e-9,
    finishing inside a 60 second budget."""
    start = time.monotonic()
    report = selftest.suite_gelfand(
        n_cases=200, seed=0, tol=1e-9, max_points=8, max_objects=5
    )
    elapsed = time.monotonic() - start
    _verdict(1, "gelfand-roundtrips", report, extra=f", {elapsed:.1f}s")
    assert elapsed <= 60.0, f"budget exceeded: {elapsed:.1f}s > 60s"


def test_criterion_2_evaluation_roundtrips():
    """200 spaceoid -> sections -> spaceoid round trips: bijective base
    matching and unimodular comparison scalars within 1e-9."""
    report = selftest.suite_evaluation(
        n_cases=200, seed=1, tol=1e-9, max_points=8, max_objects=5
    )
    _verdict(2, "evaluation-roundtrips", report)


def test_criterion_3_naturality_squares():
    """Both duality directions are natural: 100 functor squares and 100
    spaceoid-morphism squares commute within 1e-9."""
    report = selftest.suite_naturality(n_cases=100, seed=2, tol=1e-9)
    _verdict(3, "naturality-squares", report)


def test_criterion_4_groupoid_classification():
    """Commutativity iff every stabilizer is abelian; fullness iff the
    groupoid is transitive — across trivial, Z2, Z3, Z4, Z2xZ2, and S3
    stabilizers on transitive and non-transitive groupoids, with zero
    mismatches."""
    report = selftest.suite_groupoid_classification(tol=1e-9)
    _verdict(4, "groupoid-classification", report)


def test_criterion_5_cyclic_group_characters():
    """The cyclic group of order m (m = 2..12) has m spectrum classes
    and its element evaluations match the discrete Fourier table
    e^{-2 pi i jk / m} within 1e-9 under one consistent matching."""
    report = selftest.suite_dft(tol=1e-9, m_range=range(2, 13))
    _verdict(5, "cyclic-characters", report)


def test_criterion_6_functional_calculus():
    """500 functional-calculus cases (rectangular up to 8x8 and normal
    square elements, polynomials of degree <= 5 with zero constant
    term) agree with the direct singular-value oracle within
    1e-8 * (1 + max|f|); the identity function reproduces the element
    within 1e-10."""
    report = selftest.suite_funcalc(n_cases=500, seed=3, tol=1e-8, max_dim=8)
    _verdict(6, "functional-calculus", report)


def test_criterion_7_gauge_trivialization():
    """500 randomly gauge-twisted coboundary spaceoids trivialize to
    the flat table within 1e-12, and planted phase functors are
    recovered from their character tables within 1e-12."""
    report = selftest.suite_gauge(n_cases=500, seed=4, tol=1e-12)
    _verdict(7, "gauge-trivialization", report)


def test_criterion_8_classical_diagonal():
    """Diagonal one-object categories on k <= 16 points yield exactly k
    spectrum classes with flat structure constants, and reconstruct
    within 1e-10."""
    report = selftest.suite_classical(k_max=16, tol=1e-10)
    _verdict(8, "classical-diagonal", report)
