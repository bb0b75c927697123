"""Command-line interface: file-in/file-out spectral computations.

Subcommands: ``spectrum``, ``sections``, ``roundtrip``, ``make``,
``funcalc``, ``selftest``, ``validate``.  Shared flags (``--tol``,
``--seed``, ``--out``, ``--json``) may be given before or after the
subcommand.

Exit codes: 0 all checks passed, 1 a verification failed, 2 invalid
input (unparseable file, axiom violation, bad parameters).

Outputs are byte-identical for identical (input, seed, tolerance):
artifacts go through the canonical JSON emitter, and every random draw
derives from the seed flag.  When no ``--out`` is given the artifact
goes to stdout and any report summary to stderr, so piping stays clean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import cstarcat as cc
from . import duality as du
from . import funcalc as fc
from . import groups
from . import selftest
from . import serial
from . import spaceoid as sp
from .config import resolve_tol
from .errors import SchemaError, SpectroidError
from .reporting import Report

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# plumbing


def _common(default: bool) -> argparse.ArgumentParser:
    """The shared flags; real defaults on the root parser, SUPPRESS on
    subparsers so values given after the subcommand win."""
    miss = argparse.SUPPRESS
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--tol",
        type=float,
        default=None if default else miss,
        help="verification tolerance (default 1e-9)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0 if default else miss,
        help="seed for every random draw (default 0)",
    )
    p.add_argument(
        "--out",
        default=None if default else miss,
        help="write the primary output file here instead of stdout",
    )
    p.add_argument(
        "--json",
        action="store_true",
        default=False if default else miss,
        help="machine-readable reports",
    )
    return p


def _write_artifact(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _report_text(args, report: Report) -> str:
    if args.json:
        return serial.canonical_text(serial.report_to_json(report))
    return report.summary() + "\n"


def _deliver(args, artifact: str | None = None, report: Report | None = None) -> int:
    """Route artifact and report to the right streams; exit code from
    the report when one is present."""
    if artifact is not None:
        _write_artifact(args, artifact)
        if report is not None:
            stream = sys.stdout if args.out else sys.stderr
            stream.write(_report_text(args, report))
    elif report is not None:
        if args.out:
            Path(args.out).write_text(_report_text(args, report))
        else:
            sys.stdout.write(_report_text(args, report))
    if report is not None and not report.passed:
        return 1
    return 0


def _read(path) -> str:
    return Path(path).read_text()


def _close_category(payload, tol):
    """Decode a category payload and close it into a working category."""
    stored = serial.category_from_json(payload)
    pres = cc.CategoryPresentation(
        objects=stored.objects,
        generators={k: list(v) for k, v in stored.blocks.items() if v},
    )
    return cc.close(pres, unitize=stored.unital, tol=tol)


def _load_spaceoid(path):
    return serial.parse("spaceoid", _read(path))


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    tol = resolve_tol(args.tol)
    cat = _close_category(serial.load_text(_read(args.file)), tol)
    spec = du.spectrum(cat, tol, args.seed)
    report = sp.validate(spec.spaceoid, tol)
    if args.json:
        artifact = serial.canonical_text(
            serial.spectrum_report_to_json(spec, report)
        )
        code = _deliver(args, artifact)
    else:
        code = _deliver(args, serial.emit("spaceoid", spec.spaceoid), report)
    return code if report.passed else 1


def cmd_sections(args) -> int:
    tol = resolve_tol(args.tol)
    cat = du.sections(_load_spaceoid(args.file), tol)
    return _deliver(args, serial.emit("category", cat))


def cmd_roundtrip(args) -> int:
    tol = resolve_tol(args.tol)
    payload = serial.load_text(_read(args.file))
    kind = serial.classify(payload)
    if kind == "category":
        cat = _close_category(payload, tol)
        report = du.roundtrip_category(cat, tol, args.seed)
    elif kind == "spaceoid":
        report = du.roundtrip_spaceoid(
            serial.spaceoid_from_json(payload), tol, args.seed
        )
    else:
        raise SchemaError(f"roundtrip expects a category or spaceoid file, got {kind}")
    return _deliver(args, report=report)


def _random_bijections_and_phases(rng, k, count):
    perms = [rng.permutation(k) for _ in range(count)]
    phases = [np.exp(2j * np.pi * rng.random(k)) for _ in range(count)]
    return perms, phases


def cmd_make(args) -> int:
    tol = resolve_tol(args.tol)
    rng = np.random.default_rng(args.seed)
    kind = args.kind
    info = None
    if kind == "trivial":
        points = int(args.arg) if args.arg is not None else args.points
        artifact = serial.emit(
            "spaceoid", sp.trivial_spaceoid(points, args.objects)
        )
    elif kind == "linking":
        points = int(args.arg) if args.arg is not None else args.points
        n = max(args.objects, 2)
        perms, phases = _random_bijections_and_phases(rng, points, n - 1)
        if n == 2:
            cat = cc.linking_category(points, perms[0], phases[0])
        else:
            cat = cc.multi_linking(points, perms, phases)
        artifact = serial.emit("category", cat)
    elif kind == "groupoid":
        if args.arg is None:
            raise SchemaError(
                "make groupoid needs a group name (e.g. Z6, V4, S3)"
            )
        g = groups.group_by_name(args.arg)
        gpd = groups.connected_groupoid(args.objects, g)
        cat = cc.groupoid_category(gpd, tol)
        artifact = serial.emit("category", cat)
        traits = groups.groupoid_report(gpd)
        info = (
            f"commutative: {cc.is_commutative(cat, tol)}  "
            f"full: {cc.is_full(cat, tol)}  "
            f"(stabilizers abelian: {traits.stabilizers_abelian}, "
            f"transitive: {traits.transitive})\n"
        )
    elif kind == "torsor":
        points = int(args.arg) if args.arg is not None else args.points
        reps = {}
        for p in range(points):
            nu = {
                f"O{i + 1}": np.exp(2j * np.pi * rng.random())
                for i in range(args.objects)
            }
            reps[f"p{p}"] = sp.phase_functor_from_assignment(nu)
        artifact = serial.emit(
            "spaceoid", sp.torsor_associated(args.objects, points, reps)
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError(f"unknown make kind {kind!r}")
    code = _deliver(args, artifact)
    if info:
        (sys.stdout if args.out else sys.stderr).write(info)
    return code


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise SchemaError(f"cannot parse complex number {text!r}") from exc


def _parse_function(args):
    if (args.poly is None) == (args.table is None):
        raise SchemaError("give exactly one of --poly or --table")
    if args.poly is not None:
        coeffs = [_parse_complex(t) for t in args.poly.split(",")]
        return fc.SpectralFunction.from_coeffs(coeffs)
    entries = []
    for item in args.table.split(","):
        if "=" not in item:
            raise SchemaError(f"table entries look like s=value, got {item!r}")
        key, value = item.split("=", 1)
        entries.append((_parse_complex(key), _parse_complex(value)))
    return fc.SpectralFunction.from_table(entries)


def cmd_funcalc(args) -> int:
    tol = resolve_tol(args.tol)
    x = serial.parse("matrix", _read(args.file))
    parts = args.block.split(":")
    if len(parts) != 2 or not all(parts):
        raise SchemaError(f"block must look like 'A:B', got {args.block!r}")
    f = _parse_function(args)
    result = fc.funcalc(x, parts[0], parts[1], f, tol, seed=args.seed)
    return _deliver(args, serial.emit("matrix", result))


def cmd_selftest(args) -> int:
    report = selftest.run(
        seed=args.seed,
        tol=args.tol,
        cases=args.cases,
        max_points=args.max_points,
        max_objects=args.max_objects,
    )
    return _deliver(args, report=report)


def cmd_validate(args) -> int:
    tol = resolve_tol(args.tol)
    report = Report()
    for path in args.files:
        payload = serial.load_text(_read(path))
        kind = serial.classify(payload)
        prefix = f"{Path(path).name}:"
        if kind == "spaceoid":
            report.extend(
                sp.validate(serial.spaceoid_from_json(payload), tol), prefix
            )
        elif kind == "category":
            cat = _close_category(payload, tol)
            report.extend(cc.check_axioms(cat, tol), prefix)
        elif kind == "groupoid":
            report.extend(
                groups.validate_groupoid(serial.groupoid_from_json(payload)),
                prefix,
            )
        elif kind == "morphism":
            if not (args.dom and args.cod):
                raise SchemaError(
                    "validating a morphism file needs --dom and --cod "
                    "spaceoid files"
                )
            m = serial.morphism_from_json(payload)
            report.extend(
                sp.validate_morphism(
                    m, _load_spaceoid(args.dom), _load_spaceoid(args.cod), tol
                ),
                prefix,
            )
        elif kind == "spectrum-report":
            rep = serial.spectrum_report_from_json(payload)
            report.add(f"{prefix}parse", True)
            report.extend(sp.validate(rep.spaceoid, tol), prefix)
        else:  # matrix, report: parsing is the whole check
            serial.parse(kind, serial.canonical_text(payload))
            report.add(f"{prefix}parse", True)
    return _deliver(args, report=report)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="spectroid",
        description=(
            "Spectral bundle data of matrix C*-categories: compute "
            "spectra and section categories, verify the duality round "
            "trips, build examples, and apply functional calculus."
        ),
        parents=[_common(default=True)],
    )
    sub = root.add_subparsers(dest="command", metavar="command")
    flags = _common(default=False)

    p = sub.add_parser(
        "spectrum",
        parents=[flags],
        help="category file -> spaceoid file (+ validation report)",
    )
    p.add_argument("file", help="category JSON file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "sections",
        parents=[flags],
        help="spaceoid file -> category file of its sections",
    )
    p.add_argument("file", help="spaceoid JSON file")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser(
        "roundtrip",
        parents=[flags],
        help="verify the duality round trip of a category or spaceoid file",
    )
    p.add_argument("file", help="category or spaceoid JSON file")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser(
        "make",
        parents=[flags],
        help="build an example category or spaceoid file",
    )
    p.add_argument(
        "kind", choices=["trivial", "linking", "groupoid", "torsor"]
    )
    p.add_argument(
        "arg",
        nargs="?",
        help="group name for 'groupoid' (Z2..Z12, V4, S3); "
        "base point count for the other kinds",
    )
    p.add_argument(
        "--points", type=int, default=3, help="base point count (default 3)"
    )
    p.add_argument(
        "--objects", type=int, default=2, help="object count (default 2)"
    )
    p.set_defaults(func=cmd_make)

    p = sub.add_parser(
        "funcalc",
        parents=[flags],
        help="apply a scalar function to a matrix file through its "
        "generated category",
    )
    p.add_argument("file", help="matrix JSON file")
    p.add_argument(
        "block",
        help="'A:B' for a rectangular element, 'A:A' for a normal one",
    )
    p.add_argument(
        "--poly",
        help="comma-separated polynomial coefficients, constant first "
        "(e.g. '0,1' is the identity; complex like '1+2j' allowed)",
    )
    p.add_argument(
        "--table",
        help="comma-separated spectrum-point=value pairs (e.g. '1=1,4=2')",
    )
    p.set_defaults(func=cmd_funcalc)

    p = sub.add_parser(
        "selftest",
        parents=[flags],
        help="run the randomized verification battery",
    )
    p.add_argument(
        "--cases",
        type=int,
        default=None,
        help="cap the per-suite case counts (default: full battery)",
    )
    p.add_argument("--max-points", type=int, default=8)
    p.add_argument("--max-objects", type=int, default=5)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser(
        "validate",
        parents=[flags],
        help="check files: spaceoid/category/groupoid axioms, "
        "morphism functoriality, or plain schema",
    )
    p.add_argument("files", nargs="+", help="JSON files to validate")
    p.add_argument("--dom", help="domain spaceoid file (morphism files)")
    p.add_argument("--cod", help="codomain spaceoid file (morphism files)")
    p.set_defaults(func=cmd_validate)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) by raising;
        # keep main() returning plain ints for in-process callers
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    if args.tol is not None and not args.tol > 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectroidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
