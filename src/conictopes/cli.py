"""Command-line entry point, experiment runner, and report serialization.

Every subcommand is deterministic given its flags: sampling uses Python's
random.Random (Mersenne Twister) seeded from --seed, reports carry no
timestamps or floats, and JSON output is canonical (sorted keys, compact
separators), so identical runs produce byte-identical artifacts.  Reports
are written atomically (temp file then rename).

Exit codes: 0 success (including degenerate-input classifications),
1 verification failure, 2 parse/usage error, 3 closure or sweep budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

from conictopes import corr, geom, grp, triangles
from conictopes.gf import (
    EvenCharacteristic,
    Field,
    NonPrime,
    ReducibleModulus,
    build_field,
)
from conictopes.grp import BudgetExceeded, closure
from conictopes.perspectivity import involution_from_center
from conictopes.plane import Plane

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class ParseError(ValueError):
    """Malformed flags, points or field parameters."""


class UnsupportedFormat(ValueError):
    """The requested output format does not apply to this report."""


def parse_points(text: str, field: Field, expect: int = 3):
    """Parse point syntax like "[1,0,2];[0,1,0];[0,0,1]" into triples."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise ParseError(f"point {chunk!r} is not of the form [a,b,c]")
        try:
            coords = tuple(int(v) for v in chunk[1:-1].split(","))
        except ValueError as exc:
            raise ParseError(f"point {chunk!r} has non-integer coordinates") from exc
        if len(coords) != 3:
            raise ParseError(f"point {chunk!r} needs exactly 3 coordinates")
        if not all(0 <= v < field.q for v in coords):
            raise ParseError(f"coordinates of {chunk!r} must lie in [0, {field.q})")
        if not any(coords):
            raise ParseError("the zero triple is not a projective point")
        out.append(coords)
    if len(out) != expect:
        raise ParseError(f"expected {expect} points, got {len(out)}")
    return out


def emit_report(result, fmt: str) -> bytes:
    """Serialize a report: canonical JSON, fixed-column TSV, or DOT."""
    if fmt == "json":
        obj = result.to_json_obj() if hasattr(result, "to_json_obj") else result
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt == "tsv":
        if not hasattr(result, "to_tsv"):
            raise UnsupportedFormat("this report has no TSV form")
        return result.to_tsv().encode()
    if fmt == "dot":
        if not hasattr(result, "to_dot"):
            raise UnsupportedFormat("this report has no DOT form")
        return result.to_dot().encode()
    raise UnsupportedFormat(f"unknown format {fmt!r}")


def write_report(data: bytes, out: str | None):
    if out is None:
        sys.stdout.write(data.decode())
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conictopes-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_numeric_flags(args):
    if args.sample is not None and args.sample < 0:
        raise ParseError(f"--sample must be >= 0, got {args.sample}")
    if args.budget < 1:
        raise ParseError(f"--budget must be >= 1, got {args.budget}")
    if args.jobs < 1:
        raise ParseError(f"--jobs must be >= 1, got {args.jobs}")


def _field_from_args(args) -> Field:
    modulus = None
    if args.modulus:
        try:
            modulus = [int(c) for c in args.modulus.split(",")]
        except ValueError as exc:
            raise ParseError("modulus must be a comma-separated integer list") from exc
    try:
        return build_field(args.p, args.n, modulus)
    except (NonPrime, EvenCharacteristic, ReducibleModulus, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _cmd_classify(args, field):
    plane = Plane(field)
    if not args.points:
        raise ParseError("classify needs --points")
    pts = parse_points(args.points, field)
    try:
        rec = triangles.classify_triangle(plane, *pts, closure_cap=args.budget)
    except triangles.DegenerateInput as exc:
        return {"field": field.describe(), "error": "DegenerateInput",
                "detail": str(exc)}, EXIT_OK
    report = rec.describe()
    report["field"] = field.describe()
    return report, EXIT_OK


def _check_sweep_flags(args):
    if args.mode == "sample" and args.sample is None:
        raise ParseError("sample mode needs --sample")
    if args.jobs > 1 and args.mode != "full":
        raise ParseError(f"--jobs applies to full mode only, not {args.mode}")


def _cmd_enumerate(args, field):
    _check_sweep_flags(args)
    table = triangles.enumerate_triples(field, mode=args.mode, sample=args.sample,
                                        seed=args.seed, jobs=args.jobs,
                                        budget=args.budget)
    return table, EXIT_OK


def _cmd_verify_main(args, field):
    _check_sweep_flags(args)
    table = triangles.verify_main(field, mode=args.mode, sample=args.sample,
                                  seed=args.seed, jobs=args.jobs,
                                  budget=args.budget)
    code = EXIT_OK if table.main_violations == 0 else EXIT_VERIFICATION
    return table, code


def _cmd_tangent(args, field):
    plane = Plane(field)
    if args.points:
        pts = parse_points(args.points, field)
    else:
        pts = plane.conic_points[:3]
    try:
        rec = triangles.construct_tangent_triangle(plane, *pts,
                                                   closure_cap=args.budget)
    except (triangles.PointsNotOnConic, triangles.CoincidentConicPoints) as exc:
        raise ParseError(str(exc)) from exc
    report = rec.describe()
    report["field"] = field.describe()
    return report, EXIT_OK


def _cmd_nonlinear(args, field):
    try:
        rec = triangles.construct_nonlinear_pgl(field, closure_cap=args.budget)
    except triangles.SearchExhausted as exc:
        return {"field": field.describe(), "error": "SearchExhausted",
                "detail": str(exc)}, EXIT_VERIFICATION
    report = rec.describe()
    report["field"] = field.describe()
    return report, EXIT_OK


def _cmd_triality(args, field):
    if field.n != 3:
        raise ParseError("the triality check needs q = p^3 (pass --n 3)")
    rep = corr.triality_projectivity_check(field, closure_cap=args.budget)
    report = rep.describe()
    report["field"] = field.describe()
    ok = rep.verified and rep.candidates == 1
    return report, EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_geometry(args, field):
    plane = Plane(field)
    if not args.points:
        raise ParseError("geometry needs --points")
    pts = [plane.normalize(x) for x in parse_points(args.points, field)]
    if any(plane.on_conic(x) for x in pts) or len(set(pts)) != 3:
        raise ParseError("points must be three distinct off-conic points")
    invs = [involution_from_center(plane, x) for x in pts]
    H = closure(field, invs, cap=args.budget)
    geometry = geom.build_coset_geometry(field, H, *geom.pair_subgroups(plane, invs))
    return geometry, EXIT_OK


def _cmd_experiment_psl(args, field):
    """Tables for: which all-PSL triangles are strongly non self-polar."""
    table, _ = _cmd_enumerate(args, field)
    rows = [r for r in table.rows() if r["psl"] == "PPP"]
    total = sum(r["count"] for r in rows)
    snsp = sum(r["count"] for r in rows
               if r["class"] in (triangles.PROPER_SNSP, triangles.NON_PROPER_OK))
    report = {"field": field.describe(), "mode": table.mode, "total_psl": total,
              "snsp_psl": snsp, "rows": rows}
    return report, EXIT_OK


def _cmd_experiment_tau(args, field):
    """Survey tau-orbit triangles at cube q: classes and correlation witnesses."""
    if field.n % 3:
        raise ParseError("experiment-tau needs q to be a cube (3 | n)")
    plane = Plane(field)
    tau = corr.frobenius_collineation(field, field.n // 3)
    reps = []
    seen = set()
    for P in plane.points:
        if plane.on_conic(P) or P in seen:
            continue
        Q = tau.apply_point(plane, P)
        if Q == P:
            continue
        R = tau.apply_point(plane, Q)
        seen.update((P, Q, R))
        reps.append((P, Q, R))
    rng = random.Random(args.seed)
    count = args.sample if args.sample is not None else 8
    chosen = sorted(rng.sample(range(len(reps)), min(count, len(reps))))
    rows = []
    for idx in chosen:
        P, Q, R = reps[idx]
        rec = triangles.classify_triangle(plane, P, Q, R, closure_cap=args.budget)
        H = rec.group
        powers = (0, field.n // 3, 2 * field.n // 3)
        trialities, dualities = [], []
        for sigmas, found in ((((1, 2, 0), (2, 0, 1)), trialities),
                              (((0, 2, 1), (2, 1, 0), (1, 0, 2)), dualities)):
            for sigma in sigmas:
                w = corr.correlation_witness(plane, H, rec.involutions, sigma,
                                             frob_powers=powers)
                if w is not None:
                    found.append(w.describe())
        rows.append({"orbit": [list(P), list(Q), list(R)],
                     "class": rec.triangle_class,
                     "group": rec.group_id.describe(),
                     "hypertope": rec.hypertope,
                     "trialities_found": len(trialities),
                     "duality_witnesses_found": len(dualities)})
    report = {"field": field.describe(), "seed": args.seed,
              "orbits_total": len(reps), "orbits_sampled": len(rows),
              "note": "duality counts are witness existence over inner and "
                      "field automorphisms only, a lower bound style report",
              "rows": rows}
    return report, EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "verify-main": _cmd_verify_main,
    "tangent": _cmd_tangent,
    "nonlinear-pgl": _cmd_nonlinear,
    "triality": _cmd_triality,
    "geometry": _cmd_geometry,
    "experiment-psl": _cmd_experiment_psl,
    "experiment-tau": _cmd_experiment_tau,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conictopes",
        description="involution triangles over a conic in PG(2,q) and their "
                    "rank-3 coset geometries")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("classify", "classify one triple of off-conic points"),
            ("enumerate", "sweep triples and tabulate classes"),
            ("verify-main", "verify hypertope <=> SNSP-triangle over a sweep"),
            ("tangent", "build and classify a tangent triangle"),
            ("nonlinear-pgl", "construct a full-group hypertope with no label 2"),
            ("triality", "find the group element realizing the field map on a "
                         "tangent tau-triangle (q = p^3)"),
            ("geometry", "emit the coset geometry of a triple"),
            ("experiment-psl", "tabulate strong non self-polarity over all-PSL triples"),
            ("experiment-tau", "survey tau-orbit triangles at cube q")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        sp.add_argument("--n", type=int, default=1, help="extension degree (q = p^n)")
        sp.add_argument("--modulus", help="comma-separated modulus coefficients c0..cn")
        sp.add_argument("--points", help='point triple syntax "[a,b,c];[d,e,f];[g,h,i]"')
        sp.add_argument("--mode", choices=("full", "orbit-reps", "sample"),
                        default="full")
        sp.add_argument("--sample", type=int, help="sample size for sample mode")
        sp.add_argument("--seed", type=int, default=0, help="PRNG seed (Mersenne Twister)")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes for full sweeps")
        sp.add_argument("--budget", type=int, default=grp.DEFAULT_CLOSURE_CAP,
                        help="element budget for closures and sweeps")
        sp.add_argument("--out", help="output path (atomic write); stdout when absent")
        sp.add_argument("--format", choices=("json", "tsv", "dot"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numeric_flags(args)
        field = _field_from_args(args)
        result, code = _COMMANDS[args.command](args, field)
        data = emit_report(result, args.format)
        write_report(data, args.out)
        return code
    except (ParseError, UnsupportedFormat) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
