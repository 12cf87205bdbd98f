"""The four workloads: inputs from a seed, set-up, one unit of work, checks.

A unit is one call of a public entry point: a ``verify-main`` sweep, one
``classify_triangle`` call, or one ``experiment-tau`` survey of one orbit.
``inputs`` gives (stratum, item) pairs: a stratum is the cost class an item
was drawn from, and ``weights`` gives each stratum's share of the population
the workload models, which the runner weighs throughput by.  A timed run
makes at least ``min_units`` calls, one block of inputs, so that it samples
every stratum.  The runner times ``unit`` alone, then turns its result into
canonical report bytes with ``report``, so it can digest them and compare a
traced run with an untraced one.  ``check`` feeds a ``Gate`` that counts the
verdicts checked and the ones that failed.

Correctness, for every unit:

* every verdict obeys the paper's equivalence: hypertope exactly when the
  class is ProperSNSP or NonProperPolarizedOK;
* a sweep reports zero violations, its total is C(q^2, 3) and its bytes match
  the digest recorded in ``expected.json``;
* a tau row equals the row recorded for its orbit in ``tau_orbits.json``.

For the default seed the digest of the whole report stream is checked too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import comb

HYPERTOPE_CLASSES = ("ProperSNSP", "NonProperPolarizedOK")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shares(labels) -> dict:
    """Each label's share of the sequence."""
    return {k: labels.count(k) / len(labels) for k in set(labels)}


def canonical(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Gate:
    """Verdicts checked and failed; notes say what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def verdict(self, ok: bool, note: str, weight: int = 1):
        self.attempted += weight
        if not ok:
            self.fail(note, weight)

    def fail(self, note: str, weight: int = 1):
        """A failure that is not one more verdict: a digest, a drifting count."""
        self.failed += weight
        if len(self.notes) < 10:
            self.notes.append(note)


def run_cli(pkg, argv) -> bytes:
    """cli.main with stdout captured: the report bytes the CLI would print."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"conictopes {' '.join(argv)} exited with {code}")
    return buf.getvalue().encode()


class Sweep:
    """verify-main over every triple (full) or one triple per orbit."""

    def __init__(self, name, p, mode):
        self.name, self.p, self.mode = name, p, mode
        self.total = comb(p * p, 3)
        self.verdicts_per_unit = self.total
        self.argv = ["verify-main", "--p", str(p), "--mode", mode]

    weights = {"sweep": 1.0}
    min_units = 1

    def inputs(self, pkg, seed):
        # the sweep covers a fixed triple space; the seed does not change it
        return [("sweep", None)]

    def setup(self, pkg):
        """Field, plane and engine tables, as a fresh verify-main builds them."""
        pkg.engine.engine_for.cache_clear()
        field = pkg.gf.build_field(self.p)
        pkg.plane.Plane(field)
        pkg.engine.engine_for(field)

    # each sweep starts from an engine with cold pair and label caches
    setup_each_unit = True

    def unit(self, pkg, ctx, item) -> bytes:
        return run_cli(pkg, self.argv)

    def report(self, out) -> bytes:
        return out

    def check(self, data: bytes, item, expected, gate: Gate):
        report = json.loads(data)
        bad = sum(r["count"] for r in report["rows"]
                  if r["hypertope"] != (r["class"] in HYPERTOPE_CLASSES))
        whole = (report["total"] == self.total and report["main_violations"] == 0
                 and sha256(data) == expected["report_sha256"])
        if not whole:
            gate.verdict(False, f"{self.name}: total {report['total']}, violations "
                                f"{report['main_violations']}, digest "
                                f"{sha256(data)[:12]}", weight=self.total)
            return
        gate.verdict(True, "", weight=self.total - bad)
        if bad:
            gate.verdict(False, f"{self.name}: {bad} verdicts break the equivalence",
                         weight=bad)


class ClassifyMatrix:
    """classify_triangle on off-conic triples at a prime q above the engine cap.

    The seed draws the triples.  Draws are stratified so that every block of
    32 holds the same mix of the cost classes a triple's points decide before
    any group work: collinear centers and non-proper triangles (a vertex is
    the pole of the opposite side) generate dihedral groups and take tens of
    milliseconds; proper triangles with all three involutions in PSL generate
    at most PSL; the rest mostly generate all of PGL and take the longest.
    Without it a 25-second run sees 30 to 60 triples and the share of cheap
    ones, hence the throughput, moves with the seed.  BLOCK's shares are the
    population's to within one slot in 32 (a draw of 100,000 triples gave
    25.5 other, 4.5 psl, 1.7 collinear and 0.3 non-proper per 32), and they
    are the weights.
    """

    name = "classify-matrix"
    p = 17
    verdicts_per_unit = 1
    BLOCK = (("other",) * 7 + ("psl",) + ("other",) * 6 + ("collinear",) + ("psl",)
             + ("other",) * 6 + ("nonproper",) + ("psl",) + ("other",) * 6
             + ("collinear",) + ("psl",))
    weights = shares(BLOCK)
    min_units = len(BLOCK)
    setup_each_unit = False

    def inputs(self, pkg, seed):
        field = pkg.gf.build_field(self.p)
        plane = pkg.plane.Plane(field)
        off = plane.off_conic_points
        psl_kind = "exterior" if self.p % 4 == 1 else "interior"
        psl = {P for P in off if plane.classify_point(P) == psl_kind}

        def kind(P, Q, R):
            if plane.incident(R, plane.line_through(P, Q)):
                return "collinear"
            if any(plane.pole(plane.line_through(Y, Z)) == X
                   for X, Y, Z in ((P, Q, R), (Q, P, R), (R, P, Q))):
                return "nonproper"
            return "psl" if P in psl and Q in psl and R in psl else "other"

        rng = random.Random(seed)
        pools = {}
        out = []
        for want in self.BLOCK * 2:
            while not pools.get(want):
                tri = tuple(rng.sample(off, 3))
                pools.setdefault(kind(*tri), []).append(tri)
            out.append((want, pools[want].pop(0)))
        return out

    def setup(self, pkg):
        field = pkg.gf.build_field(self.p)
        plane = pkg.plane.Plane(field)
        plane.off_conic_points
        return plane

    def unit(self, pkg, plane, item):
        return pkg.triangles.classify_triangle(plane, *item)

    def report(self, rec) -> bytes:
        return canonical(rec.describe())

    def check(self, data, item, expected, gate):
        rec = json.loads(data)
        gate.verdict(rec["hypertope"] == (rec["class"] in HYPERTOPE_CLASSES),
                     f"{self.name}: {item} is {rec['class']} with hypertope "
                     f"{rec['hypertope']}")


class TauSurvey:
    """experiment-tau at q = 27 = 3^3, one orbit per call.

    Each call passes ``--sample 1`` and a seed drawn from the benchmark seed.
    Orbits differ in cost by up to 500x with their generated group (PGL(2,27)
    about 10 s, PSL(2,27) 5 s, Dihedral(13) 0.2-0.35 s, the other groups
    20-130 ms), and a 25-second run has time for about seven orbits of the
    survey's mix, so a plain draw would make every metric a function of the
    seed.  The draw is therefore
    stratified by group: ``tau_orbits.json``, the full survey of all 240
    orbits, gives each orbit's group, every block of thirteen calls visits the
    groups in BLOCK's order, and the seed picks the orbit within each group.

    BLOCK is not the survey's mix.  Of the 240 orbits, 72 generate PSL(2,27),
    48 PGL(2,27), 48 Dihedral(13), 24 each SubAGL and Dihedral(7), and 8 each
    Dihedral(3), PGL(2,3) and Klein4.  BLOCK gives every group one call in 13
    except Dihedral(13), which gets six, because a block with the survey's mix
    (3 PSL and 2 PGL in 10) takes longer than a run.  Throughput is weighed
    back to the survey's shares (``weights``), so it is the rate of
    experiment-tau's uniform draw.  The latency median is a Dihedral(13)
    orbit's: six in 13 put that group in the middle of the latency order.  The
    two expensive calls close the block, so the part of a second block that a
    run reaches holds cheap calls and Dihedral(13) ones in about equal number,
    which keeps the median there.  The survey's own median falls between
    its 120 cheap and 120 expensive orbits, a 15-fold step, so it cannot be
    held steady by any mix.
    """

    name = "tau-survey"
    p, n = 3, 3
    verdicts_per_unit = 1
    BLOCK = ("Dihedral(13)", "Dihedral(7)", "Dihedral(13)", "SubAGL", "Dihedral(13)",
             "Dihedral(3)", "Dihedral(13)", "PGL(2,3)", "Dihedral(13)", "Klein4",
             "Dihedral(13)", "PSL(2,27)", "PGL(2,27)")
    min_units = len(BLOCK)
    setup_each_unit = False

    def __init__(self, table):
        self.rows = table["rows"]
        self.n_orbits = table["orbits_total"]
        self.weights = shares([r["group"]["tag"] for r in self.rows])
        if set(self.weights) != set(self.BLOCK):
            raise ValueError(f"BLOCK must visit every surveyed group: {sorted(self.weights)}")

    def inputs(self, pkg, seed):
        # experiment-tau draws with random.Random(--seed).sample over its orbit
        # list; replaying that draw tells which orbit a call seed selects.
        # An item is (call seed, index of the orbit it must select).
        rng = random.Random(seed)
        pools = {}
        out = []
        for group in self.BLOCK * 3:
            while not pools.get(group):
                s = rng.randrange(1 << 30)
                idx = random.Random(s).sample(range(self.n_orbits), 1)[0]
                pools.setdefault(self.rows[idx]["group"]["tag"], []).append((s, idx))
            out.append((group, pools[group].pop(0)))
        return out

    def setup(self, pkg):
        """experiment-tau with no orbit sampled: the set-up every call repeats.

        That is the field, the plane, the Frobenius collineation and the walk
        that lists the orbits.  Each timed call does it again inside the CLI,
        so this time is part of every unit as well.
        """
        run_cli(pkg, ["experiment-tau", "--p", str(self.p), "--n", str(self.n),
                      "--sample", "0", "--seed", "0"])

    def unit(self, pkg, ctx, item) -> bytes:
        return run_cli(pkg, ["experiment-tau", "--p", str(self.p), "--n", str(self.n),
                             "--sample", "1", "--seed", str(item[0])])

    def report(self, out) -> bytes:
        return out

    def check(self, data, item, expected, gate):
        report = json.loads(data)
        (row,) = report["rows"]
        want = self.rows[item[1]]
        ok = (report["orbits_total"] == self.n_orbits and row == want
              and row["hypertope"] == (row["class"] in HYPERTOPE_CLASSES))
        gate.verdict(ok, f"{self.name}: seed {item[0]} gave {row}, recorded {want}")


NAMES = ("sweep-full", "sweep-orbits", "classify-matrix", "tau-survey")


def build(name, load_tau_table):
    """The named workload; the tau table is loaded only when it is needed."""
    if name == "sweep-full":
        return Sweep("sweep-full", 7, "full")
    if name == "sweep-orbits":
        return Sweep("sweep-orbits", 13, "orbit-reps")
    if name == "classify-matrix":
        return ClassifyMatrix()
    if name == "tau-survey":
        return TauSurvey(load_tau_table())
    raise KeyError(name)
