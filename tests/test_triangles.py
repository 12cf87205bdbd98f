"""Triangle classification, constructions, and the sweep machinery."""

import inspect
import random
import re
from itertools import combinations

import pytest

from helpers import field, plane

from conictopes import cli
from conictopes.engine import engine_for
from conictopes.grp import closure
from conictopes.perspectivity import in_psl, involution_from_center
from conictopes.plane import TANGENT
from conictopes.triangles import (
    COLLINEAR,
    NON_PROPER_OK,
    NON_PROPER_VIOLATING,
    PROPER_SNSP,
    SELF_POLAR,
    CollinearCenters,
    DegenerateInput,
    SearchExhausted,
    _id_class,
    _sampled,
    _sweep_triple,
    classify_triangle,
    construct_nonlinear_pgl,
    construct_tangent_triangle,
    enumerate_triples,
    not_psl_sufficient,
)


def test_degenerate_inputs_rejected():
    pl = plane(5)
    P, Q = pl.off_conic_points[:2]
    with pytest.raises(DegenerateInput):
        classify_triangle(pl, P, P, Q)
    with pytest.raises(DegenerateInput):
        classify_triangle(pl, pl.conic_points[0], P, Q)


def test_collinear_class():
    pl = plane(5)
    l = next(l for l in pl.lines if pl.classify_line(l) != TANGENT)
    pts = [x for x in pl.line_points(l) if not pl.on_conic(x)][:3]
    rec = classify_triangle(pl, *pts)
    assert rec.triangle_class == COLLINEAR
    assert not rec.hypertope
    assert rec.witness is None


def test_self_polar_class_and_witness():
    pl = plane(5)
    P = pl.off_conic_points[0]
    X = next(x for x in pl.line_points(pl.polar(P)) if not pl.on_conic(x))
    Z = pl.pole(pl.line_through(P, X))
    rec = classify_triangle(pl, P, X, Z)
    assert rec.triangle_class == SELF_POLAR
    assert set(rec.witness) == {pl.normalize(P), pl.normalize(X), pl.normalize(Z)}
    assert rec.group_id.tag == "Klein4"
    assert not rec.hypertope


def test_tangent_triangle_q7_classification():
    pl = plane(7)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    assert rec.triangle_class == PROPER_SNSP
    assert rec.hypertope
    assert all(v == 7 for v in rec.labels.values())


def test_tangent_triangle_errors():
    pl = plane(5)
    from conictopes.triangles import CoincidentConicPoints, PointsNotOnConic

    A, B = pl.conic_points[:2]
    with pytest.raises(PointsNotOnConic):
        construct_tangent_triangle(pl, A, B, pl.off_conic_points[0])
    with pytest.raises(CoincidentConicPoints):
        construct_tangent_triangle(pl, A, B, A)


def test_tangent_triangle_group_independent_of_conic_points():
    for p, n in ((5, 1), (7, 1)):
        pl = plane(p, n)
        rng = random.Random(pl.q)
        labels = set()
        for _ in range(20):
            A, B, C = rng.sample(pl.conic_points, 3)
            rec = construct_tangent_triangle(pl, A, B, C)
            labels.add((rec.group_id.label, rec.group_id.order))
        assert len(labels) == 1


def test_sides_lie_on_side_lines_or_pole():
    pl = plane(7)
    rng = random.Random(4)
    pts = rng.sample(pl.off_conic_points, 3)
    while pl.incident(pts[2], pl.line_through(pts[0], pts[1])):
        pts = rng.sample(pl.off_conic_points, 3)
    rec = classify_triangle(pl, *pts)
    side_lines = [pl.line_through(rec.centers[1], rec.centers[2]),
                  pl.line_through(rec.centers[0], rec.centers[2]),
                  pl.line_through(rec.centers[0], rec.centers[1])]
    for k in range(3):
        pole = pl.pole(side_lines[k])
        for X in rec.sides[k]:
            assert pl.incident(X, side_lines[k]) or X == pole
            assert not pl.on_conic(X)


def test_not_psl_sufficient():
    pl = plane(7)
    interior = [P for P in pl.off_conic_points
                if pl.classify_point(P) == "interior"]
    exterior = [P for P in pl.off_conic_points
                if pl.classify_point(P) == "exterior"]

    def triangle_from(pool):
        for tri in combinations(pool, 3):
            if not pl.incident(tri[2], pl.line_through(tri[0], tri[1])):
                return [involution_from_center(pl, P) for P in tri]
        raise AssertionError

    ins = triangle_from(interior)  # q = 3 mod 4: interior centers are PSL
    assert not_psl_sufficient(pl, *ins) is False
    outs = triangle_from(exterior)
    assert not_psl_sufficient(pl, *outs) is True
    rec = classify_triangle(pl, *(a.center for a in outs))
    assert rec.triangle_class in (PROPER_SNSP, NON_PROPER_OK)
    mixed = [ins[0], ins[1], outs[0]]
    if not pl.incident(mixed[2].center,
                       pl.line_through(mixed[0].center, mixed[1].center)):
        assert not_psl_sufficient(pl, *mixed) is False


def test_not_psl_sufficient_collinear_rejected():
    pl = plane(7)
    l = next(l for l in pl.lines if pl.classify_line(l) != TANGENT)
    pts = [x for x in pl.line_points(l) if not pl.on_conic(x)][:3]
    invs = [involution_from_center(pl, P) for P in pts]
    with pytest.raises(CollinearCenters):
        not_psl_sufficient(pl, *invs)


def test_all_non_psl_triangles_are_snsp_in_sweep():
    table = enumerate_triples(field(5), mode="full")
    for row in table.rows():
        if row["psl"] == "NNN" and row["class"] != COLLINEAR:
            assert row["class"] in (PROPER_SNSP, NON_PROPER_OK), row


def test_full_sweep_q5():
    table = enumerate_triples(field(5), mode="full")
    assert table.total == 2300
    assert table.main_violations == 0
    assert sum(table.counts.values()) == 2300
    for row in table.rows():
        if row["class"] in (PROPER_SNSP, NON_PROPER_OK):
            assert row["hypertope"]
        else:
            assert not row["hypertope"]


def test_full_sweep_q3_counts():
    table = enumerate_triples(field(3), mode="full")
    assert table.total == 84
    assert table.main_violations == 0


def test_orbit_reps_matches_full():
    for p, n in ((3, 1), (5, 1)):
        full = enumerate_triples(field(p, n), mode="full")
        reps = enumerate_triples(field(p, n), mode="orbit-reps")
        assert reps.counts == full.counts
        assert reps.total == full.total


def test_orbit_reps_matches_full_q7():
    full = enumerate_triples(field(7), mode="full")
    reps = enumerate_triples(field(7), mode="orbit-reps")
    assert reps.counts == full.counts
    assert reps.total == full.total == 18_424


def test_sample_mode_deterministic_and_whole_space():
    full = enumerate_triples(field(3), mode="full")
    s1 = enumerate_triples(field(3), mode="sample", sample=84, seed=5)
    assert s1.counts == full.counts
    s2 = enumerate_triples(field(3), mode="sample", sample=20, seed=5)
    s3 = enumerate_triples(field(3), mode="sample", sample=20, seed=5)
    assert s2.counts == s3.counts
    assert s2.total == 20


def test_engine_matches_matrix_classification():
    for p, n in ((5, 1), (3, 2), (7, 1), (11, 1), (13, 1)):
        F = field(p, n)
        eng = engine_for(F)
        pl = eng.plane
        rng = random.Random(88)
        off = eng.off_conic_ids
        for _ in range(15):
            tri = tuple(sorted(rng.sample(off, 3)))
            key, hyp, snsp, coll = _sweep_triple(eng, tri)
            rec = classify_triangle(pl, *(pl.points[c] for c in tri))
            assert key[0] == rec.triangle_class
            assert key[1] == rec.group_id.label
            assert hyp == rec.hypertope
            assert snsp == (rec.triangle_class in (PROPER_SNSP, NON_PROPER_OK))


def test_engine_witness_matches_matrix_witness_q5():
    # the one SNSP scan, run on engine ids and on canonical points
    F = field(5)
    eng = engine_for(F)
    pl = eng.plane
    off = eng.off_conic_ids
    scanned = witnesses = 0
    for tri in combinations(off, 3):
        c0, c1, c2 = tri
        cls, w = _id_class(eng, tri, (eng.pair(c1, c2), eng.pair(c0, c2),
                                      eng.pair(c0, c1)))
        if cls in (COLLINEAR, SELF_POLAR):
            continue
        rec = classify_triangle(pl, *(pl.points[c] for c in tri))
        assert cls == rec.triangle_class
        assert (None if w is None else tuple(pl.points[c] for c in w)) == rec.witness
        scanned += 1
        witnesses += w is not None
    assert scanned == 1960
    assert 0 < witnesses < scanned


def test_orbit_rep_groups_are_dicksons_types():
    # subgroups generated by three involutions: never C2 x dihedral, never Unknown
    label = re.compile(r"Klein4|Dihedral\(\d+\)|SubAGL|P[SG]L\(2,\d+\)|A4|S4|A5")
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1)):
        table = enumerate_triples(field(p, n), mode="orbit-reps")
        groups = {row["group"] for row in table.rows()}
        assert all(label.fullmatch(g) for g in groups), groups


def test_engine_psl_bookkeeping_matches_fixed_point_rule():
    # q = 7 and q = 9 cover both residues of q mod 4
    for p, n in ((7, 1), (3, 2)):
        eng = engine_for(field(p, n))
        pl = eng.plane
        for pid in eng.off_conic_ids:
            a = involution_from_center(pl, pl.points[pid])
            assert eng.psl_l[pid] == in_psl(pl, a)


def test_non_proper_hypertope_iff_outside_dihedral():
    pl = plane(7)
    F = pl.field
    from conictopes.plane import SECANT

    l = next(l for l in pl.lines if pl.classify_line(l) == SECANT)
    P = pl.pole(l)
    aP = involution_from_center(pl, P)
    on_l = [x for x in pl.line_points(l) if not pl.on_conic(x)]
    checked_in = checked_out = 0
    for Q, R in combinations(on_l, 2):
        rec = classify_triangle(pl, P, Q, R)
        if rec.triangle_class == SELF_POLAR:
            continue
        assert rec.triangle_class in (NON_PROPER_OK, NON_PROPER_VIOLATING)
        D = closure(F, (involution_from_center(pl, Q),
                        involution_from_center(pl, R)))
        inside = aP.matrix in D
        assert rec.hypertope == (not inside)
        assert (rec.triangle_class == NON_PROPER_VIOLATING) == inside
        checked_in += inside
        checked_out += not inside
    assert checked_in and checked_out


def test_nonlinear_pgl_q5():
    rec = construct_nonlinear_pgl(field(5))
    assert rec.group_id.order == 120
    assert rec.group_id.label == "PGL(2,5)"
    assert rec.hypertope
    assert all(v > 2 for v in rec.labels.values())


def test_library_closure_caps_match_the_cli():
    # a PGL(2,q) with q >= 59 has more than 200,000 elements
    from conictopes.corr import triality_projectivity_check
    from conictopes.grp import DEFAULT_CLOSURE_CAP

    for fn in (classify_triangle, construct_tangent_triangle,
               construct_nonlinear_pgl, triality_projectivity_check):
        default = inspect.signature(fn).parameters["closure_cap"].default
        assert default == DEFAULT_CLOSURE_CAP, fn.__name__
    args = cli.build_parser().parse_args(["classify", "--p", "59"])
    assert args.budget == DEFAULT_CLOSURE_CAP


def test_nonlinear_pgl_exhausts_at_q3():
    # the stabilizer-order product condition cannot be met inside PGL(2,3)
    with pytest.raises(SearchExhausted):
        construct_nonlinear_pgl(field(3))


def test_sweep_budget_enforced():
    from conictopes.grp import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        enumerate_triples(field(5), mode="full", budget=100)
    with pytest.raises(BudgetExceeded):
        enumerate_triples(field(17), mode="full")  # beyond the table limit


def test_collinear_triples_never_hypertopes_q5():
    table = enumerate_triples(field(5), mode="full")
    for row in table.rows():
        if row["class"] == COLLINEAR:
            assert not row["hypertope"]


def test_record_describe_shape():
    pl = plane(5)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    d = rec.describe()
    assert set(d) >= {"centers", "class", "witness", "group", "hypertope",
                      "labels", "sides"}
    assert d["labels"] == {"01": 5, "02": 5, "12": 5}


def test_unranked_triples_match_the_linear_walk_q5():
    eng = engine_for(field(5))
    off = eng.off_conic_ids
    every = list(combinations(off, 3))
    total = len(every)
    for seed in (0, 1, 5, 2024):
        # the draw sample mode makes, walked to the wanted indices
        wanted = sorted(random.Random(seed).sample(range(total), 40))
        assert [tri for tri, _ in _sampled(off, total, 40, seed)] == [every[i] for i in wanted]
