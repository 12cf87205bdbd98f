"""The engine's tables and list-based verdict routines, pinned to plain references."""

import ast
import random
from itertools import permutations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import field, full_group, stabilizer_m

import conictopes
from conictopes.engine import Engine, engine_for, pgl2_generators
from conictopes.geom import coset_criteria
from conictopes.grp import generate
from conictopes.perspectivity import mat_mul, mat_order, pgl2_mul, sym2
from conictopes.plane import GeometryError
from conictopes.triangles import _orbit_reps, _sweep_triple

FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1))


def _bfs_closure(mul, gens):
    """Element-by-element closure of <gens> from the identity (id 0)."""
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul[x][g]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _orbit(perms, tri) -> set:
    """Sorted id triples in the orbit of tri under the generators' point permutations."""
    orbit = {tri}
    stack = [tri]
    while stack:
        t = stack.pop()
        for perm in perms:
            img = tuple(sorted((perm[t[0]], perm[t[1]], perm[t[2]])))
            if img not in orbit:
                orbit.add(img)
                stack.append(img)
    return orbit


def _pgl2(F):
    """PGL(2,q) as canonical 2x2 tuples, by a walk on the engine's generators."""
    return generate((1, 0, 0, 1), lambda x, y: pgl2_mul(F, x, y), pgl2_generators(F))


@pytest.mark.parametrize("p,n", FIELDS)
def test_sym2_is_a_homomorphism(p, n):
    # checked on x * g for every x and generator g, this makes sym2 a
    # homomorphism on the group the generators span
    F = field(p, n)
    walk = _pgl2(F)
    assert len(walk) == F.q**3 - F.q
    for x in walk:
        for g in pgl2_generators(F):
            assert sym2(F, pgl2_mul(F, x, g)) == mat_mul(F, sym2(F, x), sym2(F, g))


@pytest.mark.parametrize("p,n", FIELDS)
def test_sym2_image_is_the_conic_stabilizer(p, n):
    F = field(p, n)
    walk = _pgl2(F)
    image = [sym2(F, x) for x in walk]
    assert image == [stabilizer_m(F, *x) for x in walk]
    assert set(image) == full_group(p, n).eset
    assert engine_for(F).elements == list(full_group(p, n).elements)


@pytest.mark.parametrize("p,n", FIELDS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_coset_walk_and_sp_intersect_match_references(p, n, data):
    eng = engine_for(field(p, n))
    off = eng.off_conic_ids
    c0, c1, c2 = sorted(data.draw(
        st.lists(st.sampled_from(off), min_size=3, max_size=3, unique=True)))
    p01, p02, p12 = eng.pair(c0, c1), eng.pair(c0, c2), eng.pair(c1, c2)
    gens = (eng.inv_elt_l[c0], eng.inv_elt_l[c1], eng.inv_elt_l[c2])
    mul = eng.mul_l

    ids, count = eng.closure_ids(p01.elems, gens)
    full = _bfs_closure(mul, gens)
    if len(full) > eng.n_group // 2:
        assert ids is None and count == eng.n_group
    else:
        assert ids == sorted(full) and count == len(full)

    Hs = (p12.eset, p02.eset, p01.eset)
    fast = coset_criteria(0, lambda x, y: mul[x][y], gens, Hs,
                          sp_intersect=eng.sp_intersect)
    plain = coset_criteria(0, lambda x, y: mul[x][y], gens, Hs)
    assert fast == plain  # the four bits and every witness


@pytest.mark.parametrize("p,n", FIELDS)
def test_inverse_table(p, n):
    eng = engine_for(field(p, n))
    mul, inv = eng.mul_l, eng.inv_l
    assert len(inv) == eng.n_group
    assert all(mul[x][inv[x]] == 0 for x in range(eng.n_group))


@pytest.mark.parametrize("p,n", FIELDS[1:5])
def test_sp_intersect_reads_the_coset_table_in_every_position(p, n):
    # whichever pair subgroup closure_ids tabled, and wherever it sits among
    # (H_j, H_k, H_i), sp_intersect is H_i & (H_j * H_k) in H_i's order; the
    # other two arguments are also swapped for their rotation subgroups,
    # whose rotations are not their own inverses
    eng = engine_for(field(p, n))
    mul = eng.mul_l
    for (c0, c1, c2), _ in _orbit_reps(eng, eng.off_conic_ids):
        pairs = (eng.pair(c1, c2), eng.pair(c0, c2), eng.pair(c0, c1))
        Hs = [pd.eset for pd in pairs]
        rots = [frozenset(pd.elems[:pd.order2]) for pd in pairs]
        gens = (eng.inv_elt_l[c0], eng.inv_elt_l[c1], eng.inv_elt_l[c2])
        products = {}
        for t, seed in enumerate(pairs):
            eng.closure_ids(seed.elems, gens)
            for others in (Hs, rots):
                for i, j, k in permutations(range(3)):
                    Si, Sj, Sk = (Hs[x] if x == t else others[x] for x in (i, j, k))
                    prod = products.get((Sj, Sk))
                    if prod is None:
                        prod = products[Sj, Sk] = {mul[h][x] for h in Sj for x in Sk}
                    assert eng.sp_intersect(Sj, Sk, Si) == [g for g in Si if g in prod]


def test_sp_intersect_needs_a_tabled_subgroup():
    eng = Engine(field(5))
    off = eng.off_conic_ids
    c0, c1, c2 = off[:3]
    Hs = (eng.pair(c1, c2).eset, eng.pair(c0, c2).eset, eng.pair(c0, c1).eset)
    with pytest.raises(GeometryError):
        eng.sp_intersect(Hs[1], Hs[2], Hs[0])  # nothing tabled yet
    Q = next(Q for Q in off[3:] if eng.pair(c0, Q).eset not in Hs)
    eng.closure_ids(eng.pair(c0, Q).elems, (eng.inv_elt_l[c0], eng.inv_elt_l[Q]))
    with pytest.raises(GeometryError):
        eng.sp_intersect(Hs[1], Hs[2], Hs[0])
    gens = (eng.inv_elt_l[c0], eng.inv_elt_l[c1], eng.inv_elt_l[c2])
    eng.closure_ids(eng.pair(c0, c1).elems, gens)
    eng.sp_intersect(Hs[1], Hs[2], Hs[0])


@pytest.mark.parametrize("p,n", FIELDS[1:])
def test_psl_closures_before_and_after_psl_is_recorded(p, n):
    # a fresh engine walks PSL(2,q) once in full, then exits past |G|/4
    eng = Engine(field(p, n))
    mul = eng.mul_l
    reps = [tri for tri, _ in _orbit_reps(eng, eng.off_conic_ids)
            if all(eng.psl_l[c] for c in tri)]
    for recorded in (False, True):
        assert (eng._psl_ids is not None) == recorded
        hits = 0
        for c0, c1, c2 in reps:
            gens = (eng.inv_elt_l[c0], eng.inv_elt_l[c1], eng.inv_elt_l[c2])
            ids, count = eng.closure_ids(eng.pair(c0, c1).elems, gens)
            full = _bfs_closure(mul, gens)
            assert ids == sorted(full) and count == len(full)
            orders = [eng.orders_l[x] for x in full]
            assert eng.group_stats(ids) == (count, orders.count(2), max(orders))
            assert eng.group_label(ids) == eng.identify_ids(ids).label
            hits += ids is eng._psl_ids
        assert len(eng._psl_ids) == eng.n_group // 2
        assert hits  # some rep generates PSL; in the second pass, by the early exit


@pytest.mark.parametrize("p,n", FIELDS[1:5])
def test_mirrored_flag_transitivity_checks_agree(p, n):
    # coset_criteria runs the (i; k, j) check only when (i; j, k) fails; one
    # triple per orbit covers every triple, as conjugation keeps both checks
    eng = engine_for(field(p, n))
    mul = eng.mul_l
    failed = 0
    for (c0, c1, c2), _ in _orbit_reps(eng, eng.off_conic_ids):
        Hs = (eng.pair(c1, c2).eset, eng.pair(c0, c2).eset, eng.pair(c0, c1).eset)

        def holds(i, j, k):
            lhs = Hs[i] & {mul[x][y] for x in Hs[j] for y in Hs[k]}
            return lhs == {mul[x][y] for x in Hs[i] & Hs[j] for y in Hs[i] & Hs[k]}

        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            assert holds(i, j, k) == holds(i, k, j)
            failed += not holds(i, j, k)
    assert failed


@pytest.mark.parametrize("p,n", FIELDS[:4])
def test_tables_match_their_definitions(p, n):
    F = field(p, n)
    eng = engine_for(F)
    pl = eng.plane
    pts, lines, idx = pl.points, pl.lines, pl.point_index
    assert eng.off_conic_ids == [i for i, P in enumerate(pts) if not pl.on_conic(P)]
    for i, P in enumerate(pts):
        assert eng.polar_l[i] == idx[pl.polar(P)]
        assert eng.pole_l[i] == idx[pl.pole(P)]
        assert eng.onl_l[i] == [pl.incident(P, L) for L in lines]
        assert eng.lt_l[i] == [-1 if Q == P else idx[pl.line_through(P, Q)] for Q in pts]
    for j, L in enumerate(lines):
        assert eng.line_pts_l[j] == {i for i, P in enumerate(pts) if pl.incident(P, L)}

    elts = eng.elements
    assert eng.orders_l == [mat_order(F, x) for x in elts]
    pairs = [(x, y) for x in range(eng.n_group) for y in range(eng.n_group)]
    if F.q > 5:
        pairs = random.Random(F.q).sample(pairs, 2000)
    for x, y in pairs:
        assert eng.mul_l[x][y] == eng.elt_index[mat_mul(F, elts[x], elts[y])]


@pytest.mark.parametrize("p,n", FIELDS[:5])
def test_label_cache_key_decides_the_label(p, n):
    # group_label caches by (order, #involutions, largest element order)
    eng = engine_for(field(p, n))
    labels = {}
    for (c0, c1, c2), _ in _orbit_reps(eng, eng.off_conic_ids):
        gens = (eng.inv_elt_l[c0], eng.inv_elt_l[c1], eng.inv_elt_l[c2])
        ids, _ = eng.closure_ids(eng.pair(c0, c1).elems, gens)
        label = eng.identify_ids(ids).label
        assert eng.group_label(ids) == label
        assert labels.setdefault(eng.group_stats(ids), label) == label


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (3, 2), (11, 1)))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_key_is_symmetric_and_group_invariant(p, n, data):
    # orbit-reps weights one key by the orbit size, and unordered counts are
    # ordered counts / 6: both need the key to be a function of the orbit
    eng = engine_for(field(p, n))
    tri = tuple(data.draw(
        st.lists(st.sampled_from(eng.off_conic_ids), min_size=3, max_size=3, unique=True)))
    key = _sweep_triple(eng, tri)[0]
    for order in permutations(tri):
        assert _sweep_triple(eng, order)[0] == key
    perms = eng.gen_point_perms
    word = data.draw(st.lists(st.integers(0, len(perms) - 1), min_size=1, max_size=12))
    image = tri
    for g in word:
        image = tuple(perms[g][c] for c in image)
    assert _sweep_triple(eng, tuple(sorted(image)))[0] == key


@pytest.mark.parametrize("p,n,n_reps", ((3, 1, 10), (5, 1, 37), (7, 1, 90),
                                         (3, 2, 175), (11, 1, 302)))
def test_orbit_reps_match_a_generator_walk(p, n, n_reps):
    # each weight is the size of its rep's orbit, and the orbits partition
    # the C(q^2, 3) triples
    eng = engine_for(field(p, n))
    off = eng.off_conic_ids
    reps = list(_orbit_reps(eng, off))
    assert len(reps) == n_reps
    assert [rep for rep, _ in reps] == sorted(rep for rep, _ in reps)
    covered = set()
    for rep, size in reps:
        orbit = _orbit(eng.gen_point_perms, rep)
        assert size == len(orbit)
        assert rep == min(orbit)
        assert covered.isdisjoint(orbit)
        covered |= orbit
    assert len(covered) == comb(len(off), 3)


def test_orbit_reps_q13():
    eng = engine_for(field(13))
    reps = list(_orbit_reps(eng, eng.off_conic_ids))
    assert len(reps) == 479
    assert sum(size for _, size in reps) == comb(169, 3) == 790_244


def test_no_assert_statements():
    # python -O strips asserts, so invariants raise typed errors instead
    modules = sorted(Path(conictopes.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, (path.name, found)
