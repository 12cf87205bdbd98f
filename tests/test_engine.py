"""The engine's list-based verdict routines, pinned to plain references."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import field

from conictopes import engine, plane
from conictopes.engine import engine_for
from conictopes.geom import coset_criteria

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


@pytest.mark.parametrize("p,n", FIELDS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_coset_walk_and_sp_intersect_match_references(p, n, data):
    eng = engine_for(field(p, n))
    off = [int(x) for x in eng.off_conic_ids]
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


def test_no_assert_statements():
    # python -O strips asserts, so invariants raise typed errors instead
    for module in (engine, plane):
        tree = ast.parse(Path(module.__file__).read_text())
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, (module.__name__, found)
