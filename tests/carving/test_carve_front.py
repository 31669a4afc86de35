"""Property test: the flat-key carve front end equals the float-row one.

Production reduces the sorted flat keys (dropping each point that is
the midpoint of two cell points along some axis) before it unflattens
and groups the survivors into cells.  The reference in
``tests/oracles/carve_front.py`` unflattens everything, groups float
rows and strips each cell's points whose 2d axis neighbours are all in
it.  Under canonical hulls both must give equal cell hulls, one for one
and in the same order, and so the same merge and the same carved keys.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many, sorted_unique, unflatten_many
from repro.carving import Carver, SimpleConvexCarver, split_into_cells
from repro.carving.merge import merge_hulls
from repro.fuzzing import CarveConfig
from repro.geometry.hull import Hull
from repro.geometry.lattice import lattice_boundary_points
from repro.geometry.raster import flat_indices_in_hulls
from repro.perf.bitmap import union_flat
from tests.oracles import carve_front

CELL_SIZES = [1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 2.5, 3.7, 6.25]


@st.composite
def clouds(draw):
    """Sorted flat keys of a 2-D or 3-D cloud: sparse points, solid
    boxes (which reach the window edge), or a plane in 3-D."""
    d = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.integers(1, 14)) for _ in range(d))
    kind = draw(st.sampled_from(["sparse", "boxes", "plane"]))
    pts = set()
    if kind == "sparse":
        for _ in range(draw(st.integers(1, 60))):
            pts.add(tuple(draw(st.integers(0, n - 1)) for n in dims))
    else:
        for _ in range(draw(st.integers(1, 3))):
            lo = [draw(st.integers(0, n - 1)) for n in dims]
            hi = [draw(st.integers(a, n - 1)) for a, n in zip(lo, dims)]
            pts.update(itertools.product(
                *(range(a, b + 1) for a, b in zip(lo, hi))))
    if kind == "plane" and d == 3:
        # Rank 2 in 3-D: an axis-aligned plane or the oblique z = x.
        if draw(st.booleans()):
            axis = draw(st.integers(0, 2))
            level = draw(st.integers(0, dims[axis] - 1))
            pts = {p[:axis] + (level,) + p[axis + 1:] for p in pts}
        else:
            pts = {(x, y, x) for x, y, _ in pts if x < dims[2]} or {(0, 0, 0)}
    flat = sorted_unique(flatten_many(np.asarray(sorted(pts)), dims))
    return flat, dims


@given(clouds(), st.sampled_from(CELL_SIZES), st.booleans())
@settings(max_examples=300, deadline=None)
def test_cell_hulls_match_the_float_row_front_end(cloud, cell_size, bitmap):
    flat, dims = cloud
    # A cap of 0 forces the searchsorted membership test.
    cap = int(np.prod(dims)) if bitmap else 0
    keep = lattice_boundary_points(flat, dims, cell_size, max_cells=cap)
    cells = split_into_cells(keep, dims, cell_size)
    got = [Hull.from_points(points) for points in cells.values()]
    expect = carve_front.cell_hulls(flat, dims, cell_size)
    assert len(got) == len(expect)
    assert all(a == b for a, b in zip(got, expect))
    # Every non-empty cell keeps at least its lexicographic minimum.
    points = unflatten_many(flat, dims).astype(np.float64)
    assert list(cells) == list(carve_front.split_into_cells(points, cell_size))


@given(clouds(), st.sampled_from(CELL_SIZES))
@settings(max_examples=150, deadline=None)
def test_carve_matches_the_float_row_front_end(cloud, cell_size):
    flat, dims = cloud
    config = CarveConfig(cell_size=cell_size)
    carver = Carver(dims, config)
    got_hulls = carver.build_cell_hulls(flat)
    ref_hulls = carve_front.cell_hulls(flat, dims, cell_size)
    assert len(got_hulls) == len(ref_hulls)
    assert all(a == b for a, b in zip(got_hulls, ref_hulls))
    got = carver.carve_flat(flat)
    merged, stats = merge_hulls(ref_hulls, config)
    carved = union_flat(
        [flat_indices_in_hulls(merged, dims, tol=config.raster_tol), flat],
        int(np.prod(dims)))
    assert got.merge_stats == stats
    assert got.hulls == merged
    assert np.array_equal(got.flat_indices, carved)


@given(clouds())
@settings(max_examples=100, deadline=None)
def test_simple_convex_reduces_the_window_as_one_cell(cloud):
    flat, dims = cloud
    hulls, _ = SimpleConvexCarver(dims).hull_set(flat)
    assert hulls == [Hull.from_points(unflatten_many(flat, dims))]
