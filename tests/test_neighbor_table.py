"""The neighbor-table build, array for array.

``neighbor_csr_arrays`` orders the CSR entries with a dense-rank integer
key and derives the reverse-entry permutation ``rev`` from the pair
enumeration.  Its arrays must be exactly those of the straightforward
build kept here as the reference: one ``query_pairs`` call, a
``(src, dist)`` lexsort over both directions of every pair, and ``rev``
recovered by two more lexsorts.  Every engine's delivery order, energy
and golden stats read these arrays, so the check is bit-for-bit,
dtypes included.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.geometry.points import uniform_points
from repro.sim.kernel import make_neighbor_table, neighbor_csr_arrays


def _reference_arrays(points, radius):
    """``(indptr, ids, dists, rev)`` by lexsort, as the table was built before."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    if len(pairs):
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        diff = pts[src] - pts[dst]
        dx, dy = diff[:, 0], diff[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        order = np.lexsort((dist, src))
        src, dst, dist = src[order], dst[order], dist[order]
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
        dist = np.zeros(0)
    indptr = np.searchsorted(src, np.arange(n + 1)).astype(np.int64)
    ids = dst.astype(np.int64, copy=False)
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    fwd = np.lexsort((ids, rows))
    bwd = np.lexsort((rows, ids))
    rev = np.empty(len(ids), dtype=np.intp)
    rev[fwd] = bwd
    return indptr, ids, dist, rev


def _assert_same_arrays(points, radius):
    got = neighbor_csr_arrays(points, radius)
    want = _reference_arrays(points, radius)
    assert len(got) == 4
    for name, g, w in zip(("indptr", "ids", "dists", "rev"), got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    return got


@pytest.mark.parametrize("n", [2, 3, 17, 150, 800, 2000])
@pytest.mark.parametrize("radius", [0.01, 0.05, 0.12, 0.4])
def test_random_instances_match_reference(n, radius):
    _assert_same_arrays(uniform_points(n, seed=n + 11), radius)


@pytest.mark.parametrize("radius", [0.05, 1 / 29 + 1e-9, 0.11, 0.2])
def test_lattice_with_many_tied_distances_matches_reference(radius):
    # A 30x30 grid: every row holds runs of exactly equal distances, so
    # the order inside a run is decided by enumeration index alone.
    g = np.arange(30) / 29.0
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    indptr, _, dists, _ = _assert_same_arrays(pts, radius)
    row = dists[indptr[31] : indptr[32]]
    assert len(row) > len(np.unique(row))


def test_duplicated_points_match_reference():
    # Three copies of every point: zero distances, tied in every row.
    pts = np.repeat(uniform_points(100, seed=1), 3, axis=0)
    _, _, dists, _ = _assert_same_arrays(pts, 0.1)
    assert np.count_nonzero(dists == 0.0) == 100 * 6


@pytest.mark.parametrize("radius", [0.0, 1e-6])
def test_empty_table_matches_reference(radius):
    indptr, ids, dists, rev = _assert_same_arrays(uniform_points(60, seed=4), radius)
    assert len(ids) == len(dists) == len(rev) == 0
    np.testing.assert_array_equal(indptr, np.zeros(61, dtype=np.int64))


def test_single_node_matches_reference():
    indptr, ids, _, _ = _assert_same_arrays(uniform_points(1, seed=0), 1.5)
    assert indptr.tolist() == [0, 0] and len(ids) == 0


def test_table_carries_rev_and_native_indptr():
    pts = uniform_points(200, seed=5)
    arrays = neighbor_csr_arrays(pts, 0.15)
    tbl = make_neighbor_table(0.15, *arrays)
    assert tbl.rev is arrays[3]
    assert all(type(v) is int for v in tbl.indptr)
