"""The float64 tree route of the k-NN search equals brute force, bit for bit (hypothesis).

Every generated pool mixes free points (drawn from a coarse grid, so
exact duplicates and equal distances are common) with a run of spaced
anchors and one point repeated more than ``k +`` :data:`TREE_SURPLUS`
times.  The queries mix exact pool hits, near-ties a few ulps off pool
points, far out-of-distribution rows and rows of huge magnitude, plus
two fixed rows: an anchor, whose candidates prove its top k, and the
repeated point, whose candidates all tie, so every example reaches both
the kept branch and the brute-force fallback.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knn import TREE_SURPLUS, KNeighborsClassifier

#: Spaced anchors on a line far from the free points; anchor i is at
#: ``(ANCHOR_X + ANCHOR_STEP * i, 0)``.
ANCHOR_X, ANCHOR_STEP, ANCHORS = 1000.0, 10.0, 8

grid = st.integers(-40, 40).map(lambda v: v / 4.0)


@st.composite
def pools_and_queries(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    free = np.array(draw(st.lists(st.tuples(grid, grid), max_size=40)), dtype=np.float64).reshape(-1, 2)
    repeated = np.array([draw(grid), draw(grid)])
    copies = draw(st.integers(k + TREE_SURPLUS + 1, k + TREE_SURPLUS + 4))
    anchors = np.column_stack([ANCHOR_X + ANCHOR_STEP * np.arange(ANCHORS), np.zeros(ANCHORS)])
    pool = np.vstack([free, np.tile(repeated, (copies, 1)), anchors])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(pool))
    pool = pool[order]

    hits = st.integers(0, len(pool) - 1)
    rows = [anchors[0], repeated]
    for kind in draw(st.lists(st.sampled_from(["hit", "near", "far", "huge"]), max_size=24)):
        if kind == "hit":
            rows.append(pool[draw(hits)])
        elif kind == "near":
            ulps = draw(st.integers(-4, 4))
            rows.append(pool[draw(hits)] * (1.0 + ulps * np.finfo(np.float64).eps) + ulps * 1e-300)
        elif kind == "far":
            rows.append(np.array([draw(st.floats(-1e5, 1e5)), draw(st.floats(-1e5, 1e5))]))
        else:
            scale = draw(st.sampled_from([1e12, 1e15, 1e17]))
            rows.append(scale * np.array([draw(st.floats(-1, 1)), draw(st.floats(-1, 1))]))
    labels = np.arange(len(pool)) % 5
    return k, pool, labels, np.array(rows)


@given(case=pools_and_queries())
@settings(max_examples=150, deadline=None)
def test_tree_route_is_bit_identical_to_brute_force(case):
    k, pool, labels, x = case
    knn = KNeighborsClassifier(k=k).fit(pool, labels)
    want = knn._kneighbors_brute(x)

    fallback = []
    brute = knn._kneighbors_brute

    def counted(rows):
        fallback.append(len(rows))
        return brute(rows)

    knn._kneighbors_brute = counted
    got = knn._kneighbors_tree(x)

    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    # The repeated point's row always falls back and the anchor's row is
    # always kept: both branches ran.
    assert len(fallback) == 1
    assert 1 <= fallback[0] < len(x)
