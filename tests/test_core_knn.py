"""Tests for the from-scratch k-NN classifier."""

import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.knn import (
    BLOCK_BYTES,
    TREE_MIN_ROWS,
    TREE_SURPLUS,
    KNeighborsClassifier,
    rowwise_sq_distances,
)


def three_clusters(per=30, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    x = np.vstack([c + 0.5 * rng.normal(size=(per, 2)) for c in centers])
    y = np.repeat(np.arange(3), per)
    return x, y


class TestPairwiseDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        d2 = rowwise_sq_distances(a, b)
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(d2, naive, atol=1e-10)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(50, 4)) * 1e6  # large values stress the expansion
        assert (rowwise_sq_distances(a, a) >= 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rowwise_sq_distances(np.zeros((2, 3)), np.zeros((2, 4)))


class TestConstruction:
    def test_k_must_be_odd_positive(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=0)
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=2)
        KNeighborsClassifier(k=3)

    def test_chunk_size_positive(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(chunk_size=0)


class TestFit:
    def test_label_alignment_checked(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier().fit(np.zeros((5, 2)), np.zeros(4, dtype=int))

    def test_needs_at_least_k_samples(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=5).fit(np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_training_pool_copied(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier().fit(x, y)
        x[:] = 0.0
        assert knn.score(*three_clusters()) > 0.95

    def test_n_training_samples(self):
        x, y = three_clusters(per=10)
        assert KNeighborsClassifier().fit(x, y).n_training_samples == 30
        with pytest.raises(RuntimeError):
            KNeighborsClassifier().n_training_samples


class TestPredict:
    def test_separable_clusters_classified(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3).fit(x, y)
        test_x, test_y = three_clusters(seed=99)
        assert knn.score(test_x, test_y) == 1.0

    def test_training_points_self_classified(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert knn.score(x, y) == 1.0

    def test_kneighbors_sorted_by_distance(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=5).fit(x, y)
        _idx, dist = knn.kneighbors_rows(x[:10])
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_kneighbors_nearest_is_self_for_training_point(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3).fit(x, y)
        idx, dist = knn.kneighbors_rows(x[:5])
        assert np.allclose(dist[:, 0], 0.0)
        assert (idx[:, 0] == np.arange(5)).all()

    def test_chunking_equivalent(self):
        x, y = three_clusters(per=50)
        big = KNeighborsClassifier(k=3, chunk_size=10_000).fit(x, y)
        small = KNeighborsClassifier(k=3, chunk_size=7).fit(x, y)
        probe = three_clusters(seed=5)[0]
        assert np.array_equal(big.predict_rows(probe), small.predict_rows(probe))

    def test_majority_vote_k3(self):
        """Two near neighbors of class 1 outvote one nearer class-0 point."""
        x = np.array([[0.0], [1.0], [1.1]])
        y = np.array([0, 1, 1])
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert knn.predict_one(np.array([0.4])) == 1

    def test_k1_nearest_wins(self):
        x = np.array([[0.0], [1.0], [1.1]])
        y = np.array([0, 1, 1])
        knn = KNeighborsClassifier(k=1).fit(x, y)
        assert knn.predict_one(np.array([0.4])) == 0

    def test_deterministic_tie_break_by_distance(self):
        """k=3 with three distinct labels: the closest neighbor's class wins."""
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 2])
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert knn.predict_one(np.array([0.1])) == 0
        assert knn.predict_one(np.array([1.9])) == 2

    def test_predict_one_validates(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier().fit(x, y)
        with pytest.raises(ValueError):
            knn.predict_one(np.zeros((2, 2)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            KNeighborsClassifier().predict_rows(np.zeros((1, 2)))

    def test_score_shape_mismatch(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier().fit(x, y)
        with pytest.raises(ValueError):
            knn.score(x, y[:-1])

    def test_weighted_vote_prefers_close_neighbor(self):
        """One very close neighbor outweighs two distant same-class ones."""
        x = np.array([[0.0], [5.0], [5.2]])
        y = np.array([0, 1, 1])
        plain = KNeighborsClassifier(k=3, weighted=False).fit(x, y)
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        probe = np.array([0.2])
        assert plain.predict_one(probe) == 1  # majority of 3 neighbors
        assert weighted.predict_one(probe) == 0  # distance-weighted

    def test_weighted_equals_plain_on_clean_clusters(self):
        x, y = three_clusters()
        probes, truth = three_clusters(seed=123)
        plain = KNeighborsClassifier(k=3).fit(x, y)
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        assert np.array_equal(plain.predict_rows(probes), weighted.predict_rows(probes))

    def test_weighted_exact_match_dominates(self):
        x = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1])
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        assert weighted.predict_one(np.array([0.0])) == 0

    def test_non_contiguous_labels_handled(self):
        """Labels need not start at 0 or be dense."""
        x = np.array([[0.0], [0.1], [10.0], [10.1], [10.2]])
        y = np.array([1, 1, 4, 4, 4])
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert knn.predict_one(np.array([0.05])) == 1
        assert knn.predict_one(np.array([10.05])) == 4


class TestWeightedDeterminism:
    """Regression tests for the weighted-vote tie-break cascade."""

    def test_single_exact_match_beats_near_cloud(self):
        """One zero-distance hit outvotes two merely-near neighbors.

        Under the old epsilon weighting (1 / (d + 1e-9)) two neighbors
        at 1e-10 could together outvote a true exact match; exact hits
        must vote exclusively.
        """
        x = np.array([[0.0, 0.0], [1e-10, 0.0], [1e-10, 0.0]])
        y = np.array([0, 1, 1])
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        assert weighted.predict_one(np.array([0.0, 0.0])) == 0

    def test_exact_match_majority_among_exacts(self):
        """With several exact matches, they vote with unit weight each."""
        x = np.array([[0.0], [0.0], [0.0], [5.0]])
        y = np.array([1, 1, 0, 0])
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        # Neighbors of 0.0: three exact matches (two class 1, one class 0).
        assert weighted.predict_one(np.array([0.0])) == 1

    def test_score_tie_breaks_on_summed_distance(self):
        """Equal inverse-distance scores fall back to total distance."""
        # Class 0: neighbors at ±4 → score 1/4 + 1/4 = 1/2, dist sum 8.
        # Class 1: neighbor at 2   → score 1/2,           dist sum 2.
        x = np.array([[-4.0], [4.0], [2.0]])
        y = np.array([0, 0, 1])
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        assert weighted.predict_one(np.array([0.0])) == 1

    def test_full_tie_breaks_on_smaller_class_code(self):
        """Identical score and distance sum resolve to the lower code."""
        x = np.array([[-1.0], [1.0], [100.0]])
        y = np.array([2, 1, 3])
        weighted = KNeighborsClassifier(k=3, weighted=True).fit(x, y)
        # Scores from probe 0.0: class 1 = 1 (one neighbor at 1), class 2
        # = 1 (one neighbor at 1), class 3 = 1/100 — classes 1 and 2 tie
        # on score AND summed distance, so the smaller code wins.
        assert weighted.predict_one(np.array([0.0])) == 1

    def test_weighted_prediction_is_deterministic_under_permutation(self):
        """Training-row order never changes weighted predictions."""
        rng = np.random.default_rng(7)
        x, y = three_clusters(per=10, seed=3)
        probes = rng.normal(scale=6.0, size=(40, 2))
        base = KNeighborsClassifier(k=3, weighted=True).fit(x, y).predict_rows(probes)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(y))
            shuffled = (
                KNeighborsClassifier(k=3, weighted=True)
                .fit(x[perm], y[perm])
                .predict_rows(probes)
            )
            assert np.array_equal(base, shuffled)


class TestTieRule:
    """Neighbors are ordered by (squared distance, pool index)."""

    # Query at the origin: pool indices 3 (class 0) and 4 (class 1) are
    # the two nearest, at d = 2; indices 1 and 2 are exact duplicates at
    # d = 3, the k-th boundary, with different labels.  Index 1 must take
    # the third slot, so the class follows index 1's label.  (A partial
    # sort by introselect keeps index 2 here.)
    POOL = np.array([[4.0, 0.0], [3.0, 0.0], [3.0, 0.0], [2.0, 0.0], [0.0, 2.0]])

    @staticmethod
    def labels(first_tied):
        return np.array([2, first_tied, 1 - first_tied, 0, 1])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("first_tied", [0, 1])
    def test_lowest_pool_index_wins_the_kth_tie(self, dtype, first_tied):
        knn = KNeighborsClassifier(k=3).fit(self.POOL.astype(dtype), self.labels(first_tied))
        idx, dist = knn.kneighbors_rows(np.zeros((1, 2), dtype=dtype))
        assert idx.tolist() == [[3, 4, 1]]
        assert dist.tolist() == [[2.0, 2.0, 3.0]]
        assert knn.predict_rows(np.zeros((1, 2), dtype=dtype)).tolist() == [first_tied]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tie_rule_holds_for_any_chunk_and_batch_position(self, dtype):
        pool = self.POOL.astype(dtype)
        y = self.labels(1)
        filler = np.random.default_rng(3).uniform(-4.0, 10.0, size=(9, 2)).astype(dtype)
        alone = KNeighborsClassifier(k=3).fit(pool, y).kneighbors_rows(np.zeros((1, 2), dtype))
        for chunk_size in (1, 2, 3, 4, 2048):
            knn = KNeighborsClassifier(k=3, chunk_size=chunk_size).fit(pool, y)
            for at in (0, 4, 9):
                batch = np.insert(filler, at, 0.0, axis=0)
                idx, dist = knn.kneighbors_rows(batch)
                assert np.array_equal(idx[at], alone[0][0])
                assert np.array_equal(dist[at], alone[1][0])
                assert knn.predict_rows(batch)[at] == 1

    def test_overflowed_distances_keep_distinct_lowest_indices(self):
        # ‖b‖² overflows float32 for the far points, so their distances
        # are +inf: after the one finite neighbor, the equal +inf
        # distances go to the lowest unchosen pool indices.
        pool = np.array([[5e19, 0.0], [0.0, 0.0], [6e19, 0.0], [7e19, 0.0]], dtype=np.float32)
        knn = KNeighborsClassifier(k=3).fit(pool, np.array([0, 1, 1, 0]))
        idx, dist = knn.kneighbors_rows(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32))
        assert idx.tolist() == [[1, 0, 2], [1, 0, 2]]
        assert np.isposinf(dist[:, 1:]).all()


class TestBlockedSearch:
    """Pool-sized distance blocks in a reused per-thread workspace."""

    @staticmethod
    def fitted(n, dtype=np.float64, chunk_size=2048, seed=0):
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(n, 2)).astype(dtype)
        return KNeighborsClassifier(k=3, chunk_size=chunk_size).fit(pool, rng.integers(0, 5, n))

    def test_block_rows_fill_the_byte_budget(self):
        # The Table-2 pool has 327 points: 300 float64 or 601 float32 rows.
        f64 = self.fitted(327).block_rows
        f32 = self.fitted(327, np.float32).block_rows
        assert (f64, f32) == (300, 601)
        for n in (327, 1000, 40_000):
            rows = self.fitted(n).block_rows
            assert self.fitted(n, np.float32).block_rows in (2 * rows, 2 * rows + 1)

    def test_block_rows_capped_by_chunk_size_and_at_least_one(self):
        assert self.fitted(327, chunk_size=7).block_rows == 7
        wide = BLOCK_BYTES // 8 + 1  # one float64 pool row overflows the budget
        assert self.fitted(wide).block_rows == 1
        assert self.fitted(2 * wide, np.float32).block_rows == 1

    def test_one_row_blocks_match_one_block(self):
        wide = self.fitted(BLOCK_BYTES // 8 + 1)
        x = np.random.default_rng(1).normal(size=(5, 2))
        idx, dist = wide.kneighbors_rows(x)
        d2 = rowwise_sq_distances(x, wide.training_points)
        want = np.argsort(d2, axis=1, kind="stable")[:, :3]
        assert np.array_equal(idx, want)
        assert np.array_equal(dist, np.sqrt(np.take_along_axis(d2, want, axis=1)))

    # The workspace belongs to the brute-force search; float64 calls of
    # TREE_MIN_ROWS rows or more take the tree route, so the workspace
    # tests drive the brute route directly.
    def test_workspace_is_reused_across_calls(self):
        knn = self.fitted(327)
        x = np.random.default_rng(2).normal(size=(700, 2))
        knn._kneighbors_brute(x)
        first = knn._local.work
        assert first.shape == (2, 300, 327)
        knn._kneighbors_brute(x[:1])
        knn._kneighbors_brute(x)
        assert knn._local.work is first

    def test_small_calls_allocate_small_and_grow_to_a_block(self):
        knn = self.fitted(327)
        x = np.random.default_rng(3).normal(size=(400, 2))
        knn._kneighbors_brute(x[:10])
        assert knn._local.work.shape == (2, 10, 327)
        knn._kneighbors_brute(x)
        assert knn._local.work.shape == (2, 300, 327)

    @pytest.mark.parametrize(
        "refit", [(100, np.float64), (327, np.float32), (40_000, np.float64), (327, np.float64)]
    )
    def test_refit_never_reads_a_stale_workspace(self, refit):
        n, dtype = refit
        knn = self.fitted(327)
        x = np.random.default_rng(4).normal(size=(350, 2))
        knn._kneighbors_brute(x)
        other = self.fitted(n, dtype, seed=9)
        knn.fit(other.training_points, other.training_labels)
        # Few enough rows that the old workspace is not too small.
        got = knn.kneighbors_rows(x[:5])
        want = other.kneighbors_rows(x[:5])
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[1].dtype == np.dtype(dtype)
        assert knn._local.work.shape[2] == n
        assert knn._local.work.dtype == np.dtype(dtype)

    def test_pickle_round_trip_drops_the_workspace(self):
        knn = self.fitted(327)
        x = np.random.default_rng(5).normal(size=(20, 2))
        before = knn.kneighbors_rows(x)
        clone = pickle.loads(pickle.dumps(knn))
        assert getattr(clone._local, "work", None) is None
        after = clone.kneighbors_rows(x)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_concurrent_searches_match_single_thread_results(self, dtype):
        # 2000 points: 49 float64 or 98 float32 rows per block, so most
        # calls span several blocks of each thread's own workspace.
        knn = self.fitted(2000, dtype)
        rng = np.random.default_rng(6)
        n_threads = 2 * (os.cpu_count() or 1) + 2
        jobs = []
        for t in range(n_threads):
            # Float64 calls of TREE_MIN_ROWS rows or more take the tree
            # route, the others the blocked brute force.
            sizes = [1 + t, knn.block_rows + t, TREE_MIN_ROWS + t, 3 * knn.block_rows + 2 * t + 1]
            batches = [rng.normal(size=(m, 2)).astype(dtype) for m in sizes]
            jobs.append([(x, knn.kneighbors_rows(x)) for x in batches])
        deadline = time.monotonic() + 1.5
        failures = []

        def worker(job):
            try:
                while time.monotonic() < deadline:
                    for x, (want_idx, want_dist) in job:
                        idx, dist = knn.kneighbors_rows(x)
                        if not (np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)):
                            failures.append(len(x))
                            return
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(job,), daemon=True) for job in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestTreeRoute:
    """Float64 calls of TREE_MIN_ROWS rows or more: the tree proposes, the kernel decides."""

    @staticmethod
    def fitted(n=327, dtype=np.float64, seed=0):
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(n, 2)).astype(dtype)
        pool[::10] = pool[0]  # duplicated snapshots, as in the fitted score space
        return KNeighborsClassifier(k=3).fit(pool, rng.integers(0, 5, n))

    @staticmethod
    def spy(knn, name):
        """Count the rows each call of the route *name* receives."""
        rows = []
        route = getattr(knn, name)

        def counted(x):
            rows.append(len(x))
            return route(x)

        setattr(knn, name, counted)
        return rows

    @staticmethod
    def assert_same(got, want):
        """Same neighbor indices and distance bits."""
        bits = f"u{want[1].itemsize}"
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1].view(bits), want[1].view(bits))

    def test_route_is_chosen_by_dtype_and_row_count(self):
        x = np.random.default_rng(1).normal(size=(TREE_MIN_ROWS, 2))
        f64, f32 = self.fitted(), self.fitted(dtype=np.float32)
        tree64, tree32 = self.spy(f64, "_kneighbors_tree"), self.spy(f32, "_kneighbors_tree")
        f64.kneighbors_rows(x[:-1])
        f64.kneighbors_rows(x)
        f32.kneighbors_rows(x)
        assert tree64 == [TREE_MIN_ROWS]
        assert tree32 == []

    @pytest.mark.parametrize("n", [TREE_SURPLUS + 3, 50, 327, 2000])
    def test_tree_route_matches_brute_force_bits(self, n):
        knn = self.fitted(n)
        rng = np.random.default_rng(n)
        pool = knn.training_points
        x = np.vstack(
            [
                pool[rng.integers(0, n, 100)],  # exact hits, ties among duplicates
                pool[rng.integers(0, n, 100)] + rng.normal(scale=1e-9, size=(100, 2)),
                rng.uniform(-1e4, 1e4, size=(100, 2)),  # far out of distribution
            ]
        )
        fallback = self.spy(knn, "_kneighbors_brute")
        got = knn.kneighbors_rows(x)
        del knn._kneighbors_brute
        self.assert_same(got, knn._kneighbors_brute(x))
        assert sum(fallback) < len(x)

    def test_unverifiable_rows_fall_back_to_brute_force(self):
        # Seven copies of one far point: a query on it has all k + 3
        # candidates at distance 0, so no candidate set proves its top k.
        rng = np.random.default_rng(8)
        pool = rng.normal(size=(327, 2))
        pool[:7] = 50.0
        knn = KNeighborsClassifier(k=3).fit(pool, rng.integers(0, 5, 327))
        x = np.vstack([pool[:3], rng.normal(size=(TREE_MIN_ROWS, 2))])
        fallback = self.spy(knn, "_kneighbors_brute")
        got = knn.kneighbors_rows(x)
        assert fallback == [3]
        del knn._kneighbors_brute
        self.assert_same(got, knn._kneighbors_brute(x))

    def test_huge_magnitudes_fall_back_to_brute_force(self):
        # A pool far from the origin: the expansion's rounding swamps the
        # gaps between candidates, so every row is searched again.
        knn = self.fitted()
        knn.fit(knn.training_points + 1e9, knn.training_labels)
        x = knn.training_points[:TREE_MIN_ROWS] + 1e-3
        fallback = self.spy(knn, "_kneighbors_brute")
        got = knn.kneighbors_rows(x)
        assert fallback == [TREE_MIN_ROWS]
        del knn._kneighbors_brute
        self.assert_same(got, knn._kneighbors_brute(x))

    def test_pools_under_k_plus_surplus_have_no_tree(self):
        x, y = three_clusters(per=2)
        enough = 3 + TREE_SURPLUS
        assert KNeighborsClassifier(k=3).fit(x[:enough], y[:enough])._tree is not None
        small = KNeighborsClassifier(k=3).fit(x[: enough - 1], y[: enough - 1])
        assert small._tree is None
        probes = np.random.default_rng(2).normal(size=(TREE_MIN_ROWS, 2))
        self.assert_same(small.kneighbors_rows(probes), small._kneighbors_brute(probes))

    def test_refit_float64_to_float32_drops_the_tree(self):
        knn = self.fitted()
        assert knn._tree is not None
        other = self.fitted(dtype=np.float32, seed=3)
        knn.fit(other.training_points, other.training_labels)
        assert knn._tree is None
        x = np.random.default_rng(4).normal(size=(TREE_MIN_ROWS, 2)).astype(np.float32)
        self.assert_same(knn.kneighbors_rows(x), other.kneighbors_rows(x))
        knn.fit(knn.training_points.astype(np.float64), knn.training_labels)
        assert knn._tree is not None

    def test_pickle_round_trip_rebuilds_the_tree(self):
        knn = self.fitted()
        x = np.random.default_rng(5).normal(size=(200, 2))
        before = knn.kneighbors_rows(x)
        state = knn.__getstate__()
        assert "_tree" not in state and "_local" not in state
        clone = pickle.loads(pickle.dumps(knn))
        assert clone._tree is not None
        self.assert_same(clone.kneighbors_rows(x), before)

    def test_state_without_a_tree_unpickles_with_one(self):
        # The state a model pickled before the tree route existed: every
        # attribute but the workspace, and no ``_tree`` key.
        knn = self.fitted()
        x = np.random.default_rng(6).normal(size=(200, 2))
        state = {key: value for key, value in vars(knn).items() if key not in ("_local", "_tree")}
        old = KNeighborsClassifier.__new__(KNeighborsClassifier)
        old.__setstate__(state)
        assert old._tree is not None
        self.assert_same(old.kneighbors_rows(x), knn.kneighbors_rows(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_raise_the_same_error_on_both_routes(self, bad):
        knn = self.fitted()
        x = np.random.default_rng(7).normal(size=(TREE_MIN_ROWS, 2))
        x[TREE_MIN_ROWS // 2, 1] = bad
        messages = []
        for rows in (x[TREE_MIN_ROWS // 2 : TREE_MIN_ROWS // 2 + 1], x):
            with pytest.raises(ValueError) as info:
                knn.kneighbors_rows(rows)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "matrix contains non-finite values"


class TestCancellationClamp:
    """Negative squared distances from catastrophic cancellation clamp to 0."""

    def test_far_from_origin_duplicates_clamp_to_zero(self):
        # Points identical up to float rounding but far from the origin:
        # the (−2ab + aa + bb) expansion cancels catastrophically and,
        # unclamped, goes slightly negative — poisoning sqrt with NaN.
        base = np.full((1, 4), 1e8)
        jitter = base * (1.0 + np.array([0.0, 2e-16, -2e-16, 4e-16]))[:, None]
        d2 = rowwise_sq_distances(jitter, jitter)
        assert (d2 >= 0.0).all()
        assert not np.isnan(np.sqrt(d2)).any()

    def test_clamp_in_both_dtypes(self):
        # Near-duplicate rows at large magnitude: the unclamped
        # expansion dips negative in either precision (float32 needs a
        # proportionally larger jitter — its epsilon is ~1e-7).
        for dtype, scale, jitter in (
            (np.float64, 1e8, 2e-8),
            (np.float32, 1e5, 1e-2),
        ):
            a = (np.full((8, 3), scale) + np.arange(8)[:, None] * jitter).astype(dtype)
            d2 = rowwise_sq_distances(a, a)
            assert d2.dtype == np.dtype(dtype)
            assert (d2 >= 0.0).all()
            assert not np.isnan(np.sqrt(d2)).any()

    def test_exact_duplicate_rows_have_zero_distance(self):
        a = np.full((3, 2), 7e7)
        d2 = rowwise_sq_distances(a, a)
        assert (d2 == 0.0).all()


class TestDtypeRouting:
    """The fitted pool's dtype governs every downstream buffer."""

    def test_fit_preserves_float32(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3).fit(x.astype(np.float32), y)
        assert knn.dtype == np.dtype(np.float32)
        assert knn.training_points.dtype == np.dtype(np.float32)
        assert knn.training_sq_norms.dtype == np.dtype(np.float32)

    def test_fit_preserves_float64(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert knn.dtype == np.dtype(np.float64)
        assert knn.training_sq_norms.dtype == np.dtype(np.float64)

    def test_integer_training_data_promotes_to_float64(self):
        x = np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5]], dtype=np.int64)
        y = np.array([0, 0, 0, 1, 1])
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert knn.dtype == np.dtype(np.float64)

    def test_kneighbors_distances_follow_model_dtype(self):
        x, y = three_clusters()
        for dtype in (np.float32, np.float64):
            knn = KNeighborsClassifier(k=3).fit(x.astype(dtype), y)
            _, distances = knn.kneighbors_rows(x[:5])  # float64 queries downcast
            assert distances.dtype == np.dtype(dtype)

    def test_float32_model_predicts_like_float64_on_separated_data(self):
        x, y = three_clusters()
        test_x, _ = three_clusters(seed=99)
        f64 = KNeighborsClassifier(k=3).fit(x, y).predict_rows(test_x)
        f32 = KNeighborsClassifier(k=3).fit(x.astype(np.float32), y).predict_rows(test_x)
        assert np.array_equal(f64, f32)

    def test_weighted_vote_buffers_follow_model_dtype(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3, weighted=True).fit(x.astype(np.float32), y)
        pred = knn.predict_rows(x[:10])
        assert pred.dtype == np.dtype(np.int64)
        assert np.array_equal(pred, y[:10])

    def test_unfitted_dtype_and_norms_raise(self):
        knn = KNeighborsClassifier()
        with pytest.raises(RuntimeError):
            knn.dtype
        with pytest.raises(RuntimeError):
            knn.training_sq_norms


class TestPrecomputedNorms:
    """The per-fit ‖b‖² cache must be value-identical to recomputation."""

    def test_cached_norms_match_einsum(self):
        x, y = three_clusters()
        knn = KNeighborsClassifier(k=3).fit(x, y)
        assert np.array_equal(
            knn.training_sq_norms, np.einsum("ij,ij->i", x, x)
        )

    def test_precomputed_norms_bit_identical_distances(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(20, 5)), rng.normal(size=(30, 5))
        norms = np.einsum("ij,ij->i", b, b)
        assert np.array_equal(
            rowwise_sq_distances(a, b),
            rowwise_sq_distances(a, b, b_sq_norms=norms),
        )

    def test_norm_shape_validated(self):
        a, b = np.zeros((2, 3)), np.zeros((4, 3))
        with pytest.raises(ValueError):
            rowwise_sq_distances(a, b, b_sq_norms=np.zeros(3))
