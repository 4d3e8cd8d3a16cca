"""Classify kernel outside the tree query — same bits as the previous kernel, and faster.

``ReferenceKernel`` below is the classify kernel as it was before its
cost around ``cKDTree.query`` was cut, copied here as the reference:

* ``project_rows`` summed every call as one ``(p, q, m)`` term stack
  (now calls above ``pipeline._PROJECT_STACK_MAX_ROWS`` rows add the
  terms feature by feature into a ``(q, m)`` buffer);
* the tree route checked finiteness before the query, gathered each
  pool column and the squared norms separately into ``(m, c)`` arrays
  and ran every step along a row's few candidates (now one ``take``
  from a ``(q + 1, n)`` table, candidate-major, and the query's own
  finiteness check);
* the k = 3 vote picked a three-distinct row's least (distance, class
  code) by two passes of compare-and-select (now one ``min`` over
  complex keys);
* ``classify_batch`` walked the series three times for the empty
  check, the nodes, the matrices and the offsets, and packed the
  compositions with a few more NumPy calls (now one pass,
  ``pipeline._stack_runs``).

The brute-force search, the normalizer and its input check, the gather
and ``BatchResult``
did not change and are shared.

Before any timing, in both dtypes, ``classify_rows`` at 1, 8, 31, 48,
124, 508 and 4096 rows must match the reference in class codes,
scores, neighbour indices and distance bits, and
``classify_batch(profile_fleet(64))`` in every column of its result.
The rows are the 64-run fleet's (the layered benchmark's
``fleet_batch`` fleet for seed 0), 4096 of them drawn from it and
scaled per entry by 0.5–2.

Then each size is timed in interleaved rounds, every other round with
the arms in reverse order, and the median over rounds of the
reference's time over the kernel's is gated: at least the dtype's
``MIN_LARGE_SPEEDUP`` on the 64-run batch and on 4096 rows, and at
least ``MIN_SMALL_RATIO`` (no slower, within noise) at 1–48 rows.
The gate is a ratio of two arms on one machine, the same in smoke and
full mode; results go to ``benchmarks/out/BENCH_kernel_overhead_<dtype>.json``.

The large-call floors sit below what was measured, for a shared CI
host's noise.  Full mode on a 2-core Xeon VM measured float64 1.17x on
the batch and 1.11x at 4096 rows, float32 1.07x and 1.08x: the
``cKDTree`` query (float64, about two thirds of a 4096-row call) and
the brute-force search (float32) are not part of this cut.
"""

import json
from itertools import accumulate

import numpy as np
import pytest

from repro.core.knn import TREE_MIN_ROWS, TREE_SURPLUS, _F64, _MARGIN_ULPS
from repro.core.labels import ALL_CLASSES, DOMINANT_CATEGORIES, IDLE_MIX_HIGH, IDLE_MIX_LOW, SnapshotClass
from repro.core.pipeline import BatchResult, _gather_rows
from repro.core.preprocessing import _check_matrix
from repro.errors import EmptySeriesError, NotTrainedError
from repro.experiments.fleet import profile_fleet
from repro.obs import get_registry as obs_get_registry
from repro.serve.batch import BatchClassifier

from conftest import emit, interleaved_rounds

FLEET_RUNS = 64
ROW_COUNTS = (1, 8, 31, 48, 124, 508, 4096)
SMALL_ROWS = (1, 8, 31, 48)
#: Calls per timing by row count (the batch times like 508 rows).
CALLS = {1: 200, 8: 200, 31: 100, 48: 100, 124: 50, 508: 20, 4096: 4}
SMOKE_ROUNDS, FULL_ROUNDS = 9, 25
#: The floors, the same in both modes.
MIN_LARGE_SPEEDUP = {"float64": 1.06, "float32": 1.03}
MIN_SMALL_RATIO = 0.95


class ReferenceKernel:
    """The classify kernel before its overhead cut, on a trained classifier's fitted state."""

    def __init__(self, clf):
        self.clf = clf
        self.knn = clf.knn

    # --- projection: one (p, q, m) term stack summed by np.add.accumulate
    def project_rows(self, features):
        clf = self.clf
        m = features.shape[0]
        if clf.compute_dtype != "float64":
            weights = clf.fused_weights_
            terms = np.empty((weights.shape[0] + 1, weights.shape[1], m), dtype=clf._dtype)
            terms[0] = clf.fused_bias_[:, None]
            np.multiply(weights[:, :, None], features.T[:, None, :], out=terms[1:])
        else:
            centered = np.subtract(features.T, clf.pca.mean_[:, None], order="C")
            terms = clf.pca.components_.T[:, :, None] * centered[:, None, :]
        np.add.accumulate(terms, axis=0, out=terms)
        return terms[-1].T.copy()

    # --- neighbour search
    def kneighbors_rows(self, x):
        knn = self.knn
        x = _check_matrix(x, dtype=knn._x.dtype)
        if x.shape[1] != knn._x.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {knn._x.shape[1]}")
        if knn._tree is not None and x.shape[0] >= TREE_MIN_ROWS:
            return self._kneighbors_tree(x)
        return knn._kneighbors_brute(x)

    @staticmethod
    def _candidate_sq_distances(a, b_cols, bb, cand):
        scaled = a * -2.0
        d2 = scaled[:, :1] * b_cols[0][cand]
        for j in range(1, a.shape[1]):
            d2 += scaled[:, j : j + 1] * b_cols[j][cand]
        aa = np.einsum("ij,ij->i", a, a)
        d2 += aa[:, None]
        d2 += bb[cand]
        np.maximum(d2, 0.0, out=d2)
        return d2, aa

    def _kneighbors_tree(self, x):
        knn = self.knn
        k = knn.k
        _, cand = knn._tree.query(x, k=k + TREE_SURPLUS)
        d2, aa = self._candidate_sq_distances(x, knn._cols, knn._sq_norms, cand)
        keyed = np.empty(cand.shape, dtype=np.complex128)
        keyed.real = d2
        keyed.imag = cand
        keyed.sort(axis=1)
        indices = keyed.imag[:, :k].astype(np.int64)
        distances = keyed.real[:, :k].copy()
        margin = (_MARGIN_ULPS * _F64.eps) * (aa + knn._sq_norms.max()) + _F64.tiny
        verified = distances[:, -1] + margin < keyed.real[:, -1]
        np.sqrt(distances, out=distances)
        if not verified.all():
            redo = np.flatnonzero(~verified)
            indices[redo], distances[redo] = knn._kneighbors_brute(x[redo])
        return indices, distances

    # --- vote: compare-and-select over the three-distinct rows
    def vote(self, indices, distances):
        knn = self.knn
        labels = knn._y[indices]
        l0, l1, l2 = labels[:, 0], labels[:, 1], labels[:, 2]
        best = np.where(l1 == l2, l1, l0)
        distinct = np.flatnonzero((l1 != l2) & (l0 != l1) & (l0 != l2))
        if distinct.size:
            lab, dist = labels[distinct], distances[distinct]
            near, near_d = lab[:, 0], dist[:, 0]
            for j in (1, 2):
                take = (dist[:, j] < near_d) | ((dist[:, j] == near_d) & (lab[:, j] < near))
                near = np.where(take, lab[:, j], near)
                near_d = np.where(take, dist[:, j], near_d)
            best[distinct] = near
            redo = distinct[np.isnan(dist).any(axis=1)]
            if redo.size:
                best[redo] = knn._vote_counting(indices[redo], distances[redo])
        return best

    def classify_rows(self, features):
        x = np.asarray(features)
        if x.ndim != 2:
            raise ValueError(f"expected (k, p) feature rows, got shape {x.shape}")
        scores = self.project_rows(self.clf.normalize_rows(x))
        return self.vote(*self.kneighbors_rows(scores))

    # --- the batch round
    @staticmethod
    def _pack_compositions(offsets, class_vector):
        n_classes = len(ALL_CLASSES)
        lengths = np.diff(offsets)
        run_ids = np.repeat(np.arange(lengths.shape[0]), lengths)
        counts = np.bincount(
            run_ids * n_classes + class_vector, minlength=lengths.shape[0] * n_classes
        ).reshape(lengths.shape[0], n_classes)
        fractions = counts / lengths.astype(np.float64)[:, None]
        class_codes = np.argmax(fractions, axis=1)
        idle = fractions[:, SnapshotClass.IDLE]
        mixed = (idle >= IDLE_MIX_LOW) & (idle < IDLE_MIX_HIGH)
        category_codes = np.where(mixed, len(DOMINANT_CATEGORIES), class_codes)
        return fractions, class_codes, category_codes

    def _classify_stacked(self, series_list):
        clf = self.clf
        clock = clf.clock
        t = clock()
        nodes = [s.node for s in series_list]
        matrices = [s.matrix for s in series_list]
        offsets = [0, *accumulate(m.shape[1] for m in matrices)]
        raw = _gather_rows(matrices, offsets, clf._metric_idx, clf._dtype)
        t_gather = clock()
        features = clf.normalize_rows(raw)
        t_normalized = clock()
        scores_all = self.project_rows(features)
        t_projected = clock()
        class_vector_all = self.vote(*self.kneighbors_rows(scores_all))
        t_searched = clock()
        packed = self._pack_compositions(offsets, class_vector_all)
        t_done = clock()
        stage_seconds = (
            t_gather - t,
            t_normalized - t_gather,
            t_projected - t_normalized,
            t_searched - t_projected,
            t_done - t_searched,
        )
        return BatchResult(nodes, offsets, class_vector_all, scores_all, *packed, stage_seconds), t

    def classify_batch(self, series_list):
        clf = self.clf
        if not clf.trained:
            raise NotTrainedError("classifier not trained")
        for series in series_list:
            if len(series) == 0:
                raise EmptySeriesError("cannot classify an empty series")
        registry = obs_get_registry()
        with registry.span("serve.batch.classify", clock=clf.clock):
            results, _ = self._classify_stacked(series_list)
        return results


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.fixture(scope="module")
def fleet():
    return profile_fleet(FLEET_RUNS, seed=100)


def row_sets(clf, fleet):
    """The fleet's selected raw rows at each of ``ROW_COUNTS``, at the model's dtype."""
    matrices = [s.matrix for s in fleet]
    offsets = [0, *accumulate(m.shape[1] for m in matrices)]
    raw = _gather_rows(matrices, offsets, clf._metric_idx, clf._dtype)
    rng = np.random.default_rng(0)
    spread = raw[rng.integers(0, len(raw), 4096)] * rng.uniform(0.5, 2.0, (4096, raw.shape[1]))
    big = spread.astype(raw.dtype)
    return {n: raw[:n] if n <= len(raw) else big for n in ROW_COUNTS}


def model(dtype, classifier, classifier_f32):
    return classifier if dtype == "float64" else classifier_f32


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_kernel_matches_the_reference(dtype, classifier, classifier_f32, fleet):
    clf = model(dtype, classifier, classifier_f32)
    ref = ReferenceKernel(clf)
    for n, rows in row_sets(clf, fleet).items():
        features = clf.normalize_rows(rows)
        scores, want_scores = clf.project_rows(features), ref.project_rows(features)
        assert same_bits(scores, want_scores), f"{dtype} {n} rows: scores differ"
        got, want = clf.knn.kneighbors_rows(scores), ref.kneighbors_rows(scores)
        assert same_bits(got[0], want[0]), f"{dtype} {n} rows: neighbour indices differ"
        assert same_bits(got[1], want[1]), f"{dtype} {n} rows: neighbour distances differ"
        assert same_bits(clf.knn.vote(*got), ref.vote(*want)), f"{dtype} {n} rows: votes differ"
        assert same_bits(clf.classify_rows(rows), ref.classify_rows(rows)), f"{dtype} {n} rows: classes differ"
    got, want = BatchClassifier(clf).classify_batch(fleet), ref.classify_batch(fleet)
    assert list(got.nodes) == list(want.nodes) and list(got.offsets) == list(want.offsets)
    for column in ("class_vector", "scores", "fractions", "class_codes", "category_codes"):
        assert same_bits(getattr(got, column), getattr(want, column)), f"{dtype} batch: {column} differs"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_kernel_overhead_speedup(dtype, classifier, classifier_f32, fleet, out_dir, smoke):
    clf = model(dtype, classifier, classifier_f32)
    ref = ReferenceKernel(clf)
    batch = BatchClassifier(clf)
    cases = {f"{n}_rows": (n, lambda r=rows: clf.classify_rows(r), lambda r=rows: ref.classify_rows(r))
             for n, rows in row_sets(clf, fleet).items()}
    cases["batch_64_runs"] = (508, lambda: batch.classify_batch(fleet), lambda: ref.classify_batch(fleet))
    rounds = SMOKE_ROUNDS if smoke else FULL_ROUNDS

    payload = {"dtype": dtype, "mode": "smoke" if smoke else "full", "rounds": rounds,
               "floors": {"large": MIN_LARGE_SPEEDUP[dtype], "small": MIN_SMALL_RATIO}}
    for name, (n, new, old) in cases.items():
        times = interleaved_rounds([new, old], rounds, CALLS[n])
        payload[name] = {
            "kernel_us": float(times[:, 0].min() * 1e6),
            "reference_us": float(times[:, 1].min() * 1e6),
            "speedup": float(np.median(times[:, 1] / times[:, 0])),
        }
    emit(out_dir, f"BENCH_kernel_overhead_{dtype}.json", json.dumps(payload, indent=2, sort_keys=True))

    gated = {"batch_64_runs": MIN_LARGE_SPEEDUP[dtype], "4096_rows": MIN_LARGE_SPEEDUP[dtype]}
    gated.update({f"{n}_rows": MIN_SMALL_RATIO for n in SMALL_ROWS})
    for name, floor in gated.items():
        result = payload[name]
        assert result["speedup"] >= floor, (
            f"{dtype} {name}: {result['speedup']:.3f}x the reference kernel, below the {floor:.2f}x floor "
            f"({result['kernel_us']:.1f} vs {result['reference_us']:.1f} us per call)"
        )
