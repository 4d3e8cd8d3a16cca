"""k-Nearest Neighbor classifier, implemented from scratch (paper §3).

The k-NN classifier decides the class of a test point by majority vote of
its *k* geometrically nearest training points (the paper uses ``k = 3``
and requires *k* odd).  Distances are Euclidean in the (PCA-reduced)
feature space.

Implementation follows the HPC guides: the distance matrix is computed
with the vectorized ``‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²`` expansion, with the
pool-side ``‖b‖²`` term cached once at fit time.  Queries are searched
in blocks sized from the fitted pool: a block holds as many query rows
as fit :data:`BLOCK_BYTES` of distances (at most ``chunk_size``), so
the block and its outer-product temporary stay in a per-core L2 cache.
Every block is assembled into the same two buffers, a workspace each
thread keeps on the classifier and reuses across calls, so a search
allocates no distance buffer after a thread's first call.  The
``a·bᵀ`` term is accumulated feature column by feature column from
outer products rather than by a GEMM: BLAS picks
its kernel (and so its summation order) by operand shape, while the
column accumulation has one fixed order, so a row's distances — and
its neighbors and vote — are bit-identical whatever batch it arrives in.
With ``q = 2`` PCA components that is two fused passes, not a scalar
loop.

The sequential, batched and streaming classify paths all search through
:meth:`KNeighborsClassifier.kneighbors_rows`, which has two routes with
one result.  The blocked brute force above is the reference; it is the
whole search for float32 models and for calls under
:data:`TREE_MIN_ROWS` rows.  A float64 call of at least that many rows
takes the tree route: a ``scipy.spatial.cKDTree`` built at fit time proposes
``k +`` :data:`TREE_SURPLUS` candidates per row, and the kernel above
decides — it recomputes the candidates' squared distances in its own
element order, ranks them under the tie rule below, and keeps a row only
if its k-th distance plus a rounding margin is below its farthest
candidate's.  Every point the tree did not propose is then provably
farther than the k-th neighbor, so the neighbors and distance bits are
the brute-force ones; any row that cannot be proved that way goes to
the brute-force search.

Top-k selection is k passes of ``argmin`` over each distance row, each
pass overwriting the entry it chose with ``+inf``.  ``argmin`` returns
the first of equal minima, so neighbors are ordered by (squared
distance, pool index): among points at the same distance — duplicated
training snapshots are common in the fitted score space — the lower
pool index always gets in first.  That is the package's one tie rule
for neighbor selection; it does not depend on the batch, the chunk or
any selection algorithm's internal order.

The classifier is dtype-preserving: the pool is stored at the training
scores' float dtype (float64 reference mode or float32 tolerance mode)
and queries, distance buffers, and vote accumulators all follow it.
Tie-breaking is deterministic: among tied vote counts, the class with
the smaller summed neighbor distance wins, then the smaller class code.
For the paper's unweighted ``k = 3`` the vote takes the closed form of
that rule — three equal labels win, else the pair, else the least
(distance, class code) — in a handful of whole-column operations; the
counting vote (a ``bincount``, an ``np.add.at`` and a loop over the
classes) stays the reference, and still serves other *k*, the weighted
ablation, and three-way ties with a NaN distance.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.spatial import cKDTree

from .preprocessing import _check_matrix

#: Upper bound on query rows per distance block; the pool-sized bound
#: of :data:`BLOCK_BYTES` is usually the smaller one.
DEFAULT_CHUNK_SIZE: int = 2048

#: Bytes of squared distances per block.  The block and its
#: outer-product temporary (the two buffers of a thread's workspace)
#: take twice this, 1.5 MiB, which stays in a 2 MiB or larger L2.
BLOCK_BYTES: int = 768 * 1024

#: Fewest query rows for which a float64 search takes the tree route.
#: Below it a call's fixed cost (the tree query's setup, about 20 us,
#: and some twenty small array operations) outweighs what the tree
#: saves over the brute-force block.  Against the Table-2 pool, on
#: Table-3 rows, out-of-distribution rows and jittered pool rows, the
#: tree route ran 0.89-0.98x brute force at 8 rows per call, 1.02-1.10x
#: at 16, 1.05-1.63x at 32 and 1.17-1.42x at 128; 32 is the smallest
#: size that won on all three with room for noise.
TREE_MIN_ROWS: int = 32

#: Candidates the tree proposes per query row beyond the k neighbors.
#: A row is kept only if its k-th neighbor is clearly nearer than its
#: farthest candidate, so the surplus absorbs ties at the k-th place
#: (duplicated training snapshots) without sending the row to the
#: brute-force fallback.
TREE_SURPLUS: int = 3

# Rounding margin of the tree route, in units of ε·(‖a‖² + max‖b‖²):
# four times a generous bound on the error of either distance
# computation (see KNeighborsClassifier._kneighbors_tree).
_MARGIN_ULPS = 1024
_F64 = np.finfo(np.float64)


def rowwise_sq_distances(
    a: np.ndarray, b: np.ndarray, b_sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances between rows of *a* and rows of *b*.

    dtype: preserve

    Both inputs are row-per-sample (the transpose of the paper's ``q×m``
    column convention); returns a matrix of shape ``(len(a), len(b))``
    in the inputs' (promoted) float dtype.  Row *i*'s distances are
    bit-identical for **any** batch size: the ``a·bᵀ`` term is
    accumulated feature column by feature column from outer products in
    a fixed order (see the module docstring), and the rest
    of the ``(−2ab) + aa + bb`` assembly is elementwise and in place.
    The assembly cancels catastrophically when a query coincides with a
    pool point — the result can come out as a tiny *negative* squared
    distance (≈ −ε·‖x‖², far worse in float32), which would poison
    ``1/d`` weighted votes and tie ordering — so the matrix is clamped
    at 0.0 in place before returning.

    *b_sq_norms* optionally supplies precomputed per-row squared norms
    of *b* (``np.einsum("ij,ij->i", b, b)``), the values this function
    would compute itself, so the output is bit-identical either way.
    """
    a = _check_matrix(a, dtype=None)
    b = _check_matrix(b, dtype=None)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if b_sq_norms is None:
        bb = np.einsum("ij,ij->i", b, b)
    else:
        bb = np.asarray(b_sq_norms)
        if bb.shape != (b.shape[0],):
            raise ValueError(
                f"b_sq_norms shape {bb.shape} does not match {b.shape[0]} pool rows"
            )
    return _sq_distances(a, np.ascontiguousarray(b.T), bb)


def _sq_distances(
    a: np.ndarray,
    b_cols: np.ndarray,
    bb: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """The distance kernel behind :func:`rowwise_sq_distances`, unchecked.

    dtype: preserve

    *a* is ``(m, q)``, *b_cols* the pool's ``(q, n)`` feature columns
    (each a contiguous row), *bb* the pool's ``(n,)`` squared norms;
    returns the clamped ``(m, n)`` squared distances.  Given *out* and
    *tmp*, two C-contiguous ``(r, n)`` buffers with ``r >= m`` at the
    result dtype, the distances are assembled in ``out[:m]`` (returned)
    with ``tmp[:m]`` as the outer-product temporary; without them both
    are allocated fresh.  The bits are the same either way.
    """
    m = a.shape[0]
    if out is None:
        out = np.empty((m, b_cols.shape[1]), dtype=np.result_type(a, b_cols))
        tmp = np.empty_like(out)
    d2, term = out[:m], tmp[:m]
    aa = np.einsum("ij,ij->i", a, a)[:, None]
    # −2·ab[i, t] = Σ_j (−2a[i, j])·b[t, j], summed j = 0, 1, … in a fixed
    # order.  Scaling by −2 is exact in the normal range, so pre-scaling
    # the queries equals scaling the sum.  Each einsum is an outer
    # product — one rounded multiply per entry, no summation, no BLAS —
    # and runs faster than the equivalent broadcast multiply.
    scaled = a * -2.0
    np.einsum("i,j->ij", scaled[:, 0], b_cols[0], out=d2)
    for j in range(1, a.shape[1]):
        d2 += np.einsum("i,j->ij", scaled[:, j], b_cols[j], out=term)
    d2 += aa
    d2 += bb
    np.maximum(d2, 0.0, out=d2)
    return d2


def _candidate_sq_distances(
    a: np.ndarray, b_cols: np.ndarray, bb: np.ndarray, cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_sq_distances` at chosen pool points only, bit for bit.

    dtype: preserve

    *a* is ``(m, q)``, *b_cols* and *bb* the pool's columns and squared
    norms as for :func:`_sq_distances`, *cand* an ``(m, c)`` array of
    pool indices.  Returns the clamped ``(m, c)`` squared distances of
    each row to its candidates, and the rows' ``(m,)`` squared norms.
    Entry ``[i, t]`` is computed with the same roundings in the same
    order as ``_sq_distances(a, b_cols, bb)[i, cand[i, t]]``:
    ``(−2a₀)·b₀ + (−2a₁)·b₁ + … + ‖a‖² + ‖b‖²``, then clamped at 0.
    """
    scaled = a * -2.0
    d2 = scaled[:, :1] * b_cols[0][cand]
    for j in range(1, a.shape[1]):
        d2 += scaled[:, j : j + 1] * b_cols[j][cand]
    aa = np.einsum("ij,ij->i", a, a)
    d2 += aa[:, None]
    d2 += bb[cand]
    np.maximum(d2, 0.0, out=d2)
    return d2, aa


class KNeighborsClassifier:
    """Vote-of-k-nearest-neighbors classifier.

    Parameters
    ----------
    k:
        Number of neighbors; must be a positive odd number (paper §3:
        "the votes of k (an odd number) nearest neighbors").
    chunk_size:
        Upper bound on test rows per distance block; the pool-sized
        bound of :data:`BLOCK_BYTES` usually gives fewer
        (:attr:`block_rows`).
    weighted:
        With ``True``, votes are weighted by inverse distance (closer
        neighbors count more) instead of the paper's plain majority —
        an ablation knob, off by default for paper fidelity.
    """

    def __init__(
        self, k: int = 3, chunk_size: int = DEFAULT_CHUNK_SIZE, weighted: bool = False
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if k % 2 == 0:
            raise ValueError("k must be odd (majority vote)")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.k = k
        self.chunk_size = chunk_size
        self.weighted = bool(weighted)
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._classes: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        # Candidate index of a float64 pool (see _kneighbors_tree).
        self._tree: cKDTree | None = None
        # Per-thread distance workspace (see _workspace).
        self._local = threading.local()

    def __getstate__(self) -> dict:
        """Pickle the fitted model without the per-thread workspace or tree."""
        state = self.__dict__.copy()
        del state["_local"]
        state.pop("_tree", None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled model with an empty workspace and a rebuilt tree."""
        self.__dict__.update(state)
        self._local = threading.local()
        self._tree = self._build_tree()

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        """Store the training pool.

        *x* has shape ``(n, q)`` — one row per training snapshot in the
        ``q``-dimensional PCA space — and *y* is the matching length-``n``
        class-code vector.  The pool is stored at *x*'s float dtype
        (float64 reference mode or float32 tolerance mode), and every
        inference buffer follows the fitted dtype from then on.  The
        per-row squared norms ``‖b‖²`` of the pool — the constant term
        of the distance expansion — and its contiguous ``(q, n)``
        feature columns are computed once here, so
        :meth:`kneighbors_rows` stops recomputing them per query batch.

        Raises
        ------
        ValueError
            If labels don't match samples, or fewer than *k* samples are
            given.
        """
        x = _check_matrix(x, dtype=None)
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} samples")
        if x.shape[0] < self.k:
            raise ValueError(f"need at least k={self.k} training samples, got {x.shape[0]}")
        self._x = x.copy()
        self._y = y.copy()
        self._classes = np.unique(y)
        self._sq_norms = np.einsum("ij,ij->i", self._x, self._x)
        self._cols = np.ascontiguousarray(self._x.T)
        self._tree = self._build_tree()
        return self

    def _build_tree(self) -> cKDTree | None:
        """The fitted pool's candidate tree, or ``None`` where it has no route.

        Only a float64 pool of at least ``k +`` :data:`TREE_SURPLUS`
        points gets one; float32 and smaller pools always search by
        brute force.
        """
        if self._x is None or self._x.dtype != np.float64:
            return None
        if self._x.shape[0] < self.k + TREE_SURPLUS:
            return None
        return cKDTree(self._x)

    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has stored a training pool."""
        return self._x is not None

    @property
    def n_training_samples(self) -> int:
        """Size of the stored training pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        return self._x.shape[0]

    @property
    def training_points(self) -> np.ndarray:
        """The fitted ``(n, q)`` training pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        return self._x

    @property
    def training_labels(self) -> np.ndarray:
        """The fitted class-code vector, shape ``(n,)``.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._y is None:
            raise RuntimeError("classifier not fitted")
        return self._y

    @property
    def training_sq_norms(self) -> np.ndarray:
        """Per-fit cached ``‖b‖²`` of the training pool, shape ``(n,)``.

        The constant term of the ``‖a‖² + ‖b‖² − 2a·bᵀ`` distance
        expansion, computed once in :meth:`fit` and read by every
        :meth:`kneighbors_rows` call instead of re-reducing the pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._sq_norms is None:
            raise RuntimeError("classifier not fitted")
        return self._sq_norms

    @property
    def dtype(self) -> np.dtype:
        """Float dtype of the fitted training pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        return self._x.dtype

    @property
    def block_rows(self) -> int:
        """Query rows per distance block of :meth:`kneighbors_rows`.

        As many rows as fit :data:`BLOCK_BYTES` of distances against the
        fitted pool (at least one, at most ``chunk_size``): 300 float64
        or 601 float32 rows for a 327-point pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        row_bytes = self._x.shape[0] * self._x.dtype.itemsize
        return min(self.chunk_size, max(1, BLOCK_BYTES // row_bytes))

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _workspace(self, rows: int) -> np.ndarray:
        """This thread's ``(2, r, n)`` distance workspace, ``r >= rows``.

        Its two halves are a block's distance buffer and outer-product
        temporary.  Kept per thread, so concurrent searches on one
        classifier never share it, and reused across calls: it is
        allocated only when the thread has none yet, its rows are too
        few, or the pool's width or dtype changed since (a refit).
        """
        work = getattr(self._local, "work", None)
        n, dtype = self._x.shape[0], self._x.dtype
        if work is None or work.shape[1] < rows or work.shape[2] != n or work.dtype != dtype:
            work = self._local.work = np.empty((2, rows, n), dtype=dtype)
        return work

    def _topk_into(self, d2: np.ndarray, idx_out: np.ndarray, dist_out: np.ndarray) -> None:
        """Select the k nearest per row of a squared-distance chunk.

        *d2* has shape ``(c, n)``; writes the neighbor indices and
        (square-rooted) distances into the ``(c, k)`` output slices,
        ordered by (squared distance, pool index).  Each of the k passes
        takes the row-wise ``argmin`` — the first of equal minima, so
        ties go to the lower pool index — records it, and overwrites the
        chosen entry with ``+inf``: *d2* is the caller's private chunk
        and is left modified.  Every step is row-wise, so selection is
        batch-size-invariant.

        A row whose distances overflowed to ``+inf`` cannot tell its
        remaining entries from the masked ones; its unfilled slots take
        the lowest pool indices not yet chosen, which is the order the
        tie rule gives equal ``+inf`` distances.
        """
        rows = np.arange(d2.shape[0])
        for j in range(self.k):
            col = d2.argmin(axis=1)
            idx_out[:, j] = col
            dist_out[:, j] = d2[rows, col]
            if j + 1 < self.k:
                d2[rows, col] = np.inf
        np.sqrt(dist_out, out=dist_out)
        for r in np.flatnonzero(np.isposinf(dist_out[:, -1])):
            reached = ~np.isposinf(dist_out[r])
            free = np.ones(d2.shape[1], dtype=bool)
            free[idx_out[r, reached]] = False
            idx_out[r, ~reached] = np.flatnonzero(free)[: self.k - reached.sum()]

    def kneighbors_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k nearest training points.

        *x* is row-per-sample, shape ``(m, q)``.  Returns
        ``(indices, distances)``, both of shape ``(m, k)``, neighbors
        sorted by increasing distance, equal distances by increasing
        pool index (the module's tie rule).  Queries are routed through
        the fitted pool's dtype (a float32 model computes float32
        distances instead of silently upcasting), and the pool's columns
        and ``‖b‖²`` term come from the per-fit cache.

        A float64 call of at least :data:`TREE_MIN_ROWS` rows takes the
        tree route (:meth:`_kneighbors_tree`); every other call, and
        every row the tree route cannot verify, takes the blocked
        brute-force search (:meth:`_kneighbors_brute`).  The two give
        the same neighbors and distance bits, so row *i*'s result is
        bit-identical whether it arrives alone, inside a drained batch,
        or in a stacked fleet — and wherever a block boundary or
        *chunk_size* splits the queries.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        x = _check_matrix(x, dtype=self._x.dtype)
        if x.shape[1] != self._x.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {self._x.shape[1]}")
        if self._tree is not None and x.shape[0] >= TREE_MIN_ROWS:
            return self._kneighbors_tree(x)
        return self._kneighbors_brute(x)

    def _kneighbors_brute(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocked brute-force search: the reference and the fallback.

        *x* is a checked ``(m, q)`` query matrix at the pool's dtype.
        The queries are searched in blocks of :attr:`block_rows` rows,
        each assembled in the calling thread's reused workspace (two
        ``(block_rows, n)`` buffers, at most 2 × :data:`BLOCK_BYTES`
        unless one pool row alone is larger), so concurrent calls from
        different threads are safe.  Distances are the
        :func:`rowwise_sq_distances` formula, bit for bit, and top-k
        selection (k masked ``argmin`` passes) is row-wise.
        """
        m = x.shape[0]
        indices = np.empty((m, self.k), dtype=np.int64)
        distances = np.empty((m, self.k), dtype=self._x.dtype)
        rows = self.block_rows
        out, tmp = self._workspace(min(rows, m))
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            d2 = _sq_distances(x[start:stop], self._cols, self._sq_norms, out, tmp)
            self._topk_into(d2, indices[start:stop], distances[start:stop])
        return indices, distances

    def _kneighbors_tree(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The float64 tree route: the tree proposes, the kernel decides.

        dtype: float64

        *x* is a checked float64 ``(m, q)`` query matrix.  The pool's
        ``cKDTree`` proposes the ``k +`` :data:`TREE_SURPLUS` nearest
        candidates of each row, and :func:`_candidate_sq_distances`
        recomputes their squared distances in :func:`_sq_distances`'
        element order, ``(−2a₀)·b₀ + (−2a₁)·b₁ + … + ‖a‖² + ‖b‖²``
        clamped at 0, so each is the brute-force kernel's value, bit
        for bit.  The top k are the ones the k masked ``argmin``
        passes would pick: the candidates are sorted by (squared
        distance, pool index), so among equal distances the lowest pool
        index comes first, the module's tie rule.

        Why a kept row is exact: let *D* be the true squared distance,
        *D̂* the kernel's and *D̃* the tree's, and
        ``e = 256·ε·(‖a‖² + max‖b‖²)``.  Both computations round a
        handful of terms, each at most ``‖a‖² + max‖b‖²`` in size (the
        tree also updates its pruning bounds once per level), so
        ``|D̂ − D| ≤ e`` and ``|D̃ − D| ≤ e`` with a wide safety factor
        for pools of a few dimensions and a tree of a few dozen levels.
        A pool point *p* the tree did not propose has ``D̃(p)`` (or its
        pruned node's bound) at least the largest candidate's ``D̃``,
        so ``D̂(p) ≥ max D̂(candidates) − 4e``.  A row is kept only if
        its k-th candidate ``D̂`` plus the margin ``4e`` (and the
        smallest normal float, for underflow) is below its largest
        candidate ``D̂``; then every point outside the candidates is
        strictly farther than the k-th neighbor, and the kernel's top k
        over the whole pool — ordered by (``D̂``, pool index) — are the
        top k over the candidates.  Every other row (a tie spanning
        all candidates, or magnitudes so large that the margin swamps
        the gaps) is searched again by :meth:`_kneighbors_brute`,
        whose per-row results do not depend on the batch.
        """
        k = self.k
        _, cand = self._tree.query(x, k=k + TREE_SURPLUS)
        d2, aa = _candidate_sq_distances(x, self._cols, self._sq_norms, cand)
        # Complex numbers sort by real part, then imaginary part, so one
        # sort of (squared distance + i·pool index) orders the candidates
        # by (squared distance, pool index): the order the k masked
        # argmin passes pick in.  Both parts are exact (pool indices are
        # far below 2⁵³).
        keyed = np.empty(cand.shape, dtype=np.complex128)
        keyed.real = d2
        keyed.imag = cand
        keyed.sort(axis=1)
        indices = keyed.imag[:, :k].astype(np.int64)
        distances = keyed.real[:, :k].copy()
        margin = (_MARGIN_ULPS * _F64.eps) * (aa + self._sq_norms.max()) + _F64.tiny
        # Written so that a NaN or +inf (overflowed) row fails the test.
        verified = distances[:, -1] + margin < keyed.real[:, -1]
        np.sqrt(distances, out=distances)
        if not verified.all():
            redo = np.flatnonzero(~verified)
            indices[redo], distances[redo] = self._kneighbors_brute(x[redo])
        return indices, distances

    def predict_rows(self, x: np.ndarray) -> np.ndarray:
        """Class codes for each test row (majority vote, deterministic ties).

        *x* is row-per-sample, shape ``(m, q)``; returns the length-``m``
        class vector ``C`` (the paper's ``C(1×m)`` stage output) via
        :meth:`kneighbors_rows` and :meth:`vote`, so row *i*'s class is
        bit-identical for any batch size.
        """
        indices, distances = self.kneighbors_rows(x)
        return self.vote(indices, distances)

    def vote(self, indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """Class codes from precomputed ``(m, k)`` neighbor indices/distances.

        This is the voting half of :meth:`predict_rows`, public so that
        tracing and cost accounting can time it apart from the neighbor
        search.  The rule: most votes win; among tied vote counts the
        class with the smaller summed neighbor distance wins, then the
        smaller class code.  The paper's unweighted ``k = 3`` takes the
        closed form of that rule (:meth:`_vote3`); ``k != 3`` and the
        weighted ablation count votes per class
        (:meth:`_vote_counting`, :meth:`_predict_weighted`).  Every
        form operates row-independently, so voting on stacked rows is
        bit-identical to voting per run.  The returned array is freshly
        allocated.
        """
        if self._y is None:
            raise RuntimeError("classifier not fitted")
        if self.weighted:
            return self._predict_weighted(self._y[indices], distances, int(self._y.max()) + 1)
        if self.k == 3:
            return self._vote3(indices, distances)
        return self._vote_counting(indices, distances)

    def _vote3(self, indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """The unweighted ``k = 3`` vote in closed form.

        With three neighbors the counting rule of :meth:`vote` reduces
        to: three equal labels win; otherwise a pair wins (two votes
        beat one); otherwise each class has one vote and a summed
        distance that is its one neighbor's, so the least (distance,
        class code) wins.  Nothing here assumes the distances are
        sorted.  Three distinct labels are rare on real traffic (0.2% of
        the out-of-distribution rows of a synthetic fleet), so only
        those rows are gathered for the distance comparison.  Of them,
        a row holding a NaN distance goes to :meth:`_vote_counting`: the
        counting loop's comparisons are false against NaN, so its answer
        there depends on the order it visits the classes in.  (Where a
        pair or three agree, votes alone decide, NaN or not.)
        """
        labels = self._y[indices]
        l0, l1, l2 = labels[:, 0], labels[:, 1], labels[:, 2]
        # Three equal, or any pair: l1 == l2 alone leaves l0 the odd one
        # out, and otherwise l0 is in the pair if there is one.
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
                best[redo] = self._vote_counting(indices[redo], distances[redo])
        return best

    def _vote_counting(self, indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """The unweighted vote for any *k*, by counting votes per class.

        One ``bincount`` of (row, class) keys counts the votes, one
        ``np.add.at`` sums each class's neighbor distances at the
        distances' dtype, and a loop over the classes keeps the best of
        (most votes, smallest distance sum), the first class winning
        exact ties.
        """
        neighbor_labels = self._y[indices]  # (m, k)
        m = neighbor_labels.shape[0]
        n_classes = int(self._y.max()) + 1
        keys = (np.arange(m)[:, None] * n_classes + neighbor_labels).ravel()
        votes = np.bincount(keys, minlength=m * n_classes).reshape(m, n_classes)
        dist_sums = np.zeros((m, n_classes), dtype=distances.dtype)
        np.add.at(
            dist_sums,
            (np.repeat(np.arange(m), self.k), neighbor_labels.ravel()),
            distances.ravel(),
        )
        best = np.full(m, -1, dtype=np.int64)
        best_votes = np.full(m, -1, dtype=np.int64)
        best_dist = np.full(m, np.inf, dtype=distances.dtype)
        for c in range(n_classes):
            v = votes[:, c]
            d = np.where(v > 0, dist_sums[:, c], np.inf)
            better = (v > best_votes) | ((v == best_votes) & (d < best_dist))
            best = np.where(better, c, best)
            best_votes = np.where(better, v, best_votes)
            best_dist = np.where(better, d, best_dist)
        return best

    def _predict_weighted(
        self, neighbor_labels: np.ndarray, distances: np.ndarray, n_classes: int
    ) -> np.ndarray:
        """Inverse-distance-weighted voting (ablation variant).

        *neighbor_labels* and *distances* both have shape ``(m, k)``.
        Exact matches dominate: in any row containing zero-distance
        neighbors, only those neighbors vote (each with unit weight), so
        an exact training-pool hit can never be outvoted by a cloud of
        merely-near neighbors.  Ties break exactly like the unweighted
        path: higher score, then smaller summed neighbor distance, then
        smaller class code.
        """
        m = neighbor_labels.shape[0]
        dtype = distances.dtype
        rows = np.repeat(np.arange(m), self.k)
        # Distances come out of kneighbors_rows clipped at zero, so <= 0 is
        # the exact-match condition.
        exact = distances <= 0.0
        has_exact = exact.any(axis=1)
        safe = np.where(exact, dtype.type(1.0), distances)  # avoid 0-division; masked below
        weights = np.where(has_exact[:, None], exact.astype(dtype), dtype.type(1.0) / safe)
        scores = np.zeros((m, n_classes), dtype=dtype)
        np.add.at(scores, (rows, neighbor_labels.ravel()), weights.ravel())
        # Distance sums over *contributing* neighbors only (tie-break 1).
        dist_sums = np.zeros((m, n_classes), dtype=dtype)
        np.add.at(
            dist_sums,
            (rows, neighbor_labels.ravel()),
            np.where(weights > 0.0, distances, dtype.type(0.0)).ravel(),
        )
        best = np.full(m, -1, dtype=np.int64)
        best_score = np.full(m, -np.inf, dtype=dtype)
        best_dist = np.full(m, np.inf, dtype=dtype)
        for c in range(n_classes):
            s = scores[:, c]
            d = np.where(s > 0.0, dist_sums[:, c], np.inf)
            better = (s > best_score) | ((s == best_score) & (d < best_dist))
            best = np.where(better, c, best)
            best_score = np.where(better, s, best_score)
            best_dist = np.where(better, d, best_dist)
        return best

    def predict_one(self, point: np.ndarray) -> int:
        """Convenience: classify a single feature vector of shape ``(q,)``."""
        dtype = self._x.dtype if self._x is not None else np.dtype(np.float64)
        point = np.asarray(point, dtype=dtype)
        if point.ndim != 1:
            raise ValueError("predict_one expects a 1-D feature vector")
        return int(self.predict_rows(point[None, :])[0])

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on labelled data.

        dtype: float64

        *x* is row-per-sample, shape ``(m, q)``; *y* the length-``m``
        ground-truth class vector.  Accuracy is a scalar diagnostic,
        always accumulated at float64 regardless of the model dtype.
        """
        y = np.asarray(y, dtype=np.int64)
        pred = self.predict_rows(x)
        if pred.shape != y.shape:
            raise ValueError("label shape mismatch")
        return float(np.mean(pred == y))
