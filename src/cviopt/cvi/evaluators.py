"""Incremental index evaluation for single-point relocation moves.

Every evaluator keeps sufficient statistics of the current partition so
that ``peek`` (value after a hypothetical move), ``scan`` (the values of
all moves) and ``commit`` (apply a move) are much cheaper than
from-scratch evaluations.  The contract is semantic: after any sequence of
commits, ``value()`` agrees with the definitional implementation in
:mod:`cviopt.cvi.indices` to 1e-9 relative.

Each index has one move formula: every evaluator defines ``_scan`` (the
moves of some points to some targets, at once).  ``scan`` keeps its table
until the next commit, and ``peek`` and ``commit`` read their move's cell
from it, or, with no table, one cell of a one-point scan.  Silhouette,
SilhouetteW, DaviesBouldin and GDunn scan in row blocks of at most
``geometry._BLOCK_CELLS`` cells.  The silhouettes build per-column vectors
once per (source, target) pair, so a cell takes a few in-place passes; at
k = 2 a cell is the signed gap of two tables, one per cluster, in work
blocks the evaluator keeps from scan to scan.  DaviesBouldin and the 15
GDunn variants share one scan: per target it first sums the target's
post-move spread for every move, then builds the post-move per-cluster
statistics of a block of moves and applies the index's formula to all of
them at once; distances to centroids come from ``cdist``, which adds the
squares in the order ``_dist`` does.

Evaluators assume distinct points (the preprocessing jitter guarantees
this); they are single-threaded mutable state, while the underlying
Dataset, distance matrix, NN graph and edge layouts are immutable and
shared.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .. import owa
from ..dataio import Dataset
from ..geometry import DistanceProvider, _read_only, emst, row_blocks
from ..nngraph import edges_for, knn_for
from ..partition import Move, Partition, check_move, from_labels
from . import indices
from .specs import CVISpec

_INF = float("inf")
_MIN = owa.OWASpec("Min")


class CVIEvaluator:
    """Base class: move validation, label bookkeeping, value caching."""

    def __init__(self, spec: CVISpec, ds: Dataset, part: Partition) -> None:
        self.spec = spec
        self.ds = ds
        self._labels = part.labels.copy()
        self._sizes = part.sizes.astype(np.int64).copy()
        self._k = part.k
        self._n = part.n
        self._table: np.ndarray | None = None  # the last scan(), until a commit
        self._init_state()
        self._value = float(self._full_value())

    # -- public API -----------------------------------------------------

    def value(self) -> float:
        return self._value

    @property
    def labels(self) -> np.ndarray:
        view = self._labels.view()
        view.flags.writeable = False
        return view

    @property
    def sizes(self) -> np.ndarray:
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    @property
    def k(self) -> int:
        return self._k

    def partition(self) -> Partition:
        return from_labels(self._labels, self._k)

    def peek(self, m: Move) -> float:
        """Value the index would take after ``m``, without mutating state."""
        check_move(self._labels, self._sizes, self._k, m)
        return self._cell(m)

    def scan(self) -> np.ndarray:
        """Value of every move as a read-only (n, k) array: ``out[p, j]`` is
        ``peek(Move(p, labels[p], j))``, bit for bit; -inf in the own-cluster
        cell and in every cell of a point whose cluster is a singleton.
        ``peek`` and ``commit`` read their move's cell until the next commit."""
        out = self._scan(np.arange(self._n), range(self._k))
        out[np.arange(self._n), self._labels] = -_INF
        out[self._sizes[self._labels] < 2] = -_INF
        out.flags.writeable = False
        self._table = out
        return out

    def commit(self, m: Move) -> None:
        """Advance to the post-move partition; value() becomes peek(m)."""
        check_move(self._labels, self._sizes, self._k, m)
        v = self._cell(m)
        self._table = None
        self._labels[m.point] = m.dst
        self._sizes[m.src] -= 1
        self._sizes[m.dst] += 1
        self._apply(m)
        self._value = v

    def _cell(self, m: Move) -> float:
        """Value after the valid move ``m``: its cell of the last scan, or
        one cell of a one-point scan."""
        if self._table is None:
            return float(self._scan(np.array([m.point]), (m.dst,))[0, m.dst])
        return float(self._table[m.point, m.dst])

    # -- subclass hooks ---------------------------------------------------

    def _init_state(self) -> None:
        raise NotImplementedError

    def _full_value(self) -> float:
        raise NotImplementedError

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        """The ``scan`` rows of ``points``, as a (len(points), k) array, in
        its valid cells of the columns ``targets``, a peek each; the other
        cells may hold anything.  The moves are valid by construction, so
        ``check_move`` is skipped."""
        raise NotImplementedError

    def _apply(self, m: Move) -> None:
        """Refresh sufficient statistics; called with labels/sizes already
        updated to the post-move partition."""
        raise NotImplementedError


class _CentroidSSEvaluator(CVIEvaluator):
    """Shared machinery for indices built on per-cluster sums of squares.

    Points are centered once: all such indices are translation-invariant
    and centering keeps the sq - |t|^2/n cancellation well conditioned.
    The index sums per-cluster ``_terms()``, kept with their total.
    """

    def _init_state(self) -> None:
        self._pts = self.ds.points - self.ds.points.mean(axis=0)
        self._sqnorm = (self._pts**2).sum(axis=1)
        self._t = np.zeros((self._k, self.ds.d))
        self._sq = np.zeros(self._k)
        self._refresh(range(self._k))

    def _apply(self, m: Move) -> None:
        self._refresh((m.src, m.dst))

    def _refresh(self, rows) -> None:
        for j in rows:
            mask = self._labels == j
            self._t[j] = self._pts[mask].sum(axis=0)
            self._sq[j] = self._sqnorm[mask].sum()
        self._per = self._terms()
        self._total = self._per.sum()


class BallHallEvaluator(_CentroidSSEvaluator):
    def _terms(self) -> np.ndarray:
        return (self._sq - (self._t**2).sum(axis=1) / self._sizes) / self._sizes

    def _full_value(self) -> float:
        return -self._total

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # the total less the terms of a and j, plus their post-move terms:
        # the source term per point, the destination term per column
        lab, sizes, per, total = self._labels[points], self._sizes, self._per, self._total
        x, xsq = self._pts[points], self._sqnorm[points]
        out = np.empty((len(points), self._k))
        with np.errstate(divide="ignore", invalid="ignore"):
            n_src = sizes[lab] - 1
            t_src = ((self._t[lab] - x) ** 2).sum(axis=1)
            src = (self._sq[lab] - xsq - t_src / n_src) / n_src
            per_src = per[lab]
            for j in targets:
                n_dst = sizes[j] + 1
                t_dst = ((self._t[j] + x) ** 2).sum(axis=1)
                dst = (self._sq[j] + xsq - t_dst / n_dst) / n_dst
                out[:, j] = -(total - (per_src + per[j]) + src + dst)
        return out


class CalinskiHarabaszEvaluator(_CentroidSSEvaluator):
    def _init_state(self) -> None:
        super()._init_state()
        self._tss = float(self._sqnorm.sum())

    def _ch(self, bcss):
        wcss = self._tss - np.asarray(bcss)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(wcss <= 0.0, _INF, (self._n - self._k) / (self._k - 1) * bcss / wcss)

    def _terms(self) -> np.ndarray:
        return (self._t**2).sum(axis=1) / self._sizes

    def _full_value(self) -> float:
        return self._ch(float(self._total))

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # as in BallHallEvaluator._scan
        lab, sizes, x = self._labels[points], self._sizes, self._pts[points]
        own, bcss = self._per, float(self._total)
        out = np.empty((len(points), self._k))
        with np.errstate(divide="ignore", invalid="ignore"):
            src = ((self._t[lab] - x) ** 2).sum(axis=1) / (sizes[lab] - 1)
            rest = bcss - own[lab]
            for j in targets:
                dst = ((self._t[j] + x) ** 2).sum(axis=1) / (sizes[j] + 1)
                out[:, j] = self._ch(rest - own[j] + (src + dst))
        return out


class SilhouetteEvaluator(CVIEvaluator):
    """O(nk) update via per-point sums of distances to every cluster."""

    weighted = False

    def _init_state(self) -> None:
        self._dp = DistanceProvider(self.ds)
        self._dsum = self._dp.cluster_sums(self._labels, self._k)
        self._means()
        # _scan's row blocks: 4 work blocks, and at k = 2 the 5 vectors of
        # _columns tiled to a block; kept from scan to scan, as the heap
        # hands a fresh array this large back to the kernel when it is
        # freed, and its pages then fault in again on every scan
        self._work = np.empty((9 if self._k == 2 else 4, 0, self._n))

    def _means(self) -> None:
        """Each point's mean distances to the clusters, inf at its own
        (``_mean_to``), and to the other members of its own (``_intra``)."""
        ar, lab, sizes = np.arange(self._n), self._labels, self._sizes
        with np.errstate(divide="ignore", invalid="ignore"):
            self._mean_to = self._dsum / sizes[None, :]
            self._intra = self._dsum[ar, lab] / (sizes[lab] - 1)
        self._mean_to[ar, lab] = np.inf

    def _full_value(self) -> float:
        a, b, n_own = self._intra, self._mean_to.min(axis=1), self._sizes[self._labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            den = np.maximum(a, b)
            s = np.where(den > 0.0, (b - a) / den, 0.0)
        s[n_own == 1] = 0.0
        if not self.weighted:
            return float(s.mean())
        effective = self._k - int((self._sizes == 1).sum())
        if effective < 1:
            return -_INF
        return float((s / n_own).sum() / effective)

    def _apply(self, m: Move) -> None:
        row = self._dp.row(m.point)
        self._dsum[:, m.src] -= row
        self._dsum[:, m.dst] += row
        self._means()

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # _full_value's terms for a row block of moving points p, all from
        # one source cluster a, one target j at a time.  A move p: a -> j
        # changes only columns a and j of dsum, by -d and +d (d: p's
        # distance row), and every other point q stays in its cluster.  So
        # q's intra mean becomes (own + sign * d) / size, and its nearest
        # mean the least of a's changed mean (unless q is in a), j's (unless
        # q is in j) and rest, from the per-column vectors of _columns.
        # With no third cluster (k = 2), q's two means are one table each,
        # A = (dsum[:, a] - d) / c_a and B = (dsum[:, j] + d) / c_b, and
        # its term is +-(B - A) / max(A, B): +1 in a, -1 in j, the same
        # bits, as round-to-nearest subtraction is sign-symmetric; B is
        # built in the block's own copy of the rows, and the per-column
        # vectors are tiled to the block's shape, as a ufunc loops over the
        # rows of a broadcast operand one by one.  Each cell takes a few
        # in-place passes over the block; post-move singleton columns score
        # 0, and p's own column (p sits in j) is scored apart.
        n, lab, sizes, dsum = self._n, self._labels, self._sizes, self._dsum
        src = lab[points]
        out = np.full((len(points), self._k), -_INF)
        for a in np.unique(src[sizes[src] >= 2]).tolist():
            to_a = np.where(lab == a, np.inf, dsum[:, a])
            blocks = row_blocks(np.flatnonzero(src == a), n)
            cols = {j: self._columns(a, j) for j in targets if j != a}
            if self._work.shape[1] < len(blocks[0]):
                self._work = np.empty((len(self._work), len(blocks[0]), n))
            buf, tiles = np.split(self._work[:, : len(blocks[0])], [4])
            if self._k == 2:
                for terms, *_ in cols.values():  # the one target's
                    tiles[:] = terms[:, None]
            for rows in blocks:
                block = points[rows]
                rr = np.arange(len(block))
                dist = self._dp.rows(block)
                away, intra, near, den = buf[:, : len(block)]
                to_p = dist[rr, block]
                with np.errstate(divide="ignore", invalid="ignore"):
                    away_p = (dsum[block, a] - to_p) / (sizes[a] - 1)
                    if self._k > 2:  # a's changed mean, inf in a's columns
                        np.subtract(to_a, dist, out=away)
                        away /= sizes[a] - 1
                    for j, (terms, single, n_own, effective) in cols.items():
                        if self.weighted and effective < 1:
                            continue
                        if self._k == 2:
                            sum_a, sum_j, c_a, c_b, sgn = tiles[:, : len(block)]
                            np.subtract(sum_a, dist, out=intra)
                            intra /= c_a
                            near = dist
                            near += sum_j
                            near /= c_b
                            np.maximum(intra, near, out=den)
                            near -= intra
                            near *= sgn
                            near_p = away_p
                        else:
                            sign, own, size, to_j, rest = terms
                            np.multiply(dist, sign, out=intra)
                            intra += own
                            intra /= size
                            np.add(to_j, dist, out=near)
                            near /= sizes[j] + 1
                            np.minimum(away, near, out=near)
                            np.minimum(near, rest, out=near)
                            np.maximum(intra, near, out=den)
                            near -= intra
                            near_p = np.minimum(away_p, rest[block])
                        # 0 where den <= 0 (duplicate points) or NaN: rare,
                        # so patched after a plain divide, which is several
                        # times faster than one with where=
                        s = np.divide(near, den, out=intra)
                        positive = den > 0.0
                        if not positive.all():
                            s[~positive] = 0.0
                        if len(single):
                            s[:, single] = 0.0
                        intra_p = (dsum[block, j] + to_p) / sizes[j]
                        den_p = np.maximum(intra_p, near_p)
                        s[rr, block] = s_p = np.where(den_p > 0.0, (near_p - intra_p) / den_p, 0.0)
                        if not self.weighted:
                            out[rows, j] = s.mean(axis=1)
                            continue
                        s /= n_own
                        s[rr, block] = s_p / (sizes[j] + 1)
                        out[rows, j] = s.sum(axis=1) / effective
        return out

    def _columns(self, a: int, j: int) -> tuple:
        """Per-column vectors of the moves a -> j, then the post-move
        singleton columns and cluster sizes, and the count of clusters that
        are not singletons after the move.  For k = 2 the vectors are the
        rows of a (5, n) array: dsum's columns a and j, the divisors of the
        two tables (a's members leave one more point in a and join one more
        in j) and the sign of the term.  For k > 2 they are each point's
        intra sum ``own``, its ``sign`` in the move and the ``size`` it is
        divided by; its sum to j, inf for j's members; and ``rest``, its
        least mean over the clusters other than a, j and its own."""
        lab, sizes, dsum = self._labels, self._sizes, self._dsum
        in_a, in_j = lab == a, lab == j
        sizes2 = sizes.copy()
        sizes2[a] -= 1
        sizes2[j] += 1
        n_own = sizes2[lab]
        if self._k == 2:
            terms = np.array(
                [dsum[:, a], dsum[:, j], sizes[a] - 1 - in_a, sizes[j] + in_a, np.where(in_a, 1.0, -1.0)]
            )
        else:
            others = [c for c in range(self._k) if c not in (a, j)]
            terms = (
                in_j - in_a.astype(np.float64),
                np.where(in_a, dsum[:, a], np.where(in_j, dsum[:, j], self._intra)),
                np.where(in_a, sizes[a] - 2, np.where(in_j, sizes[j], 1)).astype(np.float64),
                np.where(in_j, np.inf, dsum[:, j]),
                self._mean_to.T[others].min(axis=0),
            )
        return (
            terms,
            np.flatnonzero(n_own == 1),
            n_own.astype(np.float64),
            self._k - int((sizes2 == 1).sum()),
        )


class SilhouetteWEvaluator(SilhouetteEvaluator):
    weighted = True


def _dist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points ``u`` and ``v``, broadcast
    over their leading axes, for the shapes ``cdist`` does not take (pairs
    row by row, centroid gaps).  The squares are added coordinate by
    coordinate, whatever the shapes, as ``cdist`` adds them, so both give
    the same bits at any d (``np.linalg.norm`` switches to pairwise
    summation from d = 8), and no (..., d) difference array is made."""
    acc = 0.0
    for c in range(u.shape[-1]):
        diff = u[..., c] - v[..., c]
        acc = acc + diff * diff
    return np.sqrt(acc)


def _centroid_gaps(t: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(..., k, k) distances between the centroids ``t / sizes``."""
    cents = t / sizes[..., None]
    return _dist(cents[..., :, None, :], cents[..., None, :, :])


def _incidence(u: np.ndarray, v: np.ndarray, n: int):
    """The edges (u, v) listed once from each end, grouped by point, as
    (end, edge, other end, starts): the incidences of point p are the
    slice ``starts[p]:starts[p + 1]``, in edge order."""
    ends = np.concatenate([u, v])
    # the stable sort of the ends as the smallest unsigned type that holds
    # n gives the same permutation, and numpy radix-sorts keys of at most
    # 16 bits, in linear time, where it timsorts int64 ones
    by_point = np.argsort(ends.astype(np.min_scalar_type(n)), kind="stable")
    edge = np.tile(np.arange(len(u)), 2)[by_point]
    starts = np.searchsorted(ends[by_point], np.arange(n + 1))
    return ends[by_point], edge, np.concatenate([v, u])[by_point], starts


class _EdgeLayout:
    """The label-independent half of an ``_EdgeSplit``: a fixed edge set
    (u, v, w) ranked by weight, stably, so equal weights keep distinct
    ranks, and its ``_incidence``.  Built once per dataset and edge set
    (``Dataset.cached``) and shared, read-only."""

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> None:
        order = np.argsort(w, kind="stable")
        self.u, self.v, self.w = (_read_only(a[order]) for a in (u, v, w))
        incidence = map(_read_only, _incidence(self.u, self.v, n))
        self.ends, self.ranks, self.opps, self.offsets = incidence
        self.starts = tuple(self.offsets.tolist())  # Python ints slice fastest
        self.degree = int(np.diff(self.offsets).max())


class _EdgeSplit:
    """An ``_EdgeLayout`` split by a labeling into a cross-cluster side (0)
    and a within-cluster side (1).

    Each side is the sorted array of its edges' ranks, so its extreme
    weights sit at its ends.  A move of point p flips only p's incident
    edges from one side to the other.
    """

    def __init__(self, layout: _EdgeLayout, labels: np.ndarray) -> None:
        self._u, self._v, self._w = layout.u, layout.v, layout.w
        self._ends, self._ranks, self._opps = layout.ends, layout.ranks, layout.opps
        self._offsets, self._starts, self._degree = layout.offsets, layout.starts, layout.degree
        self._within = labels[self._u] == labels[self._v]
        self._refresh()

    def _refresh(self) -> None:
        self._sides = (np.flatnonzero(~self._within), np.flatnonzero(self._within))
        self._sums = tuple(float(self._w[r].sum()) for r in self._sides)

    def flips(self, labels: np.ndarray, p: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Ranks of p's edges that turn cross and that turn within when p
        moves from cluster a to b.  p is never its own neighbour, so the
        pre-move and the post-move labels give the same answer."""
        s, e = self._starts[p], self._starts[p + 1]
        lab, inc = labels[self._opps[s:e]], self._ranks[s:e]
        return inc[lab == a], inc[lab == b]

    def commit(self, to_cross: np.ndarray, to_within: np.ndarray) -> None:
        self._within[to_cross] = False
        self._within[to_within] = True
        self._refresh()

    def value(self, spec: owa.OWASpec, side: int) -> float:
        """OWA of the side's weights; NaN when the side is empty, but for
        Const, which is 1."""
        ranks = self._sides[side]
        if not len(ranks) and not spec.is_const:
            return np.nan
        return owa.aggregate(spec, self._w[ranks])

    def scan_side(self, spec: owa.OWASpec, side: int, labels, p, rm, add) -> np.ndarray:
        """``value`` of the side, NaN where it ends empty, after each move
        of a point ``p[r]`` that takes its edges into cluster ``rm[r]`` out
        of the side and its edges into ``add[r]`` in."""
        if spec.is_const:
            return np.ones(len(p))
        if spec.kind == "Mean":
            return self._scan_mean(side, labels, p, rm, add)
        # the t extreme weights after the move lie among the side's
        # t + degree extreme ranks less the removed ones, and the added
        # ones; a lower rank never has a larger weight.  Ranks are keyed by
        # nearness to the extreme, so the extremes sort first and the key
        # e, which no edge has, pads.
        t, e = (1 if spec.delta is None else 3 * spec.delta), len(self._w)
        low = spec.kind in ("Min", "SMin")
        near = (self._sides[side] if low else self._sides[side][::-1])[: t + self._degree]
        u, v = self._u[near], self._v[near]
        lab_u, lab_v = labels[u], labels[v]
        key = near if low else e - 1 - near
        t = min(t, len(near) + self._degree)
        pick = np.empty((len(p), t), dtype=np.int64)
        for r in row_blocks(np.arange(len(p)), len(near) + 3 * self._degree):
            pr, rm_r = p[r, None], rm[r, None]
            inc, lab = self._incident(labels, p[r])
            gained = lab == add[r, None]
            inc = inc if low else e - 1 - inc
            lost = (u == pr) & (lab_v == rm_r) | (v == pr) & (lab_u == rm_r)
            cand = np.concatenate([np.where(lost, e, key), np.where(gained, inc, e)], axis=1)
            cand = np.partition(cand, t - 1, axis=1)[:, :t]
            cand.sort(axis=1)
            pick[r] = cand
        vals = np.append(self._w if low else self._w[::-1], np.nan)[pick]
        if spec.delta is None:
            return vals[:, 0]
        # owa.aggregate's dot over the min(t, z) extremes: vecdot runs the
        # same ddot on each row (a matrix product may add in another order)
        out, m = np.full(len(p), np.nan), (pick < e).sum(axis=1)
        for size in np.unique(m[m > 0]).tolist():
            w, rows = owa.smooth_extreme_weights(spec.delta, size), np.flatnonzero(m == size)
            out[rows] = np.vecdot(vals[rows, :size], w)
        return out

    def _incident(self, labels: np.ndarray, p: np.ndarray):
        """(len(p), degree) ranks of each point's edges, in incidence order,
        and the labels of their other ends; -1 labels pad short rows."""
        at = self._offsets[p, None] + np.arange(self._degree)
        pad = at >= self._offsets[p + 1, None]
        at[pad] = 0
        return self._ranks[at], np.where(pad, -1, labels[self._opps[at]])

    def _scan_mean(self, side: int, labels, p, rm, add) -> np.ndarray:
        # (sums - removed + added) / z, each move's removed and added
        # weights summed in incidence order: a row of a C-contiguous array
        # sums as that row alone does, so rows of one count sum at once
        out = np.empty(len(p))
        for r in row_blocks(np.arange(len(p)), 3 * self._degree):
            inc, lab = self._incident(labels, p[r])
            w, sums, counts = self._w[inc], [], []
            for cluster in (rm[r], add[r]):
                hit = lab == cluster[:, None]
                count, total = hit.sum(axis=1), np.zeros(len(r))
                for c in np.unique(count[count > 0]).tolist():
                    rows = count == c
                    total[rows] = w[rows][hit[rows]].reshape(-1, c).sum(axis=1)
                sums.append(total)
                counts.append(count)
            z = len(self._sides[side]) - counts[0] + counts[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[r] = np.where(z > 0, (self._sums[side] - sums[0] + sums[1]) / z, np.nan)
        return out

    def scan_cross(self, kind: str, labels: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
        """``value`` of a Min or Max cross side after each move of a point
        ``p[r]`` to each of the ``k`` clusters, as (len(p), k) weights, NaN
        where the side ends empty."""
        # moving p out of its cluster turns p's edges within it cross,
        # whatever the target, so the side gains their extreme rank
        pick = np.minimum if kind == "Min" else np.maximum
        none = len(self._w) if kind == "Min" else -1
        own = labels[self._ends] == labels[self._opps]
        added = np.full(len(labels), none)
        pick.at(added, self._ends[own], self._ranks[own])
        w = np.append(self._w, np.nan)  # both "no edge" ranks read NaN
        ranks = self._sides[0] if kind == "Min" else self._sides[0][::-1]
        if not len(ranks):
            return np.repeat(w[added[p], None], k, axis=1)
        # the side keeps its extreme edge (u, v) but in the moves of u to
        # v's cluster and of v to u's, which keep the first of its ranks
        # that does not turn within
        r = ranks[0]
        out = np.repeat(w[pick(added[p], r), None], k, axis=1)
        u, v = int(self._u[r]), int(self._v[r])
        for q, j in ((u, int(labels[v])), (v, int(labels[u]))):
            rows = p == q
            if rows.any():
                gone = set(self.flips(labels, q, int(labels[q]), j)[1].tolist())
                kept = next((x for x in ranks[: len(gone) + 1].tolist() if x not in gone), none)
                out[rows, j] = w[pick(added[q], kept)]
        return out


def _stack(v: np.ndarray, n: int) -> np.ndarray:
    """``n`` copies of ``v`` along a new leading axis."""
    return np.repeat(v[None], n, axis=0)


def _set_symmetric(m: np.ndarray, rr, i, row: np.ndarray) -> None:
    """Set row and column ``i[r]`` of each k x k matrix ``m[rr[r]]`` to ``row[r]``."""
    m[rr, i] = row
    m[rr, :, i] = row


class _ClusterStatsEvaluator(CVIEvaluator):
    """An index that is one formula, ``_value_of(st, sizes)``, over
    per-cluster statistics, broadcast over leading axes: ``value()``
    applies it to the current statistics and ``_scan`` to the post-move
    statistics of a row block of moves at once.

    ``needs`` names the statistics a subclass reads; ``st`` holds them:

    - ``cross``: the smallest cross-cluster MST edge weight (the closest
      cross-cluster pair always lies on the Euclidean MST), kept by an
      ``_EdgeSplit`` of the MST;
    - ``bmax``: k x k block distance maxima, off-diagonal blocks for
      ``bmax_off`` and diagonal ones (diameters) for ``bmax_diag``, NaN in
      the blocks not tracked, read off the n x k farthest-point matrix
      ``self._far``: ``_far[p, j]`` is the largest distance from p to a
      member of cluster j, so block (i, j) is the largest ``_far[p, j]``
      over the members p of i, and it can change when p leaves i only if
      ``_far[p, j]`` equals it;
    - ``bsum``: k x k block distance sums (the diagonal counts each pair twice);
    - ``t``/``sdc``: per-cluster point sums and distance-to-centroid sums.

    A commit recomputes the statistics of the two touched clusters from
    their members, so rounding never accumulates.
    """

    needs: frozenset = frozenset()

    def _init_state(self) -> None:
        k, needs = self._k, self.needs
        self._pts = self.ds.points
        self._dp = DistanceProvider(self.ds) if needs & {"bmax_off", "bmax_diag", "bsum"} else None
        self._mem: list = [None] * k
        st = self._st = {}
        if "cross" in needs:
            layout = self.ds.cached(
                ("edge-layout", "emst"), lambda: _EdgeLayout(*emst(self.ds), self._n)
            )
            self._mst = _EdgeSplit(layout, self._labels)
        for key, shape in (("bsum", (k, k)), ("t", (k, self.ds.d)), ("sdc", k)):
            if key in needs:
                st[key] = np.zeros(shape)
        if needs & {"bmax_off", "bmax_diag"}:
            eye = np.eye(k, dtype=bool)
            track = ("bmax_off" in needs) & ~eye | ("bmax_diag" in needs) & eye
            self._track = [np.flatnonzero(row).tolist() for row in track]
            st["bmax"] = np.full((k, k), np.nan)  # no distance equals NaN
            self._far = self._dp.cluster_maxima(self._labels, k)
        self._refresh(range(k))

    def _refresh(self, rows) -> None:
        """Recompute the members and the statistics of clusters ``rows``."""
        st, mem = self._st, self._mem
        for r in rows:
            mem[r] = np.flatnonzero(self._labels == r)
        for i, r in enumerate(rows):
            if "bsum" in st:
                # a block shared with an earlier row was summed from that row's
                # side; summing the transposed block can differ in the last bit
                for j in range(self._k):
                    if j not in rows[:i]:
                        st["bsum"][r, j] = st["bsum"][j, r] = self._dp.sub(mem[r], mem[j]).sum()
            if "t" in st:
                st["t"][r] = self._pts[mem[r]].sum(axis=0)
            if "sdc" in st:
                st["sdc"][r] = cdist(st["t"][r][None] / len(mem[r]), self._pts[mem[r]])[0].sum()
        if "cross" in self.needs:
            st["cross"] = self._mst.value(_MIN, 0)
        if "bmax" in st:
            for i in rows:
                # distances are symmetric to the bit, so a block reads the
                # same maximum from either of its clusters
                cols = self._track[i]
                st["bmax"][i, cols] = st["bmax"][cols, i] = self._far[mem[i]][:, cols].max(axis=0)

    def _block_max(self, i: int, j: int, rest: np.ndarray, gone: int):
        """Maximum of block (i, j) once ``gone`` leaves i, read off ``_far``:
        ``rest`` holds the other members of i, and j is i or a cluster that
        keeps its members."""
        far = self._far[rest, j]
        if j == i:
            # rows whose farthest was the gone point drop to their farthest
            # in rest, at most their old value; recompute only those that
            # could still reach the largest of the other rows
            stale = far == self._dp.row(gone)[rest]
            top = far[~stale].max(initial=-_INF)
            reach = np.flatnonzero(stale & (far >= top))
            far[stale] = -_INF
            for rows in row_blocks(reach, len(rest)):
                far[rows] = self._dp.sub(rest[rows], rest).max(axis=1)
        return far.max()

    def _value_of(self, st: dict, sizes: np.ndarray):
        raise NotImplementedError

    def _full_value(self) -> float:
        return float(self._value_of(self._st, self._sizes.astype(np.float64)))

    def _leave(self, p: np.ndarray, a: np.ndarray) -> dict:
        """The parts of the moves of ``p[r]`` out of cluster ``a[r]`` that do
        not depend on the target: the sdc and the bmax row of a less p;
        p's distance sums and farthest distances to every cluster; and the
        cross weight after each move, (len(p), k), from ``scan_cross``."""
        st, mem, lab = self._st, self._mem, self._labels
        out = {}
        if "cross" in st:
            out["cross"] = self._mst.scan_cross("Min", lab, p, self._k)
        if "bsum" in st:
            out["bsum"] = self._dp.cluster_sums(lab, self._k, p)
        if "sdc" in st:
            sdc = out["sdc"] = np.empty(len(p))
            for i in np.unique(a).tolist():
                x_i, m = self._pts[mem[i]], len(mem[i])
                for r in row_blocks(np.flatnonzero(a == i), m):
                    # distances of i's members to the centroids of i less
                    # each p, without p's own column
                    pos = np.searchsorted(mem[i], p[r])
                    dist = cdist((st["t"][i] - x_i[pos]) / (m - 1), x_i)
                    keep = np.ones(dist.shape, dtype=bool)
                    keep[np.arange(len(pos)), pos] = False
                    sdc[r] = dist[keep].reshape(len(pos), m - 1).sum(axis=1)
        if "bmax" in st:
            # a tracked block (a, j) changes only where p's farthest
            # distance into j equals its maximum (untracked ones are NaN)
            far = out["far"] = self._far[p]
            rows = out["bmax"] = st["bmax"][a]
            hit = far == rows
            for r in np.flatnonzero(hit.any(axis=1)).tolist():
                q, i = int(p[r]), int(a[r])
                rest = mem[i][mem[i] != q]
                for j in np.flatnonzero(hit[r]).tolist():
                    rows[r, j] = self._block_max(i, j, rest, q)
        return out

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # the post-move statistics of a row block of moves p: a -> j, one
        # target j at a time, from _leave's part of a; p joins j with its
        # point, its distance sums and its farthest points (a block (j, i)
        # can only grow, to p's farthest point in i; d(p, p) = 0, so the
        # pre-move member sets give the same maxima).  j's spread after
        # each move is summed first, in blocks of its members' distances,
        # so that the formula takes blocks of the k x (k + d) statistics
        k, st, mem = self._k, self._st, self._mem
        src = self._labels[points]
        movable = np.flatnonzero(self._sizes[src] >= 2)
        p, a = points[movable], src[movable]
        left = self._leave(p, a)
        sizes = self._sizes.astype(np.float64)
        out = np.full((len(points), k), -_INF)
        joined = np.empty(len(p))
        for j in targets:
            moves = np.flatnonzero(a != j)
            if "sdc" in st:
                # the members' distances to j's post-move centroids, then p's own
                m = len(mem[j])
                for r in row_blocks(moves, m + 1):
                    x = self._pts[p[r]]
                    cents = (st["t"][j] + x) / (m + 1)
                    dist = np.empty((len(r), m + 1))
                    dist[:, :m] = cdist(cents, self._pts[mem[j]])
                    dist[:, m] = _dist(x, cents)
                    joined[r] = dist.sum(axis=1)
            for r in row_blocks(moves, k * (k + self.ds.d)):
                rr, x = np.arange(len(r)), self._pts[p[r]]
                moved, sizes2 = {}, _stack(sizes, len(r))
                sizes2[rr, a[r]] -= 1
                sizes2[:, j] += 1
                if "cross" in st:
                    moved["cross"] = left["cross"][r, j]
                if "t" in st:
                    t = moved["t"] = _stack(st["t"], len(r))
                    t[rr, a[r]] -= x
                    t[:, j] += x
                if "sdc" in st:
                    sdc = moved["sdc"] = _stack(st["sdc"], len(r))
                    sdc[rr, a[r]] = left["sdc"][r]
                    sdc[:, j] = joined[r]
                if "bsum" in st:
                    # as p's distance sums leave a and join j, in this order
                    row, old = left["bsum"][r], st["bsum"]
                    bsum = moved["bsum"] = _stack(old, len(r))
                    _set_symmetric(bsum, rr, a[r], old[a[r]] - row)
                    _set_symmetric(bsum, slice(None), j, bsum[:, j] + row)
                    bsum[rr, a[r], a[r]] = old[a[r], a[r]] - 2 * row[rr, a[r]]
                    bsum[:, j, j] = old[j, j] + 2 * row[:, j]
                if "bmax" in st:
                    bmax = moved["bmax"] = _stack(st["bmax"], len(r))
                    _set_symmetric(bmax, rr, a[r], left["bmax"][r])
                    _set_symmetric(bmax, slice(None), j, np.maximum(bmax[:, j], left["far"][r]))
                out[movable[r], j] = self._value_of(moved, sizes2)
        return out

    def _apply(self, m: Move) -> None:
        if "cross" in self._st:
            self._mst.commit(*self._mst.flips(self._labels, m.point, m.src, m.dst))
        if "bmax" in self._st:
            # p joins b; in a, only the points whose farthest was p change
            far, row = self._far, self._dp.row(m.point)
            rest = self._mem[m.src][self._mem[m.src] != m.point]
            lost = np.flatnonzero(far[:, m.src] == row)
            far[:, m.dst] = np.maximum(far[:, m.dst], row)
            for rows in row_blocks(lost, len(rest)):
                far[rows, m.src] = self._dp.sub(rows, rest).max(axis=1)
        self._refresh((m.src, m.dst))


def _outer(op, v: np.ndarray) -> np.ndarray:
    """(..., k, k) ``op`` of every pair of entries of ``v`` (..., k)."""
    return op(v[..., :, None], v[..., None, :])


def _diagonal(m: np.ndarray) -> np.ndarray:
    return m.diagonal(0, -2, -1)


def _davies_bouldin(st: dict, sizes: np.ndarray):
    """Davies-Bouldin index (negated) of per-cluster statistics."""
    k = sizes.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(sizes > 1, st["sdc"] / sizes, np.inf)
        gaps = _centroid_gaps(st["t"], sizes)
        r = np.where(gaps > 0.0, _outer(np.add, s) / gaps, np.inf)
    r[..., np.arange(k), np.arange(k)] = -np.inf
    return -r.max(axis=-1).mean(axis=-1)


class DaviesBouldinEvaluator(_ClusterStatsEvaluator):
    needs = frozenset({"t", "sdc"})

    def _value_of(self, st: dict, sizes: np.ndarray):
        return _davies_bouldin(st, sizes)


def _pooled_spread(st: dict, sizes: np.ndarray) -> np.ndarray:
    """k x k size-weighted mean distance of two clusters' members to their own centroids."""
    return _outer(np.add, st["sdc"]) / _outer(np.add, sizes)


def _mean_within(st: dict, sizes: np.ndarray):
    """Largest mean within-cluster pair distance; singletons count 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(sizes > 1, _diagonal(st["bsum"]) / (sizes * (sizes - 1)), 0.0)
    return means.max(axis=-1)


# GDunn separations dX (the smallest over cluster pairs i < j, indexed by iu)
# and compactnesses DY (the largest over clusters), Bezdek & Pal (1998),
# over statistics and sizes with any leading axes:
# variant -> (statistics read, formula)
_SEPARATIONS = {
    1: ({"cross"}, lambda st, sizes, iu: st["cross"]),
    2: ({"bmax_off"}, lambda st, sizes, iu: st["bmax"][iu].min(axis=-1)),
    3: ({"bsum"}, lambda st, sizes, iu: (st["bsum"] / _outer(np.multiply, sizes))[iu].min(axis=-1)),
    4: ({"t"}, lambda st, sizes, iu: _centroid_gaps(st["t"], sizes)[iu].min(axis=-1)),
    5: ({"t", "sdc"}, lambda st, sizes, iu: _pooled_spread(st, sizes)[iu].min(axis=-1)),
}
_COMPACTNESSES = {
    1: ({"bmax_diag"}, lambda st, sizes: _diagonal(st["bmax"]).max(axis=-1)),
    2: ({"bsum"}, _mean_within),
    3: ({"t", "sdc"}, lambda st, sizes: (st["sdc"] / sizes).max(axis=-1)),
}


class GDunnEvaluator(_ClusterStatsEvaluator):
    """All 15 GDunn variants: one separation over one compactness."""

    def _init_state(self) -> None:
        sep_needs, self._separation = _SEPARATIONS[self.spec.d_variant]
        comp_needs, self._compactness = _COMPACTNESSES[self.spec.big_d_variant]
        self.needs = frozenset(sep_needs | comp_needs)
        self._iu = (..., *np.triu_indices(self._k, 1))
        super()._init_state()

    def _value_of(self, st: dict, sizes: np.ndarray):
        num, den = self._separation(st, sizes, self._iu), self._compactness(st, sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den <= 0.0, _INF, num / den)


def _ratio(num, den):
    """DuNN's num / den, broadcast; NaN marks an empty side: +inf without
    cross edges (perfect separation), else -inf without within edges (none
    witnesses compactness), and +inf for den <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den <= 0.0, _INF, np.divide(num, den))
    return np.where(np.isnan(num), _INF, np.where(np.isnan(den), -_INF, out))


class DuNNEvaluator(CVIEvaluator):
    """OWA aggregates over an ``_EdgeSplit`` of the symmetrized NN edges:
    a scan aggregates each side of every move near its extreme."""

    def _init_state(self) -> None:
        ds, M = self.ds, self.spec.m

        def build() -> _EdgeLayout:
            edges = edges_for(ds, M)
            return _EdgeLayout(edges.u, edges.v, edges.dist, ds.n)

        self._split = _EdgeSplit(ds.cached(("edge-layout", "knn", M), build), self._labels)

    def _full_value(self) -> float:
        split = self._split
        return float(_ratio(split.value(self.spec.owa_s, 0), split.value(self.spec.owa_c, 1)))

    def _apply(self, m: Move) -> None:
        self._split.commit(*self._split.flips(self._labels, m.point, m.src, m.dst))

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # _ratio over the side scans of every valid move; a Min or Max
        # separation over a Const compactness, whose value is the
        # separation, reads scan_cross (scan_side gives the same bits about
        # 6x slower)
        sep, comp, lab = self.spec.owa_s, self.spec.owa_c, self._labels
        if sep.kind in ("Min", "Max") and comp.is_const:
            return _ratio(self._split.scan_cross(sep.kind, lab, points, self._k), 1.0)
        # a move of p from a to j: the cross side loses p's edges into j and
        # gains those into a, the within side the reverse
        src = lab[points]
        wanted = np.zeros(self._k, dtype=bool)
        wanted[list(targets)] = True
        valid = (self._sizes[src] >= 2)[:, None] & (np.arange(self._k) != src[:, None])
        r, j = np.nonzero(valid & wanted)
        p, a = points[r], src[r]
        num = self._split.scan_side(sep, 0, lab, p, j, a)
        den = self._split.scan_side(comp, 1, lab, p, a, j)
        out = np.full((len(points), self._k), -_INF)
        out[r, j] = _ratio(num, den)
        return out


class WCNNEvaluator(CVIEvaluator):
    """Integer count of directed same-cluster NN pairs; exact updates."""

    def _init_state(self) -> None:
        nb = self._nb = knn_for(self.ds, self.spec.m).neighbours
        n, M = nb.shape

        def arcs():  # the other ends and starts of the arcs p -> q, by point
            return tuple(map(_read_only, _incidence(np.repeat(np.arange(n), M), nb.ravel(), n)[2:]))

        self._opp, self._starts = self.ds.cached(("wcnn-incidence", M), arcs)
        self._count = int((self._labels[self._nb] == self._labels[:, None]).sum())
        self._guard_moves()

    def _guard_moves(self) -> None:
        # the size guard of a move depends only on its (src, dst) pair
        eye = np.eye(self._k, dtype=np.int64)
        self._guard = (self._sizes - eye[:, None] + eye[None] <= self.spec.m).any(axis=2)

    def _full_value(self) -> float:
        if (self._sizes <= self.spec.m).any():
            return -_INF
        return self._count / (self._n * self.spec.m)

    def _hits(self, points: np.ndarray) -> np.ndarray:
        """(len(points), k) counts of each point's out- and in-neighbours
        per cluster, read from the points' slices of the incidence layout."""
        lo, cnt = self._starts[points], self._starts[points + 1] - self._starts[points]
        rows = np.repeat(np.arange(len(points)), cnt)
        at = np.arange(len(rows)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        cells = rows * self._k + self._labels[self._opp[at]]
        return np.bincount(cells, minlength=len(points) * self._k).reshape(-1, self._k)

    def _apply(self, m: Move) -> None:
        # p is never its own neighbour, so its counts are the same before
        # and after the move
        hits = self._hits(np.array([m.point]))[0]
        self._count += int(hits[m.dst] - hits[m.src])
        self._guard_moves()

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        src, hits = self._labels[points], self._hits(points)
        delta = hits - hits[np.arange(len(points)), src][:, None]
        return np.where(self._guard[src], -_INF, (self._count + delta) / (self._n * self.spec.m))


#: family -> (definitional function of (ds, p, *spec.params()), evaluator class)
FAMILY_TABLE = {
    "BallHall": (indices.ball_hall, BallHallEvaluator),
    "CalinskiHarabasz": (indices.calinski_harabasz, CalinskiHarabaszEvaluator),
    "DaviesBouldin": (indices.davies_bouldin, DaviesBouldinEvaluator),
    "Silhouette": (indices.silhouette, SilhouetteEvaluator),
    "SilhouetteW": (indices.silhouette_w, SilhouetteWEvaluator),
    "GDunn": (indices.gdunn, GDunnEvaluator),
    "DuNN": (indices.dunn_nn, DuNNEvaluator),
    "WCNN": (indices.wcnn, WCNNEvaluator),
}


def evaluate(spec: CVISpec, ds: Dataset, p: Partition) -> float:
    """Full (definitional) evaluation of ``spec`` on (ds, p)."""
    return FAMILY_TABLE[spec.family][0](ds, p, *spec.params())


def make_evaluator(spec: CVISpec, ds: Dataset, p: Partition) -> CVIEvaluator:
    """Build the incremental evaluator for ``spec`` at partition ``p``."""
    return FAMILY_TABLE[spec.family][1](spec, ds, p)
