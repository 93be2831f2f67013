"""Incremental index evaluation for single-point relocation moves.

Every evaluator keeps sufficient statistics of the current partition so
that ``peek`` (value after a hypothetical move), ``scan`` (the values of
all moves) and ``commit`` (apply a move) are much cheaper than
from-scratch evaluations.  The contract is semantic: after any sequence of
commits, ``value()`` agrees with the definitional implementation in
:mod:`cviopt.cvi.indices` to 1e-9 relative.

Each index has one move formula: an evaluator defines ``_scan`` (the
moves of some points to some targets, at once) or ``_peek`` (one move),
and the base class derives the other.  BallHall, CalinskiHarabasz, WCNN
and, in row blocks of at most ``geometry._BLOCK_CELLS`` cells, Silhouette,
SilhouetteW and DaviesBouldin define ``_scan``; GDunn and DuNN define
``_peek``, and DuNN with a Min or Max separation over a Const compactness
also scans, recomputing at most two moves with its peek.

Evaluators assume distinct points (the preprocessing jitter guarantees
this); they are single-threaded mutable state, while the underlying
Dataset, distance matrix and NN graph are immutable and shared.
"""

from __future__ import annotations

import numpy as np

from .. import owa
from ..dataio import Dataset
from ..geometry import DistanceProvider, emst, row_blocks
from ..nngraph import edges_for, knn_for
from ..partition import Move, Partition, check_move, from_labels
from . import indices
from .specs import CVISpec

_INF = float("inf")
_MIN = owa.OWASpec("Min")
_NO_EDGES = np.empty(0, dtype=np.int64)


def _ratio(num: float, den: float) -> float:
    if den <= 0.0:
        return _INF
    return num / den


class CVIEvaluator:
    """Base class: move validation, label bookkeeping, value caching."""

    def __init__(self, spec: CVISpec, ds: Dataset, part: Partition) -> None:
        self.spec = spec
        self.ds = ds
        self._labels = part.labels.copy()
        self._sizes = part.sizes.astype(np.int64).copy()
        self._k = part.k
        self._n = part.n
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
        return float(self._peek(m))

    def scan(self) -> np.ndarray:
        """Value of every move as an (n, k) array: ``out[p, j]`` is
        ``peek(Move(p, labels[p], j))``, bit for bit; -inf in the own-cluster
        cell and in every cell of a point whose cluster is a singleton."""
        out = self._scan(np.arange(self._n), range(self._k))
        out[np.arange(self._n), self._labels] = -_INF
        out[self._sizes[self._labels] < 2] = -_INF
        return out

    def commit(self, m: Move) -> None:
        """Advance to the post-move partition; value() becomes peek(m)."""
        check_move(self._labels, self._sizes, self._k, m)
        v = float(self._peek(m))
        self._labels[m.point] = m.dst
        self._sizes[m.src] -= 1
        self._sizes[m.dst] += 1
        self._apply(m)
        self._value = v

    # -- subclass hooks ---------------------------------------------------

    def _init_state(self) -> None:
        raise NotImplementedError

    def _full_value(self) -> float:
        raise NotImplementedError

    def _peek(self, m: Move) -> float:
        """Value after the valid move ``m``: one cell of a one-point scan."""
        return self._scan(np.array([m.point]), (m.dst,))[0, m.dst]

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        """The ``scan`` rows of ``points``, as a (len(points), k) array, in
        its valid cells of the columns ``targets``, a peek each; the other
        cells may hold anything.  The moves are valid by construction, so
        ``check_move`` is skipped."""
        out = np.full((len(points), self._k), -_INF)
        for r, p in enumerate(points.tolist()):
            a = int(self._labels[p])
            if self._sizes[a] >= 2:
                for j in targets:
                    if j != a:
                        out[r, j] = self._peek(Move(p, a, j))
        return out

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
        # changes only columns a and j of dsum, by -row_p and +row_p; every
        # other point q stays in its cluster and p joins j.  The nearest
        # mean of q is then the least of the two changed means and rest_q,
        # its least mean over the clusters other than a, j and its own.
        n, k, lab, sizes, dsum = self._n, self._k, self._labels, self._sizes, self._dsum
        src = lab[points]
        out = np.full((len(points), k), -_INF)
        for a in np.unique(src[sizes[src] >= 2]):
            in_a = lab == a
            rest = {}
            for j in targets:
                if j != a:
                    others = self._mean_to.copy()
                    others[:, [a, j]] = np.inf
                    rest[j] = others.min(axis=1)
            cols = {j: dsum[:, j].copy() for j in [a, *rest]}
            for rows in row_blocks(np.flatnonzero(src == a), n):
                block = points[rows]
                rr = np.arange(len(block))
                dist = self._dp.rows(block)
                sum_a = cols[a] - dist
                with np.errstate(divide="ignore", invalid="ignore"):
                    mean_a = sum_a / (sizes[a] - 1)
                    intra_a = np.where(in_a, sum_a / (sizes[a] - 2), self._intra)
                near_a = np.where(in_a, np.inf, mean_a)
                near_a[rr, block] = mean_a[rr, block]
                for j in rest:
                    cells = self._scan_cells(a, j, block, cols[j] + dist, near_a, intra_a, rest[j])
                    out[rows, j] = cells
        return out

    def _scan_cells(self, a, j, block, sum_j, near_a, intra_a, rest) -> np.ndarray:
        """Values of moving each point of ``block``, all in ``a``, to ``j``,
        given the (rows, n) post-move sums of distances to j, ``sum_j``."""
        lab, sizes = self._labels, self._sizes
        rr = np.arange(len(block))
        in_j = lab == j
        near = np.where(in_j, np.inf, sum_j / (sizes[j] + 1))
        near[rr, block] = np.inf
        near = np.minimum(np.minimum(near_a, near), rest)
        intra = np.where(in_j, sum_j / sizes[j], intra_a)
        intra[rr, block] = sum_j[rr, block] / sizes[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            den = np.maximum(intra, near)
            s = np.where(den > 0.0, (near - intra) / den, 0.0)
        sizes2 = sizes.copy()
        sizes2[a] -= 1
        sizes2[j] += 1
        n_own = sizes2[lab]
        s_p = s[rr, block]  # p's own term: p sits in j, never a singleton
        s[:, n_own == 1] = 0.0
        s[rr, block] = s_p
        if not self.weighted:
            return s.mean(axis=1)
        effective = self._k - int((sizes2 == 1).sum())
        if effective < 1:
            return -_INF
        s /= n_own
        s[rr, block] = s_p / sizes2[j]
        return s.sum(axis=1) / effective


class SilhouetteWEvaluator(SilhouetteEvaluator):
    weighted = True


def _dist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points ``u`` and ``v``, broadcast
    over their leading axes.  The squares are added coordinate by
    coordinate, whatever the shapes, so a batched table reproduces the
    distances of one point at any d (``np.linalg.norm`` switches to pairwise
    summation from d = 8), and no (..., d) difference array is made."""
    acc = 0.0
    for c in range(u.shape[-1]):
        diff = u[..., c] - v[..., c]
        acc = acc + diff * diff
    return np.sqrt(acc)


def _sum_to_centroid(pts: np.ndarray, t_row: np.ndarray) -> float:
    """Sum of distances from ``pts`` to their centroid ``t_row / len(pts)``."""
    return float(_dist(pts, t_row / pts.shape[0]).sum())


def _centroid_gaps(t: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(..., k, k) distances between the centroids ``t / sizes``."""
    cents = t / sizes[..., None]
    return _dist(cents[..., :, None, :], cents[..., None, :, :])


def _incidence(u: np.ndarray, v: np.ndarray, n: int):
    """The edges (u, v) listed once from each end, grouped by point, as
    (end, edge, other end, starts): the incidences of point p are the
    slice ``starts[p]:starts[p + 1]``, in edge order."""
    ends = np.concatenate([u, v])
    by_point = np.argsort(ends, kind="stable")
    edge = np.tile(np.arange(len(u)), 2)[by_point]
    starts = np.searchsorted(ends[by_point], np.arange(n + 1))
    return ends[by_point], edge, np.concatenate([v, u])[by_point], starts


class _EdgeSplit:
    """A fixed edge set (u, v, w) split by a labeling into a cross-cluster
    side (0) and a within-cluster side (1).

    The edges are ranked once by weight, stably, so equal weights keep
    distinct ranks; each side is the sorted array of its ranks, so its
    extreme weights sit at its ends.  A move of point p flips only p's
    incident edges from one side to the other.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray, labels: np.ndarray) -> None:
        order = np.argsort(w, kind="stable")
        self._u, self._v, self._w = u[order], v[order], w[order]
        self._ends, self._ranks, self._opps, starts = _incidence(self._u, self._v, len(labels))
        self._starts = starts.tolist()  # Python ints slice fastest
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

    def aggregate(self, spec: owa.OWASpec, side: int, removed: np.ndarray, added: np.ndarray):
        """OWA of the side's weights after the ``removed`` ranks leave it and
        the ``added`` ranks join it; None when that leaves it empty."""
        if spec.is_const:
            return 1.0
        ranks = self._sides[side]
        z = len(ranks) - len(removed) + len(added)
        if z <= 0:
            return None
        if spec.kind == "Mean":
            return (self._sums[side] - self._w[removed].sum() + self._w[added].sum()) / z
        # the t extreme weights after the move lie among the side's
        # t + len(removed) extreme ranks and the added ones; a lower rank
        # never has a larger weight, so Min and Max read an extreme rank
        span = (1 if spec.delta is None else 3 * spec.delta) + len(removed)
        near = (ranks[:span] if spec.kind in ("Min", "SMin") else ranks[-span:]).tolist()
        if len(removed):
            gone = set(removed.tolist())
            near = [r for r in near if r not in gone]
        cand = near + added.tolist()
        if spec.kind == "Min":
            return float(self._w[min(cand)])
        if spec.kind == "Max":
            return float(self._w[max(cand)])
        return owa.aggregate(spec, self._w[cand])

    def scan_cross(self, kind: str, labels: np.ndarray):
        """``aggregate`` of a Min or Max cross side after every move of each
        point, as (n,) weights, NaN where the side ends empty, on the
        premise that the move keeps the side's extreme edge; and the two
        moves (p, j) that remove that edge, which the caller recomputes."""
        # moving p out of its cluster turns p's edges within it cross,
        # whatever the target, so the side gains their extreme rank
        pick = np.minimum if kind == "Min" else np.maximum
        own = labels[self._ends] == labels[self._opps]
        added = np.full(len(labels), len(self._w) if kind == "Min" else -1)
        pick.at(added, self._ends[own], self._ranks[own])
        w = np.append(self._w, np.nan)  # both "no edge" ranks read NaN
        ranks = self._sides[0]
        if not len(ranks):
            return w[added], []
        r = ranks[0] if kind == "Min" else ranks[-1]
        u, v = int(self._u[r]), int(self._v[r])
        return w[pick(added, r)], [(u, int(labels[v])), (v, int(labels[u]))]


class _ClusterStatsEvaluator(CVIEvaluator):
    """An index that is one formula, ``_value_of(st, sizes)``, over
    per-cluster statistics: ``value()`` applies it to the current
    statistics and ``_peek`` (DaviesBouldin: ``_scan``) to the post-move ones.

    ``needs`` names the statistics a subclass reads; ``st`` holds them:

    - ``cross``: the smallest cross-cluster MST edge weight (the closest
      cross-cluster pair always lies on the Euclidean MST), kept by an
      ``_EdgeSplit`` of the MST; a peek lists its edge flips in ``flips``;
    - ``bmax``: k x k block distance maxima, off-diagonal blocks for
      ``bmax_off`` and diagonal ones (diameters) for ``bmax_diag``; each
      has a witness pair in ``self._wit`` (a peek lists new ones in ``new_wit``);
    - ``bsum``: k x k block distance sums (the diagonal counts each pair twice);
    - ``t``/``sdc``: per-cluster point sums and distance-to-centroid sums.

    A commit refreshes the sums of the two touched clusters from their
    members, so rounding never accumulates.  The exact statistics (cross,
    bmax) adopt the post-move values that the peek of the same move computed.
    """

    needs: frozenset = frozenset()

    def _init_state(self) -> None:
        k, needs = self._k, self.needs
        self._pts = self.ds.points
        self._dp = DistanceProvider(self.ds) if needs & {"bmax_off", "bmax_diag", "bsum"} else None
        self._mem: list = [None] * k
        st = self._st = {}
        if "cross" in needs:
            self._mst = _EdgeSplit(*emst(self.ds), self._labels)
            st["cross"] = self._mst.aggregate(_MIN, 0, _NO_EDGES, _NO_EDGES)
        if "bsum" in needs:
            st["bsum"] = np.zeros((k, k))
        if "t" in needs:
            st["t"] = np.zeros((k, self.ds.d))
        if "sdc" in needs:
            st["sdc"] = np.zeros(k)
        self._refresh(range(k))
        if needs & {"bmax_off", "bmax_diag"}:
            eye = np.eye(k, dtype=bool)
            track = ("bmax_off" in needs) & ~eye | ("bmax_diag" in needs) & eye
            self._track = [np.flatnonzero(row).tolist() for row in track]
            st["bmax"] = np.zeros((k, k))
            st["new_wit"] = []
            self._wit = np.full((k, k, 2), -1, dtype=np.int64)
            for i, j in zip(*np.nonzero(np.triu(track))):
                self._rescan(st, i, j, self._mem[i], self._mem[j])
            self._adopt_witnesses(st.pop("new_wit"))

    def _refresh(self, rows) -> None:
        """Recompute the members and the summed statistics of clusters ``rows``."""
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
                st["sdc"][r] = _sum_to_centroid(self._pts[mem[r]], st["t"][r])

    def _rescan(self, st: dict, i: int, j: int, mem_i: np.ndarray, mem_j: np.ndarray) -> None:
        block = self._dp.sub(mem_i, mem_j)
        u, v = divmod(int(block.argmax()), block.shape[1])
        st["bmax"][i, j] = st["bmax"][j, i] = block[u, v]
        st["new_wit"].append((i, j, mem_i[u], mem_j[v]))

    def _adopt_witnesses(self, new_wit: list) -> None:
        """Record the witness pairs ``(i, j, u, v)``, u in cluster i and v in j,
        and flag the points that witness some tracked block maximum."""
        for i, j, u, v in new_wit:
            self._wit[i, j] = (u, v)
            self._wit[j, i] = (v, u)
        self._witness = np.zeros(self._n, dtype=bool)
        for i, cols in enumerate(self._track):
            self._witness[self._wit[i, cols]] = True

    def _value_of(self, st: dict, sizes: np.ndarray) -> float:
        raise NotImplementedError

    def _full_value(self) -> float:
        return self._value_of(self._st, self._sizes.astype(np.float64))

    def _peek(self, m: Move) -> float:
        p, a, b = m.point, m.src, m.dst
        sizes = self._sizes.astype(np.float64)
        sizes[a] -= 1
        sizes[b] += 1
        mem = self._mem
        st = dict(self._st)
        row = self._dp.row(p) if self._dp is not None else None
        if "cross" in st:
            to_cross, to_within = st["flips"] = self._mst.flips(self._labels, p, a, b)
            st["cross"] = self._mst.aggregate(_MIN, 0, to_within, to_cross)
        if "bmax" in st:
            # a block of a changes only if p witnessed its maximum; a block
            # of b can only grow, by p's distances to the other side (d(p, p)
            # = 0, so pre-move member sets give the same maxima)
            bmax = st["bmax"] = st["bmax"].copy()
            st["new_wit"] = []
            if self._witness[p]:
                rest = mem[a][mem[a] != p]
                for j in self._track[a]:
                    if p in self._wit[a, j]:
                        self._rescan(st, a, j, rest, rest if j == a else mem[j])
            for j in self._track[b]:
                far = row[mem[j]]
                i = int(far.argmax())
                if far[i] > bmax[b, j]:
                    bmax[b, j] = bmax[j, b] = far[i]
                    st["new_wit"].append((b, j, p, mem[j][i]))
        if "bsum" in st:
            rbc = np.bincount(self._labels, weights=row, minlength=self._k)
            old = st["bsum"]
            s = st["bsum"] = old.copy()
            s[a] -= rbc
            s[:, a] = s[a]
            s[b] += rbc
            s[:, b] = s[b]
            s[a, a] = old[a, a] - 2 * rbc[a]
            s[b, b] = old[b, b] + 2 * rbc[b]
        if "t" in st:
            x = self._pts[p]
            t = st["t"] = st["t"].copy()
            t[a] -= x
            t[b] += x
        if "sdc" in st:
            sdc = st["sdc"] = st["sdc"].copy()
            sdc[a] = _sum_to_centroid(self._pts[mem[a][mem[a] != p]], st["t"][a])
            sdc[b] = _sum_to_centroid(self._pts[np.append(mem[b], p)], st["t"][b])
        self._moved = st
        return self._value_of(st, sizes)

    def _apply(self, m: Move) -> None:
        # commit peeked m just before, so self._moved holds its statistics
        for key in ("cross", "bmax"):
            if key in self._st:
                self._st[key] = self._moved[key]
        if "cross" in self._st:
            self._mst.commit(*self._moved["flips"])
        if "bmax" in self._st:
            self._adopt_witnesses(self._moved["new_wit"])
        self._refresh((m.src, m.dst))


def _davies_bouldin(sdc: np.ndarray, t: np.ndarray, sizes: np.ndarray):
    """Davies-Bouldin index (negated) of per-cluster statistics, broadcast
    over leading axes: ``sdc`` and ``sizes`` (..., k), ``t`` (..., k, d)."""
    k = sizes.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(sizes > 1, sdc / sizes, np.inf)
        gaps = _centroid_gaps(t, sizes)
        r = np.where(gaps > 0.0, (s[..., :, None] + s[..., None, :]) / gaps, np.inf)
    r[..., np.arange(k), np.arange(k)] = -np.inf
    return -r.max(axis=-1).mean(axis=-1)


class DaviesBouldinEvaluator(_ClusterStatsEvaluator):
    needs = frozenset({"t", "sdc"})

    _peek = CVIEvaluator._peek  # one cell of _scan

    def _value_of(self, st: dict, sizes: np.ndarray) -> float:
        return float(_davies_bouldin(st["sdc"], st["t"], sizes))

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # the post-move statistics of every move at once: the sdc of a less
        # p once per moving point p, the sdc of j plus p per target j, then
        # the k x k ratios over a row block of moves
        k, lab, pts, mem = self._k, self._labels, self._pts, self._mem
        t, sdc = self._st["t"], self._st["sdc"]
        sizes = self._sizes.astype(np.float64)
        out = np.full((len(points), k), -_INF)
        src = lab[points]
        movable = np.flatnonzero(self._sizes[src] >= 2)  # rows of points
        sdc_src = np.empty(len(points))  # sdc of a less p, per row
        for a in np.unique(src[movable]):
            x_a, m = pts[mem[a]], len(mem[a])
            for r in row_blocks(movable[src[movable] == a], m):
                # distances of a's members to the centroids of a less each p,
                # without p's own column
                pos = np.searchsorted(mem[a], points[r])
                dist = _dist(x_a, ((t[a] - x_a[pos]) / (m - 1))[:, None])
                keep = np.ones(dist.shape, dtype=bool)
                keep[np.arange(len(pos)), pos] = False
                sdc_src[r] = dist[keep].reshape(len(pos), m - 1).sum(axis=1)
        for j in targets:
            x_j, m = pts[mem[j]], len(mem[j])
            for r in row_blocks(movable[src[movable] != j], max(m + 1, k * k)):
                rr, x, a = np.arange(len(r)), pts[points[r]], src[r]
                cents = ((t[j] + x) / (m + 1))[:, None]
                dist = np.concatenate([_dist(x_j, cents), _dist(x[:, None], cents)], axis=1)
                sizes2, t2, sdc2 = (np.repeat(v[None], len(r), axis=0) for v in (sizes, t, sdc))
                sizes2[rr, a] -= 1
                sizes2[:, j] += 1
                t2[rr, a] -= x
                t2[:, j] += x
                sdc2[rr, a] = sdc_src[r]
                sdc2[:, j] = dist.sum(axis=1)
                out[r, j] = _davies_bouldin(sdc2, t2, sizes2)
        return out


def _pooled_spread(st: dict, sizes: np.ndarray) -> np.ndarray:
    """k x k size-weighted mean distance of two clusters' members to their own centroids."""
    return np.add.outer(st["sdc"], st["sdc"]) / np.add.outer(sizes, sizes)


def _mean_within(st: dict, sizes: np.ndarray) -> float:
    """Largest mean within-cluster pair distance; singletons count 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(sizes > 1, st["bsum"].diagonal() / (sizes * (sizes - 1)), 0.0)
    return means.max()


# GDunn separations dX (the smallest over cluster pairs i < j, indexed by iu)
# and compactnesses DY (the largest over clusters), Bezdek & Pal (1998):
# variant -> (statistics read, formula)
_SEPARATIONS = {
    1: ({"cross"}, lambda st, sizes, iu: st["cross"]),
    2: ({"bmax_off"}, lambda st, sizes, iu: st["bmax"][iu].min()),
    3: ({"bsum"}, lambda st, sizes, iu: (st["bsum"][iu] / np.outer(sizes, sizes)[iu]).min()),
    4: ({"t"}, lambda st, sizes, iu: _centroid_gaps(st["t"], sizes)[iu].min()),
    5: ({"t", "sdc"}, lambda st, sizes, iu: _pooled_spread(st, sizes)[iu].min()),
}
_COMPACTNESSES = {
    1: ({"bmax_diag"}, lambda st, sizes: st["bmax"].diagonal().max()),
    2: ({"bsum"}, _mean_within),
    3: ({"t", "sdc"}, lambda st, sizes: (st["sdc"] / sizes).max()),
}


class GDunnEvaluator(_ClusterStatsEvaluator):
    """All 15 GDunn variants: one separation over one compactness."""

    def _init_state(self) -> None:
        sep_needs, self._separation = _SEPARATIONS[self.spec.d_variant]
        comp_needs, self._compactness = _COMPACTNESSES[self.spec.big_d_variant]
        self.needs = frozenset(sep_needs | comp_needs)
        self._iu = np.triu_indices(self._k, 1)
        super()._init_state()

    def _value_of(self, st: dict, sizes: np.ndarray) -> float:
        num = float(self._separation(st, sizes, self._iu))
        return _ratio(num, float(self._compactness(st, sizes)))


class DuNNEvaluator(CVIEvaluator):
    """OWA aggregates over an ``_EdgeSplit`` of the symmetrized NN edges:
    a peek aggregates each side near its extreme, O(M + support)."""

    def _init_state(self) -> None:
        edges = edges_for(self.ds, self.spec.m)
        self._split = _EdgeSplit(edges.u, edges.v, edges.dist, self._labels)

    def _value_for(self, to_cross: np.ndarray, to_within: np.ndarray) -> float:
        num = self._split.aggregate(self.spec.owa_s, 0, to_within, to_cross)
        if num is None:
            return _INF  # no cross edges: perfect separation
        den = self._split.aggregate(self.spec.owa_c, 1, to_cross, to_within)
        if den is None:
            return -_INF  # no within edges to witness compactness
        return _ratio(num, den)

    def _full_value(self) -> float:
        return self._value_for(_NO_EDGES, _NO_EDGES)

    def _peek(self, m: Move) -> float:
        return self._value_for(*self._split.flips(self._labels, m.point, m.src, m.dst))

    def _apply(self, m: Move) -> None:
        self._split.commit(*self._split.flips(self._labels, m.point, m.src, m.dst))

    def _scan(self, points: np.ndarray, targets) -> np.ndarray:
        # vectorised for a Min or Max separation over a Const compactness,
        # whose value is the separation; the others run the _peek loop
        kind = self.spec.owa_s.kind
        if kind not in ("Min", "Max") or not self.spec.owa_c.is_const:
            return super()._scan(points, targets)
        lab = self._labels
        num, redo = self._split.scan_cross(kind, lab)
        # _value_for: no cross edges left is +inf
        out = np.repeat(np.where(np.isnan(num), _INF, num)[points, None], self._k, axis=1)
        for p, j in redo:
            out[points == p, j] = self._peek(Move(p, int(lab[p]), j))
        return out


class WCNNEvaluator(CVIEvaluator):
    """Integer count of directed same-cluster NN pairs; exact updates."""

    def _init_state(self) -> None:
        self._nb = knn_for(self.ds, self.spec.m).neighbours
        n, M = self._nb.shape
        _, _, self._opp, self._starts = _incidence(np.repeat(np.arange(n), M), self._nb.ravel(), n)
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


#: family -> (definitional function of (spec, ds, p), evaluator class)
FAMILY_TABLE = {
    "BallHall": (lambda s, ds, p: indices.ball_hall(ds, p), BallHallEvaluator),
    "CalinskiHarabasz": (
        lambda s, ds, p: indices.calinski_harabasz(ds, p),
        CalinskiHarabaszEvaluator,
    ),
    "DaviesBouldin": (lambda s, ds, p: indices.davies_bouldin(ds, p), DaviesBouldinEvaluator),
    "Silhouette": (lambda s, ds, p: indices.silhouette(ds, p), SilhouetteEvaluator),
    "SilhouetteW": (lambda s, ds, p: indices.silhouette_w(ds, p), SilhouetteWEvaluator),
    "GDunn": (
        lambda s, ds, p: indices.gdunn(ds, p, s.d_variant, s.big_d_variant),
        GDunnEvaluator,
    ),
    "DuNN": (lambda s, ds, p: indices.dunn_nn(ds, p, s.m, s.owa_s, s.owa_c), DuNNEvaluator),
    "WCNN": (lambda s, ds, p: indices.wcnn(ds, p, s.m), WCNNEvaluator),
}


def evaluate(spec: CVISpec, ds: Dataset, p: Partition) -> float:
    """Full (definitional) evaluation of ``spec`` on (ds, p)."""
    return FAMILY_TABLE[spec.family][0](spec, ds, p)


def make_evaluator(spec: CVISpec, ds: Dataset, p: Partition) -> CVIEvaluator:
    """Build the incremental evaluator for ``spec`` at partition ``p``."""
    return FAMILY_TABLE[spec.family][1](spec, ds, p)
