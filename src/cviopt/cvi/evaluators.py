"""Incremental index evaluation for single-point relocation moves.

Every evaluator keeps sufficient statistics of the current partition so
that ``peek`` (value after a hypothetical move) and ``commit`` (apply a
move) are much cheaper than a from-scratch evaluation.  The contract is
semantic: after any sequence of commits, ``value()`` agrees with the
definitional implementation in :mod:`cviopt.cvi.indices` to 1e-9 relative.
Indices without a cheap exact delta fall back to bounded partial
recomputation of the affected clusters.

Evaluators assume distinct points (the preprocessing jitter guarantees
this); they are single-threaded mutable state, while the underlying
Dataset, distance matrix and NN graph are immutable and shared.
"""

from __future__ import annotations

import numpy as np
from sortedcontainers import SortedList

from ..dataio import Dataset
from ..geometry import DistanceProvider, emst
from ..nngraph import NNGraph, edges_for, knn_for, symmetric_edges
from ..owa import smooth_extreme_weights
from ..partition import Move, Partition, check_move, from_labels
from . import indices
from .specs import CVISpec

_INF = float("inf")


def _ratio(num: float, den: float) -> float:
    if den <= 0.0:
        return _INF
    return num / den


class CVIEvaluator:
    """Base class: move validation, label bookkeeping, value caching.

    ``graph`` is the shared near-neighbour graph of the DuNN and WCNN
    families (built on demand when None); the other families ignore it.
    """

    def __init__(
        self, spec: CVISpec, ds: Dataset, part: Partition, graph: NNGraph | None = None
    ) -> None:
        self.spec = spec
        self.ds = ds
        self._graph = graph
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
        raise NotImplementedError

    def _apply(self, m: Move) -> None:
        """Refresh sufficient statistics; called with labels/sizes already
        updated to the post-move partition."""
        raise NotImplementedError


class _CentroidSSEvaluator(CVIEvaluator):
    """Shared machinery for indices built on per-cluster sums of squares.

    Points are centered once: all such indices are translation-invariant
    and centering keeps the sq - |t|^2/n cancellation well conditioned.
    """

    def _init_state(self) -> None:
        self._pts = self.ds.points - self.ds.points.mean(axis=0)
        self._sqnorm = (self._pts**2).sum(axis=1)
        self._t = np.zeros((self._k, self.ds.d))
        self._sq = np.zeros(self._k)
        for j in range(self._k):
            mask = self._labels == j
            self._t[j] = self._pts[mask].sum(axis=0)
            self._sq[j] = self._sqnorm[mask].sum()

    def _apply(self, m: Move) -> None:
        for j in (m.src, m.dst):
            mask = self._labels == j
            self._t[j] = self._pts[mask].sum(axis=0)
            self._sq[j] = self._sqnorm[mask].sum()

    def _move_stats(self, m: Move):
        """(t, sq, sizes) rows for src and dst after the move."""
        x = self._pts[m.point]
        xsq = self._sqnorm[m.point]
        t_src = self._t[m.src] - x
        t_dst = self._t[m.dst] + x
        sq_src = self._sq[m.src] - xsq
        sq_dst = self._sq[m.dst] + xsq
        n_src = self._sizes[m.src] - 1
        n_dst = self._sizes[m.dst] + 1
        return t_src, t_dst, sq_src, sq_dst, n_src, n_dst


class BallHallEvaluator(_CentroidSSEvaluator):
    def _value_from(self, t, sq, sizes) -> float:
        ss = sq - (t**2).sum(axis=1) / sizes
        return float(-(ss / sizes).sum())

    def _full_value(self) -> float:
        return self._value_from(self._t, self._sq, self._sizes)

    def _peek(self, m: Move) -> float:
        t_src, t_dst, sq_src, sq_dst, n_src, n_dst = self._move_stats(m)
        ss = self._sq - (self._t**2).sum(axis=1) / self._sizes
        total = (ss / self._sizes).sum()
        total -= ss[m.src] / self._sizes[m.src] + ss[m.dst] / self._sizes[m.dst]
        total += (sq_src - (t_src**2).sum() / n_src) / n_src
        total += (sq_dst - (t_dst**2).sum() / n_dst) / n_dst
        return float(-total)


class CalinskiHarabaszEvaluator(_CentroidSSEvaluator):
    def _init_state(self) -> None:
        super()._init_state()
        self._tss = float(self._sqnorm.sum())

    def _ch(self, bcss: float) -> float:
        wcss = self._tss - bcss
        if wcss <= 0.0:
            return _INF
        return (self._n - self._k) / (self._k - 1) * bcss / wcss

    def _full_value(self) -> float:
        bcss = float(((self._t**2).sum(axis=1) / self._sizes).sum())
        return self._ch(bcss)

    def _peek(self, m: Move) -> float:
        t_src, t_dst, _, _, n_src, n_dst = self._move_stats(m)
        bcss = float(((self._t**2).sum(axis=1) / self._sizes).sum())
        bcss -= (self._t[m.src] ** 2).sum() / self._sizes[m.src]
        bcss -= (self._t[m.dst] ** 2).sum() / self._sizes[m.dst]
        bcss += (t_src**2).sum() / n_src + (t_dst**2).sum() / n_dst
        return self._ch(bcss)


class SilhouetteEvaluator(CVIEvaluator):
    """O(nk) update via per-point sums of distances to every cluster."""

    weighted = False

    def _init_state(self) -> None:
        self._dp = DistanceProvider(self.ds)
        n, k = self._n, self._k
        self._dsum = np.zeros((n, k))
        if self._dp.dense is not None:
            for j in range(k):
                self._dsum[:, j] = self._dp.dense[:, self._labels == j].sum(axis=1)
        else:
            for i in range(n):
                row = self._dp.row(i)
                self._dsum[i] = np.bincount(self._labels, weights=row, minlength=k)
        self._row_cache: tuple[int, np.ndarray] | None = None

    def _row(self, p: int) -> np.ndarray:
        if self._row_cache is not None and self._row_cache[0] == p:
            return self._row_cache[1]
        row = self._dp.row(p)
        self._row_cache = (p, row)
        return row

    def _score(self, dsum_vals, own_sum, labels, sizes) -> float:
        ar = np.arange(self._n)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_to = dsum_vals / sizes[None, :]
            mean_to[ar, labels] = np.inf
            b = mean_to.min(axis=1)
            n_own = sizes[labels]
            a = own_sum / (n_own - 1)
            den = np.maximum(a, b)
            s = np.where(den > 0.0, (b - a) / den, 0.0)
        s[n_own == 1] = 0.0
        if not self.weighted:
            return float(s.mean())
        singles = int((sizes == 1).sum())
        effective = self._k - singles
        if effective < 1:
            return float("-inf")
        return float((s / n_own).sum() / effective)

    def _full_value(self) -> float:
        own = self._dsum[np.arange(self._n), self._labels]
        return self._score(self._dsum, own, self._labels, self._sizes)

    def _peek(self, m: Move) -> float:
        p, a, b = m.point, m.src, m.dst
        row = self._row(p)
        dsum2 = self._dsum.copy()
        dsum2[:, a] -= row
        dsum2[:, b] += row
        labels2 = self._labels.copy()
        labels2[p] = b
        sizes2 = self._sizes.copy()
        sizes2[a] -= 1
        sizes2[b] += 1
        own = dsum2[np.arange(self._n), labels2]
        return self._score(dsum2, own, labels2, sizes2)

    def _apply(self, m: Move) -> None:
        row = self._row(m.point)
        self._dsum[:, m.src] -= row
        self._dsum[:, m.dst] += row


class SilhouetteWEvaluator(SilhouetteEvaluator):
    weighted = True


def _sum_to_centroid(pts: np.ndarray, t_row: np.ndarray) -> float:
    """Sum of distances from ``pts`` to their centroid ``t_row / len(pts)``."""
    return float(np.linalg.norm(pts - t_row / pts.shape[0], axis=1).sum())


def _centroid_gaps(t: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """k x k distances between the centroids ``t / sizes``."""
    cents = t / sizes[:, None]
    return np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=2)


class _ClusterStatsEvaluator(CVIEvaluator):
    """An index that is one formula, ``_value_of(st, sizes)``, over
    per-cluster statistics: ``value()`` applies it to the current
    statistics and ``peek`` to the post-move ones.

    ``needs`` names the statistics a subclass reads; ``st`` holds them:

    - ``cross``: MST edge weights, +inf on within-cluster edges (the
      closest cross-cluster pair always lies on the Euclidean MST);
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
            mu, mv, mw = emst(self.ds)
            inc: list[list[int]] = [[] for _ in range(self._n)]
            other: list[list[int]] = [[] for _ in range(self._n)]
            for e in range(mu.shape[0]):
                inc[mu[e]].append(e)
                other[mu[e]].append(mv[e])
                inc[mv[e]].append(e)
                other[mv[e]].append(mu[e])
            self._mst_inc = [np.asarray(ix, dtype=np.int64) for ix in inc]
            self._mst_other = [np.asarray(ox, dtype=np.int64) for ox in other]
            self._mst_w = mw
            st["cross"] = np.where(self._labels[mu] != self._labels[mv], mw, np.inf)
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
            idx = self._mst_inc[p]
            st["cross"] = st["cross"].copy()
            st["cross"][idx] = np.where(
                self._labels[self._mst_other[p]] != b, self._mst_w[idx], np.inf
            )
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
        if "bmax" in self._st:
            self._adopt_witnesses(self._moved["new_wit"])
        self._refresh((m.src, m.dst))


class DaviesBouldinEvaluator(_ClusterStatsEvaluator):
    needs = frozenset({"t", "sdc"})

    def _value_of(self, st: dict, sizes: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(sizes > 1, st["sdc"] / sizes, np.inf)
            gaps = _centroid_gaps(st["t"], sizes)
            r = np.where(gaps > 0.0, np.add.outer(s, s) / gaps, np.inf)
        np.fill_diagonal(r, -np.inf)
        return float(-r.max(axis=1).mean())


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
    1: ({"cross"}, lambda st, sizes, iu: st["cross"].min()),
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


class _MergedExtreme:
    """Order statistics of (multiset - removed + added) near one extreme."""

    @staticmethod
    def take(sl: SortedList, removed: list, added: list, t: int, largest: bool) -> list:
        span = t + len(removed)
        if largest:
            base = list(sl.islice(max(0, len(sl) - span), len(sl)))[::-1]
            rem = sorted(removed, reverse=True)
            add = sorted(added, reverse=True)
        else:
            base = list(sl.islice(0, min(span, len(sl))))
            rem = sorted(removed)
            add = sorted(added)
        kept = []
        ri = 0
        for x in base:
            if ri < len(rem) and rem[ri] == x:
                ri += 1
                continue
            kept.append(x)
        # merge two extreme-sorted lists, keep the first t
        out = []
        i = j = 0
        while len(out) < t and (i < len(kept) or j < len(add)):
            if j >= len(add):
                out.append(kept[i])
                i += 1
            elif i >= len(kept):
                out.append(add[j])
                j += 1
            else:
                ki, aj = kept[i], add[j]
                better = (ki >= aj) if largest else (ki <= aj)
                if better:
                    out.append(ki)
                    i += 1
                else:
                    out.append(add[j])
                    j += 1
        return out


class DuNNEvaluator(CVIEvaluator):
    """Order-statistic multisets over the fixed NN edge set.

    A move flips only the edges incident to the relocated point between
    the cross-cluster and within-cluster multisets, so aggregation costs
    O((M + support) log E) instead of a full re-sort.
    """

    def _init_state(self) -> None:
        if self._graph is not None:
            edges = symmetric_edges(self._graph)
        else:
            edges = edges_for(self.ds, self.spec.m)
        self._eu, self._ev, self._ed = edges.u, edges.v, edges.dist
        E = len(edges)
        both = np.concatenate([self._eu, self._ev])
        eidx = np.concatenate([np.arange(E), np.arange(E)])
        opp = np.concatenate([self._ev, self._eu])
        order = np.argsort(both, kind="stable")
        both, eidx, opp = both[order], eidx[order], opp[order]
        starts = np.searchsorted(both, np.arange(self._n + 1))
        self._inc = [eidx[starts[i] : starts[i + 1]] for i in range(self._n)]
        self._opp = [opp[starts[i] : starts[i + 1]] for i in range(self._n)]
        self._within = self._labels[self._eu] == self._labels[self._ev]
        self._cross_sl = SortedList(self._ed[~self._within])
        self._within_sl = SortedList(self._ed[self._within])
        self._cross_sum = float(self._ed[~self._within].sum())
        self._within_sum = float(self._ed[self._within].sum())

    def _aggregate(self, sl: SortedList, total: float, spec, removed: list, added: list):
        """Aggregate of (sl - removed + added); None signals an empty multiset."""
        if spec.is_const:
            return 1.0
        z = len(sl) - len(removed) + len(added)
        if z <= 0:
            return None
        if spec.kind == "Mean":
            return (total - sum(removed) + sum(added)) / z
        if spec.kind == "Min":
            return _MergedExtreme.take(sl, removed, added, 1, largest=False)[0]
        if spec.kind == "Max":
            return _MergedExtreme.take(sl, removed, added, 1, largest=True)[0]
        t = min(3 * spec.delta, z)
        w = smooth_extreme_weights(spec.delta, t)
        ext = _MergedExtreme.take(sl, removed, added, t, largest=(spec.kind == "SMax"))
        return float(np.dot(w, np.asarray(ext)))

    def _value_for(self, removed_cross, added_cross) -> float:
        """removed_cross: edges leaving the cross side (they join within)."""
        num = self._aggregate(
            self._cross_sl, self._cross_sum, self.spec.owa_s, removed_cross, added_cross
        )
        if num is None:
            return _INF  # no cross edges: perfect separation
        den = self._aggregate(
            self._within_sl, self._within_sum, self.spec.owa_c, added_cross, removed_cross
        )
        if den is None:
            return -_INF  # no within edges to witness compactness
        return _ratio(num, den)

    def _full_value(self) -> float:
        return self._value_for([], [])

    def _flips(self, m: Move):
        p, a, b = m.point, m.src, m.dst
        inc = self._inc[p]
        lab_o = self._labels[self._opp[p]]
        before_within = lab_o == a
        after_within = lab_o == b
        to_cross = self._ed[inc[before_within & ~after_within]]
        to_within = self._ed[inc[~before_within & after_within]]
        return list(to_cross), list(to_within)

    def _peek(self, m: Move) -> float:
        to_cross, to_within = self._flips(m)
        return self._value_for(removed_cross=to_within, added_cross=to_cross)

    def _apply(self, m: Move) -> None:
        # labels already post-move; recompute flip sets from the pre-move side
        p, a, b = m.point, m.src, m.dst
        inc = self._inc[p]
        lab_o = self._labels[self._opp[p]]
        was_within = lab_o == a
        now_within = lab_o == b
        gone = inc[was_within & ~now_within]
        came = inc[~was_within & now_within]
        for e in gone:
            d = self._ed[e]
            self._within_sl.remove(d)
            self._cross_sl.add(d)
            self._within_sum -= d
            self._cross_sum += d
            self._within[e] = False
        for e in came:
            d = self._ed[e]
            self._cross_sl.remove(d)
            self._within_sl.add(d)
            self._cross_sum -= d
            self._within_sum += d
            self._within[e] = True


class WCNNEvaluator(CVIEvaluator):
    """Integer count of directed same-cluster NN pairs; exact updates."""

    def _init_state(self) -> None:
        g = self._graph if self._graph is not None else knn_for(self.ds, self.spec.m)
        self._nb = g.neighbours
        n, M = self._nb.shape
        src = np.repeat(np.arange(n, dtype=np.int64), M)
        tgt = self._nb.ravel()
        order = np.argsort(tgt, kind="stable")
        src_sorted = src[order]
        starts = np.searchsorted(tgt[order], np.arange(n + 1))
        self._in_nb = [src_sorted[starts[i] : starts[i + 1]] for i in range(n)]
        self._count = int((self._labels[self._nb] == self._labels[:, None]).sum())

    def _guarded(self, count: int, sizes: np.ndarray) -> float:
        if (sizes <= self.spec.m).any():
            return -_INF
        return count / (self._n * self.spec.m)

    def _full_value(self) -> float:
        return self._guarded(self._count, self._sizes)

    def _delta(self, p: int, a: int, b: int) -> int:
        out_lab = self._labels[self._nb[p]]
        in_lab = self._labels[self._in_nb[p]]
        return int(
            (out_lab == b).sum()
            + (in_lab == b).sum()
            - (out_lab == a).sum()
            - (in_lab == a).sum()
        )

    def _peek(self, m: Move) -> float:
        sizes2 = self._sizes.copy()
        sizes2[m.src] -= 1
        sizes2[m.dst] += 1
        return self._guarded(self._count + self._delta(m.point, m.src, m.dst), sizes2)

    def _apply(self, m: Move) -> None:
        # neighbour labels never include the moved point itself, so the
        # delta is the same whether computed pre- or post-move
        out_lab = self._labels[self._nb[m.point]]
        in_lab = self._labels[self._in_nb[m.point]]
        self._count = int(
            self._count
            + (out_lab == m.dst).sum()
            + (in_lab == m.dst).sum()
            - (out_lab == m.src).sum()
            - (in_lab == m.src).sum()
        )


#: family -> (definitional function of (spec, ds, p, graph), evaluator class)
FAMILY_TABLE = {
    "BallHall": (lambda s, ds, p, g: indices.ball_hall(ds, p), BallHallEvaluator),
    "CalinskiHarabasz": (
        lambda s, ds, p, g: indices.calinski_harabasz(ds, p),
        CalinskiHarabaszEvaluator,
    ),
    "DaviesBouldin": (lambda s, ds, p, g: indices.davies_bouldin(ds, p), DaviesBouldinEvaluator),
    "Silhouette": (lambda s, ds, p, g: indices.silhouette(ds, p), SilhouetteEvaluator),
    "SilhouetteW": (lambda s, ds, p, g: indices.silhouette_w(ds, p), SilhouetteWEvaluator),
    "GDunn": (
        lambda s, ds, p, g: indices.gdunn(ds, p, s.d_variant, s.big_d_variant),
        GDunnEvaluator,
    ),
    "DuNN": (
        lambda s, ds, p, g: indices.dunn_nn(ds, p, s.m, s.owa_s, s.owa_c, graph=g),
        DuNNEvaluator,
    ),
    "WCNN": (lambda s, ds, p, g: indices.wcnn(ds, p, s.m, graph=g), WCNNEvaluator),
}


def evaluate(spec: CVISpec, ds: Dataset, p: Partition, graph: NNGraph | None = None) -> float:
    """Full (definitional) evaluation of ``spec`` on (ds, p)."""
    return FAMILY_TABLE[spec.family][0](spec, ds, p, graph)


def make_evaluator(
    spec: CVISpec, ds: Dataset, p: Partition, graph: NNGraph | None = None
) -> CVIEvaluator:
    """Build the incremental evaluator for ``spec`` at partition ``p``."""
    return FAMILY_TABLE[spec.family][1](spec, ds, p, graph)
