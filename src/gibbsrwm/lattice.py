"""Lattice windows, interaction neighborhoods, and window-growth diagnostics.

Vertices live on the integer lattice Z^d and are read and shown as plain
tuples of ints.  A Window is a finite vertex set together with its boundary
(the sites whose full neighborhood sticks out of the window) and a frozen
configuration on the outside sites that the boundary interacts with: zero,
a constant, or none at all (a free boundary drops the terms that reach out).

A window has one neighborhood, and a model runs only on a window built with
the model's own (adjacency-form windows aside): the neighborhood decides both
the boundary, whose complement is the interior the estimators average over,
and the site tables the energy is assembled from.

A window holds arrays: its (n, d) integer coordinate array, its interior
indices and its site tables.  The geometry comes from the coordinates with
numpy and no Python loop over sites: `_geometry` gives every site and every
site + offset a mixed-radix key over the window's bounding box padded by the
neighborhood's reach, and finds each target among the sorted site keys by
binary search.  The interior and the site tables are read from that one
lookup, once, when the window is built; `build_box` builds its coordinates
with `np.indices`, and a vertex list is converted in one numpy pass by the
vertex rule (`_vertex_array`).  The per-vertex Python views (`vertices`,
`index_of`, `boundary`) are built from the arrays only when first read.
Adjacency-form windows take their neighbors from the adjacency lists instead
and have no boundary.  Only the hull and inradius diagnostics import scipy
(`scipy.spatial`), where they are called.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

Vertex = tuple[int, ...]
_BOOL_TYPES = frozenset((bool, np.bool_))  # int() reads True as 1: not a coordinate


def _is_coordinate(c) -> bool:
    """The vertex rule for one coordinate (see _vertex_array)."""
    if type(c) in _BOOL_TYPES:
        return False
    try:
        return int(c) == c
    except (TypeError, ValueError, OverflowError):  # int() of nan, inf, "a"
        return False


def _vertex_array(rows, d: int | None = None) -> np.ndarray:
    """`rows` as an (n, d) coordinate array by the one vertex rule of the
    package, for window vertices, neighborhood offsets and config vertex
    lists alike: int64, or Python ints (dtype object) where a coordinate
    does not fit.  d defaults to the first row's length.

    Each coordinate must be an integer-valued number: an int of any size, a
    numpy integer, or an integral float such as 3.0.  A bool, a fraction, a
    non-finite or a non-numeric coordinate, or a row with no coordinate at
    all, is a ValueError that names the first such row.  Rows that pass but
    do not all have d coordinates are a ValueError after that.

    One pass over all coordinates at once: when every coordinate is a
    Python or numpy integer (a bool is neither here), all of them pass;
    otherwise each is checked as int(c) == c.  An int64 array is copied."""
    if (isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 2
            and rows.shape[1] and d in (None, rows.shape[1])):
        return rows.copy()
    rows = list(map(tuple, rows))
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    cells = np.fromiter(itertools.chain.from_iterable(rows), dtype=object,
                        count=int(lengths.sum()))
    bad = np.flatnonzero(lengths == 0)
    kinds = set(map(type, cells))
    if not (kinds.isdisjoint(_BOOL_TYPES)
            and all(issubclass(k, (int, np.integer)) for k in kinds)):
        with np.errstate(all="ignore"):  # int(nan) sets the FPU's invalid flag
            flags = np.frompyfunc(_is_coordinate, 1, 1)(cells).astype(bool)
        bad_cells = np.flatnonzero(~flags)
        bad = np.append(bad, np.searchsorted(np.cumsum(lengths), bad_cells, side="right"))
    if bad.size:
        raise ValueError("a vertex needs one or more integer coordinates, "
                         f"got {rows[bad.min()]}")
    if d is None:
        d = int(lengths[0]) if rows else 0
    if (lengths != d).any():
        raise ValueError("vertex dimension does not match neighborhood")
    try:
        cells = cells.astype(np.int64)
    except OverflowError:
        cells = np.frompyfunc(int, 1, 1)(cells)
    return cells.reshape(len(rows), d)


def _as_vertex(v) -> Vertex:
    """v as a tuple of Python ints: the rule of _vertex_array on one row."""
    return tuple(_vertex_array([v])[0].tolist())


def _neg(a: Vertex) -> Vertex:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class Neighborhood:
    """Finite symmetric offset set: which relative sites a local potential sees.

    Canonical form: offsets are distinct, lexicographically sorted, contain
    the origin, and are closed under negation.  Use :meth:`from_offsets` to
    build one from an arbitrary offset collection.
    """

    offsets: tuple[Vertex, ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("neighborhood needs at least the origin offset")
        d = len(self.offsets[0])
        if any(len(v) != d for v in self.offsets):
            raise ValueError("offsets have mixed dimensions")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("offsets are not distinct")
        if tuple(sorted(self.offsets)) != self.offsets:
            raise ValueError("offsets are not in canonical sorted order")
        if (0,) * d not in self.offsets:
            raise ValueError("origin offset missing")
        missing = [v for v in self.offsets if _neg(v) not in self.offsets]
        if missing:
            raise ValueError(f"offset set not symmetric, missing {_neg(missing[0])}")

    @staticmethod
    def from_offsets(offsets) -> "Neighborhood":
        """Canonicalize: add the origin, close under negation, dedupe, sort."""
        vs = {_as_vertex(v) for v in offsets}
        if not vs:
            raise ValueError("empty offset collection")
        d = len(next(iter(vs)))
        vs.add((0,) * d)
        vs |= {_neg(v) for v in vs}
        return Neighborhood(tuple(sorted(vs)))

    @property
    def d(self) -> int:
        return len(self.offsets[0])

    @property
    def origin(self) -> Vertex:
        return (0,) * self.d

    @property
    def nonzero_offsets(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.offsets if v != self.origin)


def self_neighborhood(d: int) -> Neighborhood:
    """The trivial neighborhood {0}: purely on-site potentials."""
    return Neighborhood(((0,) * d,))


def nearest_neighbor(d: int) -> Neighborhood:
    """Origin plus the 2d unit offsets."""
    offs = [(0,) * d]
    for axis in range(d):
        for sgn in (-1, 1):
            v = [0] * d
            v[axis] = sgn
            offs.append(tuple(v))
    return Neighborhood.from_offsets(offs)


def _geometry(coords: np.ndarray, offsets) -> np.ndarray:
    """(S, n) neighbor lookup of the coordinate rows `coords` at `offsets`:
    the index of site i + offset s, or -1 outside.  A repeated row is a
    ValueError.

    Every site and every target gets one mixed-radix key over the window's
    bounding box padded by the offsets' reach, so a target is inside iff its
    key is a site's key.  Keys are int64, or Python ints when the padded box
    has 2**63 cells or more."""
    n, d = coords.shape
    if n == 0:
        return np.empty((len(offsets), 0), dtype=np.intp)
    reach = [max((abs(off[a]) for off in offsets), default=0) for a in range(d)]
    lo = [int(c) for c in coords.min(axis=0)]
    ext = [int(c) - m + 2 * r + 1 for c, m, r in zip(coords.max(axis=0), lo, reach)]
    stride = [math.prod(ext[a + 1:]) for a in range(d)]
    dtype = np.int64 if stride[0] * ext[0] < 2**63 else object
    if dtype is object:
        coords = coords.astype(object)
    key = sum((coords[:, a] - lo[a] + reach[a]) * stride[a] for a in range(d))
    key = key.astype(dtype, copy=False)
    order = np.argsort(key, kind="stable")  # a merge sort: linear on a box's sorted keys
    sorted_keys = key[order]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise ValueError("window vertices are not distinct")
    shift = np.array([sum(map(operator.mul, off, stride)) for off in offsets],
                     dtype=dtype)
    targets = shift[:, None] + key[None, :]
    pos = np.minimum(np.searchsorted(sorted_keys, targets), n - 1)
    outside = sorted_keys[pos] != targets
    nbr = order[pos]
    nbr[outside] = -1
    return nbr


def exterior_halo(vertices, neighborhood: Neighborhood) -> frozenset[Vertex]:
    """Outside sites reachable from the boundary: (offsets + bdry) minus window."""
    coords = _vertex_array(vertices, neighborhood.d)
    # One row per distinct vertex: _geometry rejects a repeated one.
    last = dict(zip(map(tuple, coords.tolist()), range(len(coords))))
    coords = coords[list(last.values())]
    offsets = neighborhood.nonzero_offsets
    s, i = np.nonzero(_geometry(coords, offsets) < 0)
    # Python ints: a site + offset may leave int64.
    offs = np.array(offsets, dtype=object).reshape(len(offsets), neighborhood.d)
    return frozenset(map(tuple, (coords[i].astype(object) + offs[s]).tolist()))


@dataclass(frozen=True)
class SiteTables:
    """Per-slot neighbor bookkeeping of a window, in the form
    `models.quadratic_operator` reads.

    Slot s of site i reads window site ``nbr[s, i]`` when that is >= 0, and
    the frozen value ``frozen[s, i]`` otherwise.  Inactive slots (free
    boundary drops, adjacency padding) contribute nothing; ``frozen`` is 0
    everywhere but at active outside slots.  For lattice windows slot s
    corresponds to the s-th nonzero offset of the window's neighborhood.
    """

    offsets: tuple[Vertex, ...] | None  # None for adjacency-form windows
    nbr: np.ndarray     # (S, n) window index, or -1 outside the window
    frozen: np.ndarray  # (S, n) float
    active: np.ndarray  # (S, n) bool


BOUNDARY_MODES = ("zero", "constant", "free")


class Window:
    """Finite vertex set V_n with boundary and frozen outside configuration.

    Immutable after construction.  The window holds its sites as ``coords``,
    an (n, d) coordinate array, plus the interior indices and site tables
    built from it; the per-vertex views ``vertices``, ``index_of`` and
    ``boundary`` are built from those arrays on first read.
    ``boundary_mode`` fixes the outside configuration: "zero" and
    "constant" (``boundary_constant``) define it everywhere outside, and
    "free" drops potential terms that reach outside.  A non-zero
    ``boundary_constant`` that the window would not read is a ValueError.
    """

    def __init__(self, vertices, neighborhood: Neighborhood, boundary_mode="zero",
                 boundary_constant=0.0, adjacency=None):
        if boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
        d = neighborhood.d
        coords = _vertex_array(vertices, d)
        coords.setflags(write=False)
        self.coords = coords
        self.neighborhood = neighborhood
        self.boundary_mode = boundary_mode
        self.boundary_constant = float(boundary_constant)
        if not math.isfinite(self.boundary_constant):
            raise ValueError(f"boundary_constant must be finite, got {boundary_constant}")
        if self.boundary_constant and (boundary_mode != "constant" or adjacency is not None):
            raise ValueError(f"boundary_constant {boundary_constant} is read only by a "
                             "lattice window with boundary_mode 'constant'")
        n = self.n
        offsets = None if adjacency is not None else neighborhood.nonzero_offsets
        nbr = _geometry(coords, offsets or ())  # a repeated vertex raises here
        interior = np.flatnonzero(~(nbr < 0).any(axis=0))
        self.adjacency = None
        if adjacency is not None:
            self.adjacency = tuple(tuple(int(j) for j in nbrs) for nbrs in adjacency)
            if len(self.adjacency) != n:
                raise ValueError("adjacency list length does not match vertex count")
            for i, nbrs in enumerate(self.adjacency):
                for j in nbrs:
                    if not 0 <= j < n:
                        raise ValueError(f"adjacency index {j} out of range")
                    if j == i:
                        raise ValueError(f"adjacency lists vertex {i} as its own neighbor")
                    if i not in self.adjacency[j]:
                        raise ValueError("adjacency relation is not symmetric")
            degree = max((len(a) for a in self.adjacency), default=0)
            nbr = np.full((degree, n), -1, dtype=np.intp)
            for i, nbrs in enumerate(self.adjacency):
                nbr[:len(nbrs), i] = nbrs
        frozen = np.zeros(nbr.shape)
        active = nbr >= 0
        if self.adjacency is None and boundary_mode != "free":
            # Outside slots read the frozen configuration: every slot is active.
            if boundary_mode == "constant":
                frozen[~active] = self.boundary_constant
            active = np.ones_like(active)
        for arr in (interior, nbr, frozen, active):
            arr.setflags(write=False)
        self._interior = interior
        self._tables = SiteTables(offsets, nbr, frozen, active)

    @property
    def n(self) -> int:
        return len(self.coords)

    @functools.cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The sites as tuples of ints, in window order."""
        return tuple(zip(*self.coords.T.tolist()))

    @functools.cached_property
    def index_of(self) -> dict[Vertex, int]:
        """Window index of each site, in window order."""
        return dict(zip(self.vertices, range(self.n)))

    @functools.cached_property
    def boundary(self) -> frozenset[Vertex]:
        """The sites off the interior: those whose neighborhood reaches outside."""
        on_boundary = np.ones(self.n, dtype=bool)
        on_boundary[self._interior] = False
        return frozenset(itertools.compress(self.vertices, on_boundary))

    def interior_indices(self) -> np.ndarray:
        """Indices of the sites off the boundary, ascending (read-only)."""
        return self._interior

    def site_tables(self) -> SiteTables:
        """Neighbor tables of the window's neighborhood, built with the window."""
        return self._tables


def build_box(d: int, L: int, neighborhood: Neighborhood, boundary_mode="zero",
              boundary_constant=0.0) -> Window:
    """Centered box window [-L, L]^d with n = (2L+1)^d vertices."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if L < 0:
        raise ValueError("L must be >= 0")
    if neighborhood.d != d:
        raise ValueError("neighborhood dimension does not match d")
    # Rows in lexicographic order: the first axis varies slowest.
    vertices = np.indices((2 * L + 1,) * d).reshape(d, -1).T - L
    return Window(vertices, neighborhood, boundary_mode, boundary_constant)


def build_line(n: int, neighborhood: Neighborhood | None = None,
               boundary_mode="zero", boundary_constant=0.0) -> Window:
    """Line window of exactly n sites (any n, unlike centered boxes): site k
    at (k, 0, ..., 0) in the neighborhood's dimension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nb = neighborhood or self_neighborhood(1)
    coords = np.zeros((n, nb.d), dtype=np.int64)
    coords[:, 0] = np.arange(n)
    return Window(coords, nb, boundary_mode, boundary_constant)


# -- Window-sequence growth diagnostics ------------------------------------


@dataclass(frozen=True)
class H2Row:
    n: int
    hull_ratio: float
    inradius: float
    boundary_ratio: float


def count_hull_lattice_points(vertices) -> int:
    """Number of integer points inside the convex hull of the vertex set."""
    pts = _vertex_array(vertices).astype(float)
    n, d = pts.shape
    if n == 1 or d == 1:
        return int(pts.max() - pts.min()) + 1
    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts)
    lo = pts.min(axis=0).astype(int)
    hi = pts.max(axis=0).astype(int)
    cand = (np.indices(hi - lo + 1).reshape(d, -1).T + lo).astype(float)
    # A @ x + b <= 0 within tolerance means inside or on the hull.
    A = hull.equations[:, :-1]
    b = hull.equations[:, -1]
    inside = np.all(cand @ A.T + b <= 1e-9, axis=1)
    return int(inside.sum())


def discrete_inradius(vertices) -> float:
    """Radius of the largest sphere around a window site avoiding the outside.

    Distance from the best-centered site to the nearest outside lattice point,
    minus one; equals L for the box [-L, L]^d.
    """
    from scipy.spatial import cKDTree

    pts = _vertex_array(vertices)
    lo = pts.min(axis=0) - 1
    shape = tuple(pts.max(axis=0) + 2 - lo)
    # Every cell of the padded bounding box, in lexicographic order, minus
    # the window's own cells.
    grid = np.indices(shape).reshape(len(shape), -1)
    outside = np.ones(grid.shape[1], dtype=bool)
    outside[np.ravel_multi_index(tuple((pts - lo).T), shape)] = False
    dist = cKDTree(grid[:, outside].T + lo).query(pts)[0]
    return float(dist.max() - 1.0)


def boundary_ratio(vertices, neighborhood: Neighborhood) -> float:
    """Outside sites the boundary reaches, relative to the window size."""
    coords = _vertex_array(vertices, neighborhood.d)
    return len(exterior_halo(coords, neighborhood)) / len(coords)


def h2_diagnostics(d: int, L_list, neighborhood: Neighborhood) -> tuple[H2Row, ...]:
    """Growth diagnostics for the box family [-L, L]^d along increasing L,
    one row per L."""
    Ls = [int(L) for L in L_list]
    if Ls != sorted(set(Ls)):
        raise ValueError("L_list must be strictly increasing")
    rows = []
    for L in Ls:
        w = build_box(d, L, neighborhood)
        rows.append(H2Row(
            n=w.n,
            hull_ratio=count_hull_lattice_points(w.coords) / w.n,
            inradius=discrete_inradius(w.coords),
            boundary_ratio=boundary_ratio(w.coords, neighborhood),
        ))
    return tuple(rows)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); y entries must be > 0."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
