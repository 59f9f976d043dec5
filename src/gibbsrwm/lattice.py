"""Lattice windows, interaction neighborhoods, and window-growth diagnostics.

Vertices live on the integer lattice Z^d and are represented as plain tuples
of ints.  A Window is a finite vertex set together with its boundary (the
sites whose full neighborhood sticks out of the window) and a frozen
configuration on the outside sites that the boundary interacts with.

A window has one neighborhood, and a model runs only on a window built with
the model's own (adjacency-form windows aside): the neighborhood decides both
the boundary, whose complement is the interior the estimators average over,
and the site tables the energy is assembled from.

A lattice window's geometry comes from one (n, d) integer coordinate array,
with numpy and no Python loop over sites: `_geometry` gives every site and
every site + offset a mixed-radix key over the window's bounding box padded
by the neighborhood's reach, and finds each target among the sorted site
keys by binary search.  The boundary, the exterior halo and the site tables
are all read from that one lookup, once, when the window is built;
`build_box` builds its coordinates with `np.indices`.  Adjacency-form
windows take their neighbors from the adjacency lists instead and have no
boundary.  Only the hull and inradius diagnostics import scipy
(`scipy.spatial`), where they are called.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

Vertex = tuple[int, ...]
_BOOL_TYPES = frozenset((bool, np.bool_))  # int() reads True as 1: not a coordinate


def _as_vertex(v) -> Vertex:
    """v as a tuple of Python ints: the one vertex rule of the package, for
    window vertices, neighborhood offsets and config vertex lists alike.

    Each coordinate must be an integer-valued number: an int of any size, a
    numpy integer, or an integral float such as 3.0.  A bool, a fraction, a
    non-finite or a non-numeric coordinate, or no coordinate at all, is a
    ValueError that names v."""
    cs = tuple(v)
    try:
        out = tuple(map(int, cs))
    except (TypeError, ValueError, OverflowError):  # int() of nan, inf, "a"
        out = ()
    if not out or out != cs or not _BOOL_TYPES.isdisjoint(map(type, cs)):
        raise ValueError(f"a vertex needs one or more integer coordinates, got {cs}")
    return out


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


def _coordinates(rows, d: int) -> np.ndarray:
    """(n, d) vertex coordinates: int64, or Python ints where they do not fit."""
    try:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), d)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), d)


@dataclass(frozen=True)
class _Geometry:
    """Where each (slot, site) of a lattice window points, for one offset list."""

    nbr: np.ndarray              # (S, n) index of site i + offset s, or -1 outside
    halo: tuple[Vertex, ...]     # the distinct outside targets, sorted
    halo_of: np.ndarray          # halo position of each outside slot, slot-major


def _geometry(coords: np.ndarray, offsets) -> _Geometry:
    """Neighbor lookup of the distinct coordinate rows `coords` at `offsets`.

    Every site and every target gets one mixed-radix key over the window's
    bounding box padded by the offsets' reach, so a target is inside iff its
    key is a site's key, and keys sort as the vertex tuples do.  Keys are
    int64, or Python ints when the padded box has 2**63 cells or more."""
    n, d = coords.shape
    if n == 0:
        return _Geometry(np.empty((len(offsets), 0), dtype=np.intp), (),
                         np.empty(0, dtype=np.intp))
    reach = [max((abs(off[a]) for off in offsets), default=0) for a in range(d)]
    lo = [int(c) for c in coords.min(axis=0)]
    ext = [int(c) - m + 2 * r + 1 for c, m, r in zip(coords.max(axis=0), lo, reach)]
    stride = [math.prod(ext[a + 1:]) for a in range(d)]
    dtype = np.int64 if stride[0] * ext[0] < 2**63 else object
    if dtype is object:
        coords = coords.astype(object)
    key = sum((coords[:, a] - lo[a] + reach[a]) * stride[a] for a in range(d))
    key = key.astype(dtype, copy=False)
    shift = np.array([sum(map(operator.mul, off, stride)) for off in offsets],
                     dtype=dtype)
    targets = (shift[:, None] + key[None, :]).ravel()
    order = np.argsort(key, kind="stable")  # a merge sort: linear on a box's sorted keys
    sorted_keys = key[order]
    pos = np.minimum(np.searchsorted(sorted_keys, targets), n - 1)
    inside = sorted_keys[pos] == targets
    nbr = np.where(inside, order[pos], -1).reshape(len(offsets), n)
    halo_keys, halo_of = np.unique(targets[~inside], return_inverse=True)
    halo_keys = halo_keys.astype(object)
    halo = zip(*[((halo_keys // stride[a]) % ext[a] + lo[a] - reach[a]).tolist()
                 for a in range(d)])
    return _Geometry(nbr, tuple(halo), halo_of)


def _vertex_set_geometry(vertices, neighborhood: Neighborhood):
    vs = list({_as_vertex(v) for v in vertices})
    return vs, _geometry(_coordinates(vs, neighborhood.d), neighborhood.nonzero_offsets)


def boundary_of(vertices, neighborhood: Neighborhood) -> frozenset[Vertex]:
    """Sites k in the window with k + offsets not fully inside the window."""
    vs, geom = _vertex_set_geometry(vertices, neighborhood)
    return frozenset(itertools.compress(vs, (geom.nbr < 0).any(axis=0)))


def exterior_halo(vertices, neighborhood: Neighborhood) -> frozenset[Vertex]:
    """Outside sites reachable from the boundary: (offsets + bdry) minus window."""
    return frozenset(_vertex_set_geometry(vertices, neighborhood)[1].halo)


class MissingBoundaryValueError(KeyError):
    def __init__(self, vertex: Vertex):
        super().__init__(f"no boundary value for outside vertex {vertex}")
        self.vertex = vertex


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


BOUNDARY_MODES = ("zero", "constant", "free", "explicit")


class Window:
    """Finite vertex set V_n with boundary and frozen outside configuration.

    Immutable after construction.  ``boundary_mode`` fixes the outside
    configuration: "zero" and "constant" define it everywhere outside,
    "free" drops potential terms that reach outside, "explicit" reads from
    a user-supplied map.
    """

    def __init__(self, vertices, neighborhood: Neighborhood, boundary_mode="zero",
                 boundary_constant=0.0, explicit_values=None, adjacency=None):
        if boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
        coords = None
        if (isinstance(vertices, np.ndarray) and vertices.dtype == np.int64
                and vertices.ndim == 2 and vertices.shape[1] == neighborhood.d):
            coords = vertices
            self.vertices: tuple[Vertex, ...] = tuple(zip(*coords.T.tolist()))
        else:
            self.vertices = tuple(_as_vertex(v) for v in vertices)
        n = len(self.vertices)
        self.index_of: dict[Vertex, int] = dict(zip(self.vertices, range(n)))
        if len(self.index_of) != n:
            raise ValueError("window vertices are not distinct")
        if set(map(len, self.vertices)) - {neighborhood.d}:
            raise ValueError("vertex dimension does not match neighborhood")
        self.neighborhood = neighborhood
        self.boundary_mode = boundary_mode
        self.boundary_constant = float(boundary_constant)
        if not math.isfinite(self.boundary_constant):
            raise ValueError(f"boundary_constant must be finite, got {boundary_constant}")
        self._explicit = dict(explicit_values or {})
        self.adjacency = None
        if adjacency is not None:
            self.adjacency = tuple(tuple(int(j) for j in nbrs) for nbrs in adjacency)
            if len(self.adjacency) != self.n:
                raise ValueError("adjacency list length does not match vertex count")
            for i, nbrs in enumerate(self.adjacency):
                for j in nbrs:
                    if not 0 <= j < self.n:
                        raise ValueError(f"adjacency index {j} out of range")
                    if j == i:
                        raise ValueError(f"adjacency lists vertex {i} as its own neighbor")
                    if i not in self.adjacency[j]:
                        raise ValueError("adjacency relation is not symmetric")
        self.boundary: frozenset[Vertex] = frozenset()
        self.boundary_values: dict[Vertex, float] = {}
        interior = np.arange(n, dtype=np.intp)
        if self.adjacency is None:
            offsets = neighborhood.nonzero_offsets
            geom = _geometry(_coordinates(self.vertices if coords is None else coords,
                                          neighborhood.d), offsets)
            nbr = geom.nbr
            on_boundary = (nbr < 0).any(axis=0)
            self.boundary = frozenset(itertools.compress(self.vertices, on_boundary))
            interior = np.flatnonzero(~on_boundary)
        else:
            offsets = None
            degree = max((len(a) for a in self.adjacency), default=0)
            nbr = np.full((degree, n), -1, dtype=np.intp)
            for i, nbrs in enumerate(self.adjacency):
                nbr[:len(nbrs), i] = nbrs
        frozen = np.zeros(nbr.shape)
        active = nbr >= 0
        if self.adjacency is None and boundary_mode != "free":
            # Outside slots read the frozen configuration: every slot is active.
            self.boundary_values = {v: self.boundary_value_at(v) for v in geom.halo}
            frozen[~active] = np.array(list(self.boundary_values.values()))[geom.halo_of]
            active = np.ones_like(active)
        for arr in (interior, nbr, frozen, active):
            arr.setflags(write=False)
        self._interior = interior
        self._tables = SiteTables(offsets, nbr, frozen, active)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def boundary_value_at(self, vertex: Vertex):
        """Frozen value at an outside vertex, or None when dropped (free mode)."""
        if vertex in self.index_of:
            raise ValueError(f"{vertex} is inside the window")
        if self.boundary_mode == "zero":
            return 0.0
        if self.boundary_mode == "constant":
            return self.boundary_constant
        if self.boundary_mode == "free":
            return None
        if vertex not in self._explicit:
            raise MissingBoundaryValueError(vertex)
        value = float(self._explicit[vertex])
        if not math.isfinite(value):
            raise ValueError(f"boundary value at {vertex} must be finite, got {value}")
        return value

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


@dataclass(frozen=True)
class WindowSequenceReport:
    rows: tuple[H2Row, ...]

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(set(ns)):
            raise ValueError("rows must be sorted by strictly increasing n")
        for r in self.rows:
            if r.hull_ratio < 0 or r.boundary_ratio < 0:
                raise ValueError("ratios must be nonnegative")


def count_hull_lattice_points(vertices) -> int:
    """Number of integer points inside the convex hull of the vertex set."""
    pts = np.array([_as_vertex(v) for v in vertices], dtype=float)
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

    pts = np.array(sorted({_as_vertex(v) for v in vertices}))
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
    vs = [_as_vertex(v) for v in vertices]
    return len(exterior_halo(vs, neighborhood)) / len(vs)


def h2_diagnostics(d: int, L_list, neighborhood: Neighborhood) -> WindowSequenceReport:
    """Growth diagnostics for the box family [-L, L]^d along increasing L."""
    Ls = [int(L) for L in L_list]
    if Ls != sorted(set(Ls)):
        raise ValueError("L_list must be strictly increasing")
    rows = []
    for L in Ls:
        w = build_box(d, L, neighborhood)
        rows.append(H2Row(
            n=w.n,
            hull_ratio=count_hull_lattice_points(w.vertices) / w.n,
            inradius=discrete_inradius(w.vertices),
            boundary_ratio=boundary_ratio(w.vertices, neighborhood),
        ))
    return WindowSequenceReport(tuple(rows))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); y entries must be > 0."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
