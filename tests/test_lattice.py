import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsrwm.lattice import (BOUNDARY_MODES, Neighborhood, Window,
                              _as_vertex, _vertex_array, boundary_ratio, build_box, build_line,
                              exterior_halo, h2_diagnostics, loglog_slope,
                              nearest_neighbor, self_neighborhood)
from gibbsrwm.models import custom_pairwise


def brute_boundary(vertices, offsets):
    vs = set(vertices)
    out = set()
    for k in vs:
        for v in offsets:
            if tuple(a + b for a, b in zip(k, v)) not in vs:
                out.add(k)
    return out


class TestNeighborhood:
    def test_canonical_form(self):
        nb = Neighborhood.from_offsets([(2,), (1,)])
        assert nb.offsets == ((-2,), (-1,), (0,), (1,), (2,))

    def test_origin_always_present(self):
        nb = Neighborhood.from_offsets([(1, 0)])
        assert (0, 0) in nb.offsets

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Neighborhood(((1,), (0,)))  # unsorted
        with pytest.raises(ValueError):
            Neighborhood(((0,), (1,)))  # not symmetric
        with pytest.raises(ValueError):
            Neighborhood(((0,), (0, 1)))  # mixed dims

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=8))
    def test_canonicalization_idempotent_and_symmetric(self, offsets):
        nb = Neighborhood.from_offsets(offsets)
        again = Neighborhood.from_offsets(nb.offsets)
        assert again == nb
        for v in nb.offsets:
            assert tuple(-c for c in v) in nb.offsets

    def test_nearest_neighbor_counts(self):
        assert len(nearest_neighbor(2).offsets) == 5
        assert len(nearest_neighbor(3).nonzero_offsets) == 6


def boundary_of(vertices, nb):
    return Window(vertices, nb).boundary


class TestBoundary:
    def test_single_vertex_self_neighborhood(self):
        assert boundary_of([(0, 0)], self_neighborhood(2)) == frozenset()

    def test_three_site_line(self):
        nb = Neighborhood.from_offsets([(1,)])
        assert boundary_of([(-1,), (0,), (1,)], nb) == {(-1,), (1,)}

    def test_3x3_box_edge_cells(self):
        nb = nearest_neighbor(2)
        w = build_box(2, 1, nb)
        expected = brute_boundary(w.vertices, nb.offsets)
        assert w.boundary == expected
        assert len(w.boundary) == 8  # all but the center

    def test_idempotent_and_subset(self):
        nb = nearest_neighbor(2)
        w = build_box(2, 3, nb)
        b = boundary_of(w.vertices, nb)
        assert b == boundary_of(list(b) + [v for v in w.vertices if v not in b], nb)
        assert b <= set(w.vertices)

    @given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                   min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_matches_brute_force(self, vertices):
        nb = nearest_neighbor(2)
        assert boundary_of(vertices, nb) == brute_boundary(vertices, nb.offsets)


class TestBuildBox:
    def test_1d_example(self):
        nb = Neighborhood.from_offsets([(1,)])
        w = build_box(1, 1, nb)
        assert w.vertices == ((-1,), (0,), (1,))
        assert w.boundary == {(-1,), (1,)}
        assert exterior_halo(w.vertices, nb) == {(-2,), (2,)}
        assert w.site_tables().frozen.tolist() == [[0.0] * 3] * 2

    def test_single_vertex_box(self):
        w = build_box(2, 0, self_neighborhood(2))
        assert w.n == 1 and w.boundary == frozenset()

    def test_2d_L8_counts(self):
        w = build_box(2, 8, nearest_neighbor(2))
        assert w.n == 289
        assert len(w.boundary) == len(brute_boundary(w.vertices,
                                                     w.neighborhood.offsets))
        assert len(w.boundary) == 64

    def test_constant_boundary_values(self):
        w = build_box(1, 1, Neighborhood.from_offsets([(1,)]),
                      boundary_mode="constant", boundary_constant=2.5)
        # Slot (-1,) of site (-1,) and slot (1,) of site (1,) read the outside.
        assert w.site_tables().frozen.tolist() == [[2.5, 0.0, 0.0], [0.0, 0.0, 2.5]]

    def test_index_bijection(self):
        w = build_box(2, 2, nearest_neighbor(2))
        assert sorted(w.index_of.values()) == list(range(w.n))
        for v, i in w.index_of.items():
            assert w.vertices[i] == v

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_box(0, 1, self_neighborhood(1))
        with pytest.raises(ValueError):
            build_box(1, -1, self_neighborhood(1))
        with pytest.raises(ValueError):
            build_box(2, 1, self_neighborhood(1))  # dim mismatch


class TestWindow:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_boundary_value_rejected(self, bad):
        # A nan constant once built a window on which every dH was nan.
        nb = Neighborhood.from_offsets([(1,)])
        with pytest.raises(ValueError, match="boundary_constant must be finite"):
            build_line(5, nb, "constant", bad)

    def test_free_mode_has_no_stored_values(self):
        nb = Neighborhood.from_offsets([(1,)])
        t = Window([(0,), (1,)], nb, boundary_mode="free").site_tables()
        assert t.active.tolist() == [[False, True], [True, False]]
        assert not t.frozen.any()

    @pytest.mark.parametrize("kw", [
        dict(boundary_mode="zero"), dict(boundary_mode="free"),
        dict(boundary_mode="constant", adjacency=[(1,), (0, 2), (1,)])],
        ids=["zero", "free", "adjacency"])
    def test_ignored_boundary_constant_rejected(self, kw):
        # Only a lattice window in constant mode reads the constant; a zero
        # of either sign is the builders' default and stays accepted.
        vertices, nb = [(0,), (1,), (2,)], nearest_neighbor(1)
        with pytest.raises(ValueError, match="boundary_constant"):
            Window(vertices, nb, boundary_constant=7.5, **kw)
        for zero in (0.0, -0.0):
            tables = Window(vertices, nb, boundary_constant=zero, **kw).site_tables()
            assert not tables.frozen.any()

    def test_per_vertex_views_built_on_first_read(self):
        w = build_box(2, 2, nearest_neighbor(2))
        assert not {"vertices", "index_of", "boundary"} & set(vars(w))
        assert w.coords.shape == (25, 2) and not w.coords.flags.writeable
        assert w.vertices[0] == (-2, -2) and w.index_of[(2, 2)] == 24
        assert (0, 0) not in w.boundary and w.vertices is w.vertices

    def test_adjacency_symmetric_required(self):
        with pytest.raises(ValueError):
            Window([(0,), (1,), (2,)], self_neighborhood(1),
                   adjacency=[(1,), (), ()])

    def test_adjacency_self_loop_rejected(self):
        # Q_kk, and so the exact s^2, would then also carry the pair cross term.
        with pytest.raises(ValueError, match="own neighbor"):
            Window([(0,), (1,), (2,)], self_neighborhood(1),
                   adjacency=[(0, 1), (0, 2), (1,)])

    def test_adjacency_tables(self):
        w = Window([(0,), (1,), (2,)], self_neighborhood(1),
                   adjacency=[(1,), (0, 2), (1,)])
        t = w.site_tables()
        assert t.nbr.tolist() == [[1, 0, 1], [-1, 2, -1]]
        assert t.active.sum() == 4  # four directed edges
        assert not t.frozen.any()

    @pytest.mark.parametrize("form", ["list", "int64_array", "adjacency"])
    def test_duplicate_vertices_rejected(self, form):
        vertices = [(0, 1), (2, 0), (0, 1)]
        kw = {}
        if form == "int64_array":
            vertices = np.array(vertices, dtype=np.int64)
        elif form == "adjacency":
            kw["adjacency"] = [(), (), ()]
        with pytest.raises(ValueError, match="not distinct"):
            Window(vertices, nearest_neighbor(2), **kw)

    def test_build_memory(self):
        # The build holds arrays, not per-vertex tuples and dicts: a
        # 201x201 box peaked at 13.6 MB when it built them, and at 6.3 MB since.
        tracemalloc.start()
        try:
            build_box(2, 100, nearest_neighbor(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak

    @pytest.mark.parametrize("vertices", [[(0,), (1.7,), (3.2,)],
                                          [(0,), (np.float64(0.5),)]])
    def test_fractional_coordinates_rejected(self, vertices):
        # int() would truncate them to other lattice points.
        with pytest.raises(ValueError, match="integer coordinates"):
            Window(vertices, self_neighborhood(1))

    def test_fractional_offsets_rejected(self):
        with pytest.raises(ValueError, match="integer coordinates"):
            Neighborhood.from_offsets([(1.6,), (-1.6,)])

    def test_integral_and_huge_coordinates_accepted(self):
        w = Window([(0.0,), (2**70,), (-2**70,), (np.int64(3),)],
                   self_neighborhood(1))
        assert w.vertices == ((0,), (2**70,), (-2**70,), (3,))


def reference_vertex(v):
    """The one-vertex rule as plain Python: each coordinate an
    integer-valued number that is not a bool, and at least one of them."""
    cs = tuple(v)
    try:
        out = tuple(map(int, cs))
    except (TypeError, ValueError, OverflowError):
        out = ()
    if not out or out != cs or any(type(c) in (bool, np.bool_) for c in cs):
        raise ValueError(cs)
    return out


COORDINATES = st.one_of(
    st.integers(-5, 5), st.integers(-2**80, 2**80), st.booleans(),
    st.floats(), st.integers(-2**70, 2**70).map(float),
    st.integers(-5, 5).map(np.int64), st.floats(width=32).map(np.float32),
    st.sampled_from([np.True_, np.uint64(2**64 - 1), np.float64(0.5), "2",
                     None, Fraction(1, 2), Fraction(4, 2), (1,)]))


@given(st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.lists(COORDINATES, min_size=d, max_size=d), max_size=6))),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_array_rule_is_the_one_row_rule(case, ints_only):
    # _vertex_array over all rows at once accepts exactly the rows that
    # _as_vertex and the plain-Python rule accept, with the same values,
    # and names the first row they reject.
    d, rows = case
    if ints_only:  # the lane where every coordinate is an integer type
        rows = [[c for c in row if type(c) in (int, np.int64)] for row in rows]
        rows = [row for row in rows if len(row) == d]
    verdicts = []
    for row in rows:
        try:
            verdicts.append(reference_vertex(row))
        except ValueError:
            verdicts.append(None)
            with pytest.raises(ValueError, match="integer coordinates"):
                _as_vertex(row)
        else:
            got = _as_vertex(row)
            assert got == verdicts[-1] and all(type(c) is int for c in got)
    try:
        coords = _vertex_array(rows, d)
    except ValueError as exc:
        bad = next(row for row, v in zip(rows, verdicts) if v is None)
        assert str(exc) == ("a vertex needs one or more integer coordinates, "
                            f"got {tuple(bad)}")
    else:
        assert None not in verdicts
        assert coords.shape == (len(rows), d)
        assert tuple(map(tuple, coords.tolist())) == tuple(verdicts)
        fits = all(-2**63 <= c < 2**63 for v in verdicts for c in v)
        assert coords.dtype == (np.int64 if fits else object)


class TestH2Diagnostics:
    def test_1d_boundary_ratios(self):
        nb = Neighborhood.from_offsets([(1,)])
        rep = h2_diagnostics(1, [1, 2, 4], nb)
        assert [r.boundary_ratio for r in rep] == [
            pytest.approx(2 / 3), pytest.approx(2 / 5), pytest.approx(2 / 9)]

    def test_self_neighborhood_zero_ratio(self):
        rep = h2_diagnostics(1, [1], self_neighborhood(1))
        assert rep[0].boundary_ratio == 0.0

    def test_2d_inradius(self):
        rep = h2_diagnostics(2, [4, 8], nearest_neighbor(2))
        assert [r.inradius for r in rep] == [4.0, 8.0]

    def test_box_hull_ratio_is_one(self):
        rep = h2_diagnostics(2, [1, 2, 3], nearest_neighbor(2))
        assert all(r.hull_ratio == 1.0 for r in rep)

    def test_rows_sorted_and_ratio_nonincreasing(self):
        rep = h2_diagnostics(2, [2, 4, 8], nearest_neighbor(2))
        ns = [r.n for r in rep]
        assert ns == sorted(ns)
        ratios = [r.boundary_ratio for r in rep]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_requires_increasing_L(self):
        with pytest.raises(ValueError):
            h2_diagnostics(1, [2, 1], self_neighborhood(1))

    @pytest.mark.parametrize("d", [1, 2])
    def test_boundary_ratio_decay_rate(self, d):
        # |halo|/n must fall at least like n^(-1/d)
        Ls = [2, 4, 8, 16] if d == 1 else [2, 4, 8]
        nb = nearest_neighbor(d)
        ns, ratios = [], []
        for L in Ls:
            w = build_box(d, L, nb)
            ns.append(w.n)
            ratios.append(boundary_ratio(w.vertices, nb))
        assert loglog_slope(ns, ratios) <= -1.0 / d + 0.05

    def test_halo_matches_outside_slots(self):
        nb = nearest_neighbor(2)
        w = build_box(2, 3, nb)
        t = w.site_tables()
        outside = {_add(w.vertices[i], t.offsets[s])
                   for s, i in zip(*np.nonzero(t.nbr < 0))}
        assert outside == exterior_halo(w.vertices, nb)


def test_build_line_any_size():
    w = build_line(100)
    assert w.n == 100 and w.boundary == frozenset()
    w2 = build_line(5, Neighborhood.from_offsets([(1,)]))
    assert w2.boundary == {(0,), (4,)}


@pytest.mark.parametrize("d", [2, 3])
def test_build_line_in_the_neighborhoods_dimension(d):
    # Site k sits at (k, 0, ..., 0): an on-site model of any d gets a line.
    w = build_line(4, self_neighborhood(d))
    assert w.vertices == tuple((k,) + (0,) * (d - 1) for k in range(4))
    assert w.boundary == frozenset()
    w2 = build_line(4, nearest_neighbor(d))
    assert w2.boundary == set(w2.vertices)


def test_hull_count_non_box():
    # L-shaped region: hull adds the missing inner triangle points
    from gibbsrwm.lattice import count_hull_lattice_points

    pts = [(x, y) for x, y in itertools.product(range(3), range(3))
           if not (x > 0 and y > 0)]
    assert count_hull_lattice_points(pts) > len(pts)


# -- Reference geometry: the site-by-site loops that numpy geometry replaced --


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def loop_boundary_of(vertices, nb):
    vs = frozenset(tuple(int(c) for c in v) for v in vertices)
    nz = nb.nonzero_offsets
    return frozenset(k for k in vs if any(_add(k, v) not in vs for v in nz))


def loop_exterior_halo(vertices, nb):
    vs = frozenset(tuple(int(c) for c in v) for v in vertices)
    halo = {_add(k, v) for k in loop_boundary_of(vs, nb) for v in nb.offsets}
    return frozenset(halo - vs)


def frozen_value(mode, constant):
    """What an outside site reads under boundary mode `mode`: the frozen
    value, or None where the term is dropped (free)."""
    return {"zero": 0.0, "constant": float(constant), "free": None}[mode]


def loop_window(vertices, nb):
    """vertices, index_of, boundary and the interior indices as the loop
    builder made them."""
    vs = tuple(tuple(int(c) for c in v) for v in vertices)
    boundary = loop_boundary_of(vs, nb)
    interior = np.array([i for i, v in enumerate(vs) if v not in boundary],
                        dtype=np.intp)
    return vs, {v: i for i, v in enumerate(vs)}, boundary, interior


def loop_tables(window):
    """(nbr, frozen, active) of a lattice window, slot by slot and site by
    site."""
    val = frozen_value(window.boundary_mode, window.boundary_constant)
    offs = window.neighborhood.nonzero_offsets
    nbr = np.full((len(offs), window.n), -1, dtype=np.intp)
    frozen = np.zeros((len(offs), window.n))
    active = np.ones((len(offs), window.n), dtype=bool)
    for s, off in enumerate(offs):
        for i, k in enumerate(window.vertices):
            tgt = _add(k, off)
            j = window.index_of.get(tgt)
            if j is not None:
                nbr[s, i] = j
            elif val is None:
                active[s, i] = False
            else:
                frozen[s, i] = val
    return nbr, frozen, active


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


RANGE2 = custom_pairwise({v: 0.1 for v in [(2, 0), (-2, 0), (1, 1), (-1, -1),
                                            (0, 1), (0, -1)]},
                         lambda x: x * x, lambda x: 2 * x).neighborhood
ANNULUS = [(i, j) for i in range(-3, 4) for j in range(-3, 4)
           if max(abs(i), abs(j)) >= 2] + [(0, 0), (5, -1), (6, -1)]
random.Random(3).shuffle(ANNULUS)
GEOMETRY_CASES = {
    # name: (vertices, neighborhood)
    "box_d1": (list(itertools.product(range(-4, 5))), nearest_neighbor(1)),
    "box_d2": (list(itertools.product(range(-3, 4), repeat=2)), nearest_neighbor(2)),
    "box_d3": (list(itertools.product(range(-2, 3), repeat=3)), nearest_neighbor(3)),
    "line_range1": ([(i,) for i in range(7)], Neighborhood.from_offsets([(1,)])),
    "line_self": ([(i,) for i in range(5)], self_neighborhood(1)),
    "annulus_shuffled": (ANNULUS, nearest_neighbor(2)),
    "box_range2": (list(itertools.product(range(-3, 4), repeat=2)), RANGE2),
    # Coordinates beyond int64 and a bounding box of more than 2**63 cells.
    "huge_coordinates": ([(2**70, 0), (2**70 + 1, 0), (-2**70, 5)],
                         nearest_neighbor(2)),
    "sparse_d4": ([(0, 0, 0, 0), (1, 0, 0, 0), (10**6, -10**6, 10**6, 10**6)],
                  nearest_neighbor(4)),
}


def build_case(name, mode, const=None):
    """Boxes and lines through their builders, the rest from the list; a
    constant boundary reads `const`, 1.5 unless given."""
    vertices, nb = GEOMETRY_CASES[name]
    if const is None:
        const = 1.5 if mode == "constant" else 0.0
    if name.startswith("box"):
        L = (round(len(vertices) ** (1 / nb.d)) - 1) // 2
        return build_box(nb.d, L, nb, mode, const)
    if name.startswith("line"):
        return build_line(len(vertices), nb, mode, const)
    return Window(vertices, nb, mode, const)


class TestGeometryMatchesLoops:
    """The numpy geometry reproduces the loop builder bit for bit."""

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    @pytest.mark.parametrize("name", sorted(GEOMETRY_CASES))
    def test_window_and_tables(self, name, mode):
        vertices, nb = GEOMETRY_CASES[name]
        w = build_case(name, mode)
        vs, index_of, boundary, interior = loop_window(vertices, nb)
        assert w.vertices == vs
        assert list(w.index_of.items()) == list(index_of.items())
        assert w.boundary == boundary
        assert_bit_identical(w.interior_indices(), interior)
        assert not w.interior_indices().flags.writeable
        t = w.site_tables()
        assert t.offsets == nb.nonzero_offsets
        for got, want in zip((t.nbr, t.frozen, t.active), loop_tables(w)):
            assert_bit_identical(got, want)
            assert not got.flags.writeable

    @pytest.mark.parametrize("name", sorted(GEOMETRY_CASES))
    def test_negative_zero_constant_is_kept(self, name):
        # A constant of -0.0 is stored as given, sign bit and all, in every
        # active outside slot; the loop tables fill -0.0 the same way.
        w = build_case(name, "constant", -0.0)
        t = w.site_tables()
        for got, want in zip((t.nbr, t.frozen, t.active), loop_tables(w)):
            assert_bit_identical(got, want)
        outside = t.active & (t.nbr < 0)
        assert np.signbit(t.frozen[outside]).all()
        assert not np.signbit(t.frozen[~outside]).any()

    @pytest.mark.parametrize("name", ["box_d2", "annulus_shuffled", "box_range2",
                                      "huge_coordinates", "sparse_d4"])
    def test_boundary_of_and_exterior_halo(self, name):
        vertices, nb = GEOMETRY_CASES[name]
        assert boundary_of(vertices, nb) == loop_boundary_of(vertices, nb)
        assert exterior_halo(vertices, nb) == loop_exterior_halo(vertices, nb)

    def test_box_and_line_vertices_are_the_sorted_products(self):
        assert build_box(3, 2, nearest_neighbor(3)).vertices == tuple(
            sorted(itertools.product(range(-2, 3), repeat=3)))
        assert build_line(4).vertices == ((0,), (1,), (2,), (3,))



@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1,
               max_size=30),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=4),
       st.sampled_from(BOUNDARY_MODES))
@settings(max_examples=60, deadline=None)
def test_random_windows_match_loops(vertices, offsets, mode):
    vertices = sorted(vertices, key=lambda v: (v[1] * 7 + v[0]) % 11)
    nb = Neighborhood.from_offsets(offsets or [(0, 0)])
    w = Window(vertices, nb, mode, -0.0)
    vs, index_of, boundary, interior = loop_window(vertices, nb)
    assert w.vertices == vs and w.boundary == boundary
    assert list(w.index_of.items()) == list(index_of.items())
    assert_bit_identical(w.interior_indices(), interior)
    t = w.site_tables()
    for got, want in zip((t.nbr, t.frozen, t.active), loop_tables(w)):
        assert_bit_identical(got, want)


# -- Reference diagnostics: the bounding-box loops that np.indices replaced --


def loop_count_hull_lattice_points(vertices):
    """count_hull_lattice_points as the itertools loop over the bounding box
    computed it."""
    from scipy.spatial import ConvexHull

    pts = np.array([tuple(int(c) for c in v) for v in vertices], dtype=float)
    if pts.shape[1] == 1:
        return int(pts.max() - pts.min()) + 1
    hull = ConvexHull(pts)
    lo = pts.min(axis=0).astype(int)
    hi = pts.max(axis=0).astype(int)
    grids = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    cand = np.array(list(itertools.product(*grids)), dtype=float)
    A, b = hull.equations[:, :-1], hull.equations[:, -1]
    return int(np.all(cand @ A.T + b <= 1e-9, axis=1).sum())


def loop_inradius_points(vertices):
    """The (window sites, outside points) that discrete_inradius queries and
    hands to cKDTree, from the itertools loop over the padded bounding box
    that it replaced."""
    vs = {tuple(int(c) for c in v) for v in vertices}
    pts = np.array(sorted(vs))
    grids = [np.arange(a, b + 1) for a, b in zip(pts.min(axis=0) - 1,
                                                 pts.max(axis=0) + 1)]
    return pts, np.array([p for p in itertools.product(*grids) if p not in vs])


def diagnostic_cases():
    rng = random.Random(11)
    scattered = {(rng.randrange(-6, 7), rng.randrange(-4, 9)) for _ in range(25)}
    return {
        "box_d1": [(i,) for i in range(-3, 4)],
        "gaps_d1": [(0,), (3,), (-2,), (7,)],
        "box_d2": list(itertools.product(range(-4, 5), repeat=2)),
        "box_d3": list(itertools.product(range(-2, 3), repeat=3)),
        "l_shape": [(x, y) for x, y in itertools.product(range(5), range(4))
                    if not (x > 1 and y > 1)],
        "annulus": ANNULUS,
        "scattered": sorted(scattered, reverse=True),
        "tetrahedron": [(0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)],
    }


class TestDiagnosticsMatchLoops:
    """The np.indices grids of the growth diagnostics reproduce the
    itertools loops they replaced, point for point and in the same order."""

    @pytest.mark.parametrize("name", sorted(diagnostic_cases()))
    def test_hull_count(self, name):
        from gibbsrwm.lattice import count_hull_lattice_points

        vertices = diagnostic_cases()[name]
        assert count_hull_lattice_points(vertices) == \
            loop_count_hull_lattice_points(vertices)

    @pytest.mark.parametrize("name", sorted(diagnostic_cases()))
    def test_inradius_tree_points(self, name, monkeypatch):
        import scipy.spatial
        from gibbsrwm.lattice import discrete_inradius

        vertices = diagnostic_cases()[name]
        pts, outside = loop_inradius_points(vertices)
        tree = scipy.spatial.cKDTree
        want = float(tree(outside).query(pts)[0].max() - 1.0)
        fed = []

        def recording_tree(data):
            fed.append(np.array(data))
            return tree(data)

        monkeypatch.setattr(scipy.spatial, "cKDTree", recording_tree)
        assert discrete_inradius(vertices) == want
        assert len(fed) == 1
        assert_bit_identical(fed[0], outside)
