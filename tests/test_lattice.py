import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsrwm.lattice import (MissingBoundaryValueError, Neighborhood, Window,
                              boundary_of, boundary_ratio, build_box,
                              build_line, exterior_halo, h2_diagnostics,
                              loglog_slope, nearest_neighbor,
                              self_neighborhood)


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
        assert w.boundary_values == {(-2,): 0.0, (2,): 0.0}

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
        assert w.boundary_values == {(-2,): 2.5, (2,): 2.5}

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
    def test_explicit_boundary_missing_value_names_vertex(self):
        nb = Neighborhood.from_offsets([(1,)])
        w = Window([(0,), (1,)], nb, boundary_mode="explicit",
                   explicit_values={(-1,): 0.3, (2,): 0.1})
        with pytest.raises(MissingBoundaryValueError) as err:
            w.boundary_value_at((5,))
        assert "(5,)" in str(err.value)

    def test_explicit_construction_fails_eagerly(self):
        nb = Neighborhood.from_offsets([(1,)])
        with pytest.raises(MissingBoundaryValueError):
            Window([(0,), (1,)], nb, boundary_mode="explicit",
                   explicit_values={})

    def test_free_mode_has_no_stored_values(self):
        nb = Neighborhood.from_offsets([(1,)])
        w = Window([(0,), (1,)], nb, boundary_mode="free")
        assert w.boundary_values == {}
        assert w.boundary_value_at((2,)) is None

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
        assert t.n_slots == 2
        assert t.active.sum() == 4  # four directed edges

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Window([(0,), (0,)], self_neighborhood(1))

    def test_json_round_trip_box(self):
        w = build_box(2, 2, nearest_neighbor(2), "constant", 1.5)
        w2 = Window.from_json_dict(w.to_json_dict())
        assert w2.vertices == w.vertices
        assert w2.boundary == w.boundary
        assert w2.boundary_values == w.boundary_values

    def test_json_round_trip_vertex_list(self):
        nb = Neighborhood.from_offsets([(1,)])
        w = Window([(0,), (2,), (3,)], nb)
        w2 = Window.from_json_dict(w.to_json_dict())
        assert w2.vertices == w.vertices


class TestH2Diagnostics:
    def test_1d_boundary_ratios(self):
        nb = Neighborhood.from_offsets([(1,)])
        rep = h2_diagnostics(1, [1, 2, 4], nb)
        assert [r.boundary_ratio for r in rep.rows] == [
            pytest.approx(2 / 3), pytest.approx(2 / 5), pytest.approx(2 / 9)]

    def test_self_neighborhood_zero_ratio(self):
        rep = h2_diagnostics(1, [1], self_neighborhood(1))
        assert rep.rows[0].boundary_ratio == 0.0

    def test_2d_inradius(self):
        rep = h2_diagnostics(2, [4, 8], nearest_neighbor(2))
        assert [r.inradius for r in rep.rows] == [4.0, 8.0]

    def test_box_hull_ratio_is_one(self):
        rep = h2_diagnostics(2, [1, 2, 3], nearest_neighbor(2))
        assert all(r.hull_ratio == 1.0 for r in rep.rows)

    def test_rows_sorted_and_ratio_nonincreasing(self):
        rep = h2_diagnostics(2, [2, 4, 8], nearest_neighbor(2))
        ns = [r.n for r in rep.rows]
        assert ns == sorted(ns)
        ratios = [r.boundary_ratio for r in rep.rows]
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

    def test_halo_matches_stored_boundary_values(self):
        nb = nearest_neighbor(2)
        w = build_box(2, 3, nb)
        assert set(w.boundary_values) == set(exterior_halo(w.vertices, nb))


def test_build_line_any_size():
    w = build_line(100)
    assert w.n == 100 and w.boundary == frozenset()
    w2 = build_line(5, Neighborhood.from_offsets([(1,)]))
    assert w2.boundary == {(0,), (4,)}


def test_hull_count_non_box():
    # L-shaped region: hull adds the missing inner triangle points
    from gibbsrwm.lattice import count_hull_lattice_points

    pts = [(x, y) for x, y in itertools.product(range(3), range(3))
           if not (x > 0 and y > 0)]
    assert count_hull_lattice_points(pts) > len(pts)
