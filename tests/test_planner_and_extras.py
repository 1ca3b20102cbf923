"""Tests for the R-MAT generator."""

import pytest

from repro.datasets.scale_free import rmat_graph


class TestRMAT:
    def test_size(self):
        g = rmat_graph(7, 4, seed=1)
        assert g.num_vertices == 128
        assert 0 < g.num_edges <= 4 * 128

    def test_skewed_degrees(self):
        g = rmat_graph(9, 8, seed=2)
        degrees = sorted((g.out_degree(v) for v in g.vertices()), reverse=True)
        # Heavy head: the top vertex has far more than the average.
        assert degrees[0] > 8 * (g.num_edges / g.num_vertices)

    def test_deterministic(self):
        assert rmat_graph(6, 4, seed=5) == rmat_graph(6, 4, seed=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            rmat_graph(0)
        with pytest.raises(ValueError):
            rmat_graph(5, 0)
        with pytest.raises(ValueError):
            rmat_graph(5, 4, a=0.9, b=0.2, c=0.2)
