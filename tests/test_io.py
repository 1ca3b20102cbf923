"""Tests for edge-list I/O."""

from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import read_edge_list, write_edge_list


class TestStaticEdgeList:
    def test_round_trip(self, tmp_path):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% konect comment\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n1,2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1\n")
        assert read_edge_list(path).num_edges == 1


class TestRoundTripAllFormats:
    """Round trips through the writer and the reader."""

    def test_static_two_column_round_trip(self, tmp_path):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0), (5, 9)])
        path = tmp_path / "static.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back == g
        assert back.num_vertices == g.num_vertices

    def test_written_static_header_is_ignored_on_read(self, tmp_path):
        g = DynamicDiGraph(edges=[(3, 4)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_text().startswith("# n=2 m=1\n")
        assert read_edge_list(path) == g
