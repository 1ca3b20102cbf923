"""Tests for edge-list I/O."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import io as graph_io
from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import read_edge_list, write_edge_list

from tests.oracles import assert_same_build, read_edge_list_by_line

ROOT = Path(__file__).resolve().parents[1]


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


# ----------------------------------------------------------------------
# The block reader against a line-by-line add_edge build
# ----------------------------------------------------------------------
def _outcome(read, path):
    """The graph ``read`` builds from ``path``, or its error message."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _assert_reads_like_lines(path):
    got, want = _outcome(read_edge_list, path), _outcome(read_edge_list_by_line, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_build(got, want)
    return want


_ID = st.one_of(
    st.integers(0, 12),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 10**18 - 1, 10**18, 2**63 - 1, 2**63, -(2**63)]),
)
_TOKEN = st.builds(
    lambda i, style: style.format(abs(i), "-" if i < 0 else ""),
    _ID,
    st.sampled_from(["{1}{0}", "{1}{0}", "+{0}", "00{1}{0}", "{1}{0}"]),
)
_SEP = st.sampled_from([" ", " ", "\t", ",", " , ", "  \t"])
_EDGE = st.builds(
    lambda pad, u, sep, v, extra: f"{pad}{u}{sep}{v}{extra}",
    st.sampled_from(["", "", " ", "\t"]),
    _TOKEN,
    _SEP,
    _TOKEN,
    st.sampled_from(["", "", "", " ", " 1", " 3 1.5", ",7", "\t9 x"]),
)
_LINE = st.one_of(
    _EDGE,
    _EDGE,
    _EDGE,
    st.sampled_from(
        ["", "  ", "\t", "# c", "% konect 1 2", "  # indented", "\t% x",
         "#", "%"]
    ),
)
_BAD_LINE = st.sampled_from(["1", "1.0 2", "x y", "1-2 3", "- 4"])


class TestBlockReader:
    """``read_edge_list`` parses whole blocks with numpy and the rest line
    by line; either way the graph is a sequential ``add_edge`` build."""

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(_LINE, min_size=8, max_size=120),
        ends=st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]), min_size=1),
        bad=st.one_of(st.none(), st.tuples(st.integers(0, 119), _BAD_LINE)),
        block=st.sampled_from([8, 32, 128]),
        final_newline=st.booleans(),
    )
    def test_any_file_reads_as_its_lines_do(
        self, tmp_path_factory, lines, ends, bad, block, final_newline
    ):
        if bad is not None:
            lines.insert(bad[0] % (len(lines) + 1), bad[1])
        text = "".join(
            line + ends[i % len(ends)] for i, line in enumerate(lines)
        )
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path_factory.mktemp("blocks") / "g.txt"
        path.write_bytes(text.encode())
        assume(len(text) > 2 * block)  # more than one block
        with mock.patch.object(graph_io, "BLOCK_BYTES", block):
            _assert_reads_like_lines(path)

    def test_a_written_edge_list_is_parsed_block_by_block(self, tmp_path):
        """The writer's header comment and ``u v`` lines, blank lines, a
        ``%`` comment, tabs and signs all take the numpy path."""
        g = DynamicDiGraph(edges=[(u, u * 7 % 10007) for u in range(10000)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        with open(path, "ab") as handle:
            handle.write(b"\n% tail\n\t-5\t+6 \n")
        with open(path, "rb") as handle:
            blocks = list(graph_io._blocks(handle))
        assert len(blocks) > 1
        assert all(graph_io._parse_block(b) is not None for b in blocks)
        assert graph_io._parse_block(b" \n\t\n# c\n").tolist() == []
        assert_same_build(read_edge_list(path), read_edge_list_by_line(path))

    def test_a_line_across_the_read_boundary(self, tmp_path):
        head = b"1 2\n" * (graph_io.BLOCK_BYTES // 4 - 1) + b"123"
        path = tmp_path / "g.txt"
        path.write_bytes(head + b"45 678\n9 10\n")
        assert len(head) == graph_io.BLOCK_BYTES - 1
        g = _assert_reads_like_lines(path)
        assert g.has_edge(12345, 678) and g.has_edge(9, 10)

    @pytest.mark.parametrize(
        "trap",
        [
            b"1-2 5", b"+-3 5", b"--4 5", b"- 5", b"5 -", b"-", b"1_000 5",
            "١٢ 5".encode(), b"1234567890123456789 5",
            b"12345678901234567890 5", b"-123456789012345678 5",
            b"999999999999999999 5", b"1.0 5", b"0x10 5", b"1\x0c2",
            b"5 6\x0c", b"\x0c5 6", b"1\x002", b"\x00", b"\xff\xfe 5",
            b"5 6 \xff", b"+5 -6", b"007 -0", b"5\t6\t7",
        ],
    )
    def test_a_trap_in_a_later_block_reads_as_int_does(self, tmp_path, trap):
        filler = b"0 1\n" * (graph_io.BLOCK_BYTES // 4 + 10)
        lineno = filler.count(b"\n") + 1
        path = tmp_path / "g.txt"
        path.write_bytes(filler + trap + b"\n" + b"2 3\n" * 50 + b"7 8")
        want = _assert_reads_like_lines(path)
        if isinstance(want, str):
            assert f"{path}:{lineno}: " in want
        else:
            assert want.has_edge(7, 8)

    @pytest.mark.parametrize(
        "graph", ["dense_50000", "sparse_50000", "dense_10000"]
    )
    def test_the_benchmark_graphs_read_as_their_lines_do(self, tmp_path, graph):
        spec = importlib.util.spec_from_file_location(
            "e2e_inputs", ROOT / "benchmarks" / "e2e" / "inputs.py"
        )
        inputs = importlib.util.module_from_spec(spec)
        with mock.patch.dict(sys.modules, {spec.name: inputs}):
            spec.loader.exec_module(inputs)
        kind, n = graph.split("_")
        path = tmp_path / "g.txt"
        write_edge_list(getattr(inputs, f"{kind}_graph")(int(n)), path)
        _assert_reads_like_lines(path)
