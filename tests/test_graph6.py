import networkx as nx
import pytest

from alpha_extremal.graph6 import Graph6Error, decode_graph6, encode_graph6
from alpha_extremal.graphs import Graph


def iter_graph6_lines(lines):
    """Decode a graph6 stream, one graph per non-empty line."""
    for line in lines:
        line = line.strip()
        if line:
            yield decode_graph6(line)


def graph_to_json_dict(g):
    """Adjacency-list export: {"n": int, "edges": [[u, v], ...]} with u < v sorted."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_dict(data):
    return Graph.from_edges(int(data["n"]), [tuple(e) for e in data["edges"]])


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestDecode:
    def test_empty_triangle(self):
        g = decode_graph6("B?")
        assert g.n == 3 and g.edge_count() == 0

    def test_triangle_hand_packed(self):
        # bits for pairs (0,1),(0,2),(1,2) all set: 111000 -> 56, 63+56 = 'w'
        assert ord("w") - 63 == 0b111000
        g = decode_graph6("Bw")
        assert g == Graph.complete(3)

    def test_header_prefix_stripped(self):
        assert decode_graph6(">>graph6<<Bw") == Graph.complete(3)

    def test_single_vertex_and_empty(self):
        assert decode_graph6("@").n == 1
        assert decode_graph6("?").n == 0

    def test_malformed_length(self):
        with pytest.raises(Graph6Error) as info:
            decode_graph6("C")
        assert info.value.offset == 1
        with pytest.raises(Graph6Error):
            decode_graph6("Bww")

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error) as info:
            decode_graph6("B\x1f")
        assert info.value.offset == 1
        with pytest.raises(Graph6Error) as info:
            decode_graph6("\x7f?")
        assert info.value.offset == 0

    def test_empty_string(self):
        with pytest.raises(Graph6Error):
            decode_graph6("")


class TestEncode:
    def test_round_trip_all_orders_to_6(self, graphs_by_order):
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                assert decode_graph6(encode_graph6(g)) == g

    def test_round_trip_order_8(self, graphs_order_8):
        for g in graphs_order_8:
            s = encode_graph6(g)
            assert decode_graph6(s) == g

    def test_against_external_codec_order_5(self, graphs_by_order):
        # networkx is the independent codec oracle.
        for g in graphs_by_order[5]:
            external = nx.to_graph6_bytes(to_nx(g), header=False).strip().decode()
            assert encode_graph6(g) == external
            assert decode_graph6(external) == g
            assert encode_graph6(decode_graph6(external)) == external

    def test_order_cap(self):
        with pytest.raises(ValueError, match="62"):
            encode_graph6(Graph.empty(63))
        assert decode_graph6(encode_graph6(Graph.empty(62))).n == 62


class TestStreamsAndJson:
    def test_line_stream(self):
        graphs = list(iter_graph6_lines(["Bw", "", "B?", "  "]))
        assert [g.edge_count() for g in graphs] == [3, 0]

    def test_json_round_trip(self):
        g = Graph.from_edges(5, [(4, 0), (2, 1), (3, 2)])
        data = graph_to_json_dict(g)
        assert data["n"] == 5
        assert data["edges"] == [[0, 4], [1, 2], [2, 3]]
        assert graph_from_json_dict(data) == g
