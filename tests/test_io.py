"""Unit tests for graph/pattern serialisation (repro.graph.io)."""

from __future__ import annotations

import pytest

from repro.exceptions import SerializationError
from repro.graph.datagraph import DataGraph
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_graph_json,
    load_pattern_json,
    save_edge_list,
    save_graph_json,
    save_pattern_json,
)
from repro.graph.pattern import Pattern
from repro.graph.predicates import Predicate


class TestGraphJson:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.json"
        save_graph_json(tiny_graph, path)
        restored = load_graph_json(path)
        assert restored.number_of_nodes() == tiny_graph.number_of_nodes()
        assert set(restored.edges()) == set(tiny_graph.edges())
        assert restored.attributes("a") == tiny_graph.attributes("a")
        assert restored.name == "tiny"

    def test_dict_round_trip_without_files(self, tiny_graph):
        restored = graph_from_dict(graph_to_dict(tiny_graph))
        assert set(restored.edges()) == set(tiny_graph.edges())

    def test_tuple_node_ids_survive(self):
        graph = DataGraph()
        graph.add_node(("user", 1), label="A")
        graph.add_node(("user", 2), label="B")
        graph.add_edge(("user", 1), ("user", 2))
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.has_edge(("user", 1), ("user", 2))

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_graph_json(path)

    def test_missing_key_raises(self):
        with pytest.raises(SerializationError):
            graph_from_dict({"nodes": []})

    @pytest.mark.parametrize("loader", [load_graph_json, load_pattern_json, load_edge_list])
    def test_unreadable_path_raises(self, tmp_path, loader):
        with pytest.raises(SerializationError, match="No such file"):
            loader(tmp_path / "missing.json")
        # A directory is unreadable as a file, too.
        with pytest.raises(SerializationError, match="cannot read"):
            loader(tmp_path)


class TestPatternJson:
    def test_round_trip(self, tmp_path):
        pattern = Pattern(name="P")
        pattern.add_node("CS", Predicate.equals("dept", "CS"))
        pattern.add_node("Bio", Predicate.equals("dept", "Bio"))
        pattern.add_edge("CS", "Bio", 2)
        path = tmp_path / "pattern.json"
        save_pattern_json(pattern, path)
        restored = load_pattern_json(path)
        assert restored.bound("CS", "Bio") == 2
        assert restored.predicate("Bio").evaluate({"dept": "Bio"})

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_pattern_json(path)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        graph = DataGraph(name="numbers")
        for index in range(4):
            graph.add_node(index)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        path = tmp_path / "edges.txt"
        save_edge_list(graph, path)
        restored = load_edge_list(path)
        assert set(restored.edges()) == set(graph.edges())

    def test_comments_and_attributes(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment line\n1 2\n2 3\n", encoding="utf-8")
        restored = load_edge_list(path, attributes={1: {"label": "A"}})
        assert restored.number_of_edges() == 2
        assert restored.attribute(1, "label") == "A"

    def test_string_node_ids(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\nbob carol\n", encoding="utf-8")
        restored = load_edge_list(path, node_type=str)
        assert restored.has_edge("alice", "bob")

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("justone\n", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_edge_list(path)

    def test_non_integer_token_raises(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_edge_list(path)
