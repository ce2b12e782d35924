"""FactorisedView — columns + edge certificates instead of the tuple set."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from repro.api import FactorisedView, wrap
from repro.exceptions import EdgeNotFoundError
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.match_result import MatchResult


@pytest.fixture
def layered():
    """Two A-nodes each reaching two of four B-nodes in one hop."""
    graph = DataGraph(name="layered")
    for name in ("a1", "a2"):
        graph.add_node(name, label="A")
    for name in ("b1", "b2", "b3", "b4"):
        graph.add_node(name, label="B")
    graph.add_edge("a1", "b1")
    graph.add_edge("a1", "b2")
    graph.add_edge("a2", "b3")
    graph.add_edge("a2", "b4")
    return graph


def ab_pattern(bound: int = 1) -> Pattern:
    pattern = Pattern(name="ab")
    pattern.add_node("A", "A")
    pattern.add_node("B", "B")
    pattern.add_edge("A", "B", bound)
    return pattern


class TestFactorisation:
    def test_view_factorised_returns_factorised_view(self, layered):
        view = wrap(layered).query(ab_pattern()).match()
        factorised = view.factorised()
        assert isinstance(factorised, FactorisedView)
        assert factorised.result is view.result
        assert factorised.pattern.name == "ab"

    def test_columns_are_sorted_and_cached(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        assert factorised.column("A") == ["a1", "a2"]
        assert factorised.column("B") == ["b1", "b2", "b3", "b4"]
        assert factorised.column("A") is factorised.column("A")
        assert factorised.columns() == {
            "A": ["a1", "a2"],
            "B": ["b1", "b2", "b3", "b4"],
        }

    def test_count_is_the_column_product(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        assert factorised.count_factorised() == 2 * 4
        assert bool(factorised)
        assert factorised._column_cache == {}  # counting builds no column

    def test_empty_result_counts_zero(self, layered):
        pattern = Pattern(name="no-match")
        pattern.add_node("A", "A")
        pattern.add_node("Z", "Z")
        pattern.add_edge("A", "Z", 1)
        factorised = wrap(layered).query(pattern).match().factorised()
        assert factorised.count_factorised() == 0
        assert not factorised
        assert list(factorised.to_rows()) == []

    def test_empty_pattern_counts_the_empty_product(self):
        factorised = FactorisedView(Pattern(), MatchResult.empty())
        assert factorised.count_factorised() == 1
        assert list(factorised.to_rows()) == []

    def test_no_len_by_design(self, layered):
        # The tuple count routinely exceeds ssize_t; len() must not exist.
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        with pytest.raises(TypeError):
            len(factorised)

    def test_repr_shows_column_sizes(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        assert "2x4" in repr(factorised)


class TestCertificates:
    def test_certificate_per_parent_candidate(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        cert = factorised.certificate("A", "B")
        assert cert == {
            "a1": frozenset({"b1", "b2"}),
            "a2": frozenset({"b3", "b4"}),
        }
        assert factorised.certificate("A", "B") is cert

    def test_certificate_rejects_non_edges(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        with pytest.raises(EdgeNotFoundError):
            factorised.certificate("B", "A")

    def test_certificate_requires_an_oracle(self, layered):
        view = wrap(layered).query(ab_pattern()).match()
        bare = FactorisedView(view.pattern, view.result, graph=layered)
        with pytest.raises(ValueError):
            bare.certificate("A", "B")


class TestEnumeration:
    def test_default_rows_are_the_cross_product(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        rows = list(factorised.to_rows())
        assert len(rows) == factorised.count_factorised()
        assert rows[0] == {"A": "a1", "B": "b1"}
        assert {frozenset(row.items()) for row in rows} == {
            frozenset({("A", a), ("B", b)})
            for a in ("a1", "a2")
            for b in ("b1", "b2", "b3", "b4")
        }

    def test_connected_rows_respect_the_certificates(self, layered):
        factorised = wrap(layered).query(ab_pattern()).match().factorised()
        rows = list(factorised.to_rows(connected=True))
        assert {tuple(sorted(row.items())) for row in rows} == {
            (("A", "a1"), ("B", "b1")),
            (("A", "a1"), ("B", "b2")),
            (("A", "a2"), ("B", "b3")),
            (("A", "a2"), ("B", "b4")),
        }

    def test_connected_rows_on_a_chain(self):
        graph = DataGraph()
        for index in range(4):
            graph.add_node(f"n{index}", label=f"L{index % 2}")
        for index in range(3):
            graph.add_edge(f"n{index}", f"n{index + 1}")
        pattern = Pattern()
        pattern.add_node("x", "L0")
        pattern.add_node("y", "L1")
        pattern.add_node("z", "L0")
        pattern.add_edge("x", "y", 1)
        pattern.add_edge("y", "z", 1)
        factorised = wrap(graph).query(pattern).match().factorised()
        rows = list(factorised.to_rows(connected=True))
        assert rows == [{"x": "n0", "y": "n1", "z": "n2"}]
        # The unconstrained cross product is strictly larger.
        assert factorised.count_factorised() > len(rows)

    def test_enumeration_streams_without_materialising(self):
        """Acceptance: a cross-product-heavy result enumerates in O(columns) memory."""
        num_per_label = 1500
        graph = DataGraph(name="wide")
        for label in ("A", "B", "C"):
            for index in range(num_per_label):
                graph.add_node(f"{label}{index}", label=label)
        pattern = Pattern(name="wide")
        for label in ("A", "B", "C"):
            pattern.add_node(label, label)
        factorised = wrap(graph).query(pattern).match().factorised()

        tracemalloc.start()
        # 3.375 billion assignment tuples: the count is exact big-int
        # arithmetic and the row prefix streams off the factorisation.
        assert factorised.count_factorised() == num_per_label**3
        prefix = list(itertools.islice(factorised.to_rows(), 1000))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(prefix) == 1000
        assert all(len(row) == 3 for row in prefix)
        # Far below anything that could hold 3.4e9 tuples; generous enough
        # to ignore allocator noise around the three 1.5k-entry columns.
        assert peak < 8 * 1024 * 1024
