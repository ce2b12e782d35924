"""Serialisation of data graphs and patterns.

Two formats are supported:

* **JSON** — a self-describing dict with nodes (id + attributes) and edges;
  patterns additionally carry predicates and bounds.  This is the format the
  examples and experiment harness use to persist inputs and results.
* **Edge-list text** — the format of the SNAP / Newman network archive the
  paper's real-life datasets were distributed in: one ``source target`` pair
  per line, ``#`` comments allowed.  Attributes can be supplied separately.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.exceptions import SerializationError
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph_json",
    "load_graph_json",
    "save_pattern_json",
    "load_pattern_json",
    "save_edge_list",
    "load_edge_list",
]

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSON graphs
# ----------------------------------------------------------------------

def graph_to_dict(graph: DataGraph) -> Dict[str, Any]:
    """Serialise *graph* to a JSON-friendly dict."""
    return {
        "name": graph.name,
        "nodes": [
            {"id": node, "attributes": dict(graph.attributes(node))}
            for node in graph.nodes()
        ],
        "edges": [{"source": source, "target": target} for source, target in graph.edges()],
    }


def graph_from_dict(data: Mapping[str, Any]) -> DataGraph:
    """Reconstruct a :class:`DataGraph` from :func:`graph_to_dict` output."""
    try:
        graph = DataGraph(name=data.get("name", ""))
        for item in data["nodes"]:
            node = _freeze_node_id(item["id"])
            graph.add_node(node, **item.get("attributes", {}))
        for item in data["edges"]:
            graph.add_edge(
                _freeze_node_id(item["source"]),
                _freeze_node_id(item["target"]),
                strict=False,
            )
    except KeyError as exc:
        raise SerializationError(f"graph dict is missing key {exc}") from None
    except TypeError as exc:
        raise SerializationError(f"malformed graph dict: {exc}") from None
    return graph


def _freeze_node_id(value: Any) -> NodeId:
    """JSON round-trips lists for tuple ids; freeze them back to tuples."""
    if isinstance(value, list):
        return tuple(_freeze_node_id(item) for item in value)
    return value


def save_graph_json(graph: DataGraph, path: PathLike, *, indent: int = 2) -> None:
    """Write *graph* as JSON to *path*."""
    payload = graph_to_dict(graph)
    Path(path).write_text(json.dumps(payload, indent=indent, default=str), encoding="utf-8")


def _read_text(path: PathLike) -> str:
    """The text of *path*; a missing or unreadable file is a typed error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SerializationError(f"{path}: cannot read: {reason}") from None


def load_graph_json(path: PathLike) -> DataGraph:
    """Load a graph previously written by :func:`save_graph_json`."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid JSON: {exc}") from None
    return graph_from_dict(data)


# ----------------------------------------------------------------------
# JSON patterns
# ----------------------------------------------------------------------

def save_pattern_json(pattern: Pattern, path: PathLike, *, indent: int = 2) -> None:
    """Write *pattern* as JSON to *path*."""
    Path(path).write_text(
        json.dumps(pattern.to_dict(), indent=indent, default=str), encoding="utf-8"
    )


def load_pattern_json(path: PathLike) -> Pattern:
    """Load a pattern previously written by :func:`save_pattern_json`."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid JSON: {exc}") from None
    return Pattern.from_dict(data)


# ----------------------------------------------------------------------
# Edge-list text
# ----------------------------------------------------------------------

def save_edge_list(graph: DataGraph, path: PathLike, *, header: bool = True) -> None:
    """Write *graph* as a whitespace-separated edge list.

    Node attributes are not preserved by this format; use JSON when
    attributes matter.
    """
    lines = []
    if header:
        lines.append(f"# {graph.name or 'graph'}")
        lines.append(f"# nodes: {graph.number_of_nodes()} edges: {graph.number_of_edges()}")
    for source, target in graph.edges():
        lines.append(f"{source}\t{target}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_edge_list(
    path: PathLike,
    *,
    attributes: Optional[Mapping[NodeId, Mapping[str, Any]]] = None,
    node_type: type = int,
    name: str = "",
) -> DataGraph:
    """Load an edge-list text file into a :class:`DataGraph`.

    Parameters
    ----------
    attributes:
        Optional mapping from node id to attribute dict, merged in after the
        topology is read.
    node_type:
        Callable applied to every token to obtain node ids (``int`` by
        default, pass ``str`` for symbolic ids).
    """
    graph = DataGraph(name=name or Path(path).stem)
    text = _read_text(path)
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise SerializationError(
                f"{path}:{line_number}: expected 'source target', got {raw_line!r}"
            )
        try:
            source = node_type(parts[0])
            target = node_type(parts[1])
        except ValueError as exc:
            raise SerializationError(f"{path}:{line_number}: {exc}") from None
        graph.ensure_node(source)
        graph.ensure_node(target)
        graph.add_edge(source, target, strict=False)
    if attributes:
        for node, attrs in attributes.items():
            if graph.has_node(node):
                graph.set_attributes(node, **attrs)
    return graph
