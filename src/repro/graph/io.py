"""Reading and writing (uncertain) graphs as edge lists.

Formats
-------
Deterministic edge list: one ``u v`` pair per line.
Probabilistic edge list: one ``u v p`` triple per line, as distributed with
the paper's datasets (https://github.com/ArkaSaha/MPDS uses this layout).

Lines starting with ``#`` or ``%`` are comments.  Node labels are kept as
strings unless every label parses as an integer, in which case they are
converted (so files written by this module round-trip).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Union

from .graph import Graph
from .uncertain import UncertainGraph

PathLike = Union[str, Path]


def data_rows(lines: Iterable[str]) -> Iterator[List[str]]:
    """Yield the whitespace-split data rows of edge-list text.

    Blank lines and lines starting with ``#`` or ``%`` are skipped.
    """
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith(("#", "%")):
            yield line.split()


def normalize_labels(rows: Sequence[list]) -> None:
    """Apply the label rule to the ``u, v`` slots of ``rows``, in place.

    Every endpoint becomes an ``int`` when all of them parse as one, and
    a ``str`` otherwise -- so text rows, JSON rows and deltas against
    them all address the same nodes.
    """
    as_int = True
    for row in rows:
        for label in row[:2]:
            try:
                int(str(label))
            except ValueError:
                as_int = False
    for row in rows:
        for slot in (0, 1):
            label = row[slot]
            if as_int:
                row[slot] = int(str(label))
            elif not isinstance(label, str):
                row[slot] = str(label)


def parse_edge_rows(lines: Iterable[str], width: int) -> List[List]:
    """Parse edge-list text into labelled rows of ``width`` columns.

    The one edge-list row parser: comment and blank lines are skipped,
    columns past ``width`` ignored, and labels follow
    :func:`normalize_labels`.  A row with fewer columns is an error.
    """
    rows: List[List] = []
    for row in data_rows(lines):
        if len(row) < width:
            kind = "probabilistic edge" if width == 3 else "edge"
            raise ValueError(f"malformed {kind} line: {row!r}")
        rows.append(row[:width])
    normalize_labels(rows)
    return rows


def parse_uncertain_edge_list(lines: Iterable[str]) -> UncertainGraph:
    """Build an uncertain graph from ``u v p`` edge-list text lines."""
    graph = UncertainGraph()
    for u, v, p in parse_edge_rows(lines, 3):
        graph.add_edge(u, v, float(p))
    return graph


def read_edge_list(path: PathLike) -> Graph:
    """Read a deterministic graph from a ``u v`` edge list file."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = parse_edge_rows(handle, 2)
    graph = Graph()
    for u, v in rows:
        graph.add_edge(u, v)
    return graph


def read_uncertain_edge_list(path: PathLike) -> UncertainGraph:
    """Read an uncertain graph from a ``u v p`` edge list file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_uncertain_edge_list(handle)


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write a deterministic graph as a ``u v`` edge list."""
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in sorted(graph.edges(), key=repr):
            handle.write(f"{u} {v}\n")


def write_uncertain_edge_list(graph: UncertainGraph, path: PathLike) -> None:
    """Write an uncertain graph as a ``u v p`` edge list."""
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, p in sorted(graph.weighted_edges(), key=repr):
            handle.write(f"{u} {v} {p:.9g}\n")
