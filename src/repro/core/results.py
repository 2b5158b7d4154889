"""Result containers for the MPDS / NDS estimators.

Both result types implement one serializable protocol
(:class:`SerializableResult`: ``to_dict`` / ``to_json`` /
``from_dict`` / ``from_json``) so a serving layer can ship estimates
over the wire and rebuild them loss-free: node sets, probabilities,
world counters and the ``replayed_worlds`` bookkeeping all round-trip
(``tests/test_session.py`` pins it).  Node labels must be
JSON-representable for ``to_json`` (ints and strings are; tuples would
come back as lists) -- ``to_dict`` itself keeps the raw labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Tuple

NodeSet = FrozenSet[Hashable]


def _node_list(nodes: NodeSet) -> list:
    """A frozenset's canonical (repr-sorted) list form for serialization."""
    return sorted(nodes, key=repr)


@dataclass(frozen=True)
class ScoredNodeSet:
    """A node set with its estimated probability (tau-hat or gamma-hat)."""

    nodes: NodeSet
    probability: float

    def to_dict(self) -> dict:
        return {
            "nodes": _node_list(self.nodes),
            "probability": self.probability,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoredNodeSet":
        return cls(frozenset(data["nodes"]), float(data["probability"]))


class SerializableResult:
    """Shared wire protocol of the estimator results.

    Subclasses set ``kind`` and implement ``to_dict`` / ``from_dict``;
    the JSON forms and the ``kind`` dispatch of
    :func:`result_from_dict` come for free.
    """

    kind: str = "abstract"

    def to_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "SerializableResult":
        raise NotImplementedError

    def to_json(self, **kwargs) -> str:
        """Serialize to a JSON string (``kwargs`` pass to ``json.dumps``)."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SerializableResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def _check_kind(cls, data: dict) -> None:
        kind = data.get("kind")
        if kind != cls.kind:
            raise ValueError(
                f"cannot rebuild a {cls.kind!r} result from kind {kind!r}"
            )


@dataclass
class MPDSResult(SerializableResult):
    """Output of the top-k MPDS estimator (Algorithm 1).

    Attributes
    ----------
    top:
        The top-k node sets with their estimated densest subgraph
        probabilities, sorted by decreasing probability.
    candidates:
        Estimated probability of *every* candidate node set (those that
        induced a densest subgraph in at least one sampled world).
    theta:
        Number of sampled possible worlds.
    worlds_with_densest:
        Number of sampled worlds that had a (non-trivial) densest subgraph.
    densest_counts:
        Per sampled world, the number of densest subgraphs found -- the
        statistic summarised in Table VIII.
    replayed_worlds:
        Number of worlds the vectorised engine replayed through the
        pure-Python path because their densest-subgraph enumeration hit
        ``per_world_limit`` (the truncated subset is order-sensitive, so
        the replay keeps it byte-identical across engines).  Always 0 on
        the pure-Python engine.

    A session query hands the result its evaluation-cache entry's
    canonical-order memo (node set -> :func:`_node_list` form) as the
    private ``_canonical``, so ``to_dict`` sorts each candidate once per
    entry instead of once per call.  It takes no part in equality or
    ``repr``.
    """

    kind = "mpds"

    top: List[ScoredNodeSet]
    candidates: Dict[NodeSet, float]
    theta: int
    worlds_with_densest: int
    densest_counts: List[int] = field(default_factory=list)
    replayed_worlds: int = 0
    _canonical: Dict[NodeSet, list] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def top_sets(self) -> List[NodeSet]:
        """Return just the node sets of the top-k, in rank order."""
        return [scored.nodes for scored in self.top]

    def best(self) -> ScoredNodeSet:
        """Return the rank-1 MPDS estimate (raises on empty result)."""
        if not self.top:
            raise ValueError("no candidate induced a densest subgraph")
        return self.top[0]

    def to_dict(self) -> dict:
        canonical = self._canonical
        candidates = []
        for nodes, probability in self.candidates.items():
            listed = canonical.get(nodes)
            if listed is None:
                listed = canonical[nodes] = _node_list(nodes)
            # a copy: callers may mutate what to_dict returns
            candidates.append([listed[:], probability])
        return {
            "kind": self.kind,
            "top": [scored.to_dict() for scored in self.top],
            "candidates": candidates,
            "theta": self.theta,
            "worlds_with_densest": self.worlds_with_densest,
            "densest_counts": list(self.densest_counts),
            "replayed_worlds": self.replayed_worlds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MPDSResult":
        cls._check_kind(data)
        return cls(
            top=[ScoredNodeSet.from_dict(item) for item in data["top"]],
            candidates={
                frozenset(nodes): float(probability)
                for nodes, probability in data["candidates"]
            },
            theta=int(data["theta"]),
            worlds_with_densest=int(data["worlds_with_densest"]),
            densest_counts=[int(c) for c in data.get("densest_counts", [])],
            replayed_worlds=int(data.get("replayed_worlds", 0)),
        )


@dataclass
class NDSResult(SerializableResult):
    """Output of the top-k NDS estimator (Algorithm 5).

    ``top`` holds the closed node sets of size >= l_m with the highest
    estimated containment probabilities; ``transactions`` is the number of
    candidate maximum-sized densest subgraphs fed to the TFP miner.
    """

    kind = "nds"

    top: List[ScoredNodeSet]
    theta: int
    transactions: int

    def top_sets(self) -> List[NodeSet]:
        """Return just the node sets of the top-k, in rank order."""
        return [scored.nodes for scored in self.top]

    def best(self) -> ScoredNodeSet:
        """Return the rank-1 NDS estimate (raises on empty result)."""
        if not self.top:
            raise ValueError("no closed node set of the requested size found")
        return self.top[0]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "top": [scored.to_dict() for scored in self.top],
            "theta": self.theta,
            "transactions": self.transactions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NDSResult":
        cls._check_kind(data)
        return cls(
            top=[ScoredNodeSet.from_dict(item) for item in data["top"]],
            theta=int(data["theta"]),
            transactions=int(data["transactions"]),
        )


#: result classes by wire kind
RESULT_KINDS = {cls.kind: cls for cls in (MPDSResult, NDSResult)}


def result_from_dict(data: dict) -> SerializableResult:
    """Rebuild whichever result type ``data`` serializes (kind dispatch)."""
    kind = data.get("kind")
    cls = RESULT_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown result kind {kind!r}; known kinds: "
            f"{sorted(RESULT_KINDS)}"
        )
    return cls.from_dict(data)


def result_from_json(text: str) -> SerializableResult:
    """Rebuild whichever result type ``text`` serializes."""
    return result_from_dict(json.loads(text))
