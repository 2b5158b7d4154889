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
import math
from dataclasses import dataclass, field
from operator import is_
from typing import Dict, FrozenSet, Hashable, List, Optional

NodeSet = FrozenSet[Hashable]


def _node_list(nodes: NodeSet) -> list:
    """A frozenset's canonical (repr-sorted) list form for serialization."""
    return sorted(nodes, key=repr)


def _number(value) -> str:
    """``json.dumps(value)``, fast for finite floats (numpy's too)."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


class SerialMemo:
    """Node set -> its :func:`_node_list` (``to_dict`` fills it, handing
    out copies) and that list's JSON text (``to_json`` fills it).  Both
    depend only on the set's members, so racing threads store equal
    values and nothing goes stale; owners bound it with :meth:`retain`."""

    def __init__(self) -> None:
        self.lists: Dict[NodeSet, list] = {}
        self.fragments: Dict[NodeSet, str] = {}

    def fragment(self, nodes: NodeSet) -> str:
        text = self.fragments.get(nodes)
        if text is None:
            text = self.fragments[nodes] = json.dumps(_node_list(nodes))
        return text

    def retain(self, keep) -> None:
        """Drop every node set not in ``keep`` (iterating snapshots: a
        serializing thread may insert meanwhile)."""
        for table in (self.lists, self.fragments):
            for nodes in list(table):
                if nodes not in keep:
                    table.pop(nodes, None)


class ResultDict(dict):
    """What ``to_dict`` returns: a plain ``dict`` of the wire fields
    that also keeps the ``result`` it was built from, so an encoder can
    write ``result.to_json()`` (byte-identical to ``json.dumps`` of the
    dict) instead of encoding the dict again.  That holds while neither
    the dict nor the result is mutated; ``repro-serve`` encodes a reply
    it has just built."""

    __slots__ = ("result",)

    def __init__(self, result: "SerializableResult", fields: dict) -> None:
        super().__init__(fields)
        self.result = result


class MPDSTally:
    """The k-independent half of an Algorithm 1 result: the normalized
    estimate of every candidate, the world counters, and two caches
    filled on demand (``None`` until then): ``ranked``, the top of the
    ranking for the largest k asked so far (a smaller k takes its
    prefix), and ``text``, the candidates' JSON array once a second
    result serialized it (``serialized`` marks the first), so a tally
    serialized once holds no copy of its reply's largest part.

    :func:`repro.core.mpds.finalize_mpds` builds one and ranks it; a
    session's evaluation entry keeps it, so a warm hit only ranks.
    Results copy ``candidates`` and ``densest_counts``, so nothing a
    caller does to a result reaches the tally.
    """

    __slots__ = ("candidates", "theta", "worlds_with_densest",
                 "densest_counts", "ranked", "text", "serialized")

    def __init__(self, candidates: Dict[NodeSet, float], theta: int,
                 worlds_with_densest: int, densest_counts: List[int]) -> None:
        self.candidates = candidates
        self.theta = theta
        self.worlds_with_densest = worlds_with_densest
        self.densest_counts = densest_counts
        self.ranked: Optional[List[ScoredNodeSet]] = None
        self.text: Optional[str] = None
        self.serialized = False


def _same_items(mine: dict, theirs: dict) -> bool:
    """Whether two dicts hold the very same keys and values, in the
    same order (identity, so ``1`` never passes for ``1.0``)."""
    return (
        len(mine) == len(theirs)
        and all(map(is_, mine, theirs))
        and all(map(is_, mine.values(), theirs.values()))
    )


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
    """Shared wire protocol and ``top`` accessors of the results.

    Subclasses set ``kind`` and implement ``to_dict`` / ``from_dict``;
    the JSON forms and the ``kind`` dispatch of
    :func:`result_from_dict` come for free.
    """

    kind: str = "abstract"
    #: why :meth:`best` finds nothing in an empty ``top``
    nothing: str = "empty result"
    top: List[ScoredNodeSet]

    def top_sets(self) -> List[NodeSet]:
        """Return just the node sets of the top-k, in rank order."""
        return [scored.nodes for scored in self.top]

    def best(self) -> ScoredNodeSet:
        """Return the rank-1 estimate (raises on empty result)."""
        if not self.top:
            raise ValueError(self.nothing)
        return self.top[0]

    def to_dict(self) -> ResultDict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "SerializableResult":
        raise NotImplementedError

    def to_json(self, **kwargs) -> str:
        """Serialize to a JSON string (``kwargs`` pass to ``json.dumps``;
        without them the text is assembled from :meth:`_json_fields`,
        byte-identical to ``json.dumps(self.to_dict())``)."""
        if kwargs:
            return json.dumps(self.to_dict(), **kwargs)
        return "{" + ", ".join([
            json.dumps(key) + ": " + text
            for key, text in self._json_fields().items()
        ]) + "}"

    def _json_fields(self) -> dict:
        """The JSON text of each :meth:`to_dict` field, in its order."""
        fields = self.to_dict()
        return {key: json.dumps(fields[key]) for key in fields}

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

    Two private fields take no part in equality or ``repr``.  A
    session query hands the result its evaluation-cache entry's
    :class:`SerialMemo` as ``_memo``, so each candidate is sorted
    (``to_dict``) and encoded (``to_json``) once per entry instead of
    once per call; without one, each call serializes through a
    throwaway memo.  ``_base`` is the :class:`MPDSTally` the result was
    ranked from: while ``candidates`` still holds the tally's very
    items in its order, ``to_json`` reuses the tally's candidates text
    (or fills it, from the tally's second serialization on) instead of
    joining every fragment again.
    """

    kind = "mpds"
    nothing = "no candidate induced a densest subgraph"

    top: List[ScoredNodeSet]
    candidates: Dict[NodeSet, float]
    theta: int
    worlds_with_densest: int
    densest_counts: List[int] = field(default_factory=list)
    replayed_worlds: int = 0
    _memo: Optional[SerialMemo] = field(
        default=None, init=False, compare=False, repr=False
    )
    _base: Optional[MPDSTally] = field(
        default=None, init=False, compare=False, repr=False
    )

    def to_dict(self) -> ResultDict:
        lists = (self._memo or SerialMemo()).lists
        candidates = []
        for nodes, probability in self.candidates.items():
            listed = lists.get(nodes)
            if listed is None:
                listed = lists[nodes] = _node_list(nodes)
            # a copy: callers may mutate what to_dict returns
            candidates.append([listed[:], probability])
        return ResultDict(self, self._fields(candidates))

    def _json_fields(self) -> dict:
        fields = self._fields(None)
        fields = {key: json.dumps(fields[key]) for key in fields}
        base = self._base
        text = None
        if base is not None:
            if base.serialized and _same_items(self.candidates,
                                               base.candidates):
                text = base.text
                if text is None:
                    # racing threads store equal texts
                    text = base.text = self._candidates_json()
            base.serialized = True
        fields["candidates"] = (
            self._candidates_json() if text is None else text
        )
        return fields

    def _candidates_json(self) -> str:
        fragment = (self._memo or SerialMemo()).fragment
        return "[" + ", ".join([
            "[" + fragment(nodes) + ", " + _number(probability) + "]"
            for nodes, probability in self.candidates.items()
        ]) + "]"

    def _fields(self, candidates) -> dict:
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
    nothing = "no closed node set of the requested size found"

    top: List[ScoredNodeSet]
    theta: int
    transactions: int

    def to_dict(self) -> ResultDict:
        return ResultDict(self, {
            "kind": self.kind,
            "top": [scored.to_dict() for scored in self.top],
            "theta": self.theta,
            "transactions": self.transactions,
        })

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
