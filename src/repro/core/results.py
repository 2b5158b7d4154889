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

import copy
import heapq
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import is_
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

NodeSet = FrozenSet[Hashable]


def _node_list(nodes: NodeSet) -> list:
    """A frozenset's canonical (repr-sorted) list form for serialization."""
    return sorted(nodes, key=repr)


def _number(value) -> str:
    """``json.dumps(value)``, fast for finite floats (numpy's too)."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _rank_key(item: Tuple[NodeSet, float]) -> tuple:
    nodes, probability = item
    return -probability, len(nodes), sorted(map(repr, nodes))


def rank_top_k(
    scored: Iterable[Tuple[NodeSet, float]], k: int
) -> List[ScoredNodeSet]:
    """The first ``k`` ``(nodes, probability)`` pairs in rank order.

    Rank order is decreasing probability, then increasing size, then the
    repr-sorted member lists; full ties keep their input order (the sort
    is stable).  The repr key is the expensive part, so it is built only
    for the pairs whose ``(-probability, size)`` key is at most the k-th
    smallest such key.  That subset holds at least ``k`` pairs, every
    pair outside it ranks below every pair inside it, and the stable
    sort of the subset orders it exactly as the full sort does.  ``k``
    slices like ``ranked[:k]``.
    """
    items = list(scored)
    if 0 < k < len(items):
        keys = [(-probability, len(nodes)) for nodes, probability in items]
        boundary = heapq.nsmallest(k, keys)[-1]
        items = [item for item, key in zip(items, keys) if key <= boundary]
    items.sort(key=_rank_key)
    return [
        ScoredNodeSet(nodes, probability) for nodes, probability in items[:k]
    ]


class SerialMemo:
    """Node set -> its :func:`_node_list` (``to_dict`` fills it, handing
    out copies) and its candidate piece ``(p, "[<node list>, <p>]")``
    as ``to_json`` last rendered it.  A piece serves only the very ``p``
    it was rendered for (:meth:`render`), so racing threads and edited
    results can re-render it but never read a stale one.  An
    :class:`MPDSTally`'s world groups render through it and keep the
    very strings it holds; owners bound the memo with :meth:`retain`."""

    def __init__(self) -> None:
        self.lists: Dict[NodeSet, list] = {}
        self.pieces: Dict[NodeSet, Tuple[object, str]] = {}

    def render(self, candidates: Dict[NodeSet, object]) -> List[str]:
        """``json.dumps([_node_list(nodes), p])`` of each candidate.  A
        cached piece is reused when its ``p`` has ``p``'s type and value
        and is truthy (``1`` never passes for ``1.0``; NaN and signed
        zeros re-render); another ``p`` re-renders only the number.
        Only numbers are cached: their text holds no ``", "`` and
        cannot change."""
        pieces, parts = self.pieces, []
        for nodes, p in candidates.items():
            cached = pieces.get(nodes)
            if cached is None:
                head = "[" + json.dumps(_node_list(nodes))
            else:
                old, text = cached
                if type(old) is type(p) and old == p and p:
                    parts.append(text)
                    continue
                head = text[:text.rindex(", ")]
            text = head + ", " + _number(p) + "]"
            if isinstance(p, (int, float)):
                pieces[nodes] = (p, text)
            parts.append(text)
        return parts

    def retain(self, keep) -> None:
        """Drop every node set not in ``keep`` (iterating snapshots: a
        serializing thread may insert meanwhile)."""
        for table in (self.lists, self.pieces):
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
    """The k-independent half of an Algorithm 1 result, patchable in
    O(changed worlds).

    It keeps each world's record and weight, and each candidate's worlds
    and home (the first of them).  ``groups[i]`` maps the candidates at
    home in world ``i`` to their estimates in record order, so
    ``candidates``, the in-order update of the groups, follows the
    first-seen order the JSON shows; ``parts[i]`` holds their
    ``[nodes, p]`` pieces once a reply rendered the group; ``ranked``
    (``None`` until ranked) is the top of the ranking for the largest k
    asked so far.  With one weight ``w`` for every world (mc, lp), a
    candidate in ``c`` worlds sums to ``S[c] = S[c-1] + w`` in any world
    order, so its estimate is ``S[c] / S[theta]`` bit for bit; unequal
    weights (RSS) sum its worlds in world order.  :meth:`patched` moves
    the index to a new tally; the old one keeps its own candidates,
    groups and texts for the results ranked from it.
    """

    __slots__ = ("candidates", "theta", "worlds_with_densest",
                 "densest_counts", "ranked", "groups", "parts", "rebuilt",
                 "_sets", "_weights", "_worlds", "_home", "_sums",
                 "_table")

    def __init__(self, records: Iterable) -> None:
        records = list(records)
        self._weights = [weight for _sets, weight in records]
        self._sets = [[] for _ in records]
        self.groups = [{} for _ in records]
        self.parts: List[Optional[List[str]]] = [None] * len(records)
        self._worlds: Optional[Dict[NodeSet, set]] = {}
        self._home: Dict[NodeSet, int] = {}
        self.ranked: Optional[List[ScoredNodeSet]] = None
        self._sums = sums = [0.0]
        for weight in self._weights:
            sums.append(sums[-1] + weight)
        # S[c] / S[theta] by count, when every weight is the same
        self._table = None
        if all(weight == sums[1] for weight in self._weights):
            self._table = [s / sums[-1] if sums[-1] > 0.0 else s for s in sums]
        self._apply(records, range(len(records)))

    def _estimate(self, nodes: NodeSet) -> float:
        seen = self._worlds[nodes]
        if self._table is not None:
            return self._table[len(seen)]
        total = 0.0
        for i in sorted(seen):
            total += self._weights[i]
        return total / self._sums[-1] if self._sums[-1] > 0.0 else total

    def _first(self, nodes: NodeSet) -> Tuple[int, int]:
        """A candidate's first-seen key: home, then record position."""
        home = self._home[nodes]
        return home, self._sets[home].index(nodes)

    def _key(self, nodes: NodeSet, probability: float) -> tuple:
        """:func:`rank_top_k`'s key, then the first-seen key its stable
        sort keeps."""
        return (-probability, len(nodes), sorted(map(repr, nodes)),
                self._first(nodes))

    @property
    def patchable(self) -> bool:
        """Whether no patch moved the index to a newer tally yet."""
        return self._worlds is not None

    def patched(self, records: list, changed: Iterable[int]) -> "MPDSTally":
        """The tally of ``records``, which differ from this tally's only
        at the worlds ``changed``: only their record differences are
        applied, only the groups whose members moved are rebuilt, and
        the ranked prefix is carried over unless a moved candidate
        reaches its boundary or leaves it (a new world count or weight
        rebuilds from scratch)."""
        ranked, bound = self.ranked, None
        if ranked:
            bound = self._key(ranked[-1].nodes, ranked[-1].probability)
        new = copy.copy(self)
        new.groups, new.parts, self._worlds = list(self.groups), list(
            self.parts), None
        moved = None
        if len(records) == len(new._sets):
            moved = new._apply(records, changed)
        if moved is None:
            return MPDSTally(records)
        new.ranked = new._carry(ranked, bound, moved)
        return new

    def _apply(self, records: list, changed: Iterable[int]):
        """Apply the records of the worlds ``changed`` in place and
        return the candidates that moved (``None`` if a weight moved)."""
        sets, worlds, home = self._sets, self._worlds, self._home
        moved, rebuild = set(), set()
        for i in changed:
            densest, weight = records[i]
            before = sets[i]
            if densest == before:
                continue
            if weight is not self._weights[i] and weight != self._weights[i]:
                return None
            sets[i] = densest
            rebuild.add(i)
            old, new = set(before), set(densest)
            gone, came = old - new, new - old
            for nodes in gone:
                worlds[nodes].discard(i)
            for nodes in came:
                seen = worlds.get(nodes)
                if seen is None:
                    worlds[nodes] = {i}
                else:
                    seen.add(i)
            moved |= gone | came
            # a reordered record reorders the candidates at home there
            common = old & new
            if common and list(filter(common.__contains__, before)) != list(
                    filter(common.__contains__, densest)):
                moved |= common
        rebuild.update(map(home.get, moved))
        for nodes in moved:
            seen = worlds[nodes]
            if seen:
                home[nodes] = min(seen)
            else:
                del worlds[nodes]
                home.pop(nodes, None)
        rebuild.update(map(home.get, moved))
        rebuild.discard(None)
        for i in rebuild:
            self.groups[i] = {nodes: self._estimate(nodes)
                              for nodes in sets[i] if home[nodes] == i}
            self.parts[i] = None
        self.rebuilt = len(rebuild)
        self.theta = len(sets)
        self.densest_counts = [len(densest) for densest in sets]
        self.worlds_with_densest = sum(map(bool, self.densest_counts))
        self.candidates = {}
        for group in self.groups:
            self.candidates.update(group)
        return moved

    def _carry(self, ranked, bound, moved) -> Optional[List[ScoredNodeSet]]:
        """The old ranked prefix updated for the ``moved`` candidates, or
        ``None`` when only a full rank is exact.  Every candidate outside
        the pool below ranks after the old last key ``bound`` (unmoved
        ones keep their keys), so when the pool's last of the same
        length is within ``bound``, the pool's top is the new prefix."""
        if not moved or not ranked:
            return ranked
        live, cut = self.candidates, bound[:2]
        entering = [nodes for nodes in moved
                    if nodes in live and (-live[nodes], len(nodes)) <= cut]
        pool = [scored.nodes for scored in ranked if scored.nodes not in moved]
        if not entering and len(pool) == len(ranked):
            return ranked
        pool += entering
        pool.sort(key=self._first)
        top = rank_top_k([(nodes, live[nodes]) for nodes in pool], len(ranked))
        last = top[-1] if len(top) == len(ranked) else None
        if last is None or self._key(last.nodes, last.probability) > bound:
            return None
        return top

    def texts(self, candidates: Dict[NodeSet, float],
              memo: "SerialMemo") -> Optional[List[str]]:
        """The groups' ``[nodes, p]`` pieces in order (rendering the
        groups no reply rendered yet), or ``None`` unless ``candidates``
        holds exactly this tally's keys and value objects in order."""
        mine = self.candidates
        if len(candidates) != len(mine) or not (
            all(map(is_, candidates, mine))
            and all(map(is_, candidates.values(), mine.values()))
        ):
            return None
        parts = self.parts
        for i, group in enumerate(self.groups):
            if parts[i] is None:
                parts[i] = memo.render(group)
        return list(chain.from_iterable(parts))


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
        without them the text is one join of :meth:`_json_parts`,
        byte-identical to ``json.dumps(self.to_dict())``)."""
        if kwargs:
            return json.dumps(self.to_dict(), **kwargs)
        return ", ".join(self._json_parts())

    def _json_parts(self) -> List[str]:
        """Texts whose ``", "``-join is the JSON of :meth:`to_dict`."""
        return [json.dumps(self.to_dict())]

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
    (``to_dict``) and encoded (``to_json``) once per entry and
    probability instead of once per call; without one, each call
    serializes through a throwaway memo.  ``_base`` is the
    :class:`MPDSTally` the result was ranked from, which a session
    entry keeps; while ``candidates`` holds exactly the tally's keys and
    values, ``to_json`` joins the tally's group pieces instead of
    visiting every candidate.
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

    def _json_parts(self) -> List[str]:
        fields = self._fields(None)
        at = list(fields).index("candidates")
        texts = [json.dumps(key) + ": " + json.dumps(fields[key])
                 for key in fields]
        memo, base = self._memo or SerialMemo(), self._base
        parts = None if base is None else base.texts(self.candidates, memo)
        if parts is None:
            parts = memo.render(self.candidates)
        # the small fields ride on the first and last candidate pieces
        head = "{" + ", ".join(texts[:at]) + ', "candidates": ['
        tail = "], " + ", ".join(texts[at + 1:]) + "}"
        if not parts:
            return [head + tail]
        parts[0] = head + parts[0]
        parts[-1] += tail
        return parts

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
