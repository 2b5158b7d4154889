"""Warm parametric Dinkelbach: one push-relabel chain per component.

The classic Dinkelbach loop (object networks,
:func:`repro.dense.all_densest.prepare_from_bound`) solves a fresh
Goldberg network from scratch at every candidate density: each iteration
re-saturates the source, re-floods the component and re-parks the
periphery, so a three-iteration world pays for three cold flows.

This module is the vectorised engine's exact per-component stage: the
Gallo-Grigoriadis-Tarjan style *incremental* scheme, run on the
**reversed** Goldberg network ``N'`` (``source' = t``, ``sink' = s``;
every arc reversed, same capacities, so ``maxflow(N') = maxflow(N)``).
Raising the candidate density ``alpha = p / q`` only *raises
source'-side arc capacities* in ``N'`` (the reversed ``v -> t`` arcs,
capacity ``2 p``), which is exactly the parametric update GGT's
monotone scheme supports:

* saturate each capacity increment immediately, turning it into fresh
  excess at the graph nodes;
* keep all heights -- the only new residual arcs point *into* the
  source', which never routes flow out again, so height validity (and
  therefore the permanence of parked nodes) is preserved;
* resume the FIFO phase-1 discharge from the parked state.

Heights then climb monotonically across the *entire* Dinkelbach chain,
so the total relabel work for all iterations is bounded by roughly one
cold flow, instead of one per iteration.

Witness extraction: at phase-1 termination the parked set
``{v : h(v) >= n}`` is a min-cut source' side only under *exact*
heights; stale heights still give a valid **achieved** node set, whose
induced density either improves ``alpha`` (fine -- Dinkelbach accepts
any strictly improving achieved density) or does not, in which case one
global relabel makes the heights exact and the true min-cut witness
must improve (value below target means ``alpha < rho*``).

Once the chain certifies (``value == 2 m Q``), the parked excess
``2 n P - 2 m Q`` still legitimately sits inside ``N'`` -- a max
*preflow*, not a flow -- so a standard second phase returns it to the
source' (the chain subclasses :class:`repro.flow.push_relabel.Preflow`
and drains through the discharge loop ``csr_push_relabel`` runs), and
the max-flowed forward network is materialised through the
residual correspondence ``r_N(x -> y) = r_N'(y -> x)`` in exactly the
arc layout :func:`repro.flow.csr.build_edge_density_network_csr`
produces.  Downstream residual queries (SCC condensation, min-cut
sides) are flow-invariant [Picard-Queyranne], so the results are
byte-identical to the cold-restart loop's; the object
:func:`~repro.dense.all_densest.prepare_from_bound` is the reference the
tests pin this module against.

If the exact density re-shrinks the component to a tighter core, the
smaller network is solved cold with
:func:`repro.flow.push_relabel.csr_push_relabel` instead of draining
the chain.

Both phases are the one loop of :meth:`Preflow.discharge`: the chain's
:meth:`ReverseChain.run` resumes it in phase 1 (park at height ``n``),
:meth:`ReverseChain.drain` finishes with phase 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .csr import CSRFlowNetwork, _interleave, arc_layout, goldberg_pairs
from .push_relabel import Preflow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.indexed import SubWorldView

__all__ = ["ReverseChain", "parametric_dinkelbach"]

#: outer-iteration cap; Dinkelbach over a finite density set converges in
#: far fewer steps, so hitting this means a witness stopped improving
_MAX_ROUNDS = 10_000


class ReverseChain(Preflow):
    """One warm Dinkelbach chain over a component's reversed network.

    Drives phase-1 FIFO push-relabel with persistent heights across
    ``alpha`` increments; :meth:`drain` returns the parked excess and
    :meth:`forward_network` materialises the max-flowed forward network.
    """

    __slots__ = (
        "view", "n", "num", "den", "_position", "_pair_tail",
        "_pair_head", "_src_arcs", "_heights_exact",
    )

    def __init__(self, view: "SubWorldView", bound: Fraction) -> None:
        self.view = view
        n = view.n
        self.n = n
        alpha = Fraction(bound)
        self.num, self.den = alpha.numerator, alpha.denominator
        degrees = view.degrees().astype(np.int64)
        pair_tail, pair_head, cap_forward, cap_backward = goldberg_pairs(
            n, view.edge_lu, view.edge_lv, degrees, self.num, self.den
        )
        # reversed: every pair flipped, source' = t (= n + 1), sink' = s
        order, position, heads, twin, indptr = arc_layout(
            n + 2, pair_head, pair_tail
        )
        caps = _interleave(cap_forward, cap_backward)[order].tolist()
        super().__init__(
            CSRFlowNetwork(n + 2, n + 1, n, heads, caps, twin, indptr)
        )
        self._position = position
        self._pair_tail = pair_tail
        self._pair_head = pair_head
        # saturate every source' arc (t -> v), remembering each arc: the
        # alpha increments re-touch exactly these
        net = self.net
        ind = net.indptr
        src = net.source
        nodes = net.num_nodes
        self._src_arcs = [0] * n
        for e in range(ind[src], ind[src + 1]):
            self._src_arcs[net.to[e]] = e
        self.saturate_source()
        # analytic initial heights, exactly what the BFS of
        # :meth:`global_relabel` would compute on the fresh preflow:
        # every incident node owns a residual degree arc straight to the
        # sink' (v -> s, cap den * deg(v)), so its distance is 1;
        # isolated nodes are unreachable (infinity); sink' is 0 and
        # source' is pinned at ``nodes``.
        infinity = 2 * nodes
        sink = self.net.sink
        height = self.height
        height[:] = [infinity] * nodes
        height[sink] = 0
        height[src] = nodes
        deg_l = degrees.tolist()
        for v in range(n):
            if deg_l[v] > 0:
                height[v] = 1
        count_at_height = self.count_at_height
        for h in height:
            count_at_height[h] += 1
        self.pointers[:] = ind[:nodes]
        excess = self.excess
        in_queue = self.in_queue
        active = self.active
        for v in range(n):
            if excess[v] > 0 and height[v] < nodes:
                in_queue[v] = True
                active.append(v)
        self._heights_exact = True

    # ------------------------------------------------------------------
    # height maintenance
    # ------------------------------------------------------------------
    def global_relabel(self) -> None:
        """Exact residual BFS distances to the sink'; rebuild the queue."""
        self.relabel_to_distances((self.net.sink,))
        self._heights_exact = True

    # ------------------------------------------------------------------
    # phase-1 discharge (resumable)
    # ------------------------------------------------------------------
    def run(self) -> int:
        """FIFO phase-1 discharge to quiescence; return the flow value.

        Heights, pointers and parked excess persist across calls, which
        is what makes the chain warm: an :meth:`increment` enqueues only
        the fresh excess and ``run`` resumes :meth:`Preflow.discharge`'s
        phase 1 from the previous state.
        """
        dirty = bool(self.active)
        value = self.discharge(phase1=True)
        if dirty:
            self._heights_exact = False
        return value

    # ------------------------------------------------------------------
    # parametric update
    # ------------------------------------------------------------------
    def witness(self) -> np.ndarray:
        """Graph nodes below the cut: the candidate improving node set."""
        # heights are bounded by 2 * nodes + 1: int64 is always safe
        heights = np.array(self.height[: self.n], dtype=np.int64)
        return heights < self.net.num_nodes

    def increment(self, num: int, den: int) -> None:
        """Raise ``alpha`` to ``num / den`` and re-arm the discharge.

        Rescales every residual capacity and excess to the common
        denominator, then saturates the per-node source'-arc increment
        ``2 (num Q - P den)`` as fresh excess -- the GGT parametric
        step.  Heights are untouched (see the module docstring for why
        that is sound).
        """
        net = self.net
        cap = net.cap
        twin = net.twin
        excess = self.excess
        height = self.height
        in_queue = self.in_queue
        active = self.active
        nodes = net.num_nodes
        src = net.source
        if den != 1:
            cap[:] = [c * den for c in cap]
            excess[:] = [x * den for x in excess]
        delta = 2 * (num * self.den - self.num * den)
        if delta <= 0:  # pragma: no cover - guarded by the improving witness
            raise AssertionError(
                f"alpha increment {num}/{den} does not improve "
                f"{self.num}/{self.den}"
            )
        excess[src] -= delta * self.n
        for v in range(self.n):
            e = self._src_arcs[v]
            cap[twin[e]] += delta
            excess[v] += delta
            if height[v] < nodes and excess[v] > 0 and not in_queue[v]:
                in_queue[v] = True
                active.append(v)
        self.num, self.den = num * self.den, self.den * den

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Phase 2: return parked excess to the source' (preflow -> flow).

        Runs phase 2 of :meth:`Preflow.discharge`, the loop
        :func:`repro.flow.push_relabel.csr_push_relabel` runs: heights
        become ``d(v, sink')``, or ``nodes + d(v, source')`` when the
        sink' is unreachable, and every excess node discharges until
        conservation holds -- after which the residual capacities
        describe a valid maximum flow.  Its gap heuristic never fires
        here: after a max preflow every excess node is cut off from the
        sink', so every relabel starts at a height ``>= nodes``.
        """
        self.discharge()
        self._heights_exact = False

    def forward_network(self) -> CSRFlowNetwork:
        """Materialise the max-flowed *forward* Goldberg network.

        Pair ``k``'s forward residual in ``N`` equals its reversed
        forward residual in ``N'`` (and likewise the backward arcs), so
        the caps transfer index-by-index; the arc layout is rebuilt with
        the exact stable-sort :func:`build_edge_density_network_csr`
        uses, making the result indistinguishable from a cold max-flowed
        forward network (up to the residual flow's non-canonical
        interior, which no flow-invariant query observes).
        """
        n = self.n
        rev_position = self._position
        rev_cap = self.net.cap
        _order, position, heads, twin, indptr = arc_layout(
            n + 2, self._pair_tail, self._pair_head
        )
        pairs = len(self._pair_tail)
        # permute on plain lists: numpy scalar indexing per arc is the
        # dominant cost here, and the caps may exceed int64 anyway
        position_l = position.tolist()
        rev_position_l = rev_position.tolist()
        caps = [0] * (2 * pairs)
        for k in range(2 * pairs):
            caps[position_l[k]] = rev_cap[rev_position_l[k]]
        return CSRFlowNetwork(n + 2, n, n + 1, heads, caps, twin, indptr)


def parametric_dinkelbach(
    view: "SubWorldView", bound: Fraction
) -> Tuple[Fraction, CSRFlowNetwork, "SubWorldView"]:
    """Exact ``rho*`` of a connected component via one warm chain.

    Same contract as the cold-restart Dinkelbach loop (``bound`` is a
    positive achieved density ``<= rho*``; returns ``(rho*, max-flowed
    forward network, possibly re-shrunk view)``), same results (residual
    queries are flow-invariant), one warm push-relabel chain instead of
    one cold flow per iteration.
    """
    from .csr import build_edge_density_network_csr
    from .push_relabel import csr_push_relabel

    chain = ReverseChain(view, bound)
    value = chain.run()
    rounds = 0
    while value < 2 * view.m * chain.den:
        rounds += 1
        if rounds > _MAX_ROUNDS:  # pragma: no cover - defensive
            raise AssertionError("parametric Dinkelbach failed to converge")
        member = chain.witness()
        size = int(member.sum())
        num = view.induced_edges(member) if size else 0
        if size == 0 or num * chain.den <= chain.num * size:
            if chain._heights_exact:  # pragma: no cover - defensive
                raise AssertionError(
                    "exact min-cut witness failed to improve alpha"
                )
            # stale heights produced a non-improving set: make them
            # exact, after which {h < n} is a true min-cut side and
            # must improve (value below target means alpha < rho*)
            chain.global_relabel()
            continue
        chain.increment(num, size)
        value = chain.run()
    alpha = Fraction(chain.num, chain.den)
    ceil_density = -(-alpha.numerator // alpha.denominator)
    shrunken = view.k_core(ceil_density)
    if shrunken.m == 0:  # pragma: no cover - see prepare_from_bound
        shrunken = view
    if shrunken.n != view.n:
        # tighter core at the exact density: mirror the classic path and
        # solve the (much smaller) network cold
        view = shrunken
        network = build_edge_density_network_csr(
            view.n, view.edge_lu, view.edge_lv, view.degrees(), alpha
        )
        value = csr_push_relabel(network)
        expected = 2 * view.m * alpha.denominator
        if value != expected:  # pragma: no cover - guarded by exact rho*
            raise AssertionError(
                f"max flow {value} != 2 m q = {expected}; rho* not exact?"
            )
        return alpha, network, view
    chain.drain()
    return alpha, chain.forward_network(), view
