"""String-spec registry for samplers and measures.

One grammar, shared by the :class:`repro.session.Query` builder, the CLI
and the experiments tier, so a sampler or density measure can be named in
configuration, on a command line, or over the wire:

``name[:key=value,key=value,...]``

* samplers -- ``"mc"``, ``"lp"``, ``"rss:r=4,max_depth=2"``; a sampler
  spec may additionally carry ``theta=`` and ``seed=`` (query-level
  knobs, split off by :func:`split_sampler_spec` rather than passed to
  the constructor): ``"mc:theta=160,seed=7"``.
* measures -- ``"edge"``, ``"clique:h=3"``, ``"pattern:psi=diamond"``,
  ``"surplus:alpha=0.33"``.

Values are parsed as ``int``, then ``float``, then ``true``/``false``,
falling back to the bare string.  Names are case-insensitive (``"MC"``
and ``"mc"`` are the same sampler, preserving the CLI's historical
spelling).  Unknown names and leftover parameters raise ``ValueError``
with the accepted vocabulary, so a typo fails loudly at parse time
rather than as a silently ignored knob.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from .core.extensions import EdgeSurplus
from .core.heuristics import HeuristicMeasure
from .core.measures import (
    CliqueDensity,
    DensityMeasure,
    EdgeDensity,
    PatternDensity,
)
from .patterns.pattern import Pattern
from .sampling import (
    LazyPropagationSampler,
    MonteCarloSampler,
    RecursiveStratifiedSampler,
)

#: pure-Python sampler constructors by spec name (all take (graph, seed)).
#: A new kind also needs its vectorised twin registered in
#: :data:`repro.engine.estimators.VECTOR_SAMPLER_KINDS` (the session's
#: cached-store path builds twins from that table).
SAMPLER_KINDS = {
    "mc": MonteCarloSampler,
    "lp": LazyPropagationSampler,
    "rss": RecursiveStratifiedSampler,
}

#: named patterns accepted by ``pattern:psi=...`` (and the CLI)
PATTERNS = {
    "2-star": Pattern.two_star,
    "3-star": Pattern.three_star,
    "c3-star": Pattern.c3_star,
    "diamond": Pattern.diamond,
}

SpecParams = Dict[str, Union[int, float, bool, str]]


def _parse_value(text: str) -> Union[int, float, bool, str]:
    """Parse one spec value: int, then float, then bool, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def parse_spec(text: str) -> Tuple[str, SpecParams]:
    """Split ``"name:key=value,..."`` into ``(name, params)``.

    The name is lower-cased; parameters keep their textual order only in
    error messages (the dict is insertion-ordered anyway).  A bare name
    parses to ``(name, {})``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"empty spec {text!r}")
    name, _sep, rest = text.partition(":")
    params: SpecParams = {}
    for item in rest.split(",") if rest else ():
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise ValueError(
                f"malformed parameter {item!r} in spec {text!r} "
                "(expected key=value)"
            )
        params[key.strip()] = _parse_value(value.strip())
    return name.strip().lower(), params


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
def parse_sampler_spec(spec: str) -> Tuple[str, SpecParams]:
    """Parse and validate a sampler spec into ``(kind, params)``."""
    kind, params = parse_spec(spec)
    if kind not in SAMPLER_KINDS:
        raise ValueError(
            f"unknown sampler {kind!r}; known samplers: "
            f"{sorted(SAMPLER_KINDS)}"
        )
    return kind, params


def check_int_knob(
    context: str, knob: str, value, positive: bool = False
) -> Optional[int]:
    """Validate a query-level knob carried in a spec (``theta``/``seed``).

    ``bool`` is rejected explicitly even though it subclasses ``int`` --
    ``theta=true`` silently meaning "sample 1 world" is exactly the
    quiet knob failure this registry exists to prevent.  ``positive``
    additionally requires ``value >= 1``: ``theta=0`` used to parse
    cleanly here and die much later as an internal ``plan_blocks``
    error (``"total must be positive"``), far from the spec that
    caused it.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{context}: {knob} must be an integer, got {value!r}"
        )
    if positive and value < 1:
        raise ValueError(
            f"{context}: {knob} must be positive, got {value!r}"
        )
    return value


def check_count_knob(
    context: str, knob: str, value, optional: bool = False
) -> Optional[int]:
    """Validate a result-size knob (``k``, ``min_size``,
    ``per_world_limit``): an integer ``>= 1`` under the
    :func:`check_int_knob` rules, or ``None`` when ``optional``."""
    if value is None and optional:
        return None
    if value is None:
        raise ValueError(f"{context}: {knob} must be an integer, got None")
    check_int_knob(context, knob, value)
    if value < 1:
        bound = ">= 1 or None" if optional else ">= 1"
        raise ValueError(f"{context}: {knob} must be {bound}, got {value}")
    return value


def split_sampler_spec(
    spec: str,
) -> Tuple[str, Optional[int], Optional[int], SpecParams]:
    """Parse a sampler spec, splitting off the query-level knobs.

    Returns ``(kind, theta, seed, constructor_params)`` -- ``theta`` and
    ``seed`` are ``None`` when the spec does not carry them.  This is
    what lets ``--sampler mc:theta=160,seed=7`` configure a whole query
    from one string.
    """
    kind, params = parse_sampler_spec(spec)
    context = f"sampler spec {spec!r}"
    theta = check_int_knob(
        context, "theta", params.pop("theta", None), positive=True
    )
    seed = check_int_knob(context, "seed", params.pop("seed", None))
    return kind, theta, seed, params


def build_sampler(kind: str, graph, seed: Optional[int] = None, **params):
    """Instantiate the pure-Python sampler named by ``kind``.

    ``params`` are constructor keywords (e.g. ``r=4`` for RSS); unknown
    keywords surface as the constructor's own ``TypeError``.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(
            f"unknown sampler {kind!r}; known samplers: "
            f"{sorted(SAMPLER_KINDS)}"
        )
    return SAMPLER_KINDS[kind](graph, seed, **params)


def sampler_store_key(
    kind: str,
    params: SpecParams,
    theta: int,
    seed: Optional[int],
    dynamic: bool = False,
) -> Tuple:
    """Canonical world-store cache key for a (sampler, theta, seed) draw.

    ``dynamic`` keys the per-edge-substream draws (:mod:`repro.delta`)
    apart from the continuous-stream draws: same kind/theta/seed,
    different bytes by design.
    """
    return (kind, tuple(sorted(params.items())), int(theta), seed,
            bool(dynamic))


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------
def _require_empty(name: str, params: SpecParams) -> None:
    if params:
        raise ValueError(
            f"measure {name!r} does not accept parameters "
            f"{sorted(params)}"
        )


def _build_edge(params: SpecParams) -> DensityMeasure:
    _require_empty("edge", params)
    return EdgeDensity()


def _build_clique(params: SpecParams) -> DensityMeasure:
    h = params.pop("h", 3)
    _require_empty("clique", params)
    return CliqueDensity(h)


def _build_pattern(params: SpecParams) -> DensityMeasure:
    psi = params.pop("psi", None)
    if psi is None:
        psi = params.pop("name", "diamond")
    _require_empty("pattern", params)
    if psi not in PATTERNS:
        raise ValueError(
            f"unknown pattern {psi!r}; known patterns: {sorted(PATTERNS)}"
        )
    return PatternDensity(PATTERNS[psi]())


def _build_surplus(params: SpecParams) -> DensityMeasure:
    alpha = params.pop("alpha", 1 / 3)
    _require_empty("surplus", params)
    return EdgeSurplus(alpha=alpha)


#: measure builders by spec name
MEASURE_KINDS = {
    "edge": _build_edge,
    "clique": _build_clique,
    "pattern": _build_pattern,
    "surplus": _build_surplus,
}


def build_measure(
    spec: Union[str, DensityMeasure, None] = None,
    *,
    heuristic: bool = False,
    **overrides,
) -> DensityMeasure:
    """Resolve a measure spec (or pass an instance through).

    ``spec=None`` yields the default :class:`EdgeDensity`; a
    :class:`DensityMeasure` instance is returned as-is (``overrides``
    are then rejected); a string is parsed against the registry with
    ``overrides`` merged over the spec's own parameters.
    ``heuristic=True`` wraps the result in :class:`HeuristicMeasure`
    (the Section III-C core heuristic), mirroring the CLI flag.
    """
    if spec is None:
        measure: DensityMeasure = EdgeDensity()
        if overrides:
            raise ValueError(
                f"measure parameters {sorted(overrides)} given "
                "without a measure name"
            )
    elif isinstance(spec, DensityMeasure):
        if overrides:
            raise ValueError(
                "cannot override parameters of a DensityMeasure instance"
            )
        measure = spec
    else:
        name, params = parse_spec(spec)
        builder = MEASURE_KINDS.get(name)
        if builder is None:
            raise ValueError(
                f"unknown measure {name!r}; known measures: "
                f"{sorted(MEASURE_KINDS)}"
            )
        params.update(overrides)
        measure = builder(params)
    if heuristic:
        measure = HeuristicMeasure(measure)
    return measure
