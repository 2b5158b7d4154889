"""Real-graph loaders: SNAP-style edge lists with per-edge probabilities.

The paper evaluates on real uncertain graphs at the million-edge scale
(Table II).  This module loads that class of input:

* **SNAP-style edge lists** -- one ``u v`` pair (or ``u v p`` triple)
  per line, ``#``/``%`` comments, optionally gzip-compressed -- via the
  same parser the rest of the repo uses
  (:mod:`repro.graph.io`);
* **download-and-cache** for the registered public datasets
  (:data:`REAL_DATASETS`): fetched once into a local cache directory
  (``$REPRO_DATA_DIR`` or ``~/.cache/repro-datasets``), never
  re-downloaded;
* **committed fixtures** -- small excerpts in the same format, shipped
  inside the package -- so tests and CI exercise the full loader path
  without ever touching the network (``download=False``, the default,
  falls back to the fixture when the cache is cold).

Deterministic edge lists carry no probabilities; the paper's evaluation
protocol assigns them per model (Table II: uniform confidences,
reciprocal-degree social ties, ...).  :func:`attach_probabilities`
implements those strategies seeded and order-independently (edges are
sorted before the RNG touches them), so a dataset + strategy + seed is
a reproducible uncertain graph.

:func:`make_scale_benchmark_graph` builds the >=100k-edge synthetic
stand-in the packed-substrate benchmark runs on -- array-native
generation, so constructing the graph is not the bottleneck of the
thing being measured.
"""

from __future__ import annotations

import gzip
import os
import shutil
import tempfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..graph.io import (
    PathLike,
    data_rows,
    read_edge_list,
    read_uncertain_edge_list,
)
from ..graph.uncertain import UncertainGraph

#: probability strategy: a constant, a registry name, or edge -> p
ProbabilityStrategy = Union[float, str, Callable[[object, object], float]]


@dataclass(frozen=True)
class RealDataset:
    """One registered public dataset: where it lives, what it is."""

    name: str
    url: str
    description: str
    #: default probability strategy when the file has no third column
    probabilities: ProbabilityStrategy = "uniform"


#: registered SNAP datasets (each also ships a committed fixture excerpt)
REAL_DATASETS = {
    "ca-grqc": RealDataset(
        name="ca-grqc",
        url="https://snap.stanford.edu/data/ca-GrQc.txt.gz",
        description=(
            "arXiv GR-QC collaboration network (~5.2k nodes, ~14.5k "
            "edges); uniform experiment-confidence probabilities"
        ),
        probabilities="uniform",
    ),
    "ego-facebook": RealDataset(
        name="ego-facebook",
        url="https://snap.stanford.edu/data/facebook_combined.txt.gz",
        description=(
            "Facebook ego-network union (~4k nodes, ~88k edges); "
            "reciprocal-degree tie probabilities (the paper's social "
            "model)"
        ),
        probabilities="degree",
    ),
    "com-dblp": RealDataset(
        name="com-dblp",
        url=(
            "https://snap.stanford.edu/data/bigdata/communities/"
            "com-dblp.ungraph.txt.gz"
        ),
        description=(
            "DBLP co-authorship network (~317k nodes, ~1.05M edges); "
            "uniform collaboration-strength probabilities"
        ),
        probabilities="uniform",
    ),
}

#: committed fixture excerpts, one per registered dataset
_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def available_real_datasets() -> Tuple[str, ...]:
    """Names accepted by :func:`load_real_dataset`, sorted."""
    return tuple(sorted(REAL_DATASETS))


def data_dir() -> Path:
    """The download cache directory (``$REPRO_DATA_DIR`` overrides)."""
    override = os.environ.get("REPRO_DATA_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-datasets"


def fixture_path(name: str) -> Path:
    """Path of the committed fixture excerpt for a registered dataset."""
    _require_known(name)
    return _FIXTURE_DIR / f"{name}.txt"


def _require_known(name: str) -> RealDataset:
    dataset = REAL_DATASETS.get(name)
    if dataset is None:
        raise ValueError(
            f"unknown dataset {name!r}; registered datasets: "
            f"{sorted(REAL_DATASETS)}"
        )
    return dataset


def cached_path(name: str, directory: Optional[PathLike] = None) -> Path:
    """Where a registered dataset's decompressed edge list is cached."""
    _require_known(name)
    base = Path(directory) if directory is not None else data_dir()
    return base / f"{name}.txt"


def fetch_real_dataset(
    name: str,
    directory: Optional[PathLike] = None,
    force: bool = False,
) -> Path:
    """Download-and-cache a registered dataset's edge list.

    Gzip payloads are decompressed on the way in; the write is atomic
    (temp file + rename), so a cache entry is either absent or
    complete.  A warm cache returns immediately unless ``force``.
    Network failures raise ``RuntimeError`` pointing at the committed
    fixture fallback -- CI and offline runs should simply not call
    this (the default ``load_real_dataset(download=False)`` never
    does).
    """
    dataset = _require_known(name)
    target = cached_path(name, directory)
    if target.exists() and not force:
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        with urllib.request.urlopen(dataset.url, timeout=60) as response:
            payload = response.read()
    except Exception as exc:
        raise RuntimeError(
            f"could not download dataset {name!r} from {dataset.url}: "
            f"{exc}; use the committed fixture "
            f"(load_real_dataset({name!r})) for offline runs"
        ) from exc
    if dataset.url.endswith(".gz"):
        payload = gzip.decompress(payload)
    handle, temp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{name}-"
    )
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(payload)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


def attach_probabilities(
    graph: Graph,
    probabilities: ProbabilityStrategy = "uniform",
    seed: int = 0,
    low: float = 0.05,
    high: float = 0.95,
) -> UncertainGraph:
    """Assign per-edge probabilities to a deterministic graph.

    Strategies (matching the paper's Table II protocols):

    * a ``float`` in ``(0, 1]`` -- that constant probability on every
      edge;
    * ``"uniform"`` -- i.i.d. ``Uniform[low, high)`` confidences from a
      seeded generator; edges are *sorted* before the generator runs,
      so the assignment depends only on the edge set, the seed and the
      bounds, never on file or insertion order;
    * ``"degree"`` -- ``1 / max(deg(u), deg(v))``, the reciprocal-degree
      social-tie model;
    * a callable ``(u, v) -> p`` for anything else.
    """
    edges = sorted(graph.edges(), key=repr)
    out = UncertainGraph()
    for node in graph:
        out.add_node(node)
    if isinstance(probabilities, float):
        if not 0.0 < probabilities <= 1.0:
            raise ValueError(
                f"constant probability must be in (0, 1], got "
                f"{probabilities}"
            )
        values = [probabilities] * len(edges)
    elif probabilities == "uniform":
        if not 0.0 <= low < high <= 1.0:
            raise ValueError(
                f"need 0 <= low < high <= 1, got low={low}, high={high}"
            )
        rng = np.random.default_rng(seed)
        values = rng.uniform(low, high, size=len(edges)).tolist()
    elif probabilities == "degree":
        values = [
            1.0 / max(graph.degree(u), graph.degree(v)) for u, v in edges
        ]
    elif callable(probabilities):
        values = [float(probabilities(u, v)) for u, v in edges]
    else:
        raise ValueError(
            f"unknown probability strategy {probabilities!r}; expected a "
            "float, 'uniform', 'degree', or a callable"
        )
    for (u, v), p in zip(edges, values):
        out.add_edge(u, v, p)
    return out


def load_uncertain_graph(
    path: PathLike,
    probabilities: Optional[ProbabilityStrategy] = None,
    seed: int = 0,
    low: float = 0.05,
    high: float = 0.95,
) -> UncertainGraph:
    """Load any SNAP-style edge list file as an uncertain graph.

    Files whose rows carry a third column are read as ``u v p`` triples
    directly (``probabilities`` must then be ``None`` -- the file wins).
    Deterministic ``u v`` files get probabilities from
    :func:`attach_probabilities` (default strategy ``"uniform"``).
    """
    path = Path(path)
    probabilistic = _has_probability_column(path)
    if probabilistic:
        if probabilities is not None:
            raise ValueError(
                f"{path} already carries per-edge probabilities; drop "
                "the probabilities= strategy"
            )
        return read_uncertain_edge_list(path)
    return attach_probabilities(
        read_edge_list(path),
        probabilities if probabilities is not None else "uniform",
        seed=seed, low=low, high=high,
    )


def _has_probability_column(path: Path) -> bool:
    """Sniff whether the first data row is a ``u v p`` triple."""
    with open(path, "r", encoding="utf-8") as handle:
        return len(next(data_rows(handle), [])) >= 3


def load_real_dataset(
    name: str,
    probabilities: Optional[ProbabilityStrategy] = None,
    seed: int = 0,
    directory: Optional[PathLike] = None,
    download: bool = False,
) -> UncertainGraph:
    """Load a registered dataset as an uncertain graph.

    Resolution order: a warm cache entry (from a previous
    :func:`fetch_real_dataset`), then -- only when ``download=True`` --
    a fresh download, then the committed fixture excerpt.  The default
    ``download=False`` therefore **never touches the network**: cold
    caches serve the fixture, which exercises the identical parse +
    probability-assignment path at test scale.

    ``probabilities=None`` uses the dataset's registered default
    strategy (see :data:`REAL_DATASETS`).
    """
    dataset = _require_known(name)
    path = cached_path(name, directory)
    if not path.exists():
        if download:
            path = fetch_real_dataset(name, directory)
        else:
            path = fixture_path(name)
    return load_uncertain_graph(
        path,
        probabilities=(
            probabilities if probabilities is not None
            else dataset.probabilities
        ),
        seed=seed,
    )


def make_scale_benchmark_graph(
    n: int = 30_000, m: int = 120_000, seed: int = 0
) -> UncertainGraph:
    """Array-native random uncertain graph at real-dataset scale.

    Draws ``m`` distinct undirected edges uniformly over ``n`` nodes
    (rejection-free: oversample, canonicalise, dedupe with
    ``np.unique``) with seeded ``Uniform[0.05, 0.95)`` probabilities.
    Deterministic in ``(n, m, seed)``.  This is the >=100k-edge input
    of ``benchmarks/bench_bitset_scale.py`` -- big enough that mask
    memory dominates, cheap enough to build that the benchmark measures
    the substrate, not the generator.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    if not 0 < m <= n * (n - 1) // 2:
        raise ValueError(
            f"need 0 < m <= n*(n-1)/2 = {n * (n - 1) // 2}, got {m}"
        )
    rng = np.random.default_rng(seed)
    u = np.empty(0, dtype=np.int64)
    v = np.empty(0, dtype=np.int64)
    while len(u) < m:
        draw = max(2 * (m - len(u)) + 16, 1024)
        du = rng.integers(0, n, size=draw)
        dv = rng.integers(0, n, size=draw)
        keep = du != dv
        du, dv = du[keep], dv[keep]
        lo = np.minimum(du, dv)
        hi = np.maximum(du, dv)
        codes = np.unique(
            np.concatenate([u * np.int64(n) + v, lo * np.int64(n) + hi])
        )
        u, v = codes // n, codes % n
    order = rng.permutation(len(u))[:m]
    u, v = u[order], v[order]
    probs = rng.uniform(0.05, 0.95, size=m)
    graph = UncertainGraph()
    for node in range(n):
        graph.add_node(node)
    for a, b, p in zip(u.tolist(), v.tolist(), probs.tolist()):
        graph.add_edge(a, b, float(p))
    return graph
