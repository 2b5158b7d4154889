"""Shared infrastructure for the benchmark suite.

Each bench regenerates one table / figure of the paper (see DESIGN.md's
per-experiment index), prints it, and archives it under
``benchmarks/results/``.  Dataset sizes here are the *bench-scale*
variants: large enough to show the paper's shapes, small enough that the
whole suite finishes in minutes of pure Python.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets import (
    karate_club_uncertain,
    make_biomine_like,
    make_friendster_like,
    make_homo_sapiens_like,
    make_intel_lab_like,
    make_lastfm_like,
    make_twitter_like,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: bench-scale dataset loaders (smaller than the library defaults)
BENCH_SMALL = {
    "KarateClub": lambda: karate_club_uncertain(seed=2023),
    "IntelLab": lambda: make_intel_lab_like(seed=2023),
    "LastFM": lambda: make_lastfm_like(n=250, seed=2023),
}
BENCH_LARGE = {
    "HomoSapiens": lambda: make_homo_sapiens_like(n=250, seed=2023),
    "Biomine": lambda: make_biomine_like(n=300, seed=2023),
    "Twitter": lambda: make_twitter_like(n=350, seed=2023),
}
BENCH_FRIENDSTER = lambda: make_friendster_like(n=400, seed=2023)

#: bench-scale sample counts
BENCH_THETA_SMALL = 40
BENCH_THETA_LARGE = 16


def emit(name: str, text: str, archive: bool = True) -> None:
    """Print a rendered table and, unless ``archive`` is false (a
    smoke-scale run), archive it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    if not archive:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture
def emit_result():
    """Fixture handing benches the emit helper."""
    return emit
