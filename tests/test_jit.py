"""How :func:`resolve_engine` answers for the ``jit`` and ``auto`` names.

There is no compiled tier: ``jit`` is an accepted alias of
``vectorized`` and ``auto`` never resolves past ``vectorized``, whatever
is installed.  The end-to-end ``engine="jit"`` cells live in
``tests/test_engine_differential.py``.
"""

from __future__ import annotations

from repro.core.measures import EdgeDensity
from repro.engine.estimators import resolve_engine


class TestTierActivation:
    def test_resolve_engine_jit_fallback(self):
        assert resolve_engine("jit", None, EdgeDensity()) == "vectorized"

    def test_resolve_engine_auto_upgrade_tracks_numba(self):
        assert resolve_engine("auto", None, EdgeDensity()) == "vectorized"

    def test_vectorized_never_upgrades(self):
        assert resolve_engine("vectorized", None, EdgeDensity()) == (
            "vectorized"
        )
