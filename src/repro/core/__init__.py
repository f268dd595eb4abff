"""Top-level VOXEL API and the scenario spine.

* :mod:`repro.core.api` — ``prepare_video()`` / ``stream()`` convenience
  functions.
* :mod:`repro.core.spec` — :class:`ScenarioSpec`, the frozen declarative
  description of one evaluation cell with a stable content hash.
* :mod:`repro.core.registry` — string-keyed component registries.
* :mod:`repro.core.build` — :class:`StackBuilder`, turning a spec into a
  ready :class:`~repro.player.session.StreamingSession`.

Names resolve lazily (PEP 562) so ``repro.core.registry`` is importable
from low-level packages without dragging in the whole stack.
"""

from repro.core.registry import Registry  # dependency-free; safe eagerly

_API_NAMES = {
    "PreparedVideo": "repro.core.api",
    "StreamResult": "repro.core.api",
    "available_abrs": "repro.core.api",
    "available_backends": "repro.core.api",
    "available_traces": "repro.core.api",
    "available_videos": "repro.core.api",
    "prepare_video": "repro.core.api",
    "stream": "repro.core.api",
    "stream_spec": "repro.core.api",
    "ScenarioSpec": "repro.core.spec",
    "StackBuilder": "repro.core.build",
}


def __getattr__(name):
    if name in _API_NAMES:
        import importlib

        module = importlib.import_module(_API_NAMES[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["Registry"] + sorted(_API_NAMES)
