"""String-keyed component registries: the catalog half of the spine.

Every pluggable component family — ABR algorithms, network traces,
transport backends, fault injectors — lives in a :class:`Registry`: a
flat ``name -> factory`` map with a one-line description captured at the
registration site.  A :class:`~repro.core.spec.ScenarioSpec` names its
components by these strings, the :class:`~repro.core.build.StackBuilder`
resolves them, and ``repro list`` enumerates every registry so the CLI
catalog can never drift from what the builder accepts.

Registering a custom component is one decorator::

    from repro.abr import ABRS

    @ABRS.register("my_abr", "greedy top-quality picker (demo)")
    def _make_my_abr(prepared=None, **kwargs):
        return MyABR(**kwargs)

after which ``ScenarioSpec(abr="my_abr")``, ``stream(abr="my_abr")`` and
``repro sweep`` grids all accept the new name.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple


class Registry:
    """A named family of factories with registration-site descriptions.

    Args:
        kind: human-readable component-family name ("ABR", "trace",
            "transport backend", "fault") — used in error messages
            and the CLI catalog.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Tuple[Callable, str]] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        description: str = "",
        aliases: Iterable[str] = (),
    ) -> Callable:
        """Decorator: register ``factory`` under ``name``.

        ``description`` is the one-line summary shown by ``repro list``;
        ``aliases`` are alternate lookup keys resolving to the same
        factory (they do not appear in :meth:`names`).
        """
        key = name.lower()

        def decorator(factory: Callable) -> Callable:
            if key in self._entries or key in self._aliases:
                raise ValueError(
                    f"duplicate {self.kind} registration {name!r}"
                )
            self._entries[key] = (factory, description)
            for alias in aliases:
                alias_key = alias.lower()
                if alias_key in self._entries or alias_key in self._aliases:
                    raise ValueError(
                        f"duplicate {self.kind} alias {alias!r}"
                    )
                self._aliases[alias_key] = key
            return factory

        return decorator

    # ------------------------------------------------------------------
    def canonical(self, name: str) -> str:
        """Resolve ``name`` (or an alias) to its canonical key."""
        key = name.lower()
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: "
                f"{', '.join(self.names())}"
            )
        return key

    def get(self, name: str) -> Callable:
        """Look up a factory by name or alias (KeyError with a catalog)."""
        return self._entries[self.canonical(name)][0]

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._entries or key in self._aliases

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Canonical names in registration order."""
        return list(self._entries)

    def describe(self) -> Dict[str, str]:
        """``name -> one-line description`` in registration order."""
        return {name: desc for name, (_, desc) in self._entries.items()}
