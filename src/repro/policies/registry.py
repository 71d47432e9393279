"""Decorator-based registries: names -> policy builders.

This is the construction API behind ``Simulator.from_spec``, ``repro.run``,
the experiment runner, and the CLI's ``--selection`` / ``--trading``
choices.  A *builder* is a plain function calibrating a policy family to a
scenario:

* selection builders have signature ``(scenario, rng_factory) ->
  list[SelectionPolicy]`` (one policy per edge);
* trading builders have signature ``(scenario, rng_factory) ->
  TradingPolicy``.

Register new families with the decorators::

    @register_selection("ETC")
    def build_etc(scenario, rng_factory):
        return [ExploreThenCommit(scenario.num_models)
                for _ in range(scenario.num_edges)]

The paper's families live in :mod:`repro.policies.builtin` and are loaded
lazily on first registry access, so importing :mod:`repro.policies` stays
cheap and cycle-free.  ``SELECTION_NAMES`` / ``TRADING_NAMES`` are live,
tuple-like views over the registries (registration order), kept for
backward compatibility with the original module-level tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.selection import SelectionPolicy
    from repro.policies.trading import TradingPolicy
    from repro.sim.scenario import Scenario
    from repro.utils.rng import RngFactory

__all__ = [
    "SELECTION_NAMES",
    "TRADING_NAMES",
    "make_selection_policies",
    "make_trading_policy",
    "register_selection",
    "register_trading",
    "selection_names",
    "trading_names",
]

SelectionBuilder = Callable[
    ["Scenario", "RngFactory"], "list[SelectionPolicy]"
]
TradingBuilder = Callable[["Scenario", "RngFactory"], "TradingPolicy"]

_SELECTION: dict[str, SelectionBuilder] = {}
_TRADING: dict[str, TradingBuilder] = {}
_builtin_loaded = False


def _ensure_builtin() -> None:
    """Load the paper's built-in families exactly once (import side effect).

    The flag is set *before* the import: the builtin module calls the
    decorators below at import time, and those re-enter this function.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True
    try:
        import repro.policies.builtin  # noqa: F401 - registers via decorators
    except BaseException:
        _builtin_loaded = False
        raise


def _register(
    registry: dict, name: str, kind: str, replace: bool
) -> Callable[[Callable], Callable]:
    def decorator(builder: Callable) -> Callable:
        if not replace and name in registry:
            raise ValueError(
                f"{kind} policy {name!r} is already registered; pass "
                "replace=True to override it"
            )
        registry[name] = builder
        return builder

    return decorator


def register_selection(
    name: str, *, replace: bool = False
) -> Callable[[SelectionBuilder], SelectionBuilder]:
    """Decorator registering a selection-policy builder under ``name``.

    The builder receives ``(scenario, rng_factory)`` and must return one
    :class:`~repro.policies.selection.SelectionPolicy` per edge.  Duplicate
    names raise unless ``replace=True``.
    """
    _ensure_builtin()
    return _register(_SELECTION, name, "selection", replace)


def register_trading(
    name: str, *, replace: bool = False
) -> Callable[[TradingBuilder], TradingBuilder]:
    """Decorator registering a trading-policy builder under ``name``.

    The builder receives ``(scenario, rng_factory)`` and must return one
    :class:`~repro.policies.trading.TradingPolicy`.  Duplicate names raise
    unless ``replace=True``.
    """
    _ensure_builtin()
    return _register(_TRADING, name, "trading", replace)


def selection_names() -> tuple[str, ...]:
    """Registered selection-policy names, in registration order."""
    _ensure_builtin()
    return tuple(_SELECTION)


def trading_names() -> tuple[str, ...]:
    """Registered trading-policy names, in registration order."""
    _ensure_builtin()
    return tuple(_TRADING)


def make_selection_policies(
    name: str, scenario: "Scenario", rng_factory: "RngFactory"
) -> "list[SelectionPolicy]":
    """One per-edge selection policy of the registered family ``name``."""
    _ensure_builtin()
    builder = _SELECTION.get(name)
    if builder is None:
        raise ValueError(
            f"unknown selection policy {name!r}; expected one of "
            f"{selection_names()}"
        )
    return list(builder(scenario, rng_factory))


def make_trading_policy(
    name: str, scenario: "Scenario", rng_factory: "RngFactory"
) -> "TradingPolicy":
    """The registered trading policy ``name``, calibrated to the scenario."""
    _ensure_builtin()
    builder = _TRADING.get(name)
    if builder is None:
        raise ValueError(
            f"unknown trading policy {name!r}; expected one of {trading_names()}"
        )
    return builder(scenario, rng_factory)


class _NamesView:
    """Lazy, tuple-like, read-only view over a registry's names."""

    def __init__(self, names: Callable[[], tuple[str, ...]]) -> None:
        self._names = names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def __getitem__(self, index):
        return self._names()[index]

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __add__(self, other) -> tuple[str, ...]:
        return self._names() + tuple(other)

    def __radd__(self, other) -> tuple[str, ...]:
        return tuple(other) + self._names()

    def __eq__(self, other: object) -> bool:
        try:
            return self._names() == tuple(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash(self._names())

    def __repr__(self) -> str:
        return repr(self._names())


#: Live views mirroring the historical module-level name tuples.
SELECTION_NAMES = _NamesView(selection_names)
TRADING_NAMES = _NamesView(trading_names)
