"""The instrumentation bus: typed pub/sub for domain events.

An :class:`EventBus` carries the frozen dataclasses of
:mod:`repro.obs.events`, published by the execution engine, the
failure-delivery points, the datacenter mapping loop and the trial
entry points.  Handlers subscribe by event type (optionally filtered to
one ``app_id``) or to every event.  A bus with no handlers returns from
:meth:`EventBus.publish` after one flag test.

Publishing is strictly one-way: handlers observe, they never mutate
simulation state, so any sink configuration produces bit-identical
simulation results and the same execution path (see "Event order" in
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Tuple

#: Domain-event handler.
Handler = Callable[[Any], None]


class EventBus:
    """Lightweight synchronous pub/sub for simulation instrumentation."""

    __slots__ = ("_all", "_by_type", "_keyed", "_active")

    def __init__(self) -> None:
        self._all: List[Handler] = []
        self._by_type: Dict[type, List[Handler]] = {}
        self._keyed: Dict[Tuple[type, Hashable], List[Handler]] = {}
        self._active = False

    # -- subscription ------------------------------------------------------

    def subscribe(self, event_type: type, handler: Handler) -> None:
        """Call *handler* for every published event of *event_type*."""
        self._by_type.setdefault(event_type, []).append(handler)
        self._active = True

    def subscribe_key(
        self, event_type: type, key: Hashable, handler: Handler
    ) -> None:
        """Call *handler* for *event_type* events whose ``app_id`` is
        *key* (constant-time dispatch however many apps share the bus)."""
        self._keyed.setdefault((event_type, key), []).append(handler)
        self._active = True

    def subscribe_all(self, handler: Handler) -> None:
        """Call *handler* for every published domain event."""
        self._all.append(handler)
        self._active = True

    @property
    def has_subscribers(self) -> bool:
        """True when any domain-event handler is registered."""
        return self._active

    def subscriber_count(self) -> int:
        """Number of registered domain-event handlers (all channels)."""
        return (
            len(self._all)
            + sum(len(v) for v in self._by_type.values())
            + sum(len(v) for v in self._keyed.values())
        )

    # -- publication -------------------------------------------------------

    def publish(self, event: Any) -> None:
        """Dispatch *event* to matching handlers (no-op when none)."""
        if not self._active:
            return
        for handler in self._all:
            handler(event)
        event_type = type(event)
        handlers = self._by_type.get(event_type)
        if handlers is not None:
            for handler in handlers:
                handler(event)
        if self._keyed:
            key = getattr(event, "app_id", None)
            if key is not None:
                handlers = self._keyed.get((event_type, key))
                if handlers is not None:
                    for handler in handlers:
                        handler(event)
