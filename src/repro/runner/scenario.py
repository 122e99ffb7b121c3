"""Scenario specifications and the task registry.

A :class:`Scenario` is a fully picklable description of one unit of bench
work: a registered *task* name plus a parameter dict.  Workers (worker
processes or the calling process) resolve the task by name and call it —
so parallel execution never has to pickle closures, fixtures or fitted
models, and a scenario's result is a pure function of its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: task name -> callable(params: dict) -> JSON-able summary dict.
_REGISTRY: dict[str, Callable[[dict], dict]] = {}


def register_task(name: str) -> Callable[[Callable[[dict], dict]], Callable[[dict], dict]]:
    """Decorator registering a scenario task under ``name``."""

    def decorator(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        if name in _REGISTRY:
            raise ValueError(f"task {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return decorator


def get_task(name: str) -> Callable[[dict], dict]:
    """Resolve a registered task, importing the built-ins on first miss.

    The lazy import matters for a worker that has not imported the
    built-ins (a spawned one, where the platform lacks ``forkserver``):
    it must see them without the parent having to pre-populate anything.
    """
    if name not in _REGISTRY:
        import repro.runner.tasks  # noqa: F401  (registers built-ins)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario task {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_tasks() -> tuple[str, ...]:
    """Names of all registered tasks (built-ins included)."""
    import repro.runner.tasks  # noqa: F401

    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class Scenario:
    """One unit of bench work.

    Attributes
    ----------
    name:
        Unique label within a suite; keys the per-scenario results and the
        serial-vs-parallel determinism comparison.
    task:
        Registered task name (see :mod:`repro.runner.tasks`).
    params:
        Picklable parameter dict handed to the task.  Any randomness a
        task uses must be seeded from here — that is what makes parallel
        runs bit-identical to serial ones.
    """

    name: str
    task: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.task:
            raise ValueError("scenario task must be non-empty")

    def run(self) -> dict:
        """Execute in-process (the serial path and the worker body)."""
        return get_task(self.task)(dict(self.params))
