"""Structured error taxonomy for the reproduction pipeline.

Every failure the runner, provisioning stack or simulator can surface is
an instance of :class:`ReproError`, carrying a stable machine-readable
``code`` (for journals, reports and CI assertions) plus free-form
``context`` keyword details.  The hierarchy is intentionally shallow —
three families matching the three places things go wrong:

``ScenarioError``
    A unit of bench work misbehaved: it timed out (:class:`ScenarioTimeout`),
    its worker process died (:class:`ScenarioCrash`), or the task itself
    raised (:class:`ScenarioFailed`).  The supervisor retries these and
    quarantines scenarios that keep failing.
``SolverError``
    The optimization layer could not produce a plan.
    :class:`SolverInfeasible` subclasses :class:`RuntimeError` as well, so
    pre-taxonomy ``except RuntimeError`` call sites keep working.
``TraceCorrupt``
    Data that should be trustworthy is not: non-finite floats in a summary
    headed for canonical JSON (:class:`NonFiniteSummary`, also a
    ``ValueError``), a journal line whose digest does not match its
    payload (:class:`JournalCorrupt`), or a trace CSV cell that does not
    parse (:class:`TraceFieldCorrupt`, also a ``ValueError``).
``CapacityModelError``
    The analytic capacity models produced something unusable: an M/G/N
    queue that cannot be stabilized at any container count
    (:class:`CapacityModelUnstable`) or degenerate Gaussian moments fed to
    Eq. 3 sizing (:class:`ContainerSizingError`).  Both are also
    ``ValueError`` so pre-taxonomy call sites keep working, and both carry
    stable codes the control-plane degradation ladder records when it
    absorbs them mid-tick.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for structured pipeline errors.

    Parameters
    ----------
    message:
        Human-readable description.
    **context:
        Arbitrary machine-readable details (scenario name, attempt number,
        timeout budget, ...), kept on :attr:`context` and rendered into
        ``str(error)``.
    """

    #: Stable machine-readable identifier for this error family.
    code = "repro_error"

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.message = message
        self.context = context

    def __str__(self) -> str:
        if not self.context:
            return self.message
        details = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{self.message} ({details})"


# --------------------------------------------------------------- scenarios


class ScenarioError(ReproError):
    """A bench scenario failed to produce a result."""

    code = "scenario_error"


class ScenarioTimeout(ScenarioError):
    """A scenario exceeded its per-attempt wall-clock budget."""

    code = "scenario_timeout"


class ScenarioCrash(ScenarioError):
    """A scenario's worker process died without reporting a result."""

    code = "scenario_crash"


class ScenarioFailed(ScenarioError):
    """A scenario task raised instead of returning a summary."""

    code = "scenario_failed"


# ------------------------------------------------------------------ solver


class SolverError(ReproError):
    """The optimization layer could not produce a usable plan."""

    code = "solver_error"


class SolverInfeasible(SolverError, RuntimeError):
    """CBS-RELAX (or a downstream rounder) failed to solve an instance.

    Also a :class:`RuntimeError` so callers written before the taxonomy
    (``except RuntimeError``) still catch it.
    """

    code = "solver_infeasible"


# -------------------------------------------------------------------- data


class TraceCorrupt(ReproError):
    """Data that must be trustworthy (trace, summary, journal) is not."""

    code = "trace_corrupt"


class NonFiniteSummary(TraceCorrupt, ValueError):
    """A summary headed for canonical JSON contains NaN/Inf floats.

    Also a :class:`ValueError` (what :func:`json.dumps` raises with
    ``allow_nan=False``) so generic JSON error handling still applies.
    """

    code = "non_finite_summary"


class JournalCorrupt(TraceCorrupt):
    """A journal line's digest does not match its payload."""

    code = "journal_corrupt"


class TraceFieldCorrupt(TraceCorrupt, ValueError):
    """A trace CSV cell failed to parse or a required column is missing.

    Carries ``row`` (1-based data row number; 0 for the header), ``column``
    and ``value`` context — plus ``file`` from the census and meta loaders —
    so a malformed cell is locatable without re-parsing the file.
    Also a :class:`ValueError` (what the bare ``float()``/``int()`` casts
    used to raise) so generic CSV error handling still applies.
    """

    code = "trace_field_corrupt"


# ------------------------------------------------------------------- serve


class ServeError(ReproError):
    """The online control-plane daemon (``repro serve``) misbehaved."""

    code = "serve_error"


class ConfigInvalid(ServeError, ValueError):
    """A serve config (startup or hot-reload candidate) failed validation.

    Hot reload treats this as a rejection: the candidate is discarded and
    the daemon keeps running on its previous config.  Also a
    :class:`ValueError` so generic validation call sites keep working.
    """

    code = "config_invalid"


class ControlStepFailed(ServeError):
    """One control-step attempt raised and was absorbed by the watchdog.

    Carries ``tick`` and ``attempt`` context; the watchdog rolls back
    through restore and retries with deterministic backoff.  Once attempts
    are exhausted it raises this error and the daemon exits nonzero.
    """

    code = "control_step_failed"


# ---------------------------------------------------------------- capacity


class CapacityModelError(ReproError):
    """An analytic capacity model (Eqs. 1-3) produced unusable output."""

    code = "capacity_model_error"


class CapacityModelUnstable(CapacityModelError, ValueError):
    """No container count within bounds stabilizes the M/G/N queue.

    Raised by :func:`repro.queueing.mgn.required_containers` when the
    offered load exceeds ``max_servers`` or no count meets the delay
    target.  Also a :class:`ValueError` for pre-taxonomy callers; the
    degradation ladder classifies it by ``code`` and falls back to
    reactive provisioning instead of crashing the tick.
    """

    code = "capacity_model_unstable"


class ContainerSizingError(CapacityModelError, ValueError):
    """Eq. 3 sizing was fed degenerate moments (NaN/Inf mean or sigma).

    Also a :class:`ValueError` so existing ``except ValueError`` sizing
    call sites keep working.
    """

    code = "container_sizing_error"


__all__ = [
    "ReproError",
    "ScenarioError",
    "ScenarioTimeout",
    "ScenarioCrash",
    "ScenarioFailed",
    "SolverError",
    "SolverInfeasible",
    "TraceCorrupt",
    "NonFiniteSummary",
    "JournalCorrupt",
    "TraceFieldCorrupt",
    "ServeError",
    "ConfigInvalid",
    "ControlStepFailed",
    "CapacityModelError",
    "CapacityModelUnstable",
    "ContainerSizingError",
]
