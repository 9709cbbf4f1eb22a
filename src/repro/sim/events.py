"""Event records produced by the fluid execution simulator.

The simulator is event-driven: site state (the set of active clones and
their progress rates) is piecewise constant, changing only at clone
completions.  These dataclasses capture the resulting execution history so
tests and reports can audit rate feasibility and work conservation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CloneTrace", "RateInterval"]


@dataclass(frozen=True)
class CloneTrace:
    """Execution record of one clone at one site.

    Attributes
    ----------
    operator:
        Owning operator's name.
    clone_index:
        Clone index within the operator.
    start:
        Simulation time at which the clone began executing.
    finish:
        Simulation time at which it completed.
    nominal_t_seq:
        The clone's stand-alone sequential time ``T_seq`` (its execution
        is stretched/throttled relative to this).
    """

    operator: str
    clone_index: int
    start: float
    finish: float
    nominal_t_seq: float

    @property
    def stretch(self) -> float:
        """Observed slowdown relative to running alone (``>= 1`` up to
        floating point, except for zero-work clones)."""
        if self.nominal_t_seq <= 0.0:
            return 1.0
        return (self.finish - self.start) / self.nominal_t_seq


@dataclass(frozen=True)
class RateInterval:
    """One piecewise-constant interval of a site's execution.

    Attributes
    ----------
    start, end:
        Interval bounds in simulation time.
    active:
        Names of the clones executing during the interval (as
        ``operator#clone`` strings).
    throttle:
        Slowest progress speed among the active clones, as a multiple
        of nominal speed (1.0 means every active clone runs at full
        nominal speed on a unit site; the site's capacity and any fault
        slowdown are part of the speed).
    resource_rates:
        Aggregate per-resource consumption rate during the interval;
        feasibility requires every entry ``<= 1`` (+ rounding).
    """

    start: float
    end: float
    active: tuple[str, ...]
    throttle: float
    resource_rates: tuple[float, ...]

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start

    def is_feasible(self, tolerance: float = 1e-9) -> bool:
        """No resource consumed above unit capacity during the interval."""
        return all(r <= 1.0 + tolerance for r in self.resource_rates)
