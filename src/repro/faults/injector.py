"""The runtime fault injector consulted by the verbs/HCA layer.

One :class:`FaultInjector` is shared by every node of a cluster.  All
decisions are Bernoulli draws from a single ``random.Random`` seeded by
the plan: because the discrete-event simulation itself is deterministic,
the sequence of hook calls — and therefore the whole injection schedule —
is reproducible for a fixed seed, while distinct seeds diverge after the
first draw.

Every positive decision is recorded three ways:

* appended to :attr:`FaultInjector.events` (the schedule, for tests),
* counted in the metrics registry (``faults.injected`` plus a per-kind
  ``faults.<kind>`` counter),
* emitted as a zero-length ``fault`` trace record, so injections show up
  in Chrome traces next to the recovery work they trigger.

A disabled injector (inert plan) returns from every hook before touching
the RNG, the metrics registry or the tracer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator import MetricsRegistry, Simulator

__all__ = ["FaultEvent", "FaultInjector"]

#: payload type names with an end-to-end retransmission path; only these
#: may be dropped from the wire (anything else would violate the
#: reliable-connection service the schemes are built on)
DROPPABLE_CTRL = frozenset({"RndvStart", "RndvReply"})


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as it appears in the schedule log."""

    time_us: float
    kind: str
    node: int
    detail: str = ""


class FaultInjector:
    """Per-cluster fault decision engine (see module docstring)."""

    def __init__(
        self,
        sim: "Simulator",
        plan: FaultPlan,
        metrics: "MetricsRegistry",
    ):
        self.sim = sim
        self.plan = plan
        self.metrics = metrics
        #: False for an inert plan: every hook is a cheap early return
        self.enabled = plan.active
        self._rng = random.Random(plan.seed)
        #: the injection schedule, in simulated-time order
        self.events: list[FaultEvent] = []
        # per-node link-degradation windows: node -> (until_us, factor)
        self._degraded: dict[int, tuple[float, float]] = {}

    # -- bookkeeping -----------------------------------------------------

    def _record(self, kind: str, node: int, detail: str = "") -> None:
        now = self.sim.now
        self.events.append(FaultEvent(now, kind, node, detail))
        self.metrics.counter("faults.injected", node).inc()
        self.metrics.counter(f"faults.{kind}", node).inc()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(now, now, node, "fault", kind, meta=detail)

    def schedule(self) -> tuple[FaultEvent, ...]:
        """The injection schedule so far (for determinism tests)."""
        return tuple(self.events)

    def injected(self, kind: Optional[str] = None) -> int:
        """Number of injections (optionally of one kind)."""
        if kind is None:
            return len(self.events)
        return sum(1 for ev in self.events if ev.kind == kind)

    # -- decision hooks --------------------------------------------------

    def fail_send(self, node: int, qp_num: int) -> bool:
        """Does this transmission attempt complete in error (CQE error)?"""
        if not self.enabled or self.plan.cqe_error_rate <= 0.0:
            return False
        if self._rng.random() >= self.plan.cqe_error_rate:
            return False
        self._record("cqe_error", node, f"qp{qp_num}")
        return True

    def rnr(self, node: int, qp_num: int) -> bool:
        """Does the responder NAK this attempt with receiver-not-ready?"""
        if not self.enabled or self.plan.rnr_rate <= 0.0:
            return False
        if self._rng.random() >= self.plan.rnr_rate:
            return False
        self._record("rnr_nak", node, f"qp{qp_num}")
        return True

    def hard_fail(self, node: int, qp_num: int) -> bool:
        """Does the send queue take an unrecoverable (at transport level)
        error, forcing a full QP recovery?"""
        if not self.enabled or self.plan.hard_fail_rate <= 0.0:
            return False
        if self._rng.random() >= self.plan.hard_fail_rate:
            return False
        self._record("hard_fail", node, f"qp{qp_num}")
        return True

    def drop_ctrl(self, node: int, payload: object) -> bool:
        """Does this control message vanish on the wire?

        Only payload types with a retransmission path (``RndvStart``,
        ``RndvReply``) are eligible; data and credit traffic rides the
        reliable service and is never dropped.
        """
        if not self.enabled or self.plan.ctrl_drop_rate <= 0.0:
            return False
        name = type(payload).__name__
        if name not in DROPPABLE_CTRL:
            return False
        if self._rng.random() >= self.plan.ctrl_drop_rate:
            return False
        self._record("ctrl_drop", node, name)
        return True

    def fail_registration(self, node: int, nbytes: int) -> bool:
        """Does this memory-registration attempt fail transiently?"""
        if not self.enabled or self.plan.reg_fail_rate <= 0.0:
            return False
        if self._rng.random() >= self.plan.reg_fail_rate:
            return False
        self._record("reg_fail", node, f"{nbytes}B")
        return True

    # -- link degradation ------------------------------------------------

    def maybe_degrade(self, node: int) -> None:
        """Possibly open a link-degradation window on ``node``.

        Called once per processed descriptor; while a window is open no
        new draw is made (the window runs its course).
        """
        if not self.enabled or self.plan.link_degrade_rate <= 0.0:
            return
        current = self._degraded.get(node)
        if current is not None and self.sim.now < current[0]:
            return
        if self._rng.random() >= self.plan.link_degrade_rate:
            return
        until = self.sim.now + self.plan.degrade_duration_us
        self._degraded[node] = (until, self.plan.degrade_factor)
        self._record("link_degrade", node, f"x{self.plan.degrade_factor:g}")
        self.metrics.gauge("ib.link_factor", node).set(self.plan.degrade_factor)

    def link_factor(self, node: int) -> float:
        """Current wire-bandwidth divisor for ``node`` (1.0 = healthy)."""
        if not self.enabled:
            return 1.0
        current = self._degraded.get(node)
        if current is None:
            return 1.0
        until, factor = current
        if self.sim.now >= until:
            del self._degraded[node]
            self.metrics.gauge("ib.link_factor", node).set(1.0)
            return 1.0
        return factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"<FaultInjector {state} {self.plan.describe()} "
            f"events={len(self.events)}>"
        )
