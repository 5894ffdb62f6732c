"""The declarative guideline catalogue.

Each :class:`Guideline` states one performance expectation, in the
spirit of Träff/Gropp/Thakur's self-consistent performance guidelines.
Guidelines come in two strengths:

* **self-consistent** (``self_consistent=True``): the expectation
  relates an implementation to *itself* on the same hardware (datatype
  send vs pack-then-send, monotonicity in message size).  Breaking one
  is a genuine *violation* on any substrate — there is no hardware on
  which it is reasonable.
* **expectation** (``self_consistent=False``): the expectation encodes
  the *paper's* result on the *paper's* testbed (e.g. the specialized
  schemes beat the Generic baseline at large messages).  On the
  baseline preset a failure is a violation; on another preset it is a
  **crossover-shift** — the interesting, publishable observation that
  the trade-off moved with the hardware, not a bug.

Tolerances are relative slack (simulated numbers are deterministic, so
these absorb intended model noise, not measurement noise); ``slack_us``
adds a small absolute floor so microsecond-scale ties never flap.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GUIDELINES", "Guideline", "guideline"]


@dataclass(frozen=True)
class Guideline:
    """One declarative performance expectation."""

    name: str
    title: str
    description: str
    #: True: violation anywhere; False: violation on the baseline preset
    #: only, crossover-shift elsewhere
    self_consistent: bool
    #: relative tolerance applied to the comparison
    tolerance: float = 0.02
    #: absolute slack in simulated microseconds
    slack_us: float = 0.5


GUIDELINES: dict[str, Guideline] = {
    g.name: g
    for g in (
        Guideline(
            name="datatype-vs-manual",
            title="Datatype send is no slower than pack-then-send",
            description=(
                "Sending a derived datatype through the library must not be "
                "slower than the application packing into a contiguous "
                "buffer, sending, and unpacking by hand (the paper's "
                "'Manual' strategy; Träff et al.'s MPI_PACK guideline)."
            ),
            self_consistent=True,
        ),
        Guideline(
            name="count-monotonic",
            title="Latency is monotone in message size",
            description=(
                "Ping-pong latency of the same datatype family must not "
                "decrease as the element count grows: a larger message "
                "must never be faster than a smaller one."
            ),
            self_consistent=True,
        ),
        Guideline(
            name="scheme-dominance",
            title="Specialized schemes beat Generic at large messages",
            description=(
                "At bandwidth-dominated sizes, every specialized scheme "
                "(BC-SPUP, RWG-UP, P-RRS, Multi-W, hybrid, adaptive) "
                "should reach at least the Generic baseline's streaming "
                "bandwidth — the paper's headline result on its testbed "
                "(rows fig09/bc-spup-rwg-up-band and "
                "fig09/multi-w-beyond-crossover of repro.bench.claims). "
                "On other substrates a miss is a crossover-shift, not a "
                "violation."
            ),
            self_consistent=False,
            tolerance=0.05,
        ),
        Guideline(
            name="eager-rendezvous-crossover",
            title="No latency inversion across the eager/rendezvous switch",
            description=(
                "Contiguous ping-pong latency probed just below, at, and "
                "just above the preset's eager threshold must stay "
                "monotone: the protocol switch may add cost, but a larger "
                "message must never get cheaper by crossing it."
            ),
            self_consistent=True,
        ),
    )
}


def guideline(name: str) -> Guideline:
    """Look up a guideline, with an actionable error on a miss."""
    try:
        return GUIDELINES[name]
    except KeyError:
        raise KeyError(
            f"unknown guideline {name!r}; choose from {', '.join(GUIDELINES)}"
        ) from None
