#!/usr/bin/env python3
"""Irregular particle exchange: datatypes that change every iteration.

The paper's happy cases reuse one datatype (the cache pays once) and one
buffer (registration amortizes).  Particle codes are the unhappy case
the paper's Section 6 worries about: the set of particles leaving a rank
changes every step, so the hindexed datatype describing them is *fresh*
each time — the Multi-W layout shipment repeats, registration churn is
real, and the adaptive selector's job gets interesting.

Each iteration every rank picks a random subset of its particle array
(seeded per iteration), builds an hindexed datatype over those slots,
and exchanges with its ring neighbour.  We compare schemes under this
adversarial usage.  The rank program is
``repro.workloads.patterns.particle_exchange``; it checks every
received slot.

Run:  python examples/particle_exchange.py
"""

from repro import Cluster
from repro.workloads.patterns import (
    PART_BYTES,
    PART_ITERS,
    PART_LEAVE,
    PART_NPARTICLES,
    PART_NRANKS,
    PATTERNS,
)


def main():
    pattern = PATTERNS["particle_exchange"]
    nleave = int(PART_NPARTICLES * PART_LEAVE)
    print(
        f"{PART_NRANKS} ranks on a ring; {nleave} of {PART_NPARTICLES} "
        f"particles ({PART_BYTES} B each) leave per iteration, "
        f"{PART_ITERS} iterations."
    )
    print("The leaving set — and therefore the datatype — is different "
          "every time.\n")
    print(f"{'scheme':>10} {'total (us)':>12}  layout shipments")
    for scheme in ("generic", "bc-spup", "rwg-up", "multi-w", "adaptive"):
        cluster = Cluster(pattern.nranks, scheme=scheme)
        result = cluster.run(pattern.program)
        shipments = sum(c.dt_cache.misses for c in cluster.contexts)
        print(f"{scheme:>10} {result.time_us:12.1f}  {shipments:4d}")
    print("\nFresh datatypes defeat the Multi-W layout cache (one shipment "
          "per message); the pack-based schemes shrug.")


if __name__ == "__main__":
    main()
