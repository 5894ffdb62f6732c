"""Memory registration strategies.

RDMA networks require buffers to be registered (pinned + translated)
before the HCA may touch them.  Registration is expensive — Section 3.2
shows "DT + reg" is far slower than "Datatype" — so all the paper's
Copy-Reduced schemes stand or fall on how registration is handled
(Section 5.4.1).  This subpackage provides:

* :class:`~repro.registration.cache.RegistrationCache` — a pin-down cache
  (Tezuka et al. [12]): completed registrations are kept and reused when a
  later operation touches the same buffer; LRU eviction bounds pinned
  memory.
* :mod:`~repro.registration.ogr` — Optimistic Group Registration (Wu et
  al. [33]): registering a *noncontiguous* block list as a few covering
  regions, trading per-operation base cost against pinning the gap pages.
"""

from repro.registration.cache import RegistrationCache
from repro.registration.ogr import GroupRegistration, plan_regions

__all__ = [
    "GroupRegistration",
    "RegistrationCache",
    "plan_regions",
]
