"""Dynamic scheme selection (Section 6).

"Given a datatype communication, can we choose the best approach?"  The
selector applies the paper's decision procedure per message:

1. small messages go eager (decided upstream by the protocol);
2. the average and median contiguous-block sizes decide between the
   Copy-Reduced schemes: both at least ``multiw_block_threshold`` ("e.g.
   several KBytes") → **Multi-W** (zero copy pays off);
3. moderately sized blocks still amortize gather descriptors → **RWG-UP**;
4. tiny blocks (datatype processing and startup would dominate RDMA
   schemes) → **BC-SPUP**;
5. when registration cannot be amortized — the pin-down cache is disabled
   or a ``buffer_reuse=False`` hint was given (the MPI_Info mechanism the
   paper suggests) — prefer the Pack/Unpack-based BC-SPUP, whose
   registration needs are confined to the pre-registered pools;
6. (beyond the paper: its Section 10 future work) datatypes whose block
   sizes are *bimodal* — substantial bytes in huge blocks **and** many
   tiny blocks — go to the :class:`~repro.schemes.hybrid.HybridScheme`,
   which picks per piece.
"""

from __future__ import annotations

from repro.schemes.base import DatatypeScheme

__all__ = ["AdaptiveScheme", "apply_fault_fallback"]


def apply_fault_fallback(ctx, req, scheme: DatatypeScheme) -> DatatypeScheme:
    """Graceful degradation under fault injection (sender side).

    When the control QP toward the destination has taken repeated hard
    failures (``CostModel.fallback_hard_failures`` within the
    ``fallback_cooldown_us`` window), RDMA-heavy schemes stop paying
    recovery costs on every descriptor: the message falls back to the
    copy-based Generic path, whose single staged write minimizes exposure
    to the flaky QP.  The receiver follows automatically because it always
    runs the scheme named in the RndvStart.  Counted per fallback in
    ``scheme.fallbacks``.
    """
    if scheme.name == "generic" or ctx.rdma_healthy(req.peer):
        return scheme
    ctx.metrics.counter("scheme.fallbacks", ctx.rank).inc()
    return ctx.get_scheme("generic")


class AdaptiveScheme(DatatypeScheme):
    name = "adaptive"
    OPTIONS = (
        "multiw_block_threshold",
        "rwgup_block_threshold",
        "buffer_reuse",
        "enable_hybrid",
    )
    eager_two_copy = False

    def __init__(
        self,
        ctx,
        multiw_block_threshold: int = 4096,
        rwgup_block_threshold: int = 256,
        buffer_reuse: bool = True,
        enable_hybrid: bool = True,
    ):
        super().__init__(ctx)
        self.multiw_block_threshold = multiw_block_threshold
        self.rwgup_block_threshold = rwgup_block_threshold
        self.buffer_reuse = buffer_reuse
        self.enable_hybrid = enable_hybrid
        #: selection log for tests/reporting: msg_id -> chosen scheme name
        self.choices: dict[int, str] = {}

    def pick(self, ctx, req) -> DatatypeScheme:
        """Choose the concrete scheme for one message (sender side)."""
        name = self._decide(ctx, req)
        self.choices[req.msg_id] = name
        return ctx.get_scheme(name)

    def _decide(self, ctx, req) -> str:
        flat = req.cursor.flat
        if flat.is_contiguous:
            return "multi-w"  # single write, zero copy
        hint = ctx.buffer_hint(req.addr, max(req.datatype.extent * req.count, 1))
        buffer_reuse = self.buffer_reuse if hint is None else hint
        registration_amortizable = buffer_reuse and ctx.cluster.reg_cache_bytes > 0
        if not registration_amortizable:
            return "bc-spup"
        if (
            self.enable_hybrid
            and flat.max_block >= self.multiw_block_threshold
            and flat.median_block < self.rwgup_block_threshold
        ):
            return "hybrid"
        if (
            flat.mean_block >= self.multiw_block_threshold
            and flat.median_block >= self.multiw_block_threshold
        ):
            return "multi-w"
        if flat.mean_block >= self.rwgup_block_threshold:
            return "rwg-up"
        return "bc-spup"

    # the adaptive scheme never runs a protocol itself; both sides always
    # execute the concrete scheme named in the RndvStart
    def sender(self, ctx, req):  # pragma: no cover - defensive
        raise RuntimeError("AdaptiveScheme.pick must route to a concrete scheme")

    def receiver(self, ctx, rreq, start):  # pragma: no cover - defensive
        raise RuntimeError("receiver side must use the scheme named in RndvStart")
