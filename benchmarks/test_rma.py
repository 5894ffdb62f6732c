"""One-sided vs two-sided datatype communication.

RMA put needs no rendezvous handshake — the origin already knows the
target layout — so for repeated strided updates it undercuts even the
best two-sided scheme by the control round trip, at the price of
explicit synchronization (the fence amortizes over many operations).
This is the setting the datatype cache was invented in ([14], Section
5.4.2).
"""


def test_rma_put_vs_send(run_figure):
    cols, out = run_figure("rma")
    for i, c in enumerate(cols):
        # amortized over an epoch, put never loses to the best two-sided
        # scheme: same zero-copy data path minus the per-message handshake
        assert out["put"].y[i] < out["send"].y[i] * 1.05, c
    # the advantage is most visible for the smallest message (handshake
    # is a larger fraction)
    gain0 = out["send"].y[0] / out["put"].y[0]
    gain_last = out["send"].y[-1] / out["put"].y[-1]
    assert gain0 > gain_last
