"""FaultInjector unit behaviour: hooks, recording, link windows."""

from repro.faults import FaultInjector, FaultPlan
from repro.mpi.messages import Credit, RndvReply, RndvStart
from repro.simulator.metrics import MetricsRegistry
from repro.simulator import Simulator


def make(plan):
    sim = Simulator()
    metrics = MetricsRegistry()
    return sim, metrics, FaultInjector(sim, plan, metrics)


class TestDisabled:
    def test_inert_plan_disables_all_hooks(self):
        sim, metrics, inj = make(FaultPlan())
        assert not inj.enabled
        assert not inj.fail_send(0, 1)
        assert not inj.rnr(0, 1)
        assert not inj.hard_fail(0, 1)
        assert not inj.drop_ctrl(0, RndvStart(0, 0, 1, 64, "generic", 0))
        assert not inj.fail_registration(0, 4096)
        inj.maybe_degrade(0)
        assert inj.link_factor(0) == 1.0
        assert inj.schedule() == ()
        # nothing counted: the metrics registry stays untouched
        assert metrics.snapshot() == []

    def test_disabled_hooks_never_draw_rng(self):
        _sim, _metrics, inj = make(FaultPlan())
        state = inj._rng.getstate()
        inj.fail_send(0, 1)
        inj.rnr(0, 1)
        inj.hard_fail(0, 1)
        inj.fail_registration(0, 64)
        inj.maybe_degrade(0)
        inj.link_factor(0)
        assert inj._rng.getstate() == state


class TestHooks:
    def test_certain_rates_fire_and_record(self):
        plan = FaultPlan(profile="test", cqe_error_rate=1.0, rnr_rate=1.0,
                         reg_fail_rate=1.0, hard_fail_rate=1.0)
        _sim, metrics, inj = make(plan)
        assert inj.fail_send(0, 7)
        assert inj.rnr(1, 8)
        assert inj.hard_fail(0, 7)
        assert inj.fail_registration(1, 4096)
        kinds = [ev.kind for ev in inj.events]
        assert kinds == ["cqe_error", "rnr_nak", "hard_fail", "reg_fail"]
        assert inj.injected() == 4
        assert inj.injected("rnr_nak") == 1
        assert sum(metrics.counter_values("faults.injected").values()) == 4

    def test_zero_rates_never_fire(self):
        _sim, _metrics, inj = make(FaultPlan(ctrl_drop_rate=1.0))
        # plan is active (drop rate set) but the other rates are zero
        assert inj.enabled
        for _ in range(50):
            assert not inj.fail_send(0, 1)
            assert not inj.rnr(0, 1)
            assert not inj.hard_fail(0, 1)
            assert not inj.fail_registration(0, 64)

    def test_only_rendezvous_ctrl_droppable(self):
        _sim, _metrics, inj = make(FaultPlan(ctrl_drop_rate=1.0))
        assert inj.drop_ctrl(0, RndvStart(0, 0, 1, 64, "generic", 0))
        assert inj.drop_ctrl(0, RndvReply(msg_id=1))
        # credit/data traffic rides the reliable service: never dropped
        assert not inj.drop_ctrl(0, Credit(count=4))
        assert not inj.drop_ctrl(0, object())
        assert inj.injected("ctrl_drop") == 2


class TestLinkDegradation:
    def test_window_opens_and_expires(self):
        plan = FaultPlan(link_degrade_rate=1.0, degrade_factor=5.0,
                         degrade_duration_us=100.0)
        sim, metrics, inj = make(plan)
        inj.maybe_degrade(0)
        assert inj.link_factor(0) == 5.0
        assert metrics.gauge("ib.link_factor", 0).value == 5.0
        # other nodes unaffected
        assert inj.link_factor(1) == 1.0
        sim.now = 99.0
        assert inj.link_factor(0) == 5.0
        sim.now = 100.0
        assert inj.link_factor(0) == 1.0
        assert metrics.gauge("ib.link_factor", 0).value == 1.0

    def test_open_window_suppresses_new_draws(self):
        plan = FaultPlan(link_degrade_rate=1.0, degrade_duration_us=1000.0)
        _sim, _metrics, inj = make(plan)
        inj.maybe_degrade(0)
        inj.maybe_degrade(0)
        inj.maybe_degrade(0)
        assert inj.injected("link_degrade") == 1
