"""Unit tests for the virtual clock and event scheduler."""

import pytest

from repro.net.clock import DAY, EventScheduler, HOUR, VirtualClock

from tests.net_reference import advance, call_later, pending, run_all


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(100.0).now() == 100.0

    def test_advance(self):
        clock = VirtualClock()
        advance(clock, 5.0)
        advance(clock, 2.5)
        assert clock.now() == 7.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            advance(VirtualClock(), -1.0)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(42.0)
        assert clock.now() == 42.0

    def test_advance_to_rejects_past(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_duration_constants(self):
        assert DAY == 24 * HOUR


class TestEventScheduler:
    def test_events_run_in_order(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        order = []
        scheduler.call_at(3.0, lambda: order.append("c"))
        scheduler.call_at(1.0, lambda: order.append("a"))
        scheduler.call_at(2.0, lambda: order.append("b"))
        executed = scheduler.run_until(10.0)
        assert executed == 3
        assert order == ["a", "b", "c"]
        assert clock.now() == 10.0

    def test_same_time_fifo(self):
        scheduler = EventScheduler(VirtualClock())
        order = []
        scheduler.call_at(1.0, lambda: order.append(1))
        scheduler.call_at(1.0, lambda: order.append(2))
        scheduler.run_until(1.0)
        assert order == [1, 2]

    def test_call_later(self):
        clock = VirtualClock(5.0)
        scheduler = EventScheduler(clock)
        fired = []
        call_later(scheduler, 2.0, lambda: fired.append(clock.now()))
        scheduler.run_until(10.0)
        assert fired == [7.0]

    def test_call_later_rejects_negative(self):
        with pytest.raises(ValueError):
            call_later(EventScheduler(VirtualClock()), -1, lambda: None)

    def test_call_at_rejects_past(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            EventScheduler(clock).call_at(1.0, lambda: None)

    def test_run_until_leaves_future_events(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        scheduler.call_at(1.0, lambda: fired.append("early"))
        scheduler.call_at(5.0, lambda: fired.append("late"))
        scheduler.run_until(2.0)
        assert fired == ["early"]
        assert pending(scheduler) == 1
        scheduler.run_until(5.0)
        assert fired == ["early", "late"]

    def test_events_scheduled_during_run(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []

        def chain():
            fired.append(clock.now())
            if len(fired) < 3:
                call_later(scheduler, 1.0, chain)

        scheduler.call_at(1.0, chain)
        scheduler.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_run_all_guard(self):
        scheduler = EventScheduler(VirtualClock())

        def forever():
            call_later(scheduler, 1.0, forever)

        call_later(scheduler, 1.0, forever)
        with pytest.raises(RuntimeError):
            run_all(scheduler, limit=100)
