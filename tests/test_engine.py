"""Discrete-event engine tests: ordering, cancellation, determinism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.engine import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.at(10, lambda: order.append("b"))
        engine.at(5, lambda: order.append("a"))
        engine.at(20, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 20

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.at(7, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_after_is_relative(self):
        engine = Engine()
        seen = []
        engine.at(100, lambda: engine.after(5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [105]

    def test_cannot_schedule_in_the_past(self):
        engine = Engine()
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().after(-1, lambda: None)


class TestControl:
    def test_until_leaves_future_events_queued(self):
        engine = Engine()
        seen = []
        engine.at(5, lambda: seen.append(5))
        engine.at(50, lambda: seen.append(50))
        engine.run(until=10)
        assert seen == [5]
        assert engine.now == 10
        assert engine.pending() == 1
        engine.run()
        assert seen == [5, 50]

    def test_max_events(self):
        engine = Engine()
        seen = []
        for t in range(5):
            engine.at(t, lambda t=t: seen.append(t))
        engine.run(max_events=2)
        assert seen == [0, 1]

    def test_stop_freezes_mid_run(self):
        engine = Engine()
        seen = []
        engine.at(1, lambda: (seen.append(1), engine.stop()))
        engine.at(2, lambda: seen.append(2))
        engine.run()
        assert seen == [1]
        assert engine.pending() == 1

    def test_cancellation(self):
        engine = Engine()
        seen = []
        event = engine.at(5, lambda: seen.append("no"))
        event.cancel()
        engine.at(6, lambda: seen.append("yes"))
        engine.run()
        assert seen == ["yes"]

    def test_idle_and_pending(self):
        engine = Engine()
        assert engine.idle()
        event = engine.at(3, lambda: None)
        assert engine.pending() == 1
        event.cancel()
        assert engine.idle()

    def test_reentrancy_rejected(self):
        engine = Engine()

        def reenter():
            with pytest.raises(SimulationError):
                engine.run()

        engine.at(1, reenter)
        engine.run()

    def test_events_dispatched_counter(self):
        engine = Engine()
        for t in range(7):
            engine.at(t, lambda: None)
        engine.run()
        assert engine.events_dispatched == 7


class TestFastScheduling:
    """post/post_at: the no-handle fast path shares the seq counter."""

    def test_post_orders_with_at(self):
        engine = Engine()
        order = []
        engine.at(5, lambda: order.append("at"))
        engine.post(5, lambda: order.append("post"))
        engine.post_at(5, lambda: order.append("post_at"))
        engine.run()
        assert order == ["at", "post", "post_at"]

    def test_post_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().post(-1, lambda: None)

    def test_post_at_past_rejected(self):
        engine = Engine()
        engine.post_at(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.post_at(5, lambda: None)

    def test_post_counts_as_pending(self):
        engine = Engine()
        engine.post(3, lambda: None)
        engine.post_at(4, lambda: None)
        assert engine.pending() == 2
        engine.run()
        assert engine.pending() == 0 and engine.idle()


class TestCancellationTombstones:
    """O(1) cancellation: tombstoned entries and the live counter."""

    def test_cancel_is_idempotent(self):
        engine = Engine()
        event = engine.at(5, lambda: None)
        assert engine.pending() == 1
        event.cancel()
        event.cancel()
        event.cancel()
        assert engine.pending() == 0
        assert engine.idle()
        assert engine.run() == 0

    def test_cancel_after_dispatch_is_noop(self):
        engine = Engine()
        seen = []
        event = engine.at(5, lambda: seen.append(engine.now))
        engine.at(9, lambda: None)
        engine.run(until=7)
        assert seen == [5]
        event.cancel()  # already ran: must not corrupt the live count
        assert engine.pending() == 1
        assert engine.run() == 1

    def test_cancelled_head_beyond_horizon_is_skipped(self):
        engine = Engine()
        seen = []
        engine.at(5, lambda: seen.append(5))
        doomed = engine.at(20, lambda: seen.append(20))
        engine.at(30, lambda: seen.append(30))
        doomed.cancel()
        engine.run(until=25)
        assert seen == [5]
        assert engine.now == 25
        assert engine.pending() == 1
        engine.run()
        assert seen == [5, 30]

    def test_cancel_mid_run_prevents_dispatch(self):
        engine = Engine()
        seen = []
        later = engine.at(10, lambda: seen.append("later"))
        engine.at(5, lambda: later.cancel())
        engine.run()
        assert seen == []
        assert engine.idle()

    def test_many_interleaved_cancels_keep_live_count(self):
        engine = Engine()
        events = [engine.at(t, lambda: None) for t in range(20)]
        for event in events[::2]:
            event.cancel()
        assert engine.pending() == 10
        assert engine.run() == 10
        assert engine.pending() == 0


class TestStopSemantics:
    def test_stop_mid_run_freezes_clock(self):
        engine = Engine()
        engine.at(4, engine.stop)
        engine.at(9, lambda: None)
        engine.run(until=100)
        # stop() freezes the clock at the stopping event, not the horizon.
        assert engine.now == 4
        assert engine.pending() == 1

    def test_run_resumes_after_stop(self):
        engine = Engine()
        seen = []
        engine.at(1, lambda: (seen.append(1), engine.stop()))
        engine.at(2, lambda: seen.append(2))
        engine.run()
        assert seen == [1]
        engine.run()
        assert seen == [1, 2]

    def test_natural_exit_advances_to_horizon(self):
        engine = Engine()
        engine.at(3, lambda: None)
        engine.run(until=50)
        assert engine.now == 50


class TestPause:
    """``pause_at`` stops where a stop event queued at ``origin`` would."""

    def test_pause_fires_ahead_of_events_queued_since_origin(self):
        engine = Engine()
        order = []
        engine.at(10, lambda: order.append("early"))
        origin = engine.seq
        engine.post_at(10, lambda: order.append("late"))
        engine.pause_at(10, origin)
        engine.run()
        assert engine.paused and engine.now == 10
        assert order == ["early"]
        engine.run()
        assert not engine.paused
        assert order == ["early", "late"]

    def test_pause_matches_a_stop_event_queued_at_origin(self):
        def trace(pause: bool):
            engine = Engine()
            order = []
            engine.at(5, lambda: order.append(("a", engine.now)))
            origin = engine.seq
            if not pause:
                engine.at(5, engine.stop)
            engine.at(3, lambda: engine.post(2, lambda: order.append(
                ("b", engine.now))))
            if pause:
                engine.pause_at(5, origin)
            engine.run()
            return order, engine.now, engine.pending()

        assert trace(pause=True) == trace(pause=False)

    def test_pause_bounds_peek_time_and_keeps_engine_busy(self):
        engine = Engine()
        engine.pause_at(40)
        assert engine.peek_time() == 40
        assert not engine.idle()
        engine.run()
        assert engine.paused and engine.now == 40 and engine.idle()

    def test_pause_beyond_horizon_stays_pending(self):
        engine = Engine()
        engine.pause_at(100)
        engine.run(until=50)
        assert not engine.paused and engine.now == 50
        assert engine.pending() == 1

    def test_one_pause_at_a_time_and_never_in_the_past(self):
        engine = Engine()
        engine.pause_at(10)
        with pytest.raises(SimulationError):
            engine.pause_at(20)
        engine.run()
        with pytest.raises(SimulationError):
            engine.pause_at(5)
        engine.pause_at(10)  # the current cycle is allowed
        engine.run()
        assert engine.paused and engine.now == 10


class TestTieBreaking:
    """The determinism contract the crash tests rely on: equal
    timestamps dispatch in insertion order, across every scheduling
    path (the (time, seq) tuple ordering invariant)."""

    def test_mixed_paths_tie_break_by_insertion(self):
        engine = Engine()
        order = []
        engine.post(7, lambda: order.append("a"))
        engine.at(7, lambda: order.append("b"))
        engine.post_at(7, lambda: order.append("c"))
        engine.after(7, lambda: order.append("d"))
        engine.run()
        assert order == ["a", "b", "c", "d"]

    def test_nested_schedules_at_now_run_after_current_ties(self):
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.post(0, lambda: order.append("nested"))

        engine.at(5, first)
        engine.at(5, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second", "nested"]


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=50))
    def test_same_schedule_same_order(self, times):
        def run_once():
            engine = Engine()
            log = []
            for index, t in enumerate(times):
                engine.at(t, lambda i=index: log.append((engine.now, i)))
            engine.run()
            return log

        assert run_once() == run_once()

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=30))
    def test_dispatch_times_are_monotonic(self, times):
        engine = Engine()
        seen = []
        for t in times:
            engine.at(t, lambda: seen.append(engine.now))
        engine.run()
        assert seen == sorted(seen)
