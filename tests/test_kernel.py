"""Discrete-event kernel: clock hardening, scheduler, processes,
run_process."""

from __future__ import annotations

import math

import pytest

from repro.network.events import EventScheduler, SimKernel, Waiter


# ---------------------------------------------------------------------------
# Clock hardening: the kernel's ``now`` moves only by valid sleeps.
# ---------------------------------------------------------------------------
def _sleeps(*delays):
    for delay in delays:
        yield delay


def test_clock_advances():
    kernel = SimKernel()
    kernel.run_process(_sleeps(1.5, 0.0))
    assert kernel.now == 1.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clock_rejects_non_finite(bad):
    kernel = SimKernel()
    with pytest.raises(ValueError, match="non-finite"):
        kernel.run_process(_sleeps(1.0, bad))
    assert kernel.now == 1.0


def test_clock_rejects_negative():
    kernel = SimKernel(5.0)
    with pytest.raises(ValueError, match="in the past"):
        kernel.run_process(_sleeps(-0.1))
    assert kernel.now == 5.0


# ---------------------------------------------------------------------------
# EventScheduler guards.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite_delay(bad):
    scheduler = EventScheduler()
    with pytest.raises(ValueError, match="non-finite"):
        scheduler.schedule(bad, lambda: None)


def test_schedule_rejects_negative_delay():
    scheduler = EventScheduler()
    with pytest.raises(ValueError, match="in the past"):
        scheduler.schedule(-1.0, lambda: None)


def test_step_refuses_event_behind_kernel_time():
    scheduler = EventScheduler()
    scheduler.schedule(0.5, lambda: None)
    scheduler.now = 2.0  # simulate a corrupted/rewound loop
    with pytest.raises(RuntimeError, match="scheduled in the past"):
        scheduler.step()


def test_cancel_skips_event():
    scheduler = EventScheduler()
    ran = []
    event_id = scheduler.schedule(1.0, lambda: ran.append("a"))
    scheduler.schedule(2.0, lambda: ran.append("b"))
    scheduler.cancel(event_id)
    scheduler.run_until(lambda: False)
    assert ran == ["b"]
    assert scheduler.now == 2.0


# ---------------------------------------------------------------------------
# Waiter semantics.
# ---------------------------------------------------------------------------
def test_waiter_wake_is_idempotent():
    waiter = Waiter()
    calls = []
    waiter.on_wake(lambda: calls.append(1))
    waiter.wake()
    waiter.wake()
    assert waiter.fired
    assert calls == [1]


def test_waiter_on_wake_after_fire_runs_immediately():
    waiter = Waiter()
    waiter.wake()
    calls = []
    waiter.on_wake(lambda: calls.append(1))
    assert calls == [1]


# ---------------------------------------------------------------------------
# SimKernel processes.
# ---------------------------------------------------------------------------
def test_spawn_returns_value_through_waiter():
    kernel = SimKernel()

    def process():
        yield 1.0
        return "result"

    done = kernel.spawn(process())
    assert not done.fired
    kernel.run()
    assert done.fired
    assert done.value == "result"
    assert kernel.now == 1.0


def test_kernel_syncs_clock_before_every_callback():
    kernel = SimKernel()
    seen = []

    def process():
        seen.append(("process", kernel.now))
        yield 1.5
        seen.append(("process", kernel.now))
        yield 0.25
        seen.append(("process", kernel.now))

    kernel.spawn(process())
    for at in (0.5, 1.5, 3.0):
        kernel.schedule(at, lambda at=at: seen.append((at, kernel.now)))
    kernel.run()
    assert seen == [
        ("process", 0.0), (0.5, 0.5), (1.5, 1.5), ("process", 1.5),
        ("process", 1.75), (3.0, 3.0),
    ]
    assert kernel.now == 3.0


def test_spawn_order_breaks_ties_deterministically():
    kernel = SimKernel()
    order = []

    def process(label):
        for _ in range(3):
            order.append((kernel.now, label))
            yield 1.0

    kernel.spawn(process("a"))
    kernel.spawn(process("b"))
    kernel.run()
    assert order == [
        (0.0, "a"), (0.0, "b"),
        (1.0, "a"), (1.0, "b"),
        (2.0, "a"), (2.0, "b"),
    ]


def test_spawn_delay_offsets_start():
    kernel = SimKernel()
    starts = []

    def process():
        starts.append(kernel.now)
        yield 1.0

    kernel.spawn(process(), delay=2.5)
    kernel.run()
    assert starts == [2.5]


def test_process_waits_on_waiter():
    kernel = SimKernel()
    gate = Waiter()

    def opener():
        yield 3.0
        gate.value = "opened"
        gate.wake()

    def waiter_process():
        got = yield gate
        # The yield expression itself carries no value; read the Waiter.
        assert got is None
        return (kernel.now, gate.value)

    done = kernel.spawn(waiter_process())
    kernel.spawn(opener())
    kernel.run()
    assert done.value == (3.0, "opened")


# ---------------------------------------------------------------------------
# Batch operations: schedule_many / spawn_many / run_until_all.
# ---------------------------------------------------------------------------
def _varied(kernel, log, label, delays):
    """A process ticking through ``delays``, logging each resume."""
    for delay in delays:
        log.append((kernel.now, label))
        yield delay


def test_schedule_many_matches_sequential_schedule_order():
    batched = EventScheduler()
    serial = EventScheduler()
    out_batched, out_serial = [], []
    callbacks_b = [
        (lambda i=i: out_batched.append(i)) for i in range(20)
    ]
    callbacks_s = [
        (lambda i=i: out_serial.append(i)) for i in range(20)
    ]
    # Interleave with pre-existing events at the same instant on both.
    batched.schedule(1.0, lambda: out_batched.append("pre"))
    serial.schedule(1.0, lambda: out_serial.append("pre"))
    batched.schedule_many(1.0, callbacks_b)
    for cb in callbacks_s:
        serial.schedule(1.0, cb)
    batched.run_until(lambda: False)
    serial.run_until(lambda: False)
    assert out_batched == out_serial == ["pre"] + list(range(20))


def test_schedule_many_returns_monotonic_event_ids():
    scheduler = EventScheduler()
    ids = scheduler.schedule_many(0.5, [lambda: None] * 5)
    assert ids == sorted(ids) and len(set(ids)) == 5
    # Cancellation works on batch-scheduled events too.
    fired = []
    scheduler2 = EventScheduler()
    ids2 = scheduler2.schedule_many(
        0.5, [(lambda i=i: fired.append(i)) for i in range(3)]
    )
    scheduler2.cancel(ids2[1])
    scheduler2.run_until(lambda: False)
    assert fired == [0, 2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_schedule_many_rejects_bad_delay(bad):
    scheduler = EventScheduler()
    with pytest.raises(ValueError):
        scheduler.schedule_many(bad, [lambda: None])


def test_spawn_many_matches_spawn_loop_byte_for_byte():
    def population(kernel, log):
        return [
            _varied(kernel, log, label, delays)
            for label, delays in (
                ("a", [1.0, 0.5, 0.5]),
                ("b", [0.5, 0.5, 1.0]),
                ("c", [2.0]),
                ("d", [0.25, 0.25, 0.25, 0.25]),
            )
        ]

    k_serial, log_serial = SimKernel(), []
    waiters_serial = [
        k_serial.spawn(p) for p in population(k_serial, log_serial)
    ]
    k_serial.run()

    k_batch, log_batch = SimKernel(), []
    waiters_batch = k_batch.spawn_many(population(k_batch, log_batch))
    k_batch.run()

    assert log_batch == log_serial
    assert k_batch.now == k_serial.now
    assert len(waiters_batch) == len(waiters_serial) == 4
    assert all(w.fired for w in waiters_batch)


def test_spawn_many_honours_delay():
    kernel = SimKernel()
    starts = []

    def process(label):
        starts.append((kernel.now, label))
        yield 1.0

    kernel.spawn_many([process("a"), process("b")], delay=2.5)
    kernel.run()
    assert starts == [(2.5, "a"), (2.5, "b")]


def test_run_until_all_matches_predicate_run():
    def population(kernel, log):
        return [
            _varied(kernel, log, label, [0.5] * (i + 1))
            for i, label in enumerate("abc")
        ]

    k_pred, log_pred = SimKernel(), []
    waiters_pred = k_pred.spawn_many(population(k_pred, log_pred))
    # Keep an event in the heap beyond the last session finish, so the
    # stop condition (not heap exhaustion) ends both runs.
    k_pred.schedule(100.0, lambda: log_pred.append("late"))
    k_pred.run_until(lambda: all(w.fired for w in waiters_pred))

    k_all, log_all = SimKernel(), []
    waiters_all = k_all.spawn_many(population(k_all, log_all))
    k_all.schedule(100.0, lambda: log_all.append("late"))
    k_all.run_until_all(waiters_all)

    assert log_all == log_pred
    assert "late" not in log_all
    assert k_all.now == k_pred.now


def test_run_until_all_skips_already_fired_waiters():
    kernel = SimKernel()
    fired = Waiter()
    fired.wake()
    # All waiters already fired: returns without stepping.
    kernel.schedule(1.0, lambda: None)
    kernel.run_until_all([fired])
    assert kernel.now == 0.0

    def process():
        yield 1.0

    pending = kernel.spawn(process())
    kernel.run_until_all([fired, pending])
    assert pending.fired


def test_run_until_all_event_budget_guard():
    kernel = SimKernel()

    def livelock():
        while True:
            yield 0.1

    kernel.spawn(livelock())
    never = Waiter()
    with pytest.raises(RuntimeError, match="budget"):
        kernel.run_until_all([never], max_events=100)


# ---------------------------------------------------------------------------
# run_process(): one process run to completion, blocking.
# ---------------------------------------------------------------------------
def test_run_process_returns_value_after_float_sleeps():
    kernel = SimKernel()

    def process():
        yield 0.5
        yield 0.25
        return "done"

    assert kernel.run_process(process()) == "done"
    assert kernel.now == 0.75


def test_run_process_runs_events_until_waiter_wakes():
    kernel = SimKernel()
    waiter = Waiter()
    kernel.schedule(2.0, waiter.wake)

    def process():
        yield waiter
        return "woken"

    assert kernel.run_process(process()) == "woken"
    assert kernel.now == 2.0


def test_run_process_rejects_waiter_nothing_wakes():
    kernel = SimKernel()

    def process():
        yield Waiter()

    with pytest.raises(RuntimeError, match="no pending event wakes"):
        kernel.run_process(process())
