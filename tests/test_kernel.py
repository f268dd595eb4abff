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
# advance(): a sleep that no pending event precedes runs inline.
# ---------------------------------------------------------------------------
def _ticker(kernel, log, label, delays, inline):
    """A process sleeping through ``delays``, logging each wake.

    ``inline`` picks how it sleeps: through ``kernel.advance`` with the
    yield as fallback, or always by yielding.
    """
    for delay in delays:
        log.append((kernel.now, label))
        if not (inline and kernel.advance(delay)):
            yield delay
    log.append((kernel.now, label))


def test_advance_runs_a_sleep_inline_when_nothing_is_due_first():
    kernel = SimKernel(1.0)
    kernel.schedule(0.5, lambda: None)
    assert kernel.advance(0.25)
    assert kernel.now == 1.25
    # The entry due at 1.5 is next now: a longer sleep must wait for it.
    assert not kernel.advance(0.5)
    assert kernel.now == 1.25


def test_advance_yields_to_an_entry_due_at_the_same_time():
    for inline in (True, False):
        kernel, log = SimKernel(), []
        kernel.schedule(1.0, lambda: log.append((kernel.now, "timer")))
        kernel.run_process(_ticker(kernel, log, "p", [1.0], inline))
        # The older entry runs first, as when the process yields.
        assert log == [(0.0, "p"), (1.0, "timer"), (1.0, "p")]


def test_advance_never_skips_past_a_cancelled_head_entry():
    kernel = SimKernel()
    kernel.cancel(kernel.schedule(0.5, lambda: None))
    live = []
    kernel.schedule(0.75, lambda: live.append(kernel.now))
    # The cancelled entry heads the heap and the live one sits behind
    # it: declining is the safe answer, and the yield finds the order.
    assert not kernel.advance(1.0)
    log = []
    kernel.run_process(_ticker(kernel, log, "p", [1.0], inline=True))
    assert live == [0.75]
    assert log == [(0.0, "p"), (1.0, "p")]
    # A cancelled entry due after the wake does not hold it back.
    kernel.cancel(kernel.schedule(5.0, lambda: None))
    assert kernel.advance(1.0)
    assert kernel.now == 2.0


@pytest.mark.parametrize("delay", [0.0, -0.5, math.nan, math.inf])
def test_advance_declines_a_delay_that_is_not_positive_and_finite(delay):
    kernel = SimKernel(3.0)
    # An empty heap, yet a zero delay still yields: the process goes
    # back through the heap, and a bad delay meets its usual error there.
    assert not kernel.advance(delay)
    assert kernel.now == 3.0


def test_inline_sleeps_give_the_shared_kernel_log_of_yields():
    script = {
        "a": [0.5, 0.25, 0.25, 1.0, 0.0, 0.3],
        "b": [1.0, 0.5, 0.5, 0.25],
        "c": [0.1] * 12 + [2.0],
        "d": [0.0, 0.0, 0.75, 0.75],
    }

    def run(inline):
        kernel, log = SimKernel(), []
        for at in (0.5, 1.0, 1.6, 2.95):
            kernel.schedule(at, lambda at=at: log.append((kernel.now, at)))
        kernel.cancel(kernel.schedule(0.2, lambda: log.append("cancelled")))
        waiters = [
            kernel.spawn(_ticker(kernel, log, label, delays, inline),
                         delay=0.1 * i)
            for i, (label, delays) in enumerate(script.items())
        ]
        kernel.run_until_all(waiters)
        return log, kernel.now

    assert run(inline=True) == run(inline=False)


def test_inline_sleeps_spend_the_event_budget():
    kernel = SimKernel()
    sleeps = []

    def livelock():
        # Never yields once inline; the bound turns a missed budget
        # check into a failure instead of a hang.
        while len(sleeps) < 10_000:
            sleeps.append(kernel.now)
            if not kernel.advance(0.1):
                yield 0.1

    kernel.spawn(livelock())
    with pytest.raises(RuntimeError, match="event budget exhausted"):
        kernel.run_until_all([Waiter()], max_events=100)
    assert len(sleeps) == 100
    # The error leaves the process's wake pending instead of dropping it.
    assert not kernel.empty()


def test_event_budget_stops_a_download_that_never_finishes():
    from repro.faults.plan import FaultPlan, FaultWindow
    from repro.network.link import BottleneckLink
    from repro.network.traces import constant_trace
    from repro.transport.connection import QuicConnection

    # Every packet is lost, so a reliable stream retransmits forever.
    link = BottleneckLink(constant_trace(10.0))
    link.fault_plan = FaultPlan(
        [FaultWindow("loss_burst", 0.0, 1e9, 1.0, "loss")]
    )
    kernel = SimKernel()
    connection = QuicConnection(link, kernel)
    done = kernel.spawn(connection.download_iter(100_000, reliable=True))
    with pytest.raises(RuntimeError, match="event budget exhausted"):
        kernel.run_until_all([done], max_events=1000)
    assert not done.fired
    # About 1,000 rounds of one 60 ms RTT each.
    assert 59.0 < kernel.now < 61.0


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
