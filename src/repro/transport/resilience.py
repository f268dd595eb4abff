"""Client-side resilience: deadlines, retry/backoff, partial-range resume.

:func:`resilient_download_iter` wraps either backend's ``download_iter``
in a retry chain that survives :class:`~repro.transport.base.TransportFault`
failures (expired deadlines, injected connection resets, server stalls):

* every attempt carries the per-request deadline from the
  :class:`RetryPolicy`;
* a failed attempt's *accounted* bytes — delivered plus deliberately
  lost on unreliable streams — are never re-requested: the next attempt
  issues a range request for exactly the remaining suffix, so bytes are
  conserved across the chain (the retry-accounting invariant audits
  this);
* retries back off exponentially and re-establish the connection
  (fresh congestion state) before resuming;
* the per-segment retry budget is shared across all requests of one
  segment via the :class:`RetryContext`; when it runs out,
  :class:`~repro.transport.base.RetryBudgetExhausted` escalates to the
  session's graceful-degradation policy.

With ``retry=None`` the wrapper hands back the connection's own
``download_iter`` generator — sessions without faults or timeouts
configured run the plain download, with no extra generator frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.transport.base import (
    DownloadResult,
    ProgressFn,
    RetryBudgetExhausted,
    TransportFault,
    merge_intervals,
)

#: Resilience event callback supplied by the session:
#: ``notify(kind, **fields)`` with kind in {"timeout", "reset", "retry"}.
NotifyFn = Callable[..., None]


@dataclass
class RetryPolicy:
    """Deadline/backoff/budget knobs for one session.

    Attributes:
        request_timeout_s: per-request deadline; None disables deadlines
            (injected resets can still fail a download).
        retry_budget: retries allowed per segment (shared across the
            segment's requests); 0 means any failure degrades at once.
        backoff_base_s: wait before the first retry.
        backoff_factor: multiplier per additional retry.
        backoff_max_s: backoff cap.
    """

    request_timeout_s: Optional[float] = None
    retry_budget: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_s: float = 8.0

    def backoff(self, failure_index: int) -> float:
        """Backoff before retry ``failure_index`` (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.backoff_base_s
            * self.backoff_factor ** max(failure_index - 1, 0),
            self.backoff_max_s,
        )


@dataclass(slots=True)
class RetryContext:
    """Per-segment retry state threaded through a segment's requests.

    ``failures`` counts across the whole segment (prefix + payload
    downloads share one budget), so a segment cannot multiply its budget
    by splitting into more requests.
    """

    policy: RetryPolicy
    notify: NotifyFn
    failures: int = field(default=0)


def resilient_download_iter(
    connection,
    nbytes: int,
    reliable: bool = True,
    progress: Optional[ProgressFn] = None,
    retry: Optional[RetryContext] = None,
):
    """Kernel process: ``download_iter`` with deadline/retry/resume.

    Returns a generator whose result is one :class:`DownloadResult`
    describing the whole chain as if it were a single download:
    ``requested``/``delivered``/``lost`` in global request coordinates,
    ``elapsed`` including backoff waits and server stalls,
    ``rounds``/``request_latency`` summed over attempts.  With
    ``retry=None`` it is the connection's own ``download_iter``
    generator, so a fail-free request resumes through no extra frame.
    """
    if retry is None:
        return connection.download_iter(
            nbytes, reliable=reliable, progress=progress
        )
    return _retry_chain(connection, nbytes, reliable, progress, retry)


def _retry_chain(
    connection,
    nbytes: int,
    reliable: bool,
    progress: Optional[ProgressFn],
    retry: RetryContext,
):
    """The retrying process behind :func:`resilient_download_iter`."""
    policy = retry.policy
    plan = getattr(connection, "fault_plan", None)
    base = 0  # accounted bytes: delivered + deliberately lost, a prefix
    delivered_total = 0
    lost_all = []
    rounds = 0
    latency_total = 0.0
    chain_elapsed = 0.0
    chain_limit = nbytes  # global byte limit; progress may shrink it
    result = None

    while True:
        remaining = chain_limit - base
        if remaining <= 0:
            break

        deadline = policy.request_timeout_s
        fault: Optional[TransportFault] = None

        # Server-side stall fault: the server sits on the request for
        # ``delay`` seconds before the transfer starts.  A stall longer
        # than the deadline burns the whole deadline and fails without a
        # byte moved.
        if plan is not None:
            delay = plan.server_delay(connection.kernel.now)
            if delay > 0.0:
                if deadline is not None and delay >= deadline:
                    yield from connection.idle_iter(deadline)
                    fault = TransportFault(
                        "timeout",
                        DownloadResult(
                            requested=remaining, delivered=0, lost=[],
                            elapsed=deadline,
                        ),
                    )
                else:
                    yield from connection.idle_iter(delay)
                    chain_elapsed += delay
                    if deadline is not None:
                        deadline -= delay

        if fault is None:
            wrapped: Optional[ProgressFn] = None
            if progress is not None:
                attempt_base = base
                prev_elapsed = chain_elapsed

                def wrapped(elapsed_a, sent_a, _b=attempt_base,
                            _p=prev_elapsed):
                    nonlocal chain_limit
                    new_limit = progress(_p + elapsed_a, _b + sent_a)
                    if new_limit is None:
                        return None
                    chain_limit = max(
                        min(new_limit, chain_limit), _b + sent_a
                    )
                    return max(chain_limit - _b, sent_a)

            try:
                result = yield from connection.download_iter(
                    remaining, reliable=reliable, progress=wrapped,
                    deadline_s=deadline,
                )
            except TransportFault as exc:
                fault = exc
            else:
                delivered_total += result.delivered
                lost_all.extend(
                    (base + s, base + e) for s, e in result.lost
                )
                rounds += result.rounds
                latency_total += result.request_latency
                chain_elapsed += result.elapsed
                base += result.requested
                break

        # ---- failure path ---------------------------------------------
        partial = fault.partial
        delivered_total += partial.delivered
        lost_all.extend((base + s, base + e) for s, e in partial.lost)
        rounds += partial.rounds
        latency_total += partial.request_latency
        chain_elapsed += partial.elapsed
        base += fault.accounted_bytes

        retry.failures += 1
        n = retry.failures
        extra = {}
        if fault.kind == "timeout" and policy.request_timeout_s is not None:
            extra["deadline_s"] = policy.request_timeout_s
        if fault.kind == "reset" and fault.at is not None:
            extra["at"] = fault.at
        retry.notify(
            fault.kind,
            attempt=n - 1,
            elapsed=partial.elapsed,
            accounted_bytes=base,
            delivered_bytes=delivered_total,
            **extra,
        )
        if n > policy.retry_budget:
            raise RetryBudgetExhausted(
                fault, attempts=n, kept_bytes=base,
                delivered_bytes=delivered_total, elapsed=chain_elapsed,
            )
        backoff = policy.backoff(n)
        retry.notify(
            "retry",
            attempt=n,
            backoff_s=backoff,
            resume_bytes=base,
            remaining_bytes=chain_limit - base,
        )
        if backoff > 0:
            yield from connection.idle_iter(backoff)
            chain_elapsed += backoff
        reconnect = getattr(connection, "reconnect", None)
        if reconnect is not None:
            reconnect()

    requested_total = base  # == chain_limit unless nothing remained
    return DownloadResult(
        requested=requested_total,
        delivered=delivered_total,
        lost=merge_intervals(lost_all),
        elapsed=chain_elapsed,
        truncated_at=(
            requested_total if requested_total < nbytes else None
        ),
        rounds=rounds,
        request_latency=latency_total,
    )


__all__ = [
    "NotifyFn",
    "RetryContext",
    "RetryPolicy",
    "resilient_download_iter",
]
