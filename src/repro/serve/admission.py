"""Admission control: per-tenant spend budgets and a global depth cap.

A social content site serves many logical *tenants* (users, applications,
crawl partners) whose offered load is wildly skewed — the measured Digg
distributions in PAPERS.md are power laws, so a handful of heavy tenants
generate most of the traffic.  Admission control keeps that skew from
starving everyone else:

* **per-tenant spend budgets** — each tenant holds a token bucket
  (``capacity`` tokens, refilled at ``refill_per_s``); every admitted
  request spends ``request_cost`` tokens.  A tenant that exhausts its
  budget is *shed* with a typed :class:`Overloaded` outcome carrying a
  ``retry_after_s`` hint, while other tenants' budgets are untouched —
  per-tenant isolation is the whole point;
* **a global depth cap** — the gateway bounds total in-flight requests
  (queued plus executing); past ``max_depth`` every tenant sheds,
  because unbounded queueing just converts overload into latency and
  memory growth;
* **priorities** — each tenant carries a priority class (lower = more
  urgent) that the gateway's dispatcher uses to order its queue, so
  paying/interactive traffic drains before background crawlers under
  contention.

The controller is deliberately clock-injectable (``clock`` defaults to
``time.monotonic``): tests drive budgets with a fake clock and assert
exact shed/refill behavior without sleeping.

All mutable state is guarded by one lock — the gateway calls ``admit``
from the event loop while storm tests hammer it from raw threads, and the
racetrack lockset detector watches exactly this discipline.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: Shed reasons carried by :class:`Overloaded`.
TENANT_BUDGET = "tenant_budget"
GLOBAL_DEPTH = "global_depth"


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract: budget shape and priority class."""

    #: burst size — tokens the bucket holds when full
    capacity: float = 32.0
    #: sustained admission rate, tokens per second
    refill_per_s: float = 64.0
    #: dispatch priority (lower drains first under contention)
    priority: int = 10
    #: end-to-end deadline for this tenant's requests, seconds from
    #: submit; ``None`` falls back to the gateway's default (which may
    #: itself be ``None`` — no deadline)
    deadline_s: float | None = None


@dataclass(frozen=True)
class AdmissionPolicy:
    """The gateway-wide admission configuration."""

    default: TenantPolicy = field(default_factory=TenantPolicy)
    #: per-tenant overrides of the default contract
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    #: hard cap on requests in flight across all tenants (queued +
    #: executing); 0 disables global admission entirely
    max_depth: int = 256
    #: tokens one admitted request spends
    request_cost: float = 1.0
    #: base retry hint on a depth shed — drain time of a full queue, not
    #: a budget refill; jittered per shed so a storm of rejected callers
    #: does not come back in one synchronized wave
    depth_retry_s: float = 0.05

    def for_tenant(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default)


@dataclass(frozen=True)
class Overloaded:
    """The typed shed outcome: *why* a request was turned away.

    Returned (not raised) by the gateway so concurrent callers
    can pattern-match outcomes uniformly; ``retry_after_s`` is the
    earliest time the same request could plausibly be admitted (budget
    refill for ``tenant_budget``, "soon" for ``global_depth``).
    """

    tenant: str
    reason: str  # TENANT_BUDGET | GLOBAL_DEPTH
    retry_after_s: float = 0.0

    def __post_init__(self) -> None:
        # A zero hint told every shed caller to retry *immediately* —
        # the PR-8 retry-storm fix made the controller emit positive
        # hints, and this guard keeps any new call site from quietly
        # reintroducing the storm.  (The field keeps its 0.0 default so
        # an unset hint fails loudly instead of passing silently.)
        if not self.retry_after_s > 0.0:
            raise ValueError(
                "Overloaded.retry_after_s must be a positive retry hint, "
                f"got {self.retry_after_s!r}"
            )

    @property
    def ok(self) -> bool:
        """False — the outcome discriminator shared with RequestFailure."""
        return False


@dataclass(frozen=True)
class DeadlineExceeded:
    """The typed deadline-expiry outcome — ``Overloaded``'s sibling.

    Returned (never raised, never a stuck future) by the gateway when a
    request's end-to-end deadline expires, whether it was still queued
    for a worker slot, mid-plan-execution
    (the cooperative ``ExecContext`` check fired), or stranded by a
    bounded shutdown drain.  ``stage`` says where the clock ran out and
    ``elapsed_s`` is the honest submit→expiry wall time.
    """

    tenant: str
    #: where the deadline fired: ``queued`` | ``executing`` |
    #: ``shutdown``, or the plan-side stage (the operator's label)
    stage: str
    #: seconds from submit to expiry (>= the configured deadline for
    #: timer-driven expiry; can exceed it when a wedged slot was only
    #: noticed at resolution time)
    elapsed_s: float
    #: the deadline that was in force, seconds
    deadline_s: float

    @property
    def ok(self) -> bool:
        """False — the outcome discriminator shared with RequestFailure."""
        return False


@dataclass(frozen=True)
class Admitted:
    """An admission ticket: the spend to release when the request ends."""

    tenant: str
    cost: float
    priority: int


@dataclass(frozen=True)
class AdmissionStats:
    """Counters one controller accumulated (snapshot)."""

    admitted: int
    shed_budget: int
    shed_depth: int
    depth: int
    per_tenant_admitted: Mapping[str, int]
    per_tenant_shed: Mapping[str, int]

    @property
    def shed(self) -> int:
        return self.shed_budget + self.shed_depth

    @property
    def shed_rate(self) -> float:
        total = self.admitted + self.shed
        return self.shed / total if total else 0.0


class _TokenBucket:
    """One tenant's spend budget.  Not thread-safe on its own: the
    controller serialises every touch under its lock (a bucket never
    leaks out of the controller)."""

    def __init__(self, policy: TenantPolicy, now: float):
        self.capacity = max(0.0, policy.capacity)
        self.refill_per_s = max(0.0, policy.refill_per_s)
        self.tokens = self.capacity
        self.stamp = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.stamp)
        self.stamp = now
        if self.refill_per_s > 0.0:
            self.tokens = min(
                self.capacity, self.tokens + elapsed * self.refill_per_s
            )

    def try_spend(self, cost: float, now: float) -> bool:
        self._refill(now)
        if self.tokens + 1e-12 < cost:
            return False
        self.tokens -= cost
        return True

    def retry_after(self, cost: float, now: float) -> float:
        """Seconds until *cost* tokens will be available (0 if now)."""
        self._refill(now)
        missing = cost - self.tokens
        if missing <= 0.0:
            return 0.0
        if self.refill_per_s <= 0.0:
            return float("inf")
        return missing / self.refill_per_s


class AdmissionController:
    """Budgeted admission over many tenants plus the global depth cap."""

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, _TokenBucket] = {}
        self._depth = 0
        self._admitted = 0
        self._shed_budget = 0
        self._shed_depth = 0
        self._tenant_admitted: dict[str, int] = {}
        self._tenant_shed: dict[str, int] = {}

    # -- admission ------------------------------------------------------------

    def admit(self, tenant: str) -> Admitted | Overloaded:
        """Admit one request for *tenant*, or shed with a typed reason.

        Depth is checked first: under global overload the budget is not
        even consulted (and not spent), so a tenant's tokens survive a
        site-wide spike for when capacity returns.
        """
        cost = self.policy.request_cost
        tenant_policy = self.policy.for_tenant(tenant)
        now = self._clock()
        with self._lock:
            if self.policy.max_depth and self._depth >= self.policy.max_depth:
                self._shed_depth += 1
                self._tenant_shed[tenant] = (
                    self._tenant_shed.get(tenant, 0) + 1
                )
                return Overloaded(
                    tenant=tenant,
                    reason=GLOBAL_DEPTH,
                    retry_after_s=self._depth_retry(tenant),
                )
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = _TokenBucket(tenant_policy, now)
                self._buckets[tenant] = bucket
            if not bucket.try_spend(cost, now):
                self._shed_budget += 1
                self._tenant_shed[tenant] = (
                    self._tenant_shed.get(tenant, 0) + 1
                )
                return Overloaded(
                    tenant=tenant,
                    reason=TENANT_BUDGET,
                    retry_after_s=bucket.retry_after(cost, now),
                )
            self._depth += 1
            self._admitted += 1
            self._tenant_admitted[tenant] = (
                self._tenant_admitted.get(tenant, 0) + 1
            )
            return Admitted(
                tenant=tenant, cost=cost, priority=tenant_policy.priority
            )

    def _depth_retry(self, tenant: str) -> float:
        """A positive, spread-out retry hint for one depth shed.

        ``retry_after_s=0.0`` told every shed caller to retry
        *immediately* — a storm of rejections became a synchronized
        retry wave that hit the still-full queue again.  The hint is the
        policy's base drain estimate plus up to 100% deterministic
        jitter keyed on the tenant and the shed ordinal, so concurrent
        victims spread over [base, 2*base) without the controller
        holding an RNG (which would also make storm tests flaky).
        Caller holds the lock (``_shed_depth`` is the ordinal).
        """
        base = max(self.policy.depth_retry_s, 1e-3)
        salt = zlib.crc32(tenant.encode("utf-8")) + self._shed_depth
        return base * (1.0 + (salt % 1024) / 1024.0)

    def release(self, ticket: Admitted) -> None:
        """Return an admitted request's depth slot (request finished)."""
        with self._lock:
            self._depth = max(0, self._depth - 1)

    # -- introspection --------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently in flight (admitted, not yet released)."""
        with self._lock:
            return self._depth

    def available_tokens(self, tenant: str) -> float:
        """The tenant's current budget (capacity for unseen tenants)."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                return self.policy.for_tenant(tenant).capacity
            bucket._refill(now)
            return bucket.tokens

    def stats(self) -> AdmissionStats:
        with self._lock:
            return AdmissionStats(
                admitted=self._admitted,
                shed_budget=self._shed_budget,
                shed_depth=self._shed_depth,
                depth=self._depth,
                per_tenant_admitted=dict(self._tenant_admitted),
                per_tenant_shed=dict(self._tenant_shed),
            )


__all__ = [
    "TENANT_BUDGET",
    "GLOBAL_DEPTH",
    "TenantPolicy",
    "AdmissionPolicy",
    "Overloaded",
    "DeadlineExceeded",
    "Admitted",
    "AdmissionStats",
    "AdmissionController",
]
