"""Deadline/retry policy for sparse-allreduce receives.

The paper's environment — "networks with modest bandwidth and high (and
variable) latency" — makes a fixed receive timeout either far too tight
(false timeouts under jitter) or far too loose (hangs on real loss).  A
:class:`RetryPolicy` instead *derives* per-receive deadlines from the
netmodel's latency envelope: the deterministic transfer time of the
expected message plus a tail allowance for the lognormal jitter, scaled
up with exponential backoff on each retry.  The same policy object drives
both backends, so a schedule that converges in the simulator converges on
real processes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy", "derive_timeout", "DEFAULT_LOCAL_BASE_TIMEOUT"]

#: Wall-clock base for the first receive attempt on the real-execution
#: backends (seconds).  Loopback pipes and sockets are fast; the backoff
#: ladder covers slow CI machines.
DEFAULT_LOCAL_BASE_TIMEOUT = 0.25


def derive_timeout(params, nbytes: int, *, scale: float = 8.0, floor: float = 1e-4) -> float:
    """One-attempt receive deadline for an ``nbytes`` message on ``params``.

    Envelope = per-message overhead + one-way propagation + serialization,
    inflated by the lognormal tails: a mean-1 lognormal with parameter
    ``sigma`` has its ~99.9th percentile near ``exp(3*sigma)``, so we
    multiply the deterministic time by that tail factor before applying
    the caller's safety ``scale``.  ``floor`` guards the zero-latency /
    zero-byte corner so deadlines never collapse to 0.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    base = params.message_overhead + params.base_latency + nbytes / params.bandwidth
    sigma = max(params.latency_sigma, params.service_sigma)
    tail = math.exp(3.0 * sigma)
    return max(floor, base * tail * scale)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with exponential backoff.

    Attributes
    ----------
    max_retries:
        Resend requests issued after the first deadline expires before
        the receiver declares the peer failed.  Total attempts are
        ``max_retries + 1``.
    backoff:
        Multiplier applied to the deadline after each expiry.
    base_timeout:
        Fixed first-attempt deadline in seconds.  ``None`` (the default)
        derives it per-message from the network parameters via
        :func:`derive_timeout`.
    timeout_scale:
        Safety factor handed to :func:`derive_timeout` when deriving.
    jitter:
        Fraction in ``[0, 1]`` of each deadline added as *seeded,
        deterministic* jitter, salted per receiver, so receivers that all
        lost the same message do not stampede the recovering peer with
        synchronized NACKs.  ``0.0`` (the default) changes nothing.
    jitter_seed:
        Seed for the jitter draws.  The draw is a pure function of
        ``(jitter_seed, attempt, salt)``, so identical configurations
        retry at identical instants across runs and backends.
    """

    max_retries: int = 4
    backoff: float = 2.0
    base_timeout: float | None = None
    timeout_scale: float = 8.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.base_timeout is not None and self.base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        if self.timeout_scale <= 0:
            raise ValueError("timeout_scale must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.jitter_seed < 0:
            raise ValueError("jitter_seed must be non-negative")

    def _jitter_factor(self, attempt: int, salt: tuple = ()) -> float:
        """Multiplier in ``[1, 1 + jitter]`` for one deadline: a pure
        function of ``(jitter_seed, attempt, salt)``, so runs reproduce."""
        if self.jitter == 0.0:
            return 1.0
        rng = np.random.default_rng(
            [self.jitter_seed, attempt + 1, *(int(s) + 1 for s in salt)]
        )
        return 1.0 + self.jitter * float(rng.random())

    def _first(self, params, nbytes: int) -> float:
        if self.base_timeout is not None:
            return self.base_timeout
        if params is None:
            return DEFAULT_LOCAL_BASE_TIMEOUT
        return derive_timeout(params, nbytes, scale=self.timeout_scale)

    def timeout_for(
        self, params=None, nbytes: int = 0, attempt: int = 0, salt: tuple = ()
    ) -> float:
        """Deadline for attempt ``attempt`` (0-based) of one receive.

        The first attempt is ``base_timeout``, or else derived from the
        network parameters ``params`` and the message size — or, with
        ``params=None`` (a real host, no model to derive from),
        :data:`DEFAULT_LOCAL_BASE_TIMEOUT` of wall clock.  Each retry
        scales it by ``backoff``, plus the seeded jitter.
        """
        return (
            self._first(params, nbytes)
            * self.backoff**attempt
            * self._jitter_factor(attempt, salt)
        )

    def total_budget(self, params=None, nbytes: int = 0) -> float:
        """Worst-case time before a receive gives up — the bound the
        acceptance criteria ("no run hangs past its deadline bound") refer
        to.  Jitter is counted at its maximum, so the bound holds for
        every seed.  Sender-thread join windows on the real backends are
        derived from it (``params=None``), so an aggressive retry
        configuration grows the window instead of outliving a constant."""
        first = self._first(params, nbytes)
        ladder = sum(first * self.backoff**a for a in range(self.max_retries + 1))
        return ladder * (1.0 + self.jitter)
