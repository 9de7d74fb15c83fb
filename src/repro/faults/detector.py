"""The failure detector: when a slow or silent peer becomes a hole.

:class:`FailureDetector` is one exchange's wait-for-parts decision as a
sans-I/O state machine: it reads no clock and sends or receives nothing.
Its driver asks it for the next deadline, reports arrivals and deaths,
and on each expiry passes a ``nack(member, attempt)`` callback that the
medium answers ``True`` (a resend was requested: one of the member's
tries is spent), ``False`` (the member is gone for good) or ``None``
(alive but has not produced its part yet — it may be burning its own
retries on a dead peer upstream: no try is spent, but such expiries are
capped so a cascade of failures still resolves in bounded time).

The simulator (``KylixAllreduce._recv_group``), the wire
(``BaseTransport.collect``) and the wire's dead-partial audit
(``BaseTransport.audit``) all run it, so the detector :mod:`repro.mc`
explores is the one the sockets run.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, List, Optional, Sequence

from .errors import PeerFailedError
from .plan import _PHASE_ID, canonical_phase
from .policy import RetryPolicy
from .report import LossRecord

__all__ = ["FailureDetector"]


class FailureDetector:
    """The members that still owe an exchange a part, and when to stop
    waiting for them.

    Deadlines climb ``retry.timeout_for`` by one rung per expiry since
    the last arrival, salted per ``(rank, phase, layer, seq)`` so that
    receivers which lost the same message do not NACK in lock step;
    ``params=None`` uses the wall-clock base and ``retry=None`` sets no
    deadline at all.  A member out of tries, answered ``False``,
    reported dead or in ``known_dead`` is given up on: ``strict`` raises
    :class:`PeerFailedError`, otherwise a :class:`LossRecord` is
    appended to ``losses`` and the exchange carries on.
    """

    def __init__(
        self,
        members: Sequence[int],
        retry: Optional[RetryPolicy],
        *,
        rank: int,
        phase: str,
        layer: int,
        seq: int = 0,
        strict: bool = True,
        params=None,
        nbytes: int = 0,
        known_dead: AbstractSet[int] = frozenset(),
        losses: Optional[List[LossRecord]] = None,
    ):
        self.retry = retry
        self.rank, self.phase, self.layer = rank, phase, layer
        self.strict = strict
        self.params, self.nbytes = params, nbytes
        self.salt = (rank, _PHASE_ID.get(canonical_phase(phase), 0), layer, seq)
        self.losses: List[LossRecord] = [] if losses is None else losses
        #: Members still owed a part, in member order -> resend tries spent.
        self.owed: Dict[int, int] = dict.fromkeys(members, 0)
        self.misses = 0  # expiries since the last arrival
        self.pending_waits = 0  # expiries with an alive-but-late member
        for member in members:
            if member in known_dead:
                self._give_up(member, "was already known dead")

    @property
    def done(self) -> bool:
        """Every member delivered or was given up on."""
        return not self.owed

    def deadline(self) -> Optional[float]:
        """Seconds to wait for the next arrival; ``None`` waits forever."""
        if self.retry is None:
            return None
        attempt = min(self.misses, self.retry.max_retries)
        return self.retry.timeout_for(self.params, self.nbytes, attempt, self.salt)

    def arrived(self, member: int) -> bool:
        """Record ``member``'s part; False if it was not owed (a late or
        duplicate copy the caller should drop).  Progress resets the
        deadline ladder."""
        if member not in self.owed:
            return False
        del self.owed[member]
        self.misses = 0
        return True

    def dead(self, member: int) -> None:
        """The medium saw ``member`` die (EOF, stale heartbeat)."""
        if member in self.owed:
            self._give_up(member, "closed its connection")

    def expired(self, nack: Callable[[int, int], Optional[bool]]) -> None:
        """The deadline passed: NACK every owed member or give up on it."""
        self.misses += 1
        pending = False
        for member, tries in list(self.owed.items()):
            if tries >= self.retry.max_retries:
                self._give_up(member, "sent nothing after every resend request")
                continue
            answer = nack(member, tries + 1)
            if answer is True:
                self.owed[member] = tries + 1
            elif answer is False:
                self._give_up(member, "is gone")
            else:
                pending = True
        if pending:
            self.pending_waits += 1
            if self.pending_waits > 4 * (self.retry.max_retries + 1):
                for member in list(self.owed):
                    self._give_up(member, "stayed pending past the wait cap")

    def _give_up(self, member: int, why: str) -> None:
        del self.owed[member]
        if self.strict:
            raise PeerFailedError(
                f"rank {self.rank}: no part from slot {member} "
                f"(phase={self.phase}, layer={self.layer}): {why}",
                slot=member,
                phase=self.phase,
                layer=self.layer,
            )
        self.losses.append(
            LossRecord(rank=self.rank, member=member, phase=self.phase, layer=self.layer)
        )
