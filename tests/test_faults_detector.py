"""The failure detector, driven by hand: no engine, no sockets.

Each test plays the driver — asks for deadlines, reports arrivals and
deaths, and answers the detector's NACKs from a script — and checks the
decisions the simulator and the wire both rely on.
"""

import pytest

from repro.faults import FailureDetector, LossRecord, PeerFailedError, RetryPolicy

RETRY = RetryPolicy(base_timeout=1.0, backoff=2.0, max_retries=2)


def detector(members=(1, 2, 3), *, strict=False, **kw):
    return FailureDetector(
        list(members), kw.pop("retry", RETRY), rank=0, phase="combined_down",
        layer=1, strict=strict, **kw,
    )


def answer(value, log=None):
    """A ``nack`` callback that always answers ``value``."""

    def nack(member, attempt):
        if log is not None:
            log.append((member, attempt))
        return value

    return nack


class TestDeadlines:
    def test_ladder_climbs_per_expiry_and_caps_at_max_retries(self):
        det = detector()
        ladder = [det.deadline()]
        for _ in range(2):
            det.expired(answer(None))
            ladder.append(det.deadline())
        assert ladder == [1.0, 2.0, 4.0]
        det.expired(answer(None))
        assert det.deadline() == 4.0  # attempt index capped at max_retries

    def test_arrival_resets_the_ladder(self):
        det = detector()
        det.expired(answer(True))
        det.expired(answer(True))
        assert det.deadline() == 4.0
        assert det.arrived(2)
        assert det.deadline() == 1.0
        assert list(det.owed) == [1, 3]

    def test_late_or_duplicate_arrival_is_not_progress(self):
        det = detector()
        assert det.arrived(1)
        det.expired(answer(True))
        assert not det.arrived(1)  # already in: the caller drops the copy
        assert det.deadline() == 2.0

    def test_no_retry_policy_sets_no_deadline(self):
        det = detector(retry=None)
        assert det.deadline() is None
        for m in (1, 2, 3):
            assert det.arrived(m)
        assert det.done

    def test_wall_clock_base_without_network_params(self):
        det = detector(retry=RetryPolicy())
        assert det.deadline() == RetryPolicy().timeout_for(None)

    def test_jitter_is_salted_per_receiver(self):
        retry = RetryPolicy(base_timeout=1.0, jitter=0.5)
        draws = {
            FailureDetector(
                [1], retry, rank=r, phase="combined_down", layer=1
            ).deadline()
            for r in range(8)
        }
        assert len(draws) == 8


class TestGiveUp:
    def test_tries_are_per_member_and_bounded(self):
        log = []
        det = detector()
        det.expired(answer(True, log))
        det.expired(answer(True, log))
        assert det.owed == {1: 2, 2: 2, 3: 2}
        det.expired(answer(True, log))  # out of tries: no third NACK
        assert det.done
        assert log == [(m, a) for a in (1, 2) for m in (1, 2, 3)]
        assert [e.member for e in det.losses] == [1, 2, 3]

    def test_false_gives_up_at_the_first_expiry(self):
        det = detector()
        det.expired(lambda m, attempt: False if m == 2 else True)
        assert list(det.owed) == [1, 3]
        assert [e.member for e in det.losses] == [2]

    def test_none_spends_no_tries_and_is_capped(self):
        det = detector(members=(1,))
        cap = 4 * (RETRY.max_retries + 1)
        for _ in range(cap):
            det.expired(answer(None))
            assert det.owed == {1: 0}
        det.expired(answer(None))
        assert det.done and [e.member for e in det.losses] == [1]

    def test_pending_cap_gives_up_every_owed_member(self):
        det = detector(members=(1, 2))
        # 2 is pending and keeps the exchange alive; 1 is silent but its
        # NACKs are answered, so it runs out of tries first.
        det.expired(lambda m, attempt: True if m == 1 else None)
        det.expired(lambda m, attempt: True if m == 1 else None)
        det.expired(lambda m, attempt: True if m == 1 else None)
        assert list(det.owed) == [2] and det.pending_waits == 3
        while det.pending_waits < 4 * (RETRY.max_retries + 1):
            det.expired(answer(None))
        assert not det.done
        det.expired(answer(None))
        assert det.done

    def test_known_dead_member_fails_without_any_wait(self):
        det = detector(known_dead={2, 9})
        assert list(det.owed) == [1, 3]
        assert det.losses == [
            LossRecord(rank=0, member=2, phase="combined_down", layer=1)
        ]
        assert det.misses == 0

    def test_dead_member_report(self):
        det = detector()
        det.dead(3)
        det.dead(3)  # reported twice, given up once
        det.arrived(1)
        det.dead(1)  # already delivered: not a hole
        assert [e.member for e in det.losses] == [3]

    def test_strict_raises_naming_slot_canonical_phase_and_layer(self):
        det = FailureDetector(
            [4, 5], RETRY, rank=1, phase="gather_up", layer=2, strict=True
        )
        with pytest.raises(PeerFailedError) as ei:
            det.expired(lambda m, attempt: m != 5)
        assert (ei.value.slot, ei.value.phase, ei.value.layer) == (5, "gather_up", 2)

    def test_strict_known_dead_raises_at_once(self):
        with pytest.raises(PeerFailedError) as ei:
            detector(strict=True, known_dead={3})
        assert ei.value.slot == 3

    def test_degrade_records_losses_in_member_order(self):
        shared = [LossRecord(rank=7, member=7, phase="x", layer=0)]
        det = detector(members=(6, 2, 4), losses=shared)
        det.dead(4)
        for _ in range(RETRY.max_retries + 1):
            det.expired(answer(True))
        assert shared[0].member == 7  # appended to the caller's list
        assert [e.member for e in shared[1:]] == [4, 6, 2]
        assert all(
            (e.rank, e.phase, e.layer) == (0, "combined_down", 1) for e in shared[1:]
        )
