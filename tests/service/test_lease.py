"""LeaseStore: acquire/renew/fence semantics behind worker liveness."""

import pytest
from lease_helpers import alive, expire

from repro.service.lease import Lease, LeaseStore


@pytest.fixture
def store(tmp_path) -> LeaseStore:
    return LeaseStore(tmp_path / "leases", ttl=5.0)


class TestAcquireRenew:
    def test_acquire_then_peek(self, store):
        lease = store.acquire("j1", 1, "sched-a")
        peeked = store.peek("j1")
        assert peeked is not None
        assert (peeked.epoch, peeked.owner) == (1, "sched-a")
        assert not peeked.expired()
        assert alive(store, "j1")
        assert lease.ttl == 5.0

    def test_renew_refreshes_timestamp(self, store):
        store.acquire("j1", 1, "sched-a")
        before = store.peek("j1").renewed_at
        assert store.renew("j1", 1, "sched-a") is True
        assert store.peek("j1").renewed_at >= before

    def test_release_removes_the_lease(self, store):
        store.acquire("j1", 1, "sched-a")
        store.release("j1")
        assert store.peek("j1") is None
        assert not alive(store, "j1")


class TestFencing:
    def test_renew_by_superseded_epoch_is_refused(self, store):
        """The fencing core: a zombie's renewal must come back False
        and must not clobber the new owner's lease."""
        store.acquire("j1", 1, "sched-a")
        store.acquire("j1", 2, "sched-b")  # takeover after expiry
        assert store.renew("j1", 1, "sched-a") is False
        current = store.peek("j1")
        assert (current.epoch, current.owner) == (2, "sched-b")

    def test_renew_by_wrong_owner_is_refused(self, store):
        store.acquire("j1", 1, "sched-a")
        assert store.renew("j1", 1, "sched-impostor") is False

    def test_renew_after_release_is_refused(self, store):
        store.acquire("j1", 1, "sched-a")
        store.release("j1")
        assert store.renew("j1", 1, "sched-a") is False


class TestExpiry:
    def test_expire_helper_ages_past_ttl(self, store):
        store.acquire("j1", 3, "sched-a")
        expire(store, "j1")
        lease = store.peek("j1")
        assert lease is not None
        assert lease.expired()
        assert not alive(store, "j1")
        # epoch and owner survive: recovery can journal who abandoned it
        assert (lease.epoch, lease.owner) == (3, "sched-a")

    def test_expired_lease_is_still_renewable_by_its_owner(self, store):
        """A stalled-then-resumed worker may renew an expired-but-not-
        superseded lease; fencing only kicks in once someone re-claims."""
        store.acquire("j1", 1, "sched-a")
        expire(store, "j1")
        assert store.renew("j1", 1, "sched-a") is True
        assert alive(store, "j1")

    def test_torn_lease_file_reads_as_absent(self, store, tmp_path):
        store.acquire("j1", 1, "sched-a")
        store.path("j1").write_text('{"job_id": "j1", "unknown_fie')
        assert store.peek("j1") is None
        assert not alive(store, "j1")


class TestLeaseValue:
    def test_roundtrip(self):
        lease = Lease("j1", 4, "sched-x", 123.0, 30.0)
        assert Lease.from_dict(lease.to_dict()) == lease

    def test_expired_is_ttl_relative(self):
        lease = Lease("j1", 1, "o", renewed_at=100.0, ttl=30.0)
        assert not lease.expired(now=120.0)
        assert lease.expired(now=131.0)
