"""Chaos tests: SIGKILL the daemon, restart, assert nothing was lost.

The satellite scenario from the issue: kill the daemon *between lease
grant and first heartbeat* (armed via ``REPRO_SERVICE_CHAOS_LEASE_PAUSE``),
restart it, and prove the job is re-leased exactly once and the point
journal ends bit-identical to an uninterrupted run — no lost points, no
duplicated points.  A second arm kills the daemon mid-job (after points
have started landing) and asserts the resumed run recomputes only the
points the journal did not hold and converges to the same bytes.
"""

import json
import time

import pytest

from repro.service import SweepService, validate_spec
from repro.service.daemon import point_memo_args
from repro.testing.chaos import ServiceHarness

SPEC = {"n_values": [2, 3], "steps": 400, "repeats": 2, "seed": 11}

#: Long enough per point (the batched engine records point by point)
#: that a kill after the first journaled point lands mid-job.
MID_JOB_SPEC = {
    "workload": "msqueue",
    "n_values": [2, 3, 4, 5],
    "steps": 20_000,
    "repeats": 3,
    "seed": 11,
}


def journal_point_lines(root, spec):
    """Every point line of ``spec``'s job in the journal, in order.

    Skips a torn final line, as reopening the journal would.  Asserts
    no line belongs to another job's identity: this root ran only the
    one job.
    """
    identity = list(point_memo_args(validate_spec(spec), 0, 0)[:-2])
    path = root / "points.jsonl"
    if not path.exists():
        return []
    complete = path.read_text().split("\n")[:-1]
    records = [json.loads(line) for line in complete if line.strip()]
    points = [record for record in records if record["kind"] == "point"]
    assert all(record["id"] == identity for record in points)
    return points


def store_point_records(root, spec=SPEC):
    """Every ``(n, r)`` record in the journal, duplicates included."""
    return [
        (record["n"], record["r"])
        for record in journal_point_lines(root, spec)
    ]


def store_triples(root, spec=SPEC):
    """The ``{(n, r): triple}`` mapping a loader would see (last wins)."""
    return {
        (record["n"], record["r"]): tuple(float(v) for v in record["v"])
        for record in journal_point_lines(root, spec)
    }


def uninterrupted_triples(root, spec):
    """Triples from an uninterrupted in-process run of ``spec``."""
    with SweepService(root, workers=1) as service:
        job_id = service.submit(spec)["job_id"]
        deadline = time.monotonic() + 120
        while service.status(job_id)["state"] != "completed":
            assert time.monotonic() < deadline, service.status(job_id)
            time.sleep(0.02)
        result = service.result(job_id)
    return {tuple(t[:2]): tuple(t[2]) for t in result["triples"]}


@pytest.fixture()
def reference_triples(tmp_path_factory):
    return uninterrupted_triples(tmp_path_factory.mktemp("reference"), SPEC)


class TestLeaseWindowKill:
    def test_sigkill_between_lease_and_heartbeat_recovers_bit_identical(
        self, tmp_path, reference_triples
    ):
        root = tmp_path / "service"
        # Arm the chaos hook: the worker holds for 60s between the
        # durable "leased" event and its first heartbeat.
        with ServiceHarness(
            root, env={"REPRO_SERVICE_CHAOS_LEASE_PAUSE": "60"}
        ) as harness:
            client = harness.client()
            job_id = client.submit(SPEC)["job_id"]
            harness.wait_for_event("leased", count=1)
            # The kill window: leased, durably journaled, zero
            # heartbeats, zero points computed.
            assert harness.ledger_events("heartbeat") == []
            harness.sigkill()

        # Restart clean (no chaos hook): recovery re-leases and runs.
        with ServiceHarness(root) as harness:
            client = harness.client()
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "completed", status
            leased = harness.ledger_events("leased")
            requeued = harness.ledger_events("requeued")
            assert len(leased) == 2  # original grant + exactly one re-lease
            assert len(requeued) == 1
            assert requeued[0]["reason"] == "owner-dead"
            assert leased[1]["attempt"] == 2
            result = client.result(job_id)
            assert harness.terminate() == 0

        assert store_triples(root) == reference_triples
        records = store_point_records(root)
        assert sorted(records) == sorted(set(records))  # no duplicates
        assert {tuple(t[:2]): tuple(t[2]) for t in result["triples"]} == (
            reference_triples
        )

    def test_no_lock_or_endpoint_leftovers_after_recovery_cycle(
        self, tmp_path
    ):
        root = tmp_path / "service"
        with ServiceHarness(
            root, env={"REPRO_SERVICE_CHAOS_LEASE_PAUSE": "60"}
        ) as harness:
            client = harness.client()
            client.submit(SPEC)
            harness.wait_for_event("leased", count=1)
            harness.sigkill()
        # The SIGKILLed daemon leaks its lockfile (flock itself died
        # with the process); the restart must take over regardless...
        with ServiceHarness(root) as harness:
            assert harness.client().healthy()
            assert harness.terminate() == 0
        # ...and a graceful exit leaves no lock or endpoint debris.
        assert list(root.rglob("*.lock")) == []
        assert not (root / "endpoint.json").exists()


class TestMidJobKill:
    def test_sigkill_mid_job_converges_to_uninterrupted_bytes(
        self, tmp_path, tmp_path_factory
    ):
        reference = uninterrupted_triples(
            tmp_path_factory.mktemp("reference"), MID_JOB_SPEC
        )
        total = len(reference)
        root = tmp_path / "service"
        with ServiceHarness(root) as harness:
            client = harness.client()
            job_id = client.submit(MID_JOB_SPEC)["job_id"]
            deadline = time.monotonic() + 120
            while not journal_point_lines(root, MID_JOB_SPEC):
                assert time.monotonic() < deadline, "no point journaled"
                time.sleep(0.005)
            harness.sigkill()
        # Every point the killed job flushed is in the journal, and only
        # those: the restart must recompute exactly the rest.
        found = store_triples(root, MID_JOB_SPEC)
        assert 0 < len(found) < total
        assert all(reference[key] == triple for key, triple in found.items())

        with ServiceHarness(root) as harness:
            client = harness.client()
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "completed", status
            result = client.result(job_id)
            assert harness.terminate() == 0

        assert result["recomputed"] == total - len(found)
        assert result["warm_points"] == len(found)
        assert store_triples(root, MID_JOB_SPEC) == reference
        records = store_point_records(root, MID_JOB_SPEC)
        assert sorted(records) == sorted(set(records))
        assert {tuple(t[:2]): tuple(t[2]) for t in result["triples"]} == (
            reference
        )
