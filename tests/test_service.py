"""The fault-tolerant job service: queue, supervisor, recovery, chaos.

Contracts under test:

* the durable queue's state machine — atomic claims (exactly one winner
  under a thread race), lease renewal/expiry, retry with jittered
  backoff behind a ``not_before`` gate, graceful release, cooperative
  cancellation, torn-record quarantine, admission control;
* the service loop — submit → lease → run → done with the journal,
  checkpoint, and ``result.json`` landing in the job's run directory;
  deadline enforcement; drain-and-resume bit-identity;
* crash recovery (the chaos soak) — SIGKILL the service process
  mid-job, start a fresh service on the same root, and the job resumes
  from its checkpoint and finishes **bit-identical** to an
  uninterrupted run, with zero leaked ``/dev/shm`` segments and the
  dead service's orphaned run directory collected by ``repro-obs gc``;
* the gc sweep — orphan run dirs found and deleted only with
  ``--force``, live (pending/leased) jobs protected, stale fleet
  segments reaped.
"""

import json
import os
import signal
import threading
import time
import multiprocessing

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.journal import has_run_end, replay_journal
from repro.obs.runs import find_orphan_runs
from repro.optimize.fleet import (
    list_segments,
    segment_owner_pid,
    stale_segments,
    unlink_segment,
)
from repro.service import (
    JobNotFound,
    JobQueue,
    JobRecord,
    JobService,
    JobSpec,
    LeaseLost,
    QueueFull,
    ServiceClient,
    register_experiment,
)
from repro.service.queue import live_job_ids


# ----------------------------------------------------------------------
# queue state machine
# ----------------------------------------------------------------------

def _queue(tmp_path, **kwargs):
    return JobQueue(str(tmp_path / "queue"), **kwargs)


def _spec(**overrides):
    base = dict(objective="bench.sphere",
                objective_params={"dim": 3},
                budget={"population_size": 8, "max_iterations": 5},
                seed=5)
    base.update(overrides)
    return JobSpec(**base)


class TestJobQueue:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        assert record.state == "pending"
        assert queue.counts()["pending"] == 1

        claimed = queue.claim("slot0", lease_s=30.0)
        assert claimed.job_id == record.job_id
        assert claimed.state == "leased"
        assert claimed.lease["owner"] == "slot0"
        assert queue.counts() == {"pending": 0, "leased": 1,
                                  "done": 0, "failed": 0}

        done = queue.complete(record.job_id, "slot0", {"fun": 1.0})
        assert done.state == "done"
        assert done.result == {"fun": 1.0}
        assert queue.load(record.job_id).state == "done"
        assert queue.counts()["leased"] == 0

    def test_claim_is_fifo_and_respects_backoff_gate(self, tmp_path):
        queue = _queue(tmp_path)
        first = queue.submit(_spec(), job_id="job-a")
        queue.submit(_spec(), job_id="job-b")
        assert queue.claim("s", 30.0).job_id == first.job_id

        # Gate job-b into the future: it must be skipped until then.
        gated = queue.load("job-b")
        gated.not_before = time.time() + 60.0
        queue._write_record("pending", gated)
        assert queue.claim("s", 30.0) is None
        assert queue.claim("s", 30.0,
                           now=time.time() + 120.0).job_id == "job-b"

    def test_concurrent_claims_have_exactly_one_winner(self, tmp_path):
        queue = _queue(tmp_path)
        queue.submit(_spec())
        barrier = threading.Barrier(8)
        wins = []

        def race(slot):
            barrier.wait()
            record = queue.claim(f"slot{slot}", 30.0)
            if record is not None:
                wins.append(slot)

        threads = [threading.Thread(target=race, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_admission_control_rejects_above_max_pending(self, tmp_path):
        queue = _queue(tmp_path, max_pending=2)
        queue.submit(_spec())
        queue.submit(_spec())
        with pytest.raises(QueueFull):
            queue.submit(_spec())
        assert queue.counts()["pending"] == 2

    def test_retryable_failure_requeues_with_backoff(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec(max_retries=2))
        queue.claim("s", 30.0)
        now = time.time()
        retried = queue.fail(record.job_id, "s", "transient boom",
                             retryable=True, now=now)
        assert retried.state == "pending"
        assert retried.attempt == 1
        assert retried.not_before > now          # jittered backoff gate
        assert retried.lease is None
        # Not claimable before the gate, claimable after it.
        assert queue.claim("s", 30.0, now=now) is None
        assert queue.claim("s", 30.0, now=now + 60.0) is not None

    def test_retry_budget_exhaustion_is_terminal(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec(max_retries=1))
        for attempt in (1, 2):
            assert queue.claim("s", 30.0, now=time.time() + 100.0 * attempt)
            outcome = queue.fail(record.job_id, "s", "boom", retryable=True)
        assert outcome.state == "failed"
        assert outcome.attempt == 2
        assert queue.load(record.job_id).state == "failed"

    def test_non_retryable_failure_skips_the_budget(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec(max_retries=5))
        queue.claim("s", 30.0)
        outcome = queue.fail(record.job_id, "s", "deadline",
                             retryable=False)
        assert outcome.state == "failed"
        assert outcome.error == "deadline"

    def test_lease_lost_on_foreign_owner_and_after_recovery(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        queue.claim("slot0", lease_s=0.5)
        with pytest.raises(LeaseLost):
            queue.renew(record.job_id, "intruder", 30.0)
        # Let the lease expire and recover it: the old owner is out.
        recovered = queue.recover_expired(now=time.time() + 10.0)
        assert recovered == [record.job_id]
        assert queue.load(record.job_id).takeovers == 1
        with pytest.raises(LeaseLost):
            queue.complete(record.job_id, "slot0", {})
        # The new claimer proceeds normally.
        takeover = queue.claim("slot1", 30.0)
        assert takeover.job_id == record.job_id
        queue.complete(record.job_id, "slot1", {})

    def test_recovery_leaves_fresh_leases_alone(self, tmp_path):
        queue = _queue(tmp_path)
        queue.submit(_spec())
        queue.claim("s", lease_s=60.0)
        assert queue.recover_expired() == []

    def test_recovery_retires_leased_shadow_of_terminal_record(
            self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        claimed = queue.claim("s", 30.0)
        queue.complete(record.job_id, "s", {})
        # Simulate a crash between the terminal write and the leased
        # unlink: re-materialize the leased copy.
        queue._write_record("leased", claimed)
        assert queue.recover_expired(now=time.time() + 100.0) == []
        assert not os.path.exists(queue._path("leased", record.job_id))
        assert queue.load(record.job_id).state == "done"

    def test_release_returns_job_intact(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        queue.claim("s", 30.0)
        released = queue.release(record.job_id, "s")
        assert released.state == "pending"
        assert released.attempt == 0
        assert released.takeovers == 0
        assert queue.claim("s2", 30.0).job_id == record.job_id

    def test_cancel_pending_fails_immediately(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        assert queue.cancel(record.job_id) == "failed"
        loaded = queue.load(record.job_id)
        assert loaded.state == "failed"
        assert loaded.error == "cancelled"

    def test_cancel_leased_sets_cooperative_marker(self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        queue.claim("s", 30.0)
        assert queue.cancel(record.job_id) == "leased"
        assert queue.cancel_requested(record.job_id)
        # A terminal transition clears the marker.
        queue.fail(record.job_id, "s", "cancelled", retryable=False)
        assert not queue.cancel_requested(record.job_id)

    def test_torn_record_is_quarantined_not_fatal(self, tmp_path):
        queue = _queue(tmp_path)
        good = queue.submit(_spec(), job_id="job-zz-good")
        torn = queue._path("pending", "job-aa-torn")
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"job_id": "job-aa-torn", "spe')  # torn write
        claimed = queue.claim("s", 30.0)
        assert claimed.job_id == good.job_id       # the queue kept moving
        assert queue.n_quarantined == 1
        assert os.path.exists(torn + ".corrupt")
        assert not os.path.exists(torn)

    def test_load_prefers_terminal_states_and_raises_unknown(
            self, tmp_path):
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        claimed = queue.claim("s", 30.0)
        queue.complete(record.job_id, "s", {"fun": 2.0})
        queue._write_record("leased", claimed)     # stale shadow
        assert queue.load(record.job_id).state == "done"
        with pytest.raises(JobNotFound):
            queue.load("no-such-job")

    def test_load_finds_a_job_claimed_during_its_scan(
            self, tmp_path, monkeypatch):
        # The claim lands after load has looked in leased/ and before it
        # looks in pending/, so one scan sees the job in neither.
        queue = _queue(tmp_path)
        record = queue.submit(_spec())
        leased_path = queue._path("leased", record.job_id)
        real_read = queue._read_record
        claims = []

        def read_then_claim(path):
            found = real_read(path)
            if path == leased_path and not claims:
                claims.append(queue.claim("racer", 30.0))
            return found

        monkeypatch.setattr(queue, "_read_record", read_then_claim)
        loaded = queue.load(record.job_id)
        assert claims[0].job_id == record.job_id
        assert loaded.state == "leased"
        assert loaded.lease["owner"] == "racer"
        with pytest.raises(JobNotFound):
            queue.load("no-such-job")

    def test_live_job_ids_reports_pending_and_leased(self, tmp_path):
        root = tmp_path / "svc"
        queue = JobQueue(str(root / "queue"))
        a = queue.submit(_spec(), job_id="job-a")
        b = queue.submit(_spec(), job_id="job-b")
        queue.claim("s", 30.0)
        assert live_job_ids(str(root)) == ["job-a", "job-b"]
        queue.complete(a.job_id, "s", {})
        assert live_job_ids(str(root)) == ["job-b"]
        assert live_job_ids(str(tmp_path / "not-a-service")) == []


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(kind="nope")
        with pytest.raises(ValueError):
            JobSpec(algorithm="gradient_descent")
        with pytest.raises(ValueError):
            JobSpec(kind="experiment")          # no experiment named
        with pytest.raises(ValueError):
            JobSpec(checkpoint_every=0)
        with pytest.raises(ValueError):
            JobSpec(max_retries=-1)
        with pytest.raises(ValueError):
            JobSpec(deadline_s=0.0)

    def test_parallel_knobs_rejected_at_submit(self):
        # Checked when the spec is built, not after a runner leases it.
        with pytest.raises(ValueError, match="'thread'"):
            JobSpec(kind="optimize", backend="thread")
        with pytest.raises(ValueError, match="workers"):
            JobSpec(kind="optimize", workers=0)
        with pytest.raises(TypeError, match="workers"):
            JobSpec(kind="optimize", workers=1.5)

    def test_record_round_trip(self):
        spec = _spec(deadline_s=12.5, workers=2,
                     fault_injection={"p_exit": 0.1})
        record = JobRecord(job_id="job-x", spec=spec, submitted_at=1.0,
                           lease={"owner": "s", "expires_at": 2.0})
        clone = JobRecord.from_dict(
            json.loads(json.dumps(record.to_dict())))
        assert clone == record


# ----------------------------------------------------------------------
# the service end to end
# ----------------------------------------------------------------------

def _result_payload(client, job_id):
    return client.result(job_id)


class TestJobService:
    def test_submit_run_fetch(self, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(budget={"population_size": 10,
                                          "max_iterations": 12}, seed=3))
        with JobService(root, slots=2, lease_s=10.0,
                        recovery_interval_s=0.2) as service:
            record = service.wait(job.job_id, timeout=60.0)
        assert record.state == "done"
        assert record.result["n_iterations"] == 12
        payload = _result_payload(client, job.job_id)
        assert payload["result"]["fun"] == record.result["fun"]
        assert len(payload["result"]["history"]) == 13  # gen 0 + 12 iters

        run_dir = client.run_dir(job.job_id)
        journal = os.path.join(run_dir, "journal.jsonl")
        assert has_run_end(journal)
        replay = replay_journal(journal)
        assert replay.is_contiguous()
        assert len(replay.telemetry) == 13        # gen 0 + 12 iterations

    def test_record_accepted_as_job_handle(self, tmp_path):
        # submit()'s JobRecord passes straight back into wait/status/
        # result/run_dir/cancel — no .job_id plumbing required.
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(budget={"population_size": 8,
                                          "max_iterations": 4}))
        assert client.status(job).state == "pending"
        with JobService(root, slots=1) as service:
            record = service.wait(job, timeout=60.0)
        assert record.state == "done"
        payload = client.result(job)
        assert payload["result"]["fun"] == record.result["fun"]
        assert client.run_dir(job) == client.run_dir(job.job_id)

        cancelled = client.submit(_spec())
        assert client.cancel(cancelled) == "failed"
        assert client.status(cancelled).error == "cancelled"

    def test_particle_swarm_jobs_run_too(self, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(algorithm="particle_swarm",
                                  budget={"population_size": 8,
                                          "max_iterations": 6}))
        with JobService(root, slots=1) as service:
            record = service.wait(job.job_id, timeout=60.0)
        assert record.state == "done"
        assert record.result["n_iterations"] == 6

    def test_failing_job_is_retried_then_terminal(self, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(objective="bench.does_not_exist",
                                  max_retries=1))
        with JobService(root, slots=1, poll_interval_s=0.02,
                        recovery_interval_s=0.2) as service:
            record = service.wait(job.job_id, timeout=30.0)
            service_journal = service.service_run.journal_path
        assert record.state == "failed"
        assert record.attempt == 2                # initial try + 1 retry
        assert "KeyError" in record.error
        events = replay_journal(service_journal).counts()
        assert events.get("job_retried", 0) == 1
        assert events.get("job_failed", 0) == 1
        with pytest.raises(RuntimeError, match="KeyError"):
            client.result(job.job_id)

    def test_cancel_mid_run_is_terminal_and_cooperative(self, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(
            objective_params={"dim": 3, "delay_s": 0.02},
            budget={"population_size": 6, "max_iterations": 500}))
        with JobService(root, slots=1, poll_interval_s=0.02) as service:
            _wait_for_generations(client.run_dir(job.job_id), 1)
            client.cancel(job.job_id)
            record = service.wait(job.job_id, timeout=30.0)
        assert record.state == "failed"
        assert record.error == "cancelled"
        assert has_run_end(os.path.join(client.run_dir(job.job_id),
                                        "journal.jsonl"))

    def test_deadline_exceeded_fails_terminally(self, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(
            objective_params={"dim": 3, "delay_s": 0.03},
            budget={"population_size": 6, "max_iterations": 500},
            deadline_s=0.5, max_retries=3))
        with JobService(root, slots=1, poll_interval_s=0.02) as service:
            record = service.wait(job.job_id, timeout=30.0)
        assert record.state == "failed"
        assert record.error == "deadline"
        assert record.attempt == 1                # deadline burns no retries

    def test_drain_releases_and_resume_is_bit_identical(self, tmp_path):
        spec = _spec(objective_params={"dim": 4, "delay_s": 0.02},
                     budget={"population_size": 8, "max_iterations": 20},
                     seed=17)
        # Reference: the same job, never interrupted.
        ref_root = str(tmp_path / "ref")
        ref_client = ServiceClient(ref_root)
        ref_job = ref_client.submit(spec)
        with JobService(ref_root, slots=1) as service:
            service.wait(ref_job.job_id, timeout=120.0)
        reference = ref_client.result(ref_job.job_id)["result"]

        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(spec)
        service = JobService(root, slots=1, poll_interval_s=0.02)
        service.start()
        _wait_for_generations(client.run_dir(job.job_id), 3)
        service.stop()                            # drain mid-run

        released = client.status(job.job_id)
        assert released.state == "pending"        # back in the queue...
        assert released.attempt == 0              # ...without burning retries
        run_dir = client.run_dir(job.job_id)
        assert os.path.exists(os.path.join(run_dir, "checkpoint.ckpt"))
        # The drained service is a *finished* run, not an orphan.
        assert has_run_end(service.service_run.journal_path)

        with JobService(root, slots=1, poll_interval_s=0.02) as second:
            record = second.wait(job.job_id, timeout=120.0)
        assert record.state == "done"
        payload = client.result(job.job_id)
        assert payload["result"] == reference     # bit-identical resume
        replay = replay_journal(os.path.join(run_dir, "journal.jsonl"))
        assert replay.n_resumes >= 1
        assert replay.is_contiguous()

    def test_experiment_jobs_run_registered_drivers(self, tmp_path):
        calls = []

        class _Driver:
            @staticmethod
            def run(**kwargs):
                calls.append(kwargs)
                return {"score": 1.5, "label": "ok",
                        "payload": object()}      # non-JSON leaf dropped

        register_experiment("fake-driver", _Driver())
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(JobSpec(kind="experiment",
                                    experiment="fake-driver",
                                    experiment_kwargs={"alpha": 2}))
        with JobService(root, slots=1) as service:
            record = service.wait(job.job_id, timeout=30.0)
        assert record.state == "done"
        assert calls == [{"alpha": 2}]
        assert record.result["score"] == 1.5
        assert record.result["label"] == "ok"
        assert "payload" not in record.result
        # The fetch contract holds for experiment jobs too: a completed
        # job always has a result.json behind ServiceClient.result().
        payload = client.result(job)
        assert payload["result"]["score"] == 1.5
        assert payload["result"]["experiment"] == "fake-driver"

    def test_driver_submit_helpers_package_experiment_jobs(self, tmp_path):
        from repro.experiments import e5_optimizer_comparison as e5
        from repro.experiments import e6_tradeoff_front as e6
        from repro.experiments import e8_selected_design as e8

        root = str(tmp_path / "svc")
        records = [
            e5.submit(root, seed=3, deadline_s=600.0),
            e6.submit(root, n_points=2),
            e8.submit(root, profile="fast"),
        ]
        assert [r.spec.experiment for r in records] == [
            "e5_optimizer_comparison", "e6_tradeoff_front",
            "e8_selected_design"]
        assert records[0].spec.experiment_kwargs["seed"] == 3
        assert records[0].spec.deadline_s == 600.0
        assert records[1].spec.experiment_kwargs["n_points"] == 2
        assert records[2].spec.experiment_kwargs["profile"] == "fast"
        client = ServiceClient(root)
        assert client.counts()["pending"] == 3


def _wait_for_generations(run_dir, n, timeout=30.0):
    """Poll until the run's journal holds >= n generation events."""
    journal = os.path.join(run_dir, "journal.jsonl")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(journal, "rb") as handle:
                count = handle.read().count(b'"event":"generation"')
        except OSError:
            count = 0
        if count >= n:
            return count
        time.sleep(0.01)
    raise AssertionError(
        f"journal never reached {n} generations within {timeout}s")


# ----------------------------------------------------------------------
# stale-segment helpers and gc
# ----------------------------------------------------------------------

def _dead_pid():
    """A pid guaranteed dead: fork a child that exits immediately."""
    process = multiprocessing.get_context("fork").Process(target=lambda: None)
    process.start()
    process.join()
    return process.pid


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="POSIX shared memory not mounted")
class TestStaleSegments:
    def test_stale_segment_detection_and_unlink(self):
        from multiprocessing import shared_memory
        name = f"repro-fleet-{_dead_pid()}-feed00-x"
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=64)
        segment.close()
        try:
            assert name in list_segments()
            assert segment_owner_pid(name) is not None
            assert name in stale_segments()
            assert unlink_segment(name)
        finally:
            unlink_segment(name)                  # idempotent cleanup
        assert name not in list_segments()
        assert not unlink_segment(name)           # already gone

    def test_live_owner_is_not_stale(self):
        from multiprocessing import shared_memory
        name = f"repro-fleet-{os.getpid()}-feed01-x"
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=64)
        try:
            assert name not in stale_segments()
        finally:
            segment.close()
            segment.unlink()

    def test_unparseable_names_are_left_alone(self):
        assert segment_owner_pid("repro-fleet-notapid-x") is None
        assert segment_owner_pid("unrelated") is None


class TestGcCommand:
    def _make_run(self, runs, run_id, finished):
        os.makedirs(os.path.join(runs, run_id))
        path = os.path.join(runs, run_id, "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"seq": 1, "event": "run_start"}) + "\n")
            if finished:
                handle.write(json.dumps({"seq": 2, "event": "run_end"})
                             + "\n")

    def test_find_orphan_runs_respects_trailer_and_protection(
            self, tmp_path):
        runs = str(tmp_path / "runs")
        self._make_run(runs, "crashed", finished=False)
        self._make_run(runs, "finished", finished=True)
        self._make_run(runs, "live-job", finished=False)
        os.makedirs(os.path.join(runs, "no-journal"))
        orphans = {o["run_id"]: o["reason"]
                   for o in find_orphan_runs(runs, protected=("live-job",))}
        assert set(orphans) == {"crashed", "no-journal"}
        assert "run_end" in orphans["crashed"]
        assert "journal" in orphans["no-journal"]

    def test_gc_reports_by_default_and_deletes_with_force(
            self, tmp_path, capsys):
        root = tmp_path / "svc"
        runs = str(root / "runs")
        self._make_run(runs, "crashed", finished=False)
        self._make_run(runs, "finished", finished=True)
        self._make_run(runs, "job-live", finished=False)
        queue = JobQueue(str(root / "queue"))
        queue.submit(_spec(), job_id="job-live")

        elsewhere = str(tmp_path / "elsewhere")
        assert obs_main(["--runs-root", elsewhere, "gc",
                         "--service", str(root), "--no-shm"]) == 0
        out = capsys.readouterr().out
        assert "crashed" in out and "report only" in out
        assert "job-live" not in out and "finished" not in out
        assert os.path.isdir(os.path.join(runs, "crashed"))

        assert obs_main(["--runs-root", elsewhere, "gc",
                         "--service", str(root), "--no-shm",
                         "--force"]) == 0
        assert not os.path.isdir(os.path.join(runs, "crashed"))
        assert os.path.isdir(os.path.join(runs, "finished"))
        assert os.path.isdir(os.path.join(runs, "job-live"))

    def test_gc_protects_implicit_sibling_queue(self, tmp_path, capsys):
        root = tmp_path / "svc"
        runs = str(root / "runs")
        self._make_run(runs, "job-live", finished=False)
        queue = JobQueue(str(root / "queue"))
        queue.submit(_spec(), job_id="job-live")
        assert obs_main(["--runs-root", runs, "gc", "--no-shm",
                         "--force"]) == 0
        assert os.path.isdir(os.path.join(runs, "job-live"))


# ----------------------------------------------------------------------
# the chaos soak
# ----------------------------------------------------------------------

def _service_forever(root):
    """Child-process main: run a service until SIGKILLed."""
    service = JobService(root, slots=1, lease_s=2.0,
                         poll_interval_s=0.02, recovery_interval_s=0.2)
    service.start()
    threading.Event().wait()                      # parked; SIGKILL only


_CHAOS_SPEC = dict(
    objective="bench.sphere",
    objective_params={"dim": 5, "delay_s": 0.015},
    budget={"population_size": 10, "max_iterations": 25},
    seed=11,
    workers=2,
    checkpoint_every=1,
    max_retries=2,
)


class TestChaosSoak:
    def test_sigkill_recovery_is_bit_identical_and_leak_free(
            self, tmp_path):
        """Kill the service mid-job; a fresh one must finish it exactly.

        The job runs on the worker fleet with ``p_exit`` fault injection
        (workers die at random mid-generation), and the service process
        itself is SIGKILLed once a few generations are durable.  The
        restarted service takes over the expired lease, resumes from
        the checkpoint, and the final payload must be byte-for-byte the
        uninterrupted run's; afterwards no ``/dev/shm`` segment of
        either process survives and ``repro-obs gc`` collects exactly
        the dead service's orphaned run directory.
        """
        # -- reference: same spec, no chaos, never interrupted ----------
        ref_root = str(tmp_path / "ref")
        ref_client = ServiceClient(ref_root)
        ref_job = ref_client.submit(
            JobSpec(fault_injection={"p_exit": 0.0}, **_CHAOS_SPEC))
        with JobService(ref_root, slots=1) as service:
            service.wait(ref_job.job_id, timeout=240.0)
        reference = ref_client.result(ref_job.job_id)["result"]

        # -- chaos run ---------------------------------------------------
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(
            JobSpec(fault_injection={"p_exit": 0.02, "seed": 3},
                    **_CHAOS_SPEC))
        child = multiprocessing.get_context("fork").Process(
            target=_service_forever, args=(root,))
        child.start()
        try:
            _wait_for_generations(client.run_dir(job.job_id), 4,
                                  timeout=120.0)
            os.kill(child.pid, signal.SIGKILL)    # no cleanup of any kind
        finally:
            child.join(10.0)
        assert not child.is_alive()

        leased = client.status(job.job_id)
        assert leased.state == "leased"           # wreckage, as expected

        # -- recovery ------------------------------------------------------
        with JobService(root, slots=1, lease_s=2.0, poll_interval_s=0.02,
                        recovery_interval_s=0.2) as second:
            record = second.wait(job.job_id, timeout=240.0)
            second_run = second.service_run
        assert record.state == "done"
        assert record.takeovers >= 1

        payload = client.result(job.job_id)
        assert payload["result"] == reference     # bit-identical recovery

        job_journal = os.path.join(client.run_dir(job.job_id),
                                   "journal.jsonl")
        replay = replay_journal(job_journal)
        assert replay.n_resumes >= 1
        assert replay.is_contiguous()
        assert len(replay.telemetry) == 26        # gen 0 + 25 iterations
        assert has_run_end(job_journal)

        # -- zero leaked shared memory -------------------------------------
        deadline = time.monotonic() + 30.0
        interesting = {child.pid, os.getpid()}
        while time.monotonic() < deadline:
            leaked = [name for name in list_segments()
                      if segment_owner_pid(name) in interesting]
            if not leaked:
                break
            # The orphan watchdog / resource tracker / janitor race to
            # clean up; give them a moment.
            for name in list(leaked):
                if name in stale_segments():
                    unlink_segment(name)
            time.sleep(0.2)
        assert leaked == []

        # -- gc collects exactly the dead service's run dir ----------------
        runs_root = os.path.join(root, "runs")
        orphans = find_orphan_runs(runs_root,
                                   protected=live_job_ids(root))
        orphan_ids = {o["run_id"] for o in orphans}
        assert job.job_id not in orphan_ids       # finished job is kept
        assert second_run.run_id not in orphan_ids  # drained service too
        assert len(orphan_ids) == 1               # the SIGKILLed service
        assert obs_main(["--runs-root", str(tmp_path / "elsewhere"),
                         "gc", "--service", root, "--no-shm",
                         "--force"]) == 0
        assert find_orphan_runs(runs_root,
                                protected=live_job_ids(root)) == []
        assert os.path.isdir(os.path.join(runs_root, job.job_id))
