"""Coordinated checkpointing: cadence, consistency, persistence, resume."""

import numpy as np
import pytest

from repro.caf.program import run_caf
from repro.resilience import CheckpointStore
from repro.resilience.checkpoint import CHECKPOINT_VERSION, Checkpoint, ResilienceService
from repro.sim.faults import FaultPlan
from repro.util.errors import ResilienceError

NR = 4
ITERS = 8
EVERY = 3


def counter(img, *, iters=ITERS):
    """Tiny iterative program: one coarray, one event array, app state."""
    r = img.resilience
    co = img.allocate_coarray(4, np.float64)
    ev = img.allocate_events(2)
    start = r.resume_step() if r is not None and r.resumed is not None else 0
    img.sync_all()
    right = (img.rank + 1) % img.nranks
    for i in range(start, iters):
        co.local[:] += 1.0
        ev.notify(right, slot=0)
        ev.wait(slot=0)
        img.barrier()
        if r is not None:
            r.step(state={"i": i + 1})
    img.barrier()
    return float(co.local[0])


def test_checkpoint_cadence_and_content(backend):
    run = run_caf(counter, NR, backend=backend, checkpoint_every=EVERY)
    svc = run.cluster.resilience
    assert run.results == [float(ITERS)] * NR
    # Cadence: one checkpoint per EVERY completed iterations.
    assert [c.step for c in svc.store.checkpoints] == [3, 6]
    ck = svc.store.latest()
    assert ck.version == CHECKPOINT_VERSION
    assert ck.nranks == NR and ck.members == tuple(range(NR))
    for rank in range(NR):
        # Quiesced snapshot: every image's coarray holds exactly `step`
        # increments — no torn or in-flight state.
        assert np.all(ck.coarrays[rank][0] == float(ck.step))
        assert ck.app_state[rank] == {"i": ck.step}
        # Event counts captured (notify/wait balanced each iteration).
        assert ck.events[rank][0] == [0, 0]


def test_checkpoint_disk_roundtrip(backend, tmp_path):
    store = CheckpointStore(tmp_path)
    run_caf(counter, NR, backend=backend, checkpoint_every=EVERY,
            checkpoint_store=store)
    assert len(list(tmp_path.glob("ckpt-*.npz"))) == 2
    loaded = CheckpointStore.load(tmp_path)
    assert [c.step for c in loaded.checkpoints] == [3, 6]
    orig = store.latest()
    back = loaded.latest()
    assert back.members == orig.members
    for rank in range(NR):
        assert np.array_equal(back.coarrays[rank][0], orig.coarrays[rank][0])
        assert back.events[rank][0] == orig.events[rank][0]
        # JSON round-trips the app-state blob.
        assert back.app_state[rank] == orig.app_state[rank]


def test_resume_refills_allocations(backend):
    first = run_caf(counter, NR, backend=backend, checkpoint_every=EVERY)
    ckpt = first.cluster.resilience.store.latest()
    assert ckpt.step == 6

    def probe(img):
        co = img.allocate_coarray(4, np.float64)
        img.allocate_events(2)
        # Restore is transparent: the re-made allocation already holds the
        # checkpointed data before the program touches it.
        assert np.all(co.local == float(ckpt.step))
        assert img.resilience.resume_step() == ckpt.step
        assert img.resilience.resume_state() == {"i": ckpt.step}
        img.sync_all()
        return True

    assert run_caf(probe, NR, backend=backend, resume_from=ckpt).results == [True] * NR


@pytest.mark.parametrize("event_impl", ["sendrecv", "atomics"])
def test_resume_restores_pending_notifications(event_impl):
    """A notification posted but not yet consumed at the checkpoint is still
    pending after a resume — wherever the backend keeps its count (the §3.4
    atomics design reads it from an RMA window, not from ``counters``)."""
    options = {"event_impl": event_impl}

    def leave_one_pending(img):
        ev = img.allocate_events(1)
        img.sync_all()
        ev.notify((img.rank + 1) % img.nranks)
        img.sync_all()
        img.resilience.checkpoint()

    first = run_caf(leave_one_pending, 2, backend="mpi", backend_options=options,
                    checkpoint_store=CheckpointStore())
    ckpt = first.cluster.resilience.store.latest()
    assert [ckpt.events[r][0] for r in range(2)] == [[1], [1]]

    def resumed(img):
        ev = img.allocate_events(1)
        pending = ev.count()
        ev.wait()  # and it can be consumed: would hang if the post was lost
        img.sync_all()
        return pending

    run = run_caf(resumed, 2, backend="mpi", backend_options=options,
                  resume_from=ckpt, deadline=1.0)
    assert run.results == [1, 1]


def test_resume_latest_string_and_completion(backend):
    store = CheckpointStore()
    run_caf(counter, NR, backend=backend, checkpoint_every=EVERY,
            checkpoint_store=store)
    # Resume from "latest" and run to completion: final answer matches an
    # uninterrupted run because iterations 0..5 come from the checkpoint.
    done = run_caf(counter, NR, backend=backend, checkpoint_every=EVERY,
                   checkpoint_store=store, resume_from="latest")
    assert done.results == [float(ITERS)] * NR


def test_size_mismatch_skips_restore(backend):
    first = run_caf(counter, NR, backend=backend, checkpoint_every=EVERY)
    ckpt = first.cluster.resilience.store.latest()

    def probe(img):
        co = img.allocate_coarray(8, np.float64)  # different shape: no refill
        img.sync_all()
        return float(co.local.sum())

    run = run_caf(probe, NR, backend=backend, resume_from=ckpt)
    assert run.results == [0.0] * NR


def test_service_validation():
    with pytest.raises(ResilienceError):
        ResilienceService(every=0)
    ck = Checkpoint(step=1, time=0.0, nranks=2, members=(0, 1))
    with pytest.raises(ResilienceError):
        ck.coarray_partition(0, 0)


def test_load_rejects_wrong_version(tmp_path):
    store = CheckpointStore(tmp_path)
    ck = Checkpoint(step=1, time=0.0, nranks=1, members=(0,),
                    coarrays={0: [np.zeros(2)]}, events={0: []})
    store.save(ck)
    json_path = tmp_path / "ckpt-00000001.json"
    json_path.write_text(json_path.read_text().replace(
        f'"version": {CHECKPOINT_VERSION}', '"version": 999'))
    with pytest.raises(ResilienceError):
        CheckpointStore.load(tmp_path)


def test_shrink_rewinds_the_checkpoint_cadence(backend):
    """Survivors that saw the failure in different iterations still agree
    on the next checkpoint: recover_shrink rewinds every image's counter to
    the checkpoint's step."""

    def uneven(img):
        r = img.resilience
        r.step()
        r.step()  # step 2 checkpoints on every image
        if img.rank == 0:
            r.step()  # image 0 got one iteration further before the crash
        img.compute(seconds=1e-3)  # image 1 dies meanwhile
        team, ckpt = r.recover_shrink()
        for _ in range(3):
            r.step(team=team)  # steps 3, 4, 5: step 4 checkpoints on both
        return ckpt.step

    run = run_caf(uneven, 3, backend=backend, checkpoint_every=2,
                  faults=FaultPlan(seed=1, crashes=[(1, 5e-4)]))
    assert run.results[0] == run.results[2] == 2
    assert [c.step for c in run.cluster.resilience.store.checkpoints] == [2, 4]
    assert run.cluster.resilience.store.latest().members == (0, 2)
