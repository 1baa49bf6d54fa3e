"""No false positives: the paper apps run clean under the sanitizer, and
sanitizing never perturbs the simulated timeline."""

import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.hpl import run_hpl
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf

APPS = {
    "randomaccess": (run_randomaccess, dict(updates_per_image=64, seed=3)),
    "fft": (run_fft, dict(m=256, seed=3)),
    "hpl": (run_hpl, dict(n=32, seed=3)),
    "cgpop-push": (run_cgpop, dict(ny=8, nx=4, mode="push", seed=3)),
    "cgpop-pull": (run_cgpop, dict(ny=8, nx=4, mode="pull", seed=3)),
    "cgpop2d": (run_cgpop, dict(ny=8, nx=4, px=2, seed=3)),
    "cgpop2d-pull": (run_cgpop, dict(ny=8, nx=4, px=2, mode="pull", seed=3)),
    "cgpop-uneven": (run_cgpop, dict(ny=13, nx=7, px=2, seed=3)),
}
#: Image count per app where it is not 4: the uneven grid needs a 2 x 3
#: image grid that 13 x 7 does not divide.
NRANKS = {"cgpop-uneven": 6}


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_app_runs_clean(app, backend):
    program, kwargs = APPS[app]
    run = run_caf(program, NRANKS.get(app, 4), backend=backend, sanitize=True, **kwargs)
    report = run.sanitizer.report
    assert report.clean, f"{app}/{backend}:\n{report.to_text()}"
    # The checker was live (FFT on MPI is pure collectives — it may
    # legitimately record no shadow accesses, but it always ticks clocks).
    assert report.stats["ticks"] > 0


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_sanitizer_does_not_perturb_timeline(backend):
    program, kwargs = APPS["fft"]
    plain = run_caf(program, 4, backend=backend, **kwargs)
    checked = run_caf(program, 4, backend=backend, sanitize=True, **kwargs)
    assert checked.elapsed == plain.elapsed
    assert checked.results == plain.results


def test_experiment_clean_under_forced_sanitize():
    """Experiments build clusters internally; a sanitize capture covers them."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.obs.capture import capture

    with capture(sanitize=True) as session:
        EXPERIMENTS["fig06"].load()("quick")
    reports = session.sanitizer_reports
    assert reports, "no sanitized runs collected"
    for report in reports:
        assert report.clean, report.to_text()


def test_atomics_event_backend_clean():
    """The §3.4 atomics-event ablation busy-polls an exempt window."""

    def program(img):
        ev = img.allocate_events(1)
        co = img.allocate_coarray(4)
        if img.rank == 0:
            co.write(1, [7.0] * 4)
            ev.notify(1)
        elif img.rank == 1:
            ev.wait()
            assert float(co.local[0]) == 7.0
        img.sync_all()
        return True

    run = run_caf(
        program, 2, backend="mpi", sanitize=True,
        backend_options={"event_impl": "atomics"},
    )
    assert run.sanitizer.report.clean, run.sanitizer.report.to_text()
