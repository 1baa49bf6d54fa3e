"""The paper's evaluation applications, rebuilt on the CAF 2.0 API (§4).

* :mod:`repro.apps.randomaccess` — HPCC RandomAccess (GUPS): hypercube
  software routing of bulk updates; stresses coarray writes + events.
* :mod:`repro.apps.fft` — HPCC FFT (GFlops): transpose-based distributed
  FFT; stresses the all-to-all collective.
* :mod:`repro.apps.hpl` — HPCC High-Performance Linpack (TFlops): blocked
  right-looking LU; compute-dominated.
* :mod:`repro.apps.cgpop` — the CGPOP miniapp: hybrid MPI+CAF conjugate
  gradient with PUSH/PULL coarray halo exchange and MPI reductions.
* :mod:`repro.apps.microbench` — point-to-point READ/WRITE/NOTIFY and
  all-to-all rate microbenchmarks (the paper's Mira/Edison source data).

Each module exposes ``run_<app>`` returning a result record with the
paper's figure of merit, plus a pure-NumPy reference used for validation.
The package re-exports nothing: import the app's module, so a run loads the
one app it runs.
"""
