"""repro.obs: op-level metrics, communication matrix, critical path, reports.

The observability layer the paper's own evidence is made of: Figures 4 and 8
are per-category decompositions whose *explanations* live in per-op
statistics — how many ``MPI_WIN_FLUSH_ALL`` calls ``event_notify`` issued and
what each cost as P grew, which P x P traffic pattern an all-to-all produced,
which rank chain actually determined the makespan.

Components
----------
* :mod:`repro.obs.metrics` — per-rank, per-op-kind counters/bytes/virtual-time
  with log-bucketed size and latency histograms (``Metrics``), and the P x P
  messages/bytes matrix the fabric feeds (``CommMatrix``); zero engine
  interaction, so timelines are bit-identical with metrics on or off.
* :mod:`repro.obs.critical` — backward dependency walk over trace events.
* :mod:`repro.obs.report` — ``RunReport`` / ``build_report``, the
  deterministic JSON artifact, with Prometheus text export and a diff for
  regression triage.
* :mod:`repro.obs.artifact` — the one owner of the artifact format.
* :mod:`repro.obs.capture` — the one process-wide session that arms
  observers (metrics, tracer, telemetry, IR recorder, sanitizer) on every
  cluster built while it is open and numbers and writes their artifacts.
* :mod:`repro.obs.live` — streaming JSONL progress snapshots
  (sim/wall time, events/s, blocked ranks, RSS) from a read-only engine
  heartbeat; render with ``python -m repro.obs top``.
* :mod:`repro.obs.scaling` — fit per-op virtual cost vs P across a rank
  sweep of RunReports, check the fits against declared expectations and the
  static cost model (the Fig. 4 ``flush_all`` O(P) cliff detector).

The package re-exports nothing: import the submodule you use. Every run's
``Cluster`` consults ``capture``, so loading this package must cost no more
than that (``scaling`` alone pulls in ``repro.lint`` and ``repro.ir``).

Enable per run with ``run_caf(..., metrics=True)`` (add ``trace=True`` for
the critical path, ``live=PATH`` for telemetry), or
``python -m repro.apps <app> --metrics out.json --live out.jsonl``.
``python -m repro.obs render/diff/validate/top/scaling`` works the artifacts.
"""
