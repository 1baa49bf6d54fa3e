"""Host-time benchmark of the simulator stack, measured from outside.

``python -m bench run`` times four workloads in fresh child interpreters and
reports the metrics ``BENCHMARK.json`` names; ``python -m bench compare``
judges two result files against its bounds. See ``bench/README.md``.
"""
