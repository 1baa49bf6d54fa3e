"""Runtime backends: CAF-MPI (the paper's contribution) and CAF-GASNet.

The package re-exports nothing: import the submodule you use
(``repro.caf.backends.mpi_backend`` / ``gasnet_backend``), so a CAF-MPI run
never loads the GASNet stack.
"""
