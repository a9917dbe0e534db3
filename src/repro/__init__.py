"""repro — reproduction of "Performance Characterization and Provenance
of Distributed Task-based Workflows on HPC Platforms" (SC 2024).

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (clock, processes, resources,
    seeded randomness).
``repro.platform``
    Polaris-like hardware: nodes, interconnect, Lustre-like PFS, noise.
``repro.jobs``
    PBS-like batch layer: specs, allocation, job scripts and logs.
``repro.dasklike``
    The Dask.distributed-style WMS substrate: client/scheduler/workers,
    dynamic scheduling, work stealing, collections, spilling, failure
    recovery.
``repro.mofka``
    Mofka-like event streaming built from Mochi-like microservices.
``repro.darshan``
    Darshan-like I/O characterization: POSIX counters, DXT with pthread
    IDs, HEATMAP, adaptive capture, logs and reports.
``repro.instrument``
    The paper's contribution glue: Dask-Mofka plugins, provenance
    capture, run persistence, online monitoring.
``repro.core``
    PERFRECUP: the multisource tabular analysis and visualization
    engine.
``repro.workflows``
    The three evaluation workflows and the multi-run experiment runner.

Entry points: :func:`open_run` below, the ``perfrecup`` CLI
(``repro.cli``), and the experiment registry (``repro.experiments``).

The accepted-source matrix of :func:`open_run` (one dispatcher,
:meth:`repro.core.RunData.load`, behind every entry)::

    open_run("./results/xgboost/run0000")   # persisted run directory
    open_run(result)                        # RunResult from run_many
    open_run(result.data)                   # bare RunData
    open_run(session)                       # pass-through
    open_run(instrumented_run)              # live InstrumentedRun
"""

__version__ = "2.0.0"

__all__ = ["__version__", "open_run"]


def open_run(source, client=None):
    """The :class:`~repro.core.session.AnalysisSession` of any source.

    The single front door to single-run analysis — see the source
    matrix in the module docstring.  Imports lazily so ``import
    repro`` stays cheap.
    """
    from .core import AnalysisSession
    return AnalysisSession.of(source, client=client)

