"""Durable, resumable projection campaigns (:mod:`repro.campaign`).

The paper's headline artifacts are each the product of thousands of
(design, node, workload, f, scenario) model evaluations.  This package
turns any such sweep into a *durable job*:

* :mod:`~repro.campaign.spec` -- a declarative :class:`CampaignSpec`
  that expands into a deterministic list of hashable tasks (figure
  panels, Pareto sweeps, Monte-Carlo sensitivity batches);
* :mod:`~repro.campaign.store` -- a content-addressed on-disk
  :class:`ResultStore` keyed on ``(task hash, model version)`` with
  atomic writes, corruption detection, and hit/miss statistics;
* :mod:`~repro.campaign.runner` -- a :class:`CampaignRunner` that
  drains a spec serially (or across a process pool, or with other
  ``--join`` processes), with per-task retry + exponential backoff, a
  checkpoint manifest, and resume that skips completed tasks;
* :mod:`~repro.campaign.jobs` -- an async :class:`JobManager` the
  serving layer mounts as ``POST /v1/jobs`` / ``GET /v1/jobs/{id}``.

The CLI front end is ``repro-hetsim campaign --resume --store-dir
DIR``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "jobs": ("JobManager", "JobRecord", "JobState"),
    "runner": (
        "CampaignReport",
        "CampaignRunner",
        "TaskOutcome",
        "execute_task",
    ),
    "spec": (
        "CampaignSpec",
        "FigureTask",
        "ParetoFrontTask",
        "ParetoTask",
        "SensitivityTask",
        "SuccessiveHalvingTask",
        "task_hash",
    ),
    "store": ("ResultStore", "StoreStats"),
})
