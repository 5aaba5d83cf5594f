"""Text rendering of every table and figure, plus the experiment index."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "experiments": (
        "EXPERIMENTS",
        "Experiment",
        "experiment_ids",
        "get_experiment",
        "run_experiment",
    ),
    "export": ("export_all", "export_artifacts", "export_figure_csvs"),
    "manifest": ("build_manifest", "manifest_json"),
    "validation": (
        "ClaimResult",
        "render_validation_report",
        "validate_claims",
    ),
    "figures": (
        "LIMITER_MARKS",
        "ascii_chart",
        "render_energy_figure",
        "render_energy_panel",
        "render_projection_figure",
        "render_projection_panel",
        "series_to_csv",
    ),
    "tables": (
        "format_table",
        "render_table1",
        "render_table2",
        "render_table3",
        "render_table4",
        "render_table5",
        "render_table6",
    ),
})
