"""Experiment modules: one per table/figure of the paper's evaluation.

Each module exposes ``run(scale=None) -> List[dict]`` returning the rows of
the corresponding paper artefact. ``common.Scale`` controls sweep sizes
(``REPRO_SCALE=full`` for paper-scale runs).

The modules and names below resolve on first access
(:func:`repro._lazy_exports`), so running one experiment imports that
experiment alone.
"""

from .. import _lazy_exports

__all__ = [
    "Scale",
    "current_scale",
    "format_table",
    "common",
    "applications",
    "fig1_fig2_scenarios",
    "heterogeneous",
    "lifetime",
    "path_quality",
    "sensitivity",
    "fig3_deadlock_likelihood",
    "fig4_vnet_power",
    "fig5_updown_gap",
    "fig9_area_power",
    "fig10_throughput",
    "fig11_latency",
    "fig12_ligra",
    "fig13_parsec",
    "fig14_epoch",
    "fig15_tail",
    "table1_comparison",
    "table2_parameters",
]

# After the three re-exports from ``common``, every name is a submodule.
__getattr__, __dir__ = _lazy_exports(globals(), {
    **{module: (module,) for module in __all__[3:]},
    "common": ("common", "Scale", "current_scale", "format_table"),
})
