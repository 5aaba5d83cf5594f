"""Physical chip layout: tiles, floorplans, and Figure 1 rendering."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "floorplan": ("NONCOMPUTE_FRACTION", "Floorplan", "build_floorplan"),
    "render": ("render_figure1", "render_floorplan"),
    "tiles": ("Tile", "TileKind", "make_tile"),
})
