"""curvitrack: multi-camera roadway geometry, homography drift correction,
curvilinear coordinates, tracking baselines, and trajectory evaluation.

The names below are imported from their modules on first use, so
`import curvitrack` loads no module, and a stage process loads only the
layers it runs.  The package needs numpy alone.
"""

import importlib

_EXPORTS = {
    "errors": ("CurvitrackError",),
    "geometry": ("CorrespondencePoint", "Homography", "ImagePoint", "PointSet", "Prism3D",
                 "Projection3D", "StatePlanePoint", "decode_anchor_detection",
                 "fit_homography", "fit_projection3d", "lift_image_box_to_prism",
                 "project_image_to_world", "project_world_to_image"),
    "roadway": ("RoadwayBox", "RoadwaySpline", "fit_centerline",
                "roadway_to_world", "world_to_roadway"),
    "drift": ("ErrorStats", "EstimateStack", "HomographyTimeline", "RediscoverySnapshot",
              "build_dynamic", "build_static", "build_timeline", "metric_fitness",
              "metric_full_drift", "metric_sub_drift"),
    "gps": ("GpsTrace", "PoleAnnotation", "refine"),
    "moteval": ("EvalReport", "evaluate"),
    "simulator": ("SceneConfig", "simulate"),
    "tracking": ("Tracklet", "hungarian_match", "run_oracle", "run_tracker"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
