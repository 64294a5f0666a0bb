"""curvitrack: multi-camera roadway geometry, homography drift correction,
curvilinear coordinates, tracking baselines, and trajectory evaluation."""

from .errors import CurvitrackError
from .geometry import (
    CorrespondencePoint,
    Homography,
    ImagePoint,
    Prism3D,
    Projection3D,
    StatePlanePoint,
    decode_anchor_detection,
    fit_homography,
    fit_projection3d,
    lift_image_box_to_prism,
    project_image_to_world,
    project_world_to_image,
)
from .roadway import (
    RoadwayBox,
    RoadwaySpline,
    fit_centerline,
    roadway_to_world,
    world_to_roadway,
)
from .drift import (
    ErrorStats,
    HomographyTimeline,
    RediscoverySnapshot,
    build_dynamic,
    build_static,
    build_timeline,
    metric_fitness,
    metric_full_drift,
    metric_sub_drift,
)
from .gps import GpsTrace, PoleAnnotation, refine
from .moteval import EvalConfig, EvalReport, evaluate
from .simulator import SceneConfig, simulate
from .tracking import (
    Tracklet,
    hungarian_match,
    run_oracle,
    run_tracker,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondencePoint", "CurvitrackError", "ErrorStats", "EvalConfig",
    "EvalReport", "GpsTrace", "Homography", "HomographyTimeline",
    "ImagePoint", "PoleAnnotation", "Prism3D", "Projection3D",
    "RediscoverySnapshot", "RoadwayBox", "RoadwaySpline", "SceneConfig",
    "StatePlanePoint", "Tracklet", "build_dynamic", "build_static",
    "build_timeline", "decode_anchor_detection", "evaluate",
    "fit_centerline", "fit_homography", "fit_projection3d",
    "hungarian_match", "lift_image_box_to_prism", "metric_fitness",
    "metric_full_drift", "metric_sub_drift", "project_image_to_world",
    "project_world_to_image", "refine", "roadway_to_world", "run_oracle",
    "run_tracker", "simulate", "world_to_roadway",
]
