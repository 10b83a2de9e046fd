"""limbscan: ultrasound scan-trajectory planning on articulated limb surfaces.

Synthetic atlas generation, depth rendering, adaptive surface extraction,
trajectory planning, non-rigid registration via embedded deformation graphs,
and a closed-loop scan simulation.
"""
from .errors import LimbscanError
from .geometry import PointCloud3, RigidTransform, pca_obb
from .scene import ArmTemplate, ArticulatedPose, articulate, make_template
from .extraction import ExtractionParams, JointPixels, extract_arm
from .trajectory import ScanTrajectory, project_trajectory, smooth_centerline
from .registration import (ArmObservation, DeformationGraph, SolveParams,
                           build_graph, energy, initial_align, solve,
                           transfer_trajectory)
from .scan import (ScanParams, VirtualFrame, image_slice, radius_report,
                   reconstruct, run_scan)
from .pipeline import PipelineConfig, load_config, run_pipeline, sweep

__version__ = "0.1.0"

__all__ = [
    "LimbscanError", "PointCloud3", "RigidTransform", "pca_obb",
    "ArmTemplate", "ArticulatedPose", "articulate", "make_template",
    "ExtractionParams", "JointPixels", "extract_arm", "ScanTrajectory",
    "project_trajectory", "smooth_centerline", "ArmObservation",
    "DeformationGraph", "SolveParams", "build_graph", "energy",
    "initial_align", "solve", "transfer_trajectory", "ScanParams",
    "VirtualFrame", "image_slice", "radius_report", "reconstruct", "run_scan",
    "PipelineConfig", "load_config", "run_pipeline", "sweep",
]
