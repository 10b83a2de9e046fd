"""Shared test helpers."""
import numpy as np

from limbscan.geometry import RigidTransform
from limbscan.trajectory import ScanTrajectory

# probe facing straight down with its long axis across the arm (along -y)
DOWN_ROTATION = np.array([[1.0, 0.0, 0.0],
                          [0.0, -1.0, 0.0],
                          [0.0, 0.0, -1.0]])

# what graph.json holds: the graph, without the source vertices' bindings
GRAPH_KEYS = ("affines", "neighbors", "positions", "sampling_radius", "translations")


def straight_trajectory(arm, x0=100.0, x1=170.0, step=1.0):
    """Waypoints on the skin top of a neutral arm, probe pushing straight down."""
    xs = np.arange(x0, x1 + 1e-9, step)
    top_z = 2.0 * arm.vertical_b
    pts = np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, top_z)])
    poses = [RigidTransform(DOWN_ROTATION, p) for p in pts]
    return ScanTrajectory(pts, np.arange(len(pts)), poses)
