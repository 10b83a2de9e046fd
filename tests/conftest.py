"""Shared fixtures: one template and per-angle rendered/extracted scenes,
built once per session because rendering and extraction dominate test time."""
import _util  # noqa: F401  (first: it pins one BLAS thread before numpy loads)
import numpy as np
import pytest

from limbscan.extraction import JointPixels, extract_arm
from limbscan.scene import (ArticulatedPose, articulate, default_camera,
                            joint_pixels, make_template, render_depth)


@pytest.fixture(scope="session")
def template():
    return make_template()


@pytest.fixture(scope="session")
def atlas(template):
    return articulate(template, ArticulatedPose(180.0))


@pytest.fixture(scope="session")
def scene_cache(template):
    cache = {}

    def get(angle):
        if angle not in cache:
            posed = articulate(template, ArticulatedPose(angle))
            cam, w, h = default_camera(posed)
            img = render_depth(posed, cam, w, h, 1.0)
            jp = joint_pixels(img, posed)
            seg = extract_arm(img, JointPixels(jp["wrist"], jp["elbow"],
                                               jp["shoulder"]))
            cache[angle] = (posed, img, seg)
        return cache[angle]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
