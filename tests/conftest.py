import dataclasses
import math

import numpy as np
import pytest

# pass/fail lines registered by the acceptance tests; printed after the
# run so they survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from curvitrack.geometry import CorrespondencePoint, Homography, ImagePoint, StatePlanePoint


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_homography(rng):
    """A well-conditioned image->state-plane homography with h33 = 1."""
    h = np.array([
        [0.5 + rng.uniform(-0.1, 0.1), rng.uniform(-0.05, 0.05), 4000.0 + rng.uniform(-500, 500)],
        [rng.uniform(-0.05, 0.05), -0.4 + rng.uniform(-0.1, 0.1), 9000.0 + rng.uniform(-500, 500)],
        [rng.uniform(-1e-5, 1e-5), rng.uniform(1e-5, 3e-5), 1.0],
    ])
    return h


def points_from_h(h, img, camera="cam", direction="EB"):
    """Correspondence points produced by projecting pixels through h."""
    hom = Homography(h, camera, direction)
    img = np.asarray(img, dtype=float)
    q = (h @ np.hstack([img, np.ones((len(img), 1))]).T).T
    world = q[:, :2] / q[:, 2:3]
    return [
        CorrespondencePoint(f"p{i}", ImagePoint(*img[i]),
                            StatePlanePoint(world[i, 0], world[i, 1], 0.0))
        for i in range(len(img))
    ], hom


def with_setting(cfg, name, value):
    """`cfg` with the setting of dotted `name` set to `value`."""
    section, _, key = name.rpartition(".")
    if section:
        value = dataclasses.replace(getattr(cfg, section), **{key: value})
    return dataclasses.replace(cfg, **{section or key: value})


def settings(config, prefix=""):
    """(dotted name, field, value) of each setting of a scene config and of
    its sections."""
    for f in dataclasses.fields(config):
        name, value = prefix + f.name, getattr(config, f.name)
        if f.default is dataclasses.MISSING:
            yield from settings(value, name + ".")
        else:
            yield name, f, value


def bad_settings():
    """(dotted name, label, value) of values each scene-config setting refuses:
    nan, +inf, -inf, a bool, a string and a value just past each finite bound
    of its declared range."""
    from curvitrack.simulator import SceneConfig

    out = []
    for name, f, default in settings(SceneConfig()):
        cases = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "true": True,
                 "string": "x"}
        rng = f.metadata.get("range")
        if isinstance(rng, str):
            kind = type(default)
            lo, hi = map(float, rng[1:-1].split(","))
            for label, bound, closed, outward in (("below", lo, rng[0] == "[", -1),
                                                  ("above", hi, rng[-1] == "]", 1)):
                if not math.isfinite(bound):
                    continue
                if not closed:
                    cases[label] = kind(bound)
                elif kind is int:
                    cases[label] = int(bound) + outward
                else:
                    cases[label] = float(np.nextafter(bound, outward * math.inf))
        out += [(name, label, v) for label, v in cases.items()]
    return out
