import pytest

from rguard.instance_gen import gen_tree_polygon
from rguard.pixelation import build_pixelation


@pytest.fixture(scope="session")
def thin_trees():
    """Pixelations of the thin trees of 1k to 64k pixels that the slope
    tests on trees share, built once because they take seconds to build."""
    return [build_pixelation(gen_tree_polygon(n, 0))
            for n in (1000, 4000, 16000, 64000)]
