import numpy as np
import pytest
from hypothesis import assume, strategies as st
from hypothesis.extra import numpy as hnp

from wsmooth.flow_domain import edge_count

# Keep test-wide rng construction in one place so seeds stay greppable.


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def grid_shapes(draw, min_side=1, max_side=4):
    return (draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side)))


@st.composite
def grid_images(draw, shape=None, min_side=1, max_side=4):
    if shape is None:
        shape = draw(grid_shapes(min_side, max_side))
    vals = draw(hnp.arrays(np.float64, shape, elements=_finite_floats(0.0, 1.0)))
    assume(vals.sum() > 1e-3)
    return vals / vals.sum()


@st.composite
def flow_plans(draw, shape=None, min_side=1, max_side=4, max_mag=1.0):
    """A signed packed edge vector of an (n, m) grid."""
    if shape is None:
        shape = draw(grid_shapes(min_side, max_side))
    return draw(hnp.arrays(np.float64, edge_count((1,) + tuple(shape)),
                           elements=_finite_floats(-max_mag, max_mag)))


@st.composite
def image_flow_pairs(draw, min_side=1, max_side=4):
    shape = draw(grid_shapes(min_side, max_side))
    return draw(grid_images(shape=shape)), draw(flow_plans(shape=shape))


@st.composite
def image_pairs(draw, min_side=1, max_side=4):
    shape = draw(grid_shapes(min_side, max_side))
    return draw(grid_images(shape=shape)), draw(grid_images(shape=shape))
