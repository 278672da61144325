"""The one flat-vector layout of both numpy models' parameters.

A shape map (parameter name -> shape) lays the parameters out back to back
in one float vector, in map order; the predictor and the REINFORCE
controller each keep one map and read it only through these functions.
"""

import math
import sys

import numpy as np

from .errors import In, ShapeError

# a model's init_scale: `seeded` draws from a width of twice it, which must be finite too
INIT_SCALE = In(f"(0, {sys.float_info.max / 2!r}]")


def size(shapes: dict) -> int:
    """Length of the flat vector laid out by `shapes`."""
    return sum(math.prod(shape) for shape in shapes.values())


def views(flat: np.ndarray, shapes: dict) -> dict:
    """Name -> view of that parameter's slice of the last axis of `flat`:
    a (P,) vector gives each parameter in its shape, an (n, P) block of
    gradient rows an (n, *shape) view each."""
    lead, out, start = flat.shape[:-1], {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        out[name] = flat[..., start:stop].reshape(lead + shape)
        start = stop
    return out


def seeded(shapes: dict, seed: int, init_scale: float) -> dict:
    """Name -> array drawn uniformly from [-init_scale, init_scale), in map
    order from one generator seeded with `seed`."""
    gen = np.random.default_rng(seed)
    return {name: gen.uniform(-init_scale, init_scale, shape) for name, shape in shapes.items()}


def unflatten(theta: np.ndarray, shapes: dict, model: str) -> dict:
    """`views` of a float vector laid out by `shapes`; raise ShapeError,
    naming `model`, when it has the wrong length or a non-finite entry."""
    n = size(shapes)
    if theta.shape != (n,):
        raise ShapeError(f"flat vector has shape {theta.shape}, expected ({n},)")
    if not np.isfinite(theta).all():
        raise ShapeError(f"{model} parameters contain non-finite entries")
    return views(theta, shapes)
