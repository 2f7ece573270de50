"""Composite Simpson quadrature on a uniform grid.

Chosen over adaptive schemes so every figure and bound evaluation is
deterministic and reproducible for a fixed grid size. lo and hi may be
arrays of intervals that broadcast together; the nodes of each interval
lie on a new last axis.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import QuadratureError


def _check_integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> float:
    # A JSON string, null or bool is not a number, even where float() reads it.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_grid_points(grid_points: int) -> int:
    grid_points = _check_integer("grid_points", grid_points)
    if grid_points < 3 or grid_points % 2 == 0:
        raise ValueError(f"grid_points must be odd and >= 3, got {grid_points}")
    return grid_points


def simpson_nodes(lo, hi, grid_points: int) -> np.ndarray:
    lo, hi = np.broadcast_arrays(lo, hi)
    if not np.all(lo < hi):
        i = np.argmin(lo < hi)
        raise ValueError(f"need lo < hi, got [{lo.flat[i]}, {hi.flat[i]}]")
    nodes = np.linspace(lo, hi, _check_grid_points(grid_points), axis=-1)
    # Contiguous, so an integrand runs the same loops as on one interval.
    return np.ascontiguousarray(nodes)


def simpson_weights(grid_points: int, step) -> np.ndarray:
    w = np.ones(_check_grid_points(grid_points))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def integrate_values(values: np.ndarray, lo, hi):
    """Simpson sums of integrand values sampled on uniform grids over
    [lo, hi], nodes on the last axis: a float for one interval, an array
    otherwise."""
    # matmul over contiguous rows keeps each sum bit-for-bit the 1-D
    # weights @ values; on strided rows it may round differently.
    values = np.ascontiguousarray(values, dtype=float)
    size = values.shape[-1]
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        t = np.broadcast_to(simpson_nodes(lo, hi, size), values.shape)[at]
        of = f" of interval {at[:-1]}" if len(at) > 1 else ""
        raise QuadratureError(f"integrand is non-finite at node {at[-1]}{of} (t = {t})")
    w = simpson_weights(size, np.subtract(hi, lo)[..., None] / (size - 1))
    out = np.matmul(w[..., None, :], values[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def integrate(fn, lo, hi, grid_points: int):
    """Composite Simpson integrals of a vectorized fn over [lo, hi]; fn
    must map the node array to an array of the same shape."""
    nodes = simpson_nodes(lo, hi, grid_points)
    values = np.asarray(fn(nodes), dtype=float)
    if values.shape != nodes.shape:
        raise ValueError(f"fn gave shape {values.shape} for nodes {nodes.shape}")
    return integrate_values(values, lo, hi)
