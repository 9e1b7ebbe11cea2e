"""Least-squares polynomial fits for the figure captions."""

from dataclasses import dataclass

import numpy as np

from .lattice import _shorten

FIT_MODELS = {"linear": (0, 1), "quadratic_no_linear_term": (0, 2), "full_quadratic": (0, 1, 2)}


@dataclass(frozen=True)
class PolyFit:
    coefficients: tuple  # constant term first
    model: str
    mse: float  # mean of squared residuals over the fitted points


def poly_fit(xs, ys, model):
    """Least squares with the given polynomial model, solved by `np.linalg.lstsq`
    on the design matrix (an SVD), not by the normal equations, whose
    condition number is the square of the design's."""
    if not isinstance(model, str) or model not in FIT_MODELS:
        raise ValueError(f"model must be one of {tuple(FIT_MODELS)}, got {_shorten(repr(model))}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("x and y values must be finite")
    X = np.column_stack([xs ** k for k in FIT_MODELS[model]])
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    if len(xs) < X.shape[1]:
        raise ValueError(f"{model} needs at least {X.shape[1]} points, got {len(xs)}")
    coeff, _, rank, _ = np.linalg.lstsq(X, ys, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("singular design matrix (degenerate x values)")
    resid = ys - X @ coeff
    return PolyFit(coefficients=tuple(float(c) for c in coeff), model=model,
                   mse=float(np.mean(resid ** 2)))
