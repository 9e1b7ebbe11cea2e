"""Normal-equations polynomial fits for the figure captions."""

from dataclasses import dataclass

import numpy as np

FIT_MODELS = ("linear", "quadratic_no_linear_term", "full_quadratic")


@dataclass(frozen=True)
class PolyFit:
    coefficients: tuple  # constant term first
    model: str
    mse: float  # mean of squared residuals over the fitted points


def _design(xs, model):
    xs = np.asarray(xs, dtype=float)
    if model == "linear":
        return np.column_stack([np.ones_like(xs), xs])
    if model == "quadratic_no_linear_term":
        return np.column_stack([np.ones_like(xs), xs * xs])
    if model == "full_quadratic":
        return np.column_stack([np.ones_like(xs), xs, xs * xs])
    raise ValueError(f"model must be one of {FIT_MODELS}, got {model!r}")


def poly_fit(xs, ys, model):
    """Normal-equations least squares with the given polynomial model."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    X = _design(xs, model)
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    if len(xs) < X.shape[1]:
        raise ValueError(f"{model} needs at least {X.shape[1]} points, got {len(xs)}")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise ValueError("singular design matrix (degenerate x values)")
    coeff = np.linalg.solve(X.T @ X, X.T @ ys)
    resid = ys - X @ coeff
    return PolyFit(coefficients=tuple(float(c) for c in coeff), model=model,
                   mse=float(np.mean(resid ** 2)))
