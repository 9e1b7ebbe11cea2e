"""Small dense numeric kernels shared by the analysis modules."""

from dataclasses import dataclass

import numpy as np

FIT_MODELS = ("linear", "quadratic_no_linear_term", "full_quadratic")


def hermitian_eigenvalues(matrix):
    """Eigenvalues of a Hermitian matrix, or of each of a (..., d, d) stack,
    descending along the last axis. Every matrix is checked to be Hermitian."""
    mat = np.asarray(matrix)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got {mat.shape}")
    if np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))) > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh(mat)[..., ::-1]


def dominant_singular_value(matrix, tol=1e-12, max_iter=1000):
    """Largest singular value by power iteration on A^H A.

    Deterministic start vector; independent of the full-decomposition route,
    used as a cross-check on Schmidt maximizations.
    """
    mat = np.asarray(matrix).astype(complex)
    rows, cols = mat.shape
    # seeded start: reproducible, and structured states (e.g. singlet products,
    # whose slices sum to zero) cannot be orthogonal to it by symmetry
    rng = np.random.default_rng(1905)
    v = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iter):
        w = mat.conj().T @ (mat @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        cur = float(np.real(v.conj() @ (mat.conj().T @ (mat @ v))))
        if abs(cur - prev) <= tol * max(1.0, cur):
            break
        prev = cur
    return float(np.sqrt(max(cur, 0.0)))


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
