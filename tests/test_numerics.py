"""Polynomial fits; the SVD, power-iteration and bisection reference routes
of the test oracles."""

import math
import re

import numpy as np
import pytest

from rvb_ladder import build_ladder, poly_fit, rvb_state

from oracles import (bisect_boundary, dominant_singular_value, poly_value,
                     singular_values)


def test_singular_values_known_matrix():
    mat = np.array([[3.0, 0.0], [0.0, -2.0]])
    assert np.allclose(singular_values(mat), [3.0, 2.0])


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(23)
    mat = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    sv = singular_values(mat)
    gram_eigs = np.linalg.eigvalsh(mat @ mat.conj().T)[::-1]
    assert np.allclose(sv, np.sqrt(np.clip(gram_eigs, 0.0, None)), atol=1e-9)


def test_singular_values_of_state_reshape_sum_to_one():
    psi = rvb_state(build_ladder(4, "periodic"))
    sv = np.asarray(singular_values(psi.reshape(16, 16)))
    assert abs(np.sum(sv * sv) - 1.0) < 1e-10


def test_dominant_singular_value_matches_svd_random():
    rng = np.random.default_rng(42)
    for shape in ((3, 5), (6, 2), (4, 4), (8, 16)):
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.linalg.svd(mat, compute_uv=False)[0]
        assert abs(dominant_singular_value(mat) - want) < 1e-9


def test_dominant_singular_value_structured_state_matrix():
    # singlet-product amplitude matrices have zero-sum slices; the power
    # iteration must not stall on them
    psi = rvb_state(build_ladder(3, "periodic"))
    mat = psi.reshape(4, 16)
    want = np.linalg.svd(mat, compute_uv=False)[0]
    assert abs(dominant_singular_value(mat) - want) < 1e-9


def test_dominant_singular_value_zero_matrix():
    assert dominant_singular_value(np.zeros((3, 3))) == 0.0


def test_bisect_boundary_finds_cosine_root():
    root = bisect_boundary(lambda x: math.cos(x) > 0.0, 0.0, math.pi, 1e-12)
    assert abs(root - math.pi / 2.0) < 1e-10


def test_bisect_boundary_threshold_examples():
    assert abs(bisect_boundary(lambda t: t < 0.5, 0.0, 1.0, 1e-10) - 0.5) < 1e-9
    root = bisect_boundary(lambda t: math.sin(t) ** 2 <= 0.75,
                           0.0, math.pi / 2.0, 1e-12)
    assert abs(root - math.pi / 3.0) < 1e-10


def test_bisect_boundary_rejects_flat_predicate():
    with pytest.raises(ValueError):
        bisect_boundary(lambda x: True, 0.0, 1.0, 1e-10)


def test_poly_fit_exact_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.0 * x - 0.5 for x in xs]
    fit = poly_fit(xs, ys, "linear")
    assert np.allclose(fit.coefficients, [-0.5, 2.0], atol=1e-12)
    assert fit.mse < 1e-24
    assert fit.model == "linear"
    assert abs(poly_value(fit, 10.0) - 19.5) < 1e-9


def test_poly_fit_exact_quadratic_no_linear_term():
    xs = [1.0, 2.0, 3.0, 5.0]
    ys = [0.7 - 0.01 * x * x for x in xs]
    fit = poly_fit(xs, ys, "quadratic_no_linear_term")
    assert np.allclose(fit.coefficients, [0.7, -0.01], atol=1e-12)
    assert fit.mse < 1e-24


def test_poly_fit_exact_full_quadratic():
    xs = [0.0, 1.0, 2.0, 4.0]
    ys = [1.0 + 0.5 * x - 0.25 * x * x for x in xs]
    fit = poly_fit(xs, ys, "full_quadratic")
    assert np.allclose(fit.coefficients, [1.0, 0.5, -0.25], atol=1e-12)


def test_poly_fit_mse_is_mean_of_squared_residuals():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 1.0, 0.0, 1.0]
    fit = poly_fit(xs, ys, "linear")
    residuals = [y - poly_value(fit, x) for x, y in zip(xs, ys)]
    want = sum(r * r for r in residuals) / len(xs)
    assert abs(fit.mse - want) < 1e-15
    # hand-solved normal equations for this data: intercept 0.2, slope 0.2
    assert np.allclose(fit.coefficients, [0.2, 0.2], atol=1e-12)


def test_poly_fit_against_lstsq_oracle():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 2.0, 7)
    ys = rng.standard_normal(7)
    fit = poly_fit(xs, ys, "full_quadratic")
    design = np.column_stack([np.ones(7), xs, xs * xs])
    want, *_ = np.linalg.lstsq(design, ys, rcond=None)
    assert np.allclose(fit.coefficients, want, atol=1e-9)


def test_poly_fit_residuals_orthogonal_to_design():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1.0, 3.0, 9)
    ys = rng.standard_normal(9)
    for model, cols in (("linear", 2), ("quadratic_no_linear_term", 2),
                        ("full_quadratic", 3)):
        fit = poly_fit(xs, ys, model)
        resid = ys - np.asarray([poly_value(fit, x) for x in xs])
        powers = {2: [0, 1], 3: [0, 1, 2]}[cols]
        design = np.column_stack([xs ** p for p in powers])
        if model == "quadratic_no_linear_term":
            design = np.column_stack([xs ** 0, xs ** 2])
        assert np.max(np.abs(design.T @ resid)) < 1e-9


def test_poly_fit_constant_data_full_quadratic():
    fit = poly_fit([1.0, 2.0, 3.0, 4.0], [0.3] * 4, "full_quadratic")
    assert abs(fit.coefficients[0] - 0.3) < 1e-12
    assert abs(fit.coefficients[1]) < 1e-12
    assert abs(fit.coefficients[2]) < 1e-12


def test_poly_fit_validation():
    with pytest.raises(ValueError):
        poly_fit([1.0], [2.0], "linear")  # too few points
    with pytest.raises(ValueError):
        poly_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "cubic")  # unknown model
    with pytest.raises(ValueError):
        poly_fit([1.0, 2.0], [1.0, 2.0], "full_quadratic")  # underdetermined
    with pytest.raises(ValueError):
        # duplicate abscissas make the design singular
        poly_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "full_quadratic")


def test_poly_fit_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="^3 x values but 2 y values$"):
        poly_fit([1.0, 2.0, 3.0], [1.0, 2.0], "linear")


@pytest.mark.parametrize("model", [["linear"], {"linear": 1}])
def test_poly_fit_refuses_an_unhashable_model_by_name(model):
    shown = re.escape(repr(model))
    with pytest.raises(ValueError, match=f"^model must be one of .*, got {shown}$"):
        poly_fit([1, 2, 3], [1, 2, 3], model)


def test_poly_fit_refuses_non_finite_values(capfd):
    for xs, ys in (([1, 2, 3], [1, math.nan, 3]), ([1, math.inf, 3], [1, 2, 3])):
        with pytest.raises(ValueError, match="must be finite"):
            poly_fit(xs, ys, "linear")
    # refused before LAPACK, which would print its own complaint to stderr
    assert capfd.readouterr().err == ""
