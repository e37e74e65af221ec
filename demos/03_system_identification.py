"""
Sparse recovery of governing equations
======================================

The generator estimate contains the drift and diffusion of the underlying
SDE in its action on coordinate functions: L x_i = b_i and
L (x_i x_j) - x_i L x_j - x_j L x_i = a_ij.  Reading those rows off and
hard-thresholding the coefficients recovers sparse governing equations --
here for a 2D double-well diffusion with state-dependent noise, from exact
and from noise-corrupted data.
"""

import numpy as np

from koopgen import (
    Monomials,
    double_well_2d,
    exact_sample_set,
    identify,
    noisy_sample_set,
    sample_uniform,
)


def show(label, fit):
    payload = fit.to_dict(term_tol=1e-6)
    print(label)
    for i, terms in enumerate(payload["drift"]):
        rhs = " + ".join(f"{t['coefficient']:+.4f} {t['term']}" for t in terms)
        print(f"  b_{i + 1}(x) = {rhs or '0'}")
    for (i, j), terms in zip(payload["pairs"], payload["diffusion"]):
        rhs = " + ".join(f"{t['coefficient']:+.4f} {t['term']}" for t in terms)
        print(f"  a_{i + 1}{j + 1}(x) = {rhs or '0'}")
    print(f"  training residual: {fit.residuals['training']:.2e}\n")


model = double_well_2d()
basis = Monomials(2, 4)
points = sample_uniform([[-2.0, 2.0]] * 2, 8000, seed=13)
exact = exact_sample_set(model, points)

# exact samples: coefficients are reproduced to machine precision
show("from exact samples:", identify(basis, exact))

# corrupt drift and diffusion samples with N(0, 0.1^2) noise, then alternate
# least squares with hard thresholding (delta = 0.1) to prune spurious terms
noisy = noisy_sample_set(exact, 0.1, seed=113)
fit = identify(basis, noisy, delta=0.1)
show("from noisy samples (sigma = 0.1, threshold 0.1):", fit)

print("surviving coefficients per thresholding iteration:")
print("  " + " -> ".join(str(count) for _, count in fit.threshold_history))
