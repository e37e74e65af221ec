"""
Coarse-graining a 2D diffusion to a 1D reduced model
====================================================

A "lemon-slice" potential has four wells arranged around the origin;
transitions happen along the polar angle while the radius stays tightly
confined.  Projecting the generator onto angle-dependent observables yields
an effective 1D SDE: its spectrum gives the slow transition timescales, a
least-squares fit of the projected symmetric part gives the reduced
diffusion a(phi), and force matching integrates to the free-energy profile
whose wells are the four metastable states.
"""

import numpy as np

from koopgen import (
    GaussianBasis,
    LegendreBasis,
    build_reduced_model,
    decompose,
    exact_sample_set,
    lemon_slice,
    lemon_slice_invariant_points,
    polar_angle_map,
)

model = lemon_slice(k=4, beta=1.0)

# i.i.d. draws from the invariant measure (the potential separates in polar
# coordinates, so inverse-CDF sampling is exact)
points = lemon_slice_invariant_points(50000, seed=42)
sample = exact_sample_set(model, points)

reduced = build_reduced_model(
    polar_angle_map(),
    LegendreBasis(20, [[-np.pi, np.pi]]),
    sample,
    model,
    GaussianBasis(np.linspace(-2.8, 2.8, 25)[:, None], 0.4),
)

dec = decompose(reduced.estimate)
print("reduced-generator timescales (three slow angular transitions):")
print("  " + "  ".join(f"{ts:.4f}" for ts in dec.timescales[1:4]))

grid = np.linspace(-2.8, 2.8, 201)
potential, drift, a = reduced.on_grid(grid)
print(f"\nfitted diffusion a(phi): mean {a.mean():.4f}, std/mean {a.std() / a.mean():.4f}")
print(f"free-energy barrier height: {potential.max() - potential.min():.3f}")

# four local minima of the fitted free energy = the four metastable states;
# the reconstructed drift nearly vanishes there relative to its slope scale
interior = (potential[1:-1] < potential[:-2]) & (potential[1:-1] < potential[2:])
wells = grid[1:-1][interior]
scale = np.abs(drift).max()
print(f"\nfree-energy minima (angle / pi) and the drift there (scale {scale:.1f}):")
for w, b in zip(wells, drift[1:-1][interior]):
    print(f"  {w / np.pi:+.3f}  drift {b:+.4f}")
