"""Standard-error pipeline walkthrough.

After a converged fit, clients ship CountSketch projections of their
pseudo-complete blocks (O(n p) per replicate: each sample is added, with a
random sign, to one of m buckets); the server sketches the residuals with the
same broadcast sketch, assembles the information matrix from the sketched
cross-products, estimates the EM map's rate matrix by forward differences,
and combines them into Wald standard errors. Compares the sketched pipeline
against exact statistics and against the no-missing limit.
"""

import numpy as np

from vfem import (
    BlockLayout,
    FitConfig,
    GenConfig,
    InferenceConfig,
    SketchConfig,
    fit,
    generate,
    run_inference,
)

gen = GenConfig(n=800, layout=BlockLayout((2, 2, 2)), rho=0.35, seed=5)
data, truth = generate(gen)
res = fit(data, FitConfig(engine="oracle", tol=1e-12))
print(f"fit converged in {res.iterations} iterations")

exact = run_inference(res.theta, data,
                      InferenceConfig(scope="beta", stats_mode="exact"))
sketched = run_inference(res.theta, data,
                         InferenceConfig(scope="beta", stats_mode="sketch",
                                         sketch=SketchConfig(seed=1)))
print(f"\nrate-matrix spectral radius: {exact.gamma_spectral_radius:.3f} "
      f"(fraction of information lost to missingness)")
print(f"sketch sizing: m={sketched.sketch_dim}, "
      f"replicates={sketched.sketch_replicates}")
print(f"\n{'coef':<8} {'estimate':>9} {'SE exact':>9} {'SE sketch':>10} {'z':>7}")
for nm, b, se_e, se_s, z in zip(exact.names, exact.estimates,
                                exact.std_errors, sketched.std_errors,
                                exact.z_scores):
    print(f"{nm:<8} {b:>9.4f} {se_e:>9.4f} {se_s:>10.4f} {z:>7.2f}")

# interval check against the generating coefficients
lo = exact.estimates - 1.96 * exact.std_errors
hi = exact.estimates + 1.96 * exact.std_errors
inside = np.sum((lo <= truth.params.beta) & (truth.params.beta <= hi))
print(f"\n95% intervals cover {inside}/{len(lo)} true coefficients")

print(sketched.to_pretty_text())
