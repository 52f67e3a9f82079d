"""Federated fit walkthrough.

Runs the round-based protocol (first-order coefficient steps, closed-form
distributional updates) and checks it against the centralized oracle: the
per-iteration quantities agree to floating-point accuracy, and both engines
land on the same stationary point. Also shows the communication ledger and a
wire trace.
"""

import tempfile

import numpy as np

from vfem import FitConfig, GenConfig, BlockLayout, fit, generate, q_gradient_beta
from vfem.centralized import estep
from vfem.messages import decode

gen = GenConfig(n=400, layout=BlockLayout((3, 2, 2)), rho=0.3, seed=21)
data, truth = generate(gen)

# lockstep: federated internals vs centralized kernels at the same point
snaps = []
fit(data, FitConfig(engine="federated", max_iters=3, tol=1e-300),
    inspect=snaps.append)
for snap in snaps:
    cache = estep(snap.theta, data)
    # no party builds a client's imputed block; each client's moments of it
    # (column sum, scatter plus conditional covariances) must match
    moment_gap = 0.0
    for k in data.layout.clients():
        cols = data.layout.block_slice(k)
        block = cache.x_tilde[:, cols]
        centered = block - snap.theta.mu[k - 1]
        moments = snap.moments[k]
        moment_gap = max(
            moment_gap,
            np.abs(moments.colsum - block.sum(axis=0)).max(),
            np.abs(moments.scatter - centered.T @ centered
                   - cache.corrections[cols, cols]).max(),
        )
    gap = max(
        np.abs(snap.e - cache.e).max(),
        np.abs(snap.grad - q_gradient_beta(snap.theta, data, cache)).max(),
    )
    print(f"iteration {snap.t}: client moment gap {moment_gap:.2e}, "
          f"residual and gradient gap {gap:.2e}")

# full runs: first-order federated vs closed-form oracle
with tempfile.NamedTemporaryFile(suffix=".log", mode="r") as trace:
    fed = fit(data, FitConfig(engine="federated", tol=1e-11,
                              trace_path=trace.name))
    orc = fit(data, FitConfig(engine="oracle", tol=1e-11))
    print(f"\nfederated: {fed.iterations} iterations, converged={fed.converged}, "
          f"eta={fed.eta:.3f}")
    print(f"oracle:    {orc.iterations} iterations, converged={orc.converged}")
    print(f"stationary-point gap |beta_fed - beta_oracle| = "
          f"{np.linalg.norm(fed.theta.beta - orc.theta.beta):.2e}")
    print(f"\ncommunication: {fed.comm['messages']} messages, "
          f"{fed.comm['bytes_total']:,} bytes "
          f"({fed.comm['bytes_total'] / fed.iterations:,.0f} per iteration)")
    lines = open(trace.name).readlines()
    kinds = {}
    for line in lines:
        kinds[decode(line).kind] = kinds.get(decode(line).kind, 0) + 1
    print(f"trace: {len(lines)} records across kinds {sorted(kinds)}")

# the socket transport reproduces the in-process numbers bit for bit
sock = fit(data, FitConfig(engine="federated", tol=1e-11, transport="socket"))
print(f"\nsocket equals in-process exactly: "
      f"{bool(np.all(sock.theta.beta == fed.theta.beta))}")
