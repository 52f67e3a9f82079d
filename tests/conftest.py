import numpy as np
import pytest
from hypothesis import settings

from vfem import BlockLayout, GenConfig, generate, q_value
from vfem.messages import ESTEP_LOCAL_FIT, Message

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


def make_instance(n, dims, rho, seed, **kwargs):
    gen = GenConfig(n=n, layout=BlockLayout(tuple(dims)), rho=rho, seed=seed,
                    **kwargs)
    return generate(gen)


class OpeningAgent:
    """A stand-in agent that opens with a valid t = 0 local fit, zeros on
    its `observed` rows, and takes no other record."""

    done = False

    def __init__(self, k, observed):
        self.k, self.observed = k, observed

    def open(self):
        return Message(0, self.k, ESTEP_LOCAL_FIT,
                       {"fit": np.zeros(self.observed), "mean": 0.0, "quad": 0.0})


def full_block(view):
    """A client's (n, p_k) block, with zeros on the rows it misses."""
    block = np.zeros((view.n, view.dim))
    block[view.rows] = view.x_obs
    return block


def rel_err(a, b, floor=1e-30):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm((a - b).ravel())
                 / max(np.linalg.norm(b.ravel()), floor))


def moments_gap(moments, cache, layout):
    """Worst relative gap between the clients' pseudo-complete moments of a
    federated iteration (client -> `ClientMoments`) and the same moments of
    the centralized E-step `cache` at that iteration's start: the column
    sum of the client's block of x~, that block's scatter about the
    iteration-start mean plus its block of the conditional-covariance
    corrections, and the sums over the client's missing rows of a = r / d_g
    and of a^2 - 1 / d_g."""
    worst = 0.0
    for k in layout.clients():
        got = moments[k]
        cols = layout.block_slice(k)
        block = cache.x_tilde[:, cols]
        centered = block - cache.theta.mu[k - 1]
        missed = [g for g in cache.patterns if k in g.missing]
        a = np.concatenate([cache.r[g.rows] / g.d for g in missed] or [np.zeros(0)])
        sum_q = float(a @ a) - sum(g.count / g.d for g in missed)
        worst = max(worst, rel_err(got.colsum, block.sum(axis=0)),
                    rel_err(got.scatter, centered.T @ centered
                            + cache.corrections[cols, cols]),
                    rel_err(got.sum_a, a.sum()), rel_err(got.sum_q, sum_q))
    return worst


def fd_beta_gradient(theta_t, data, h=1e-5):
    """Central finite differences of the expected objective in beta."""
    p = theta_t.beta.shape[0]
    out = np.zeros(p)
    for j in range(p):
        bp = theta_t.beta.copy()
        bm = theta_t.beta.copy()
        bp[j] += h
        bm[j] -= h
        out[j] = (q_value(theta_t.replace(beta=bp), theta_t, data)
                  - q_value(theta_t.replace(beta=bm), theta_t, data)) / (2 * h)
    return out


@pytest.fixture
def small_instance():
    return make_instance(60, (2, 2, 2), 0.3, seed=11)
