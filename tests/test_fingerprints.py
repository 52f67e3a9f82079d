"""The fits in `fingerprints.json` give the recorded numbers.

On the recorded platform every fingerprint must match bit for bit,
message trace included. Elsewhere a float's last bits may move with the
BLAS kernels, so floats must agree to 1e-12 relative and the stop, the
iteration count, the halvings and the message count exactly; the byte
counts to 0.1%, since a scalar's shortest repr can change length with its
last bits, and the trace digest is not compared.
"""

import json

import numpy as np
import pytest

from fingerprints import PATH, cases, current_platform, fingerprint

RECORDED = json.loads(PATH.read_text())
EXACT = RECORDED["platform"] == current_platform()


def _floats(values) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def _close(got, want) -> bool:
    got, want = _floats(got), _floats(want)
    if got.shape != want.shape:
        return False
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return bool(np.all(np.abs(got - want) <= 1e-12 * scale))


@pytest.mark.parametrize("name, instance, fields", cases(),
                         ids=[name for name, _i, _f in cases()])
def test_fit_matches_its_fingerprint(name, instance, fields):
    got, want = fingerprint(instance, fields), RECORDED["fits"][name]
    if EXACT:
        assert got == want
        return
    for key in ("iterations", "reason", "halvings"):
        assert got[key] == want[key], key
    for key in ("loss_trace", "step_trace"):
        assert _close(got[key], want[key]), key
    for key in ("beta", "mu", "sigma_blocks"):
        got_th, want_th = got["theta"][key], want["theta"][key]
        if key != "beta":
            assert len(got_th) == len(want_th)
            got_th, want_th = sum(got_th, []), sum(want_th, [])
        assert _close(got_th, want_th), key
    assert _close([got["theta"]["sigma2"]], [want["theta"]["sigma2"]])
    if want["comm"] is not None:
        assert got["comm"]["messages"] == want["comm"]["messages"]
        assert got["comm"]["bytes_total"] == pytest.approx(
            want["comm"]["bytes_total"], rel=1e-3)


def test_every_recorded_fit_is_recomputed():
    assert sorted(RECORDED["fits"]) == sorted(name for name, _i, _f in cases())
