"""Closed wire vocabulary for the federated rounds.

Every statistic that may cross a client boundary has exactly one message
kind here, and every kind has a shape validator tied to the (public)
layout and missingness pattern. Raw covariate blocks do not fit any
variant: sends are validated, so an attempt to smuggle an (m_k, p_k) or
(n, p_k) block fails before it reaches a channel.

One iteration is one statistics round trip per client. Down goes
`estep_broadcast`, one record per client: the noise variance, one
denominator per non-empty missingness pattern, the residuals on the rows
that client observes (length m_k) and two sums over the rows it misses, of
a = r / d_g and of a^2 - 1 / d_g. No client receives a per-sample value on
a row it does not hold. The broadcast also carries the server's verdict on
the iteration: whether its start is the best iterate so far (`best`),
whether to restore the best iterate with half the step (`restore`) and
whether it is the fit's last (`last`). Up comes the client's reply, which
is its `estep_local_fit` for the next iteration: its fit on its observed
rows (length m_k), two scalars, mu_k' beta_k and beta_k' Sigma_k beta_k,
and `step`, the norm of the coefficient step it just took. The first local
fit answers a `control` record (`round_begin`) and carries no step; the
reply to a `last` broadcast is `varstep_scalar`, that step norm alone.
Either reply to the broadcast of iteration t is stamped t + 1. A fit that
stops on a frozen step, which the server judges only once the replies are
in, ends with `control` (`converged`) instead, and the local fits that
came with those replies go unused.

The server is the coordinator role of client 1, which holds the response.
Client 1's own records are validated against this schema like any other,
but they stay in the coordinator's process: they are never encoded, so a
fit's wire, byte counts and traces carry only the records of clients 2..K.

Serialization is newline-delimited, self-describing JSON with a fixed key
order: `t` (the iteration), `from`, `to` (the receiving client, 0 on a
client's record to the server), `kind` and `payload`; the kind alone fixes
the step of the iteration a record belongs to. `t`, `from` and `to` must
be JSON integers. Float vectors travel packed, as the base64 text of their
raw little-endian float64 bytes, about 10.7 bytes per float whatever the
value. Scalars are written with 17 significant digits. Records therefore round-trip bit for bit and traces are
byte-reproducible.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import BlockLayout, MissingMask
from .errors import SchemaViolation

SERVER_ID = 0  # coordinator role of client 1

ESTEP_LOCAL_FIT = "estep_local_fit"
ESTEP_BROADCAST = "estep_broadcast"
VARSTEP_SCALAR = "varstep_scalar"
CONTROL = "control"

MESSAGE_KINDS = frozenset({ESTEP_LOCAL_FIT, ESTEP_BROADCAST, VARSTEP_SCALAR,
                           CONTROL})

CONTROL_EVENTS = frozenset({"round_begin", "converged"})

# payload fields of each kind in wire order; True marks a packed float
# vector (see `_pack`), False a plain JSON value
_PAYLOAD_FIELDS = {
    ESTEP_LOCAL_FIT: {"fit": True, "mean": False, "quad": False, "step": False},
    ESTEP_BROADCAST: {"sigma2": False, "denom": True, "resid": True,
                      "sum_a": False, "sum_q": False, "best": False,
                      "restore": False, "last": False},
    VARSTEP_SCALAR: {"value": False},
    CONTROL: {"event": False},
}


@dataclass(frozen=True)
class Message:
    t: int
    sender: int
    kind: str
    payload: dict
    to: int = SERVER_ID  # the receiving client; 0 on a client's record


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise SchemaViolation("non-finite value in payload")
    return format(v, ".17g")


def _pack(value: Any) -> str:
    """A float vector as the quoted base64 of its little-endian float64
    bytes."""
    try:
        arr = np.asarray(value, dtype="<f8")
    except (TypeError, ValueError):
        raise SchemaViolation("float array payload is not numeric") from None
    if arr.ndim != 1:
        raise SchemaViolation(f"expected a float vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaViolation("non-finite value in payload")
    return '"' + base64.b64encode(arr.tobytes()).decode("ascii") + '"'


def _encode_value(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise SchemaViolation(f"unserializable payload value of type {type(value)!r}")


def encode(msg: Message) -> str:
    """Canonical one-line encoding with a fixed key order."""
    fields = _PAYLOAD_FIELDS.get(msg.kind)
    if fields is None:
        raise SchemaViolation(f"unknown message kind {msg.kind!r}")
    extra = set(msg.payload) - set(fields)
    if extra:
        raise SchemaViolation(f"unexpected payload fields {sorted(extra)}")
    items = []
    for key, packed in fields.items():
        if key in msg.payload:
            value = msg.payload[key]
            text = _pack(value) if packed else _encode_value(value)
            items.append(f'"{key}":{text}')
    body = "{" + ",".join(items) + "}"
    return (f'{{"t":{int(msg.t)},"from":{int(msg.sender)},"to":{int(msg.to)},'
            f'"kind":{json.dumps(msg.kind)},"payload":{body}}}\n')


def _unpack(text: Any, what: str) -> np.ndarray:
    """The writable float64 vector of one packed string."""
    if not isinstance(text, str):
        raise SchemaViolation(f"{what}: a packed array must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or non-ASCII text
        raise SchemaViolation(f"{what}: not base64: {err}") from None
    if len(raw) % 8:
        raise SchemaViolation(f"{what}: {len(raw)} bytes is not whole float64s")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _envelope_int(obj: dict, key: str) -> int:
    """An envelope field, which must be a JSON integer: `json` reads a
    boolean, a fraction, an overflowing exponent and a string each as
    another type."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, "
                        f"got {type(value).__name__}")
    return value


def decode(line: str) -> Message:
    """Inverse of `encode`; every packed field becomes a writable float64
    vector."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise SchemaViolation(f"undecodable record: {err}") from None
    try:
        payload = obj["payload"]
        if not isinstance(payload, dict):
            raise TypeError("payload is not an object")
        msg = Message(t=_envelope_int(obj, "t"), sender=_envelope_int(obj, "from"),
                      kind=str(obj["kind"]), payload=payload,
                      to=_envelope_int(obj, "to"))
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaViolation(f"malformed record: {err}") from None
    for field, packed in _PAYLOAD_FIELDS.get(msg.kind, {}).items():
        if packed and field in payload:
            payload[field] = _unpack(payload[field], f"{msg.kind}.{field}")
    return msg


def _is_finite_number(value) -> bool:
    """Whether `value` is a real scalar with a finite float64 value; an
    integer too large for a float64 is not."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_vector(value, length: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SchemaViolation(f"{what}: not a numeric array") from None
    if arr.shape != (length,):
        raise SchemaViolation(f"{what}: expected flat vector of length {length}, "
                              f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaViolation(f"{what}: non-finite entries")
    return arr


class WireSchema:
    """Shape validator for the closed message set, bound to public metadata.

    The layout and missingness pattern are common knowledge; covariate
    values are not. Every validator pins payload shapes to quantities
    derivable from that public metadata alone: a client's fit, and the
    residuals sent to it, have one entry per row it observes, and the
    denominators one per non-empty missingness pattern, in
    `MissingMask.patterns()` order. Every other payload field is a scalar.
    A server record names one client 1..K as its recipient, and a client's
    record names none (0).
    """

    def __init__(self, layout: BlockLayout, mask: MissingMask):
        self.layout = layout
        self.mask = mask
        self._num_patterns = sum(1 for key, _rows in mask.patterns() if key)
        self._observed = {k: mask.observed_rows(k).size for k in layout.clients()}

    def _require(self, cond: bool, what: str):
        if not cond:
            raise SchemaViolation(what)

    def _require_scalars(self, pay: dict, keys, kind: str) -> None:
        for key in keys:
            self._require(_is_finite_number(pay.get(key)),
                          f"{kind}: {key} must be a finite scalar")

    def validate(self, msg: Message) -> None:
        if msg.kind not in MESSAGE_KINDS:
            raise SchemaViolation(f"unknown kind {msg.kind!r}")
        pay = msg.payload
        kind = msg.kind
        extra = set(pay) - set(_PAYLOAD_FIELDS[kind])
        self._require(not extra, f"{kind}: unexpected payload fields {sorted(extra)}")
        from_client = 1 <= msg.sender <= self.layout.num_clients
        if from_client:
            self._require(msg.to == SERVER_ID, f"{kind}: a client writes to the server")
        else:
            self._require(1 <= msg.to <= self.layout.num_clients,
                          f"{kind}: bad recipient {msg.to!r}")

        if kind == ESTEP_LOCAL_FIT:
            self._require(from_client, f"{kind}: bad sender")
            _as_vector(pay.get("fit"), self._observed[msg.sender], kind)
            self._require_scalars(pay, ("mean", "quad"), kind)
            # the first local fit follows no step; every later one follows one
            self._require(("step" in pay) == (msg.t > 0),
                          f"{kind}: a step norm comes exactly when t > 0")
            if msg.t > 0:
                self._require_scalars(pay, ("step",), kind)
                self._require(pay["step"] >= 0, f"{kind}: a step norm is not negative")
        elif kind == ESTEP_BROADCAST:
            self._require(msg.sender == SERVER_ID, f"{kind}: server only")
            self._require_scalars(pay, ("sigma2", "sum_a", "sum_q"), kind)
            denom = _as_vector(pay.get("denom"), self._num_patterns, kind)
            _as_vector(pay.get("resid"), self._observed[msg.to], kind)
            self._require(pay["sigma2"] > 0 and bool(np.all(denom > 0)),
                          f"{kind}: variances must be positive")
            for key in ("best", "restore", "last"):
                self._require(isinstance(pay.get(key), (bool, np.bool_)),
                              f"{kind}: {key} must be boolean")
        elif kind == VARSTEP_SCALAR:
            self._require(from_client, f"{kind}: bad sender")
            self._require_scalars(pay, ("value",), kind)
            self._require(pay["value"] >= 0, f"{kind}: a step norm is not negative")
        elif kind == CONTROL:
            self._require(msg.sender == SERVER_ID, f"{kind}: server only")
            event = pay.get("event")
            self._require(event in CONTROL_EVENTS, f"unknown control event {event!r}")
