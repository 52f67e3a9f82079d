"""Closed wire vocabulary for the federated rounds.

Every statistic that may cross a client boundary has exactly one message
kind here. `_WIRE` is the one declaration of the format: each kind's
sender and its payload fields in wire order, each with its type. `encode`,
`decode` and `WireSchema.validate` read that table and nothing else, so a
new field is one row of it. A vector field has one entry per row observed
by the client the record comes from or goes to, a length fixed by the
public layout and missingness pattern; every other field is a number or a
flag. Raw covariate blocks fit no field: sends are validated, so an
attempt to smuggle an (m_k, p_k) or (n, p_k) block fails before it
reaches a channel.

One iteration is one statistics round trip per client. Down goes one
`estep_broadcast` to each client, which also carries the server's verdict
on the iteration; no client receives a per-sample value on a row it does
not hold, nor a per-pattern denominator d_g. Up comes the client's reply,
its `estep_local_fit` for the next iteration. A client opens the fit
unasked with its t = 0 local fit, which carries no step; the reply to a
`last` broadcast is `varstep_scalar`, the step norm alone. Either reply to
the broadcast of iteration t is stamped t + 1. Every fit ends on a `last`
broadcast, so a fit sends its clients' openings and then two records per
client and iteration, whatever its stop reason.

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
value. Scalars are written with 17 significant digits. Records therefore
round-trip bit for bit and traces are byte-reproducible.
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

# field types, each named by what it admits (see `_checked`)
VECTOR = "a float vector"  # one entry per row the client observes, packed
NUMBER = "a finite number"
NON_NEGATIVE = "a finite number >= 0"
POSITIVE = "a finite number > 0"
FLAG = "a boolean"

# The one declaration of the wire format: each kind's sender, "client" (a
# client 1..K, to the server) or "server" (to one client 1..K), and its
# payload fields in wire order with their types. A vector has one entry per
# row observed by the client the record comes from or goes to.
_WIRE = {
    ESTEP_LOCAL_FIT: ("client", {
        "fit": VECTOR,          # the client's fit x_k beta_k on its rows
        "mean": NUMBER,         # mu_k' beta_k
        "quad": NUMBER,         # beta_k' Sigma_k beta_k
        "step": NON_NEGATIVE,   # norm of the step just taken; none at t = 0
    }),
    ESTEP_BROADCAST: ("server", {
        "sigma2": POSITIVE,     # the noise variance
        "resid": VECTOR,        # e on the recipient's rows
        "sum_a": NUMBER,        # sum of a = r / d_g over its missed rows
        "sum_q": NUMBER,        # sum of a^2 - 1 / d_g over them
        "best": FLAG,           # the iteration starts at the best iterate
        "restore": FLAG,        # restore the best iterate, half the step
        "last": FLAG,           # the fit's last iteration
    }),
    VARSTEP_SCALAR: ("client", {
        "value": NON_NEGATIVE,  # the reply to `last`: the step norm alone
    }),
}

MESSAGE_KINDS = frozenset(_WIRE)


@dataclass(frozen=True)
class Message:
    t: int
    sender: int
    kind: str
    payload: dict
    to: int = SERVER_ID  # the receiving client; 0 on a client's record


def _checked(what: str, ftype: str, value: Any, length: int | None = None):
    """`value` if a field of type `ftype` admits it, a vector as a float64
    array of `length` entries (of any length when None); raises
    SchemaViolation otherwise."""
    if ftype == VECTOR:
        try:
            arr = np.asarray(value, dtype="<f8")
        except (TypeError, ValueError):
            raise SchemaViolation(f"{what}: not a numeric array") from None
        if arr.ndim != 1 or (length is not None and arr.size != length):
            raise SchemaViolation(f"{what}: expected a flat vector of length "
                                  f"{length}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise SchemaViolation(f"{what}: non-finite entries")
        return arr
    if ftype == FLAG:
        ok = isinstance(value, (bool, np.bool_))
    else:
        try:  # a bool is no number, and an int too large for a float64 none
            ok = (not isinstance(value, bool)
                  and isinstance(value, (int, float, np.integer, np.floating))
                  and math.isfinite(value)
                  and (ftype != NON_NEGATIVE or value >= 0)
                  and (ftype != POSITIVE or value > 0))
        except OverflowError:
            ok = False
    if not ok:
        raise SchemaViolation(f"{what} must be {ftype}, got {value!r:.40}")
    return value


def encode(msg: Message) -> str:
    """Canonical one-line encoding with a fixed key order. A vector is
    packed as the base64 of its little-endian float64 bytes, an integer
    written as one and any other number with 17 significant digits. A
    declared field that is absent is skipped: `WireSchema.validate`, not
    the codec, decides which fields a record needs."""
    if msg.kind not in _WIRE:
        raise SchemaViolation(f"unknown message kind {msg.kind!r}")
    _sender, fields = _WIRE[msg.kind]
    extra = set(msg.payload) - set(fields)
    if extra:
        raise SchemaViolation(f"unexpected payload fields {sorted(extra)}")
    items = []
    for key, ftype in fields.items():
        if key not in msg.payload:
            continue
        value = _checked(f"{msg.kind}.{key}", ftype, msg.payload[key])
        if ftype == VECTOR:
            text = '"' + base64.b64encode(value.tobytes()).decode("ascii") + '"'
        elif ftype == FLAG:
            text = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            text = str(int(value))
        else:
            text = format(float(value), ".17g")
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
    _sender, fields = _WIRE.get(msg.kind, (None, {}))
    for field, ftype in fields.items():
        if ftype == VECTOR and field in payload:
            payload[field] = _unpack(payload[field], f"{msg.kind}.{field}")
    return msg


class WireSchema:
    """Validator of the closed message set against `_WIRE`, bound to
    public metadata.

    The layout and missingness pattern are common knowledge; covariate
    values are not. A record must come from its kind's sender and carry
    exactly its kind's fields, each of its declared type; a vector has one
    entry per row observed by the client the record comes from or goes to.
    A local fit carries `step` exactly when t > 0.
    """

    def __init__(self, layout: BlockLayout, mask: MissingMask):
        self.layout = layout
        self._observed = {k: mask.observed_rows(k).size for k in layout.clients()}

    def validate(self, msg: Message) -> None:
        kind, pay = msg.kind, msg.payload
        if kind not in _WIRE:
            raise SchemaViolation(f"unknown kind {kind!r}")
        sender, fields = _WIRE[kind]
        # `client` is the client the record comes from or goes to
        if sender == "client":
            client, ok = msg.sender, msg.to == SERVER_ID
        else:
            client, ok = msg.to, msg.sender == SERVER_ID
        if not (ok and 1 <= client <= self.layout.num_clients):
            raise SchemaViolation(f"{kind}: a {sender} record may not go from "
                                  f"{msg.sender!r} to {msg.to!r}")
        declared = fields.keys()
        if kind == ESTEP_LOCAL_FIT and not msg.t > 0:
            declared -= {"step"}  # the first local fit follows no step
        if set(pay) != declared:
            raise SchemaViolation(f"{kind}: payload fields {sorted(pay)}, "
                                  f"expected {sorted(declared)}")
        for key, ftype in fields.items():
            if key in pay:
                _checked(f"{kind}.{key}", ftype, pay[key], self._observed[client])
