"""Closed wire vocabulary for the federated rounds.

Every statistic that may cross a client boundary has exactly one message
kind here, and every kind has a shape validator tied to the (public)
layout and missingness pattern. Raw covariate blocks do not fit any
variant: sends are validated, so an attempt to smuggle an (n, p_k) block
fails before it reaches a channel.

Only fits and residuals travel per sample. Statistics that are constant
within a missingness pattern (denominators, coupling slices, projections,
variance scalars) travel once per pattern.

Serialization is newline-delimited, self-describing JSON with a fixed key
order. Float arrays travel packed: each vector, and each row of a 2-D
block, is the base64 text of its raw little-endian float64 bytes, about
10.7 bytes per float whatever its value. Scalars are written with 17
significant digits. Records therefore round-trip bit for bit and traces
are byte-reproducible.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import BlockLayout, MissingMask
from .errors import SchemaViolation

SERVER_ID = 0  # coordinator role of client 1

ESTEP_LOCAL_FIT = "estep_local_fit"
ESTEP_QUAD_FORM = "estep_quad_form"
ESTEP_BROADCAST = "estep_broadcast"
MSTEP_LOCAL_FIT = "mstep_local_fit"
MSTEP_COUPLING_VEC = "mstep_coupling_vec"
MSTEP_RESIDUAL_COUPLING = "mstep_residual_coupling"
MSTEP_PARTIAL_PROJECTION = "mstep_partial_projection"
MSTEP_AGGREGATED_PROJECTION = "mstep_aggregated_projection"
VARSTEP_SCALAR = "varstep_scalar"
CONTROL = "control"

MESSAGE_KINDS = frozenset({
    ESTEP_LOCAL_FIT, ESTEP_QUAD_FORM, ESTEP_BROADCAST,
    MSTEP_LOCAL_FIT, MSTEP_COUPLING_VEC, MSTEP_RESIDUAL_COUPLING,
    MSTEP_PARTIAL_PROJECTION, MSTEP_AGGREGATED_PROJECTION,
    VARSTEP_SCALAR, CONTROL,
})

CONTROL_EVENTS = frozenset({"round_begin", "round_end", "converged"})

ROUND_ESTEP = "estep"
ROUND_MSTEP = "mstep"
ROUND_VARSTEP = "varstep"
ROUND_CONTROL = "control"

# packed forms of the float array fields (see `_pack`)
_VEC = "vector"     # one float vector
_VECS = "vectors"   # a list of float vectors
_BLOCKS = "blocks"  # a list of 2-D float blocks, each a list of packed rows

# payload fields of each kind in wire order, each with its packed form, or
# None for a plain JSON value
_PAYLOAD_FIELDS = {
    ESTEP_LOCAL_FIT: {"fit": _VEC},
    ESTEP_QUAD_FORM: {"value": None},
    ESTEP_BROADCAST: {"denom": _VEC, "resid": _VEC},
    MSTEP_LOCAL_FIT: {"fit": _VEC},
    MSTEP_COUPLING_VEC: {"vec": _VEC},
    MSTEP_RESIDUAL_COUPLING: {"client": None, "resid": _VEC, "patterns": None,
                              "slices": _BLOCKS},
    MSTEP_PARTIAL_PROJECTION: {"patterns": None, "vecs": _VECS},
    MSTEP_AGGREGATED_PROJECTION: {"patterns": None, "vecs": _VECS},
    VARSTEP_SCALAR: {"patterns": None, "vals": _VEC},
    CONTROL: dict.fromkeys(("event", "loss", "best", "restore", "eta_scale")),
}


@dataclass(frozen=True)
class Message:
    t: int
    round: str
    sender: int
    kind: str
    payload: dict


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise SchemaViolation("non-finite value in payload")
    return format(v, ".17g")


def _b64(vec: np.ndarray) -> str:
    return '"' + base64.b64encode(vec.tobytes()).decode("ascii") + '"'


def _pack(value: Any, ndim: int) -> str:
    """A float vector as the quoted base64 of its little-endian float64
    bytes; a 2-D block as the list of its packed rows."""
    try:
        arr = np.asarray(value, dtype="<f8")
    except (TypeError, ValueError):
        raise SchemaViolation("float array payload is not numeric") from None
    if arr.ndim != ndim:
        raise SchemaViolation(f"expected a {ndim}-D float array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaViolation("non-finite value in payload")
    if ndim == 1:
        return _b64(arr)
    return "[" + ",".join(map(_b64, arr)) + "]"


def _encode_floats(value: Any, form: str) -> str:
    if form == _VEC:
        return _pack(value, 1)
    if not isinstance(value, (list, tuple)):
        raise SchemaViolation(f"expected a list of float arrays, got {type(value)!r}")
    ndim = 2 if form == _BLOCKS else 1
    return "[" + ",".join(_pack(v, ndim) for v in value) + "]"


def _encode_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode_value(v) for v in value) + "]"
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
    for key, form in fields.items():
        if key in msg.payload:
            value = msg.payload[key]
            text = _encode_value(value) if form is None else _encode_floats(value, form)
            items.append(f'"{key}":{text}')
    body = "{" + ",".join(items) + "}"
    return (f'{{"t":{int(msg.t)},"round":{json.dumps(msg.round)},'
            f'"from":{int(msg.sender)},"kind":{json.dumps(msg.kind)},'
            f'"payload":{body}}}\n')


def _unpack(text: Any, what: str) -> bytes:
    """The float64 bytes of one packed vector."""
    if not isinstance(text, str):
        raise SchemaViolation(f"{what}: a packed array must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or non-ASCII text
        raise SchemaViolation(f"{what}: not base64: {err}") from None
    if len(raw) % 8:
        raise SchemaViolation(f"{what}: {len(raw)} bytes is not whole float64s")
    return raw


def _floats(raw: bytes, shape) -> np.ndarray:
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _decode_block(rows: Any, what: str) -> np.ndarray:
    if not isinstance(rows, list):
        raise SchemaViolation(f"{what}: a block must be a list of packed rows")
    raws = [_unpack(row, what) for row in rows]
    width = len(raws[0]) // 8 if raws else 0
    if any(len(raw) != 8 * width for raw in raws):
        raise SchemaViolation(f"{what}: ragged block rows")
    return _floats(b"".join(raws), (len(raws), width))


def _decode_floats(value: Any, form: str, what: str):
    if form == _VEC:
        return _floats(_unpack(value, what), -1)
    if not isinstance(value, list):
        raise SchemaViolation(f"{what}: expected a list of packed arrays")
    if form == _VECS:
        return [_floats(_unpack(v, what), -1) for v in value]
    return [_decode_block(block, what) for block in value]


def decode(line: str) -> Message:
    """Inverse of `encode`; every float array field becomes a writable
    float64 ndarray (a list of them for the list forms)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise SchemaViolation(f"undecodable record: {err}") from None
    try:
        payload = obj["payload"]
        if not isinstance(payload, dict):
            raise TypeError("payload is not an object")
        msg = Message(t=int(obj["t"]), round=str(obj["round"]),
                      sender=int(obj["from"]), kind=str(obj["kind"]),
                      payload=payload)
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaViolation(f"malformed record: {err}") from None
    for field, form in _PAYLOAD_FIELDS.get(msg.kind, {}).items():
        if form is not None and field in payload:
            payload[field] = _decode_floats(payload[field], form,
                                            f"{msg.kind}.{field}")
    return msg


def _as_float_array(value, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SchemaViolation(f"{what}: not a numeric array") from None
    if arr.size and not np.all(np.isfinite(arr)):
        raise SchemaViolation(f"{what}: non-finite entries")
    return arr


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and bool(np.isfinite(value)))


def _as_scalar_list(value, length, what) -> np.ndarray:
    arr = _as_float_array(value, what)
    if arr.ndim != 1 or (length is not None and arr.shape[0] != length):
        raise SchemaViolation(f"{what}: expected flat vector of length {length}, "
                              f"got shape {arr.shape}")
    return arr


class WireSchema:
    """Shape validator for the closed message set, bound to public metadata.

    The layout and missingness pattern are common knowledge; covariate
    values are not. Every validator pins payload shapes to quantities
    derivable from that public metadata alone. Pattern-constant payloads
    carry one entry per missingness pattern, keyed by the pattern's sorted
    missing-client tuple in `MissingMask.patterns()` order; the fully
    observed pattern carries none.
    """

    def __init__(self, layout: BlockLayout, mask: MissingMask):
        self.layout = layout
        self.mask = mask
        self.n = mask.n
        # (key, q) of every non-empty pattern, and the sublist each client
        # is missing on
        self._patterns = [(key, sum(layout.dim(k) for k in key))
                          for key, _rows in mask.patterns() if key]
        self._patterns_of = {k: [(key, q) for key, q in self._patterns if k in key]
                             for k in layout.clients()}

    def _require(self, cond: bool, what: str):
        if not cond:
            raise SchemaViolation(what)

    def _check_keys(self, pay: dict, expected: list, what: str) -> None:
        keys = pay.get("patterns")
        self._require(isinstance(keys, (list, tuple)) and len(keys) == len(expected)
                      and all(isinstance(got, (list, tuple)) and tuple(got) == want
                              for got, (want, _q) in zip(keys, expected)),
                      f"{what}: pattern keys disagree with the public mask")

    def _check_blocks(self, pay: dict, field: str, expected: list, width,
                      what: str) -> None:
        """One finite array per expected pattern in `field`, of shape
        (q,) when `width` is None and (q, width) otherwise."""
        self._check_keys(pay, expected, what)
        blocks = pay.get(field)
        self._require(isinstance(blocks, (list, tuple)) and len(blocks) == len(expected),
                      f"{what}: one {field} entry per pattern")
        for (key, q), block in zip(expected, blocks):
            shape = (q,) if width is None else (q, width)
            self._require(_as_float_array(block, what).shape == shape,
                          f"{what}: {field} entry for pattern {key} must have "
                          f"shape {shape}")

    def validate(self, msg: Message) -> None:
        if msg.kind not in MESSAGE_KINDS:
            raise SchemaViolation(f"unknown kind {msg.kind!r}")
        pay = msg.payload
        K = self.layout.num_clients
        kind = msg.kind
        extra = set(pay) - set(_PAYLOAD_FIELDS[kind])
        self._require(not extra, f"{kind}: unexpected payload fields {sorted(extra)}")

        if kind in (ESTEP_LOCAL_FIT, MSTEP_LOCAL_FIT):
            self._require(1 <= msg.sender <= K, f"{kind}: bad sender")
            _as_scalar_list(pay.get("fit"), self.n, kind)
        elif kind == ESTEP_QUAD_FORM:
            self._require(1 <= msg.sender <= K, f"{kind}: bad sender")
            self._require(_is_finite_number(pay.get("value")),
                          f"{kind}: value must be a finite scalar")
        elif kind == ESTEP_BROADCAST:
            self._require(msg.sender == SERVER_ID, f"{kind}: server only")
            denom = _as_scalar_list(pay.get("denom"), len(self._patterns), kind)
            _as_scalar_list(pay.get("resid"), self.n, kind)
            self._require(bool(np.all(denom > 0)), f"{kind}: denominators must be positive")
        elif kind == MSTEP_COUPLING_VEC:
            self._require(1 <= msg.sender <= K, f"{kind}: bad sender")
            _as_scalar_list(pay.get("vec"), self.layout.dim(msg.sender), kind)
        elif kind == MSTEP_RESIDUAL_COUPLING:
            self._require(msg.sender == SERVER_ID, f"{kind}: server only")
            k = pay.get("client")
            self._require(isinstance(k, (int, np.integer)) and 1 <= k <= K,
                          f"{kind}: bad target client")
            _as_scalar_list(pay.get("resid"), self.n, kind)
            self._check_blocks(pay, "slices", self._patterns_of[int(k)],
                               self.layout.dim(int(k)), kind)
        elif kind == MSTEP_PARTIAL_PROJECTION:
            self._require(1 <= msg.sender <= K, f"{kind}: bad sender")
            self._check_blocks(pay, "vecs", self._patterns_of[msg.sender], None, kind)
        elif kind == MSTEP_AGGREGATED_PROJECTION:
            self._require(msg.sender == SERVER_ID, f"{kind}: server only")
            self._check_blocks(pay, "vecs", self._patterns, None, kind)
        elif kind == VARSTEP_SCALAR:
            self._require(1 <= msg.sender <= K, f"{kind}: bad sender")
            expected = self._patterns_of[msg.sender]
            self._check_keys(pay, expected, kind)
            _as_scalar_list(pay.get("vals"), len(expected), kind)
        elif kind == CONTROL:
            self._require(msg.sender == SERVER_ID, f"{kind}: server only")
            event = pay.get("event")
            self._require(event in CONTROL_EVENTS, f"unknown control event {event!r}")
            for key in ("loss", "eta_scale"):
                if key in pay:
                    self._require(_is_finite_number(pay[key]),
                                  f"{kind}: {key} must be a finite scalar")
            for key in ("best", "restore"):
                if key in pay:
                    self._require(isinstance(pay[key], (bool, np.bool_)),
                                  f"{kind}: {key} must be boolean")
