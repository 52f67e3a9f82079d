import json
import math

import numpy as np
import pytest

from vfem import BlockLayout, MissingMask
from vfem.errors import SchemaViolation
from vfem.messages import (
    CONTROL,
    ESTEP_BROADCAST,
    ESTEP_LOCAL_FIT,
    ESTEP_QUAD_FORM,
    MESSAGE_KINDS,
    MSTEP_AGGREGATED_PROJECTION,
    MSTEP_COUPLING_VEC,
    MSTEP_LOCAL_FIT,
    MSTEP_PARTIAL_PROJECTION,
    MSTEP_RESIDUAL_COUPLING,
    ROUND_ESTEP,
    ROUND_MSTEP,
    ROUND_VARSTEP,
    SERVER_ID,
    VARSTEP_SCALAR,
    Message,
    WireSchema,
    decode,
    encode,
)


# patterns of the fixture mask, in canonical order: () holds row 1,
# (1, 2) row 2 and (2,) rows 0 and 3; stacked widths q are 5 and 3
BOTH, ONLY2 = (1, 2), (2,)


@pytest.fixture
def schema():
    layout = BlockLayout((2, 3))
    mask = MissingMask(np.array([[0, 1], [0, 0], [1, 1], [0, 1]], dtype=bool))
    return WireSchema(layout, mask), layout, mask


def valid_messages():
    """One valid message of every pattern-keyed kind for the fixture."""
    return {
        ESTEP_BROADCAST: Message(0, ROUND_ESTEP, SERVER_ID, ESTEP_BROADCAST,
                                 {"denom": np.array([2.0, 1.5]),
                                  "resid": np.zeros(4)}),
        MSTEP_RESIDUAL_COUPLING: Message(
            0, ROUND_MSTEP, SERVER_ID, MSTEP_RESIDUAL_COUPLING,
            {"client": 2, "resid": np.zeros(4), "patterns": [BOTH, ONLY2],
             "slices": [np.zeros((5, 3)), np.zeros((3, 3))]}),
        MSTEP_PARTIAL_PROJECTION: Message(
            0, ROUND_MSTEP, 2, MSTEP_PARTIAL_PROJECTION,
            {"patterns": [BOTH, ONLY2], "vecs": [np.zeros(5), np.zeros(3)]}),
        MSTEP_AGGREGATED_PROJECTION: Message(
            0, ROUND_MSTEP, SERVER_ID, MSTEP_AGGREGATED_PROJECTION,
            {"patterns": [BOTH, ONLY2], "vecs": [np.zeros(5), np.zeros(3)]}),
        VARSTEP_SCALAR: Message(0, ROUND_VARSTEP, 2, VARSTEP_SCALAR,
                                {"patterns": [BOTH, ONLY2],
                                 "vals": np.array([0.5, 0.25])}),
    }


def with_payload(msg, **changes):
    return Message(msg.t, msg.round, msg.sender, msg.kind,
                   {**msg.payload, **changes})


def test_encode_decode_round_trip(schema):
    # packed arrays carry the raw float64 bits: signed zero, the smallest
    # subnormal and the largest finite values come back bit for bit
    sch, layout, mask = schema
    edge = np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, -2.5e-17, 3.0])
    msg = Message(3, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT, {"fit": edge})
    line = encode(msg)
    back = decode(line)
    assert back.t == 3 and back.sender == 1 and back.kind == ESTEP_LOCAL_FIT
    assert back.payload["fit"].dtype == np.float64
    assert back.payload["fit"].tobytes() == edge.tobytes()
    assert back.payload["fit"].flags.writeable
    assert encode(back) == line  # canonical form is stable

    # (q, p_k) slices keep their shape and bits
    rng = np.random.default_rng(0)
    coupling = with_payload(valid_messages()[MSTEP_RESIDUAL_COUPLING],
                            resid=edge[:4],
                            slices=[np.resize(edge, (5, 3)),
                                    rng.standard_normal((3, 3))])
    line = encode(coupling)
    back = decode(line)
    sch.validate(back)
    assert back.payload["resid"].tobytes() == edge[:4].tobytes()
    for got, sent in zip(back.payload["slices"], coupling.payload["slices"]):
        assert got.shape == sent.shape and got.tobytes() == sent.tobytes()
        assert got.flags.writeable
    assert encode(back) == line


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 7, 100])
def test_packed_size_depends_only_on_length(m):
    # a length-m vector costs 4 * ceil(8m / 3) + 2 bytes whatever its values
    rng = np.random.default_rng(m)
    sizes = set()
    for vec in (np.zeros(m), rng.standard_normal(m), np.full(m, 1 / 3)):
        line = encode(Message(0, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT, {"fit": vec}))
        field = line[line.index('"fit":') + len('"fit":'):-len("}}\n")]
        sizes.add(len(field.encode("utf-8")))
    assert sizes == {4 * math.ceil(8 * m / 3) + 2}


def test_malformed_records_rejected():
    good = encode(Message(0, "control", SERVER_ID, CONTROL,
                          {"event": "round_begin"}))
    decode(good)
    for line in ("nope", "[1]", good.replace('"t":0', '"t":"zero"'),
                 good.replace('{"event":"round_begin"}', '"ab"'),
                 good.replace('{"event":"round_begin"}', '[["event","x"]]'),
                 good.replace('"from":0,', '')):
        with pytest.raises(SchemaViolation):
            decode(line)

    # an array field takes packed base64 strings and nothing else
    msgs = valid_messages()
    vec_msg = Message(0, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT, {"fit": np.ones(2)})
    packed2 = json.loads(encode(vec_msg))["payload"]["fit"]
    packed3 = json.loads(encode(with_payload(vec_msg, fit=np.ones(3))))["payload"]["fit"]
    projection, coupling = msgs[MSTEP_PARTIAL_PROJECTION], msgs[MSTEP_RESIDUAL_COUPLING]
    bad_arrays = [
        (vec_msg, "fit", [1.0, 1.0]),                # a JSON number list
        (vec_msg, "fit", 1.0),                       # not a string
        (vec_msg, "fit", None),
        (vec_msg, "fit", [packed2]),                 # a list of packed rows
        (vec_msg, "fit", "AAAA AAAAAAA="),           # outside the alphabet
        (vec_msg, "fit", "!!!!"),
        (vec_msg, "fit", packed2.rstrip("=")),       # unpadded
        (vec_msg, "fit", "\u00e9AAA"),               # not ASCII
        (vec_msg, "fit", "AAAA"),                    # 3 bytes: not whole float64s
        (msgs[ESTEP_BROADCAST], "denom", [2.0, 1.5]),
        (msgs[VARSTEP_SCALAR], "vals", [0.5, 0.25]),
        (projection, "vecs", packed2),               # not a list
        (projection, "vecs", [[0.0] * 5, [0.0] * 3]),
        (projection, "vecs", [packed2, 3]),
        (coupling, "slices", [packed2, packed2]),    # blocks that are not row lists
        (coupling, "slices", [[[0.0] * 3] * 5, [[0.0] * 3] * 3]),
        (coupling, "slices", [[packed2, packed3], [packed3]]),  # ragged rows
        (coupling, "slices", [[packed2, 1.0], [packed3]]),
        (coupling, "slices", {"0": [packed2]}),
    ]
    for msg, field, value in bad_arrays:
        obj = json.loads(encode(msg))
        obj["payload"][field] = value
        with pytest.raises(SchemaViolation):
            decode(json.dumps(obj))


def test_pattern_keyed_messages_validate_after_round_trip(schema):
    sch, *_ = schema
    for msg in valid_messages().values():
        sch.validate(msg)
        back = decode(encode(msg))
        sch.validate(back)
        assert encode(back) == encode(msg)


def test_every_kind_is_enumerated():
    assert len(MESSAGE_KINDS) == 10
    assert CONTROL in MESSAGE_KINDS


def test_vector_payload_length_enforced(schema):
    sch, layout, mask = schema
    ok = Message(0, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT, {"fit": np.zeros(4)})
    sch.validate(ok)
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT,
                             {"fit": np.zeros(5)}))


def test_raw_covariate_block_rejected(schema):
    # an (n, p_k) matrix fits no array slot of any kind, whether it replaces
    # the whole field or one per-pattern entry of it
    sch, layout, mask = schema
    raw_block = np.arange(12.0).reshape(4, 3)
    for kind, field in ((ESTEP_LOCAL_FIT, "fit"), (MSTEP_LOCAL_FIT, "fit"),
                        (MSTEP_COUPLING_VEC, "vec")):
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, ROUND_MSTEP, 2, kind, {field: raw_block}))
    slots = 0
    for msg in valid_messages().values():
        sch.validate(msg)
        for field, value in msg.payload.items():
            if field in ("client", "patterns"):
                continue
            slots += 1
            with pytest.raises(SchemaViolation):
                sch.validate(with_payload(msg, **{field: raw_block}))
            if isinstance(value, list):
                for j in range(len(value)):
                    entries = list(value)
                    entries[j] = raw_block
                    with pytest.raises(SchemaViolation):
                        sch.validate(with_payload(msg, **{field: entries}))
    assert slots == 7

    # packed into a length-n slot, the block's bytes decode to a vector of
    # length n * p_k, or to row lists the slot does not take
    flat = decode(encode(Message(0, ROUND_ESTEP, 2, ESTEP_LOCAL_FIT,
                                 {"fit": raw_block.ravel()})))
    assert flat.payload["fit"].shape == (12,)
    with pytest.raises(SchemaViolation):
        sch.validate(flat)
    with pytest.raises(SchemaViolation):
        encode(Message(0, ROUND_ESTEP, 2, ESTEP_LOCAL_FIT, {"fit": raw_block}))
    coupling = valid_messages()[MSTEP_RESIDUAL_COUPLING]
    rows = json.loads(encode(with_payload(
        coupling, slices=[raw_block, np.zeros((3, 3))])))["payload"]["slices"][0]
    obj = json.loads(encode(Message(0, ROUND_ESTEP, 2, ESTEP_LOCAL_FIT,
                                    {"fit": np.zeros(4)})))
    obj["payload"]["fit"] = rows
    with pytest.raises(SchemaViolation):
        decode(json.dumps(obj))
    # and in a per-pattern slice it decodes to an (n, p_k) block of the
    # wrong shape
    back = decode(encode(with_payload(coupling,
                                      slices=[raw_block, np.zeros((3, 3))])))
    assert back.payload["slices"][0].shape == raw_block.shape
    with pytest.raises(SchemaViolation):
        sch.validate(back)


def test_unknown_kind_and_fields_rejected(schema):
    sch, *_ = schema
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, "estep", 1, "covariate_dump", {"x": [1.0]}))
    with pytest.raises(SchemaViolation):
        encode(Message(0, ROUND_ESTEP, 1, ESTEP_QUAD_FORM,
                       {"value": 1.0, "extra": [1, 2]}))
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_ESTEP, 1, ESTEP_QUAD_FORM,
                             {"value": 1.0, "extra": [1, 2]}))


def test_non_finite_payload_rejected(schema):
    sch, *_ = schema
    with pytest.raises(SchemaViolation):
        encode(Message(0, ROUND_ESTEP, 1, ESTEP_QUAD_FORM, {"value": np.inf}))
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT,
                             {"fit": [np.nan, 0.0, 0.0, 0.0]}))
    for value in ("1.0", True, [1.0], None):
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, ROUND_ESTEP, 1, ESTEP_QUAD_FORM,
                                 {"value": value}))
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, "control", SERVER_ID, CONTROL,
                                 {"event": "round_end", "loss": value}))
    msgs = valid_messages()
    bad = [
        with_payload(msgs[ESTEP_BROADCAST], denom=np.array([2.0, np.inf])),
        with_payload(msgs[MSTEP_RESIDUAL_COUPLING],
                     slices=[np.zeros((5, 3)), np.full((3, 3), np.nan)]),
        with_payload(msgs[MSTEP_PARTIAL_PROJECTION],
                     vecs=[np.zeros(5), np.array([0.0, np.inf, 0.0])]),
        with_payload(msgs[MSTEP_AGGREGATED_PROJECTION],
                     vecs=[np.full(5, -np.inf), np.zeros(3)]),
        with_payload(msgs[VARSTEP_SCALAR], vals=np.array([np.nan, 0.0])),
    ]
    for msg in bad:
        with pytest.raises(SchemaViolation):
            sch.validate(msg)
        with pytest.raises(SchemaViolation):
            encode(msg)
    for fit in ([0.0, np.nan, 0.0, 0.0], np.array([0.0, 0.0, -np.inf, 0.0])):
        with pytest.raises(SchemaViolation):
            encode(Message(0, ROUND_ESTEP, 1, ESTEP_LOCAL_FIT, {"fit": fit}))


def test_coupling_slices_pinned_to_mask(schema):
    sch, layout, mask = schema
    ok = valid_messages()[MSTEP_RESIDUAL_COUPLING]
    sch.validate(ok)
    bad_payloads = [
        # wrong shapes: square stacked matrices, transposed slices
        {"slices": [np.zeros((5, 5)), np.zeros((3, 3))]},
        {"slices": [np.zeros((3, 5)), np.zeros((3, 3))]},
        {"slices": [np.zeros(15), np.zeros((3, 3))]},
        # the old per-sample layout: one slice per missing sample of client 2
        {"slices": [np.zeros((3, 3)), np.zeros((5, 3)), np.zeros((3, 3))]},
        {"patterns": [ONLY2, BOTH, ONLY2],
         "slices": [np.zeros((3, 3)), np.zeros((5, 3)), np.zeros((3, 3))]},
        # the slices addressed to another client
        {"client": 1},
    ]
    for change in bad_payloads:
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(ok, **change))
    legacy = Message(1, ROUND_MSTEP, SERVER_ID, MSTEP_RESIDUAL_COUPLING,
                     {"client": 2, "resid": np.zeros(4),
                      "idx": mask.missing_rows(2),
                      "slices": [np.zeros((3, 3)), np.zeros((5, 3)),
                                 np.zeros((3, 3))]})
    with pytest.raises(SchemaViolation):
        sch.validate(legacy)


@pytest.mark.parametrize("kind", [MSTEP_RESIDUAL_COUPLING,
                                  MSTEP_PARTIAL_PROJECTION,
                                  MSTEP_AGGREGATED_PROJECTION, VARSTEP_SCALAR])
def test_pattern_keys_pinned_to_mask(schema, kind):
    sch, *_ = schema
    ok = valid_messages()[kind]
    field = {MSTEP_RESIDUAL_COUPLING: "slices", VARSTEP_SCALAR: "vals"}.get(
        kind, "vecs")
    entries = list(ok.payload[field])
    bad_payloads = [
        {"patterns": [ONLY2, BOTH]},                          # reordered
        {"patterns": [BOTH], field: entries[:1]},             # missing
        {"patterns": [BOTH, ONLY2, (1,)],                     # extra
         field: entries + [entries[-1]]},
        {"patterns": [(2, 1), ONLY2]},                        # not canonical
        {"patterns": [BOTH, (1,)]},                           # not in the mask
        {"patterns": [[1, 2], 2]},                            # malformed key
        {"patterns": [BOTH]},                                 # fewer keys than entries
        {field: entries[:1]},                                 # fewer entries than keys
    ]
    for change in bad_payloads:
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(ok, **change))
    no_keys = dict(ok.payload)
    del no_keys["patterns"]
    with pytest.raises(SchemaViolation):
        sch.validate(Message(ok.t, ok.round, ok.sender, ok.kind, no_keys))


def test_projection_indices_must_match_mask(schema):
    sch, layout, mask = schema
    # client 1 is missing on (1, 2) only; client 2's keys are not its own
    sch.validate(Message(0, ROUND_MSTEP, 1, MSTEP_PARTIAL_PROJECTION,
                         {"patterns": [BOTH], "vecs": [np.zeros(5)]}))
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_MSTEP, 1, MSTEP_PARTIAL_PROJECTION,
                             {"patterns": [BOTH, ONLY2],
                              "vecs": [np.zeros(5), np.zeros(3)]}))
    # the old per-sample index list
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_MSTEP, 2, MSTEP_PARTIAL_PROJECTION,
                             {"idx": [1], "vecs": [[0.0, 0.0, 0.0]]}))
    # vectors of the wrong length for their pattern
    for vecs in ([np.zeros(3), np.zeros(5)], [np.zeros(5), np.zeros(2)],
                 [np.zeros((5, 1)), np.zeros(3)]):
        for kind, sender in ((MSTEP_PARTIAL_PROJECTION, 2),
                             (MSTEP_AGGREGATED_PROJECTION, SERVER_ID)):
            with pytest.raises(SchemaViolation):
                sch.validate(Message(0, ROUND_MSTEP, sender, kind,
                                     {"patterns": [BOTH, ONLY2], "vecs": vecs}))


def test_varstep_scalars_one_per_pattern(schema):
    sch, layout, mask = schema
    ok = valid_messages()[VARSTEP_SCALAR]
    for vals in (np.zeros(3), np.zeros(1), np.zeros((2, 1)),
                 np.zeros(mask.missing_rows(2).size)):
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(ok, vals=vals))
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_VARSTEP, 2, VARSTEP_SCALAR,
                             {"idx": mask.missing_rows(2), "vals": np.zeros(3)}))


def test_broadcast_denominators_one_per_pattern(schema):
    sch, *_ = schema
    ok = valid_messages()[ESTEP_BROADCAST]
    # one denominator per sample (the old layout), per pattern including the
    # complete one, too few, non-positive
    for denom in (np.ones(4), np.ones(3), np.ones(1), np.array([1.0, 0.0]),
                  np.array([1.0, -2.0]), np.ones((2, 1))):
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(ok, denom=denom))


def test_broadcast_only_from_server(schema):
    sch, *_ = schema
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_ESTEP, 1, ESTEP_BROADCAST,
                             {"denom": np.ones(2), "resid": np.zeros(4)}))
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, ROUND_MSTEP, 1, MSTEP_AGGREGATED_PROJECTION,
                             {"patterns": [BOTH, ONLY2],
                              "vecs": [np.zeros(5), np.zeros(3)]}))


def test_control_events_closed(schema):
    sch, *_ = schema
    sch.validate(Message(0, "control", SERVER_ID, CONTROL,
                         {"event": "round_begin"}))
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, "control", SERVER_ID, CONTROL,
                             {"event": "upload_raw_data"}))
