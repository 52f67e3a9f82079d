import json
import math

import numpy as np
import pytest

from conftest import OpeningAgent, make_instance

from vfem import BlockLayout, FitConfig, MissingMask, fit
from vfem.errors import ProtocolDesync, SchemaViolation
from vfem.messages import (
    ESTEP_BROADCAST,
    ESTEP_LOCAL_FIT,
    MESSAGE_KINDS,
    SERVER_ID,
    VARSTEP_SCALAR,
    Message,
    WireSchema,
    decode,
    encode,
)
from vfem.transport import InProcessTransport, SocketTransport

# the kinds of earlier protocols, no longer on the wire: those of the
# four-round protocol, and `control`, which opened and closed a fit
RETIRED_KINDS = ("estep_quad_form", "mstep_local_fit", "mstep_coupling_vec",
                 "mstep_residual_coupling", "mstep_partial_projection",
                 "mstep_aggregated_projection", "control")


@pytest.fixture
def schema():
    # rows: client 1 misses row 2, client 2 misses rows 0, 2 and 3, so the
    # non-empty patterns are (1, 2) and (2,) and the clients observe 3 and
    # 1 rows
    layout = BlockLayout((2, 3))
    mask = MissingMask(np.array([[0, 1], [0, 0], [1, 1], [0, 1]], dtype=bool))
    return WireSchema(layout, mask), layout, mask


def valid_messages():
    """One valid message of every kind for the fixture; the server's go to
    client 1, which observes 3 rows."""
    return {
        ESTEP_LOCAL_FIT: Message(0, 1, ESTEP_LOCAL_FIT,
                                 {"fit": np.zeros(3), "mean": 0.5, "quad": 0.25}),
        ESTEP_BROADCAST: Message(0, SERVER_ID, ESTEP_BROADCAST,
                                 {"sigma2": 1.0, "resid": np.zeros(3), "sum_a": 0.5,
                                  "sum_q": -0.25, "best": True,
                                  "restore": False, "last": False}, to=1),
        VARSTEP_SCALAR: Message(0, 2, VARSTEP_SCALAR,
                                {"value": 0.5}),
    }


def stepped_fit():
    """A valid local fit after the first iteration: it carries the norm of
    the step that led to it."""
    fit = valid_messages()[ESTEP_LOCAL_FIT]
    return Message(1, 1, ESTEP_LOCAL_FIT, {**fit.payload, "step": 0.125})


def with_payload(msg, **changes):
    return Message(msg.t, msg.sender, msg.kind,
                   {**msg.payload, **changes}, to=msg.to)


def addressed(msg, to):
    return Message(msg.t, msg.sender, msg.kind, msg.payload, to=to)


def test_encode_decode_round_trip(schema):
    # packed arrays carry the raw float64 bits: signed zero, the smallest
    # subnormal and the largest finite values come back bit for bit
    sch, layout, mask = schema
    edge = np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, -2.5e-17, 3.0])
    msg = Message(3, 1, ESTEP_LOCAL_FIT,
                  {"fit": edge, "mean": -2.5e-17, "quad": 0.1})
    line = encode(msg)
    back = decode(line)
    assert back.t == 3 and back.sender == 1 and back.kind == ESTEP_LOCAL_FIT
    assert back.payload["fit"].dtype == np.float64
    assert back.payload["fit"].tobytes() == edge.tobytes()
    assert back.payload["fit"].flags.writeable
    assert back.payload["mean"] == -2.5e-17 and back.payload["quad"] == 0.1
    assert encode(back) == line  # canonical form is stable
    assert list(json.loads(line)) == ["t", "from", "to", "kind", "payload"]
    assert back.to == 0

    # the broadcast's scalars and its vector keep their bits, and its
    # recipient travels in the envelope
    bcast = with_payload(valid_messages()[ESTEP_BROADCAST], sigma2=0.1,
                         resid=edge[:3], sum_a=-2.5e-17, sum_q=edge[3])
    line = encode(bcast)
    back = decode(line)
    sch.validate(back)
    assert back.to == 1 and json.loads(line)["to"] == 1
    assert (back.payload["sigma2"], back.payload["sum_a"],
            back.payload["sum_q"]) == (0.1, -2.5e-17, edge[3])
    got, sent = back.payload["resid"], bcast.payload["resid"]
    assert got.shape == sent.shape and got.tobytes() == sent.tobytes()
    assert got.flags.writeable
    assert encode(back) == line


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 7, 100])
def test_packed_size_depends_only_on_length(m):
    # a length-m vector costs 4 * ceil(8m / 3) + 2 bytes whatever its values
    rng = np.random.default_rng(m)
    sizes = set()
    for vec in (np.zeros(m), rng.standard_normal(m), np.full(m, 1 / 3)):
        line = encode(Message(0, 1, ESTEP_LOCAL_FIT, {"fit": vec}))
        field = line[line.index('"fit":') + len('"fit":'):-len("}}\n")]
        sizes.add(len(field.encode("utf-8")))
    assert sizes == {4 * math.ceil(8 * m / 3) + 2}


def test_malformed_records_rejected():
    good = encode(Message(0, 2, VARSTEP_SCALAR, {"value": 0.5}))
    decode(good)
    for line in ("nope", "[1]", good.replace('"t":0', '"t":"zero"'),
                 good.replace('{"value":0.5}', '"ab"'),
                 good.replace('{"value":0.5}', '[["value",0.5]]'),
                 good.replace('"from":2,', ''), good.replace('"to":0,', ''),
                 good.replace('"to":0', '"to":"zero"')):
        assert line != good
        with pytest.raises(SchemaViolation):
            decode(line)

    # an array field takes packed base64 strings and nothing else
    msgs = valid_messages()
    vec_msg = Message(0, 1, ESTEP_LOCAL_FIT, {"fit": np.ones(2)})
    packed2 = json.loads(encode(vec_msg))["payload"]["fit"]
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
        (msgs[ESTEP_BROADCAST], "resid", [2.0, 1.5, 0.0]),
        (msgs[ESTEP_BROADCAST], "resid", [packed2, packed2]),
        (msgs[ESTEP_BROADCAST], "resid", {"0": packed2}),
    ]
    for msg, field, value in bad_arrays:
        obj = json.loads(encode(msg))
        obj["payload"][field] = value
        with pytest.raises(SchemaViolation):
            decode(json.dumps(obj))


def test_pattern_keyed_messages_validate_after_round_trip(schema):
    # every kind survives the wire
    sch, *_ = schema
    for msg in valid_messages().values():
        sch.validate(msg)
        back = decode(encode(msg))
        sch.validate(back)
        assert encode(back) == encode(msg)


def test_every_kind_is_enumerated(schema):
    sch, *_ = schema
    assert MESSAGE_KINDS == {ESTEP_LOCAL_FIT, ESTEP_BROADCAST, VARSTEP_SCALAR}
    assert set(valid_messages()) == MESSAGE_KINDS
    for kind in RETIRED_KINDS:
        msg = Message(0, 1, kind, {"value": 1.0})
        with pytest.raises(SchemaViolation):
            sch.validate(msg)
        with pytest.raises(SchemaViolation):
            encode(msg)


def test_vector_payload_length_enforced(schema):
    # a client's fit covers exactly the rows it observes
    sch, layout, mask = schema
    ok = valid_messages()[ESTEP_LOCAL_FIT]
    sch.validate(ok)
    sch.validate(Message(0, 2, ESTEP_LOCAL_FIT,
                         {**ok.payload, "fit": np.zeros(1)}))
    for sender, length in ((1, 2), (1, 4), (2, 3), (2, 0)):
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, sender, ESTEP_LOCAL_FIT,
                                 {**ok.payload, "fit": np.zeros(length)}))
    # the residuals sent to a client cover exactly the rows it observes: not
    # every sample, nor the rows of the other client
    bcast = valid_messages()[ESTEP_BROADCAST]
    sch.validate(addressed(with_payload(bcast, resid=np.zeros(1)), 2))
    for to, length in ((1, 4), (1, 1), (1, 2), (1, 0), (2, 4), (2, 3), (2, 0)):
        with pytest.raises(SchemaViolation):
            sch.validate(addressed(with_payload(bcast, resid=np.zeros(length)), to))
    with pytest.raises(SchemaViolation):
        sch.validate(with_payload(bcast, resid=np.zeros((3, 1))))


def test_recipient_enforced(schema):
    # a server record names one client 1..K, a client's record none
    sch, *_ = schema
    for msg in valid_messages().values():
        sch.validate(msg)
        if msg.sender == SERVER_ID:
            # client 2 observes one row
            to_2 = addressed(msg, 2)
            if msg.kind == ESTEP_BROADCAST:
                to_2 = with_payload(to_2, resid=np.zeros(1))
            sch.validate(to_2)
            bad = (0, 3, -1)
        else:
            bad = (1, 2, 3)
        for to in bad:
            with pytest.raises(SchemaViolation):
                sch.validate(addressed(msg, to))


@pytest.mark.parametrize("transport_cls", [InProcessTransport, SocketTransport])
def test_send_to_another_client_rejected(schema, transport_cls):
    sch, _layout, mask = schema
    agents = {k: OpeningAgent(k, mask.observed_rows(k).size) for k in (1, 2)}
    transport = transport_cls(agents, sch)
    try:
        for msg in valid_messages().values():
            if msg.sender == SERVER_ID:
                with pytest.raises(ProtocolDesync):
                    transport.send_to_client(2, msg)
        assert transport.counters.messages == 0
    finally:
        transport.close()


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_traced_broadcasts_carry_the_recipients_rows(tmp_path, transport):
    # every record validates on its own, and each remote client receives
    # residuals on the rows it observes and on no other; client 1's records
    # stay in the coordinator's process
    data, _ = make_instance(80, (2, 3, 1), (0.3, 0.5, 0.2), seed=8)
    path = tmp_path / "trace.log"
    snaps = []
    res = fit(data, FitConfig(engine="federated", transport=transport,
                              max_iters=3, tol=1e-300, trace_path=str(path)),
              inspect=snaps.append)
    schema = WireSchema(data.layout, data.mask)
    observed = {k: data.mask.observed_rows(k).size for k in data.layout.clients()}
    assert len(set(observed.values()) | {data.n}) == 4
    broadcasts = {k: 0 for k in data.layout.clients()[1:]}
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == res.comm["messages"]
    for line in lines:
        msg = decode(line)
        schema.validate(msg)
        assert (msg.to == SERVER_ID) == (msg.sender != SERVER_ID)
        if msg.kind == ESTEP_BROADCAST:
            # the seven fields, and e on the recipient's rows bit for bit:
            # no denominator, and no residual on a row it misses
            assert list(msg.payload) == ["sigma2", "resid", "sum_a", "sum_q",
                                         "best", "restore", "last"]
            assert msg.payload["resid"].shape == (observed[msg.to],)
            e = snaps[msg.t].e[data.mask.observed_rows(msg.to)]
            assert msg.payload["resid"].tobytes() == e.tobytes()
            broadcasts[msg.to] += 1
    assert broadcasts == dict.fromkeys(data.layout.clients()[1:], res.iterations)


def test_local_fit_v2_form_rejected(schema):
    # the earlier protocol sent a length-n fit, mean-imputed on the missing
    # rows, and the quadratic form in a message of its own
    sch, layout, mask = schema
    for sender in (1, 2):
        assert mask.observed_rows(sender).size < mask.n
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, sender, ESTEP_LOCAL_FIT,
                                 {"fit": np.zeros(mask.n)}))
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, sender, ESTEP_LOCAL_FIT,
                                 {"fit": np.zeros(mask.n), "mean": 0.5,
                                  "quad": 0.25}))
    ok = valid_messages()[ESTEP_LOCAL_FIT]
    for field in ("mean", "quad"):
        partial = dict(ok.payload)
        del partial[field]
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, 1, ESTEP_LOCAL_FIT, partial))


def test_raw_covariate_block_rejected(schema):
    # a raw (m_k, p_k) or (n, p_k) block fits no payload slot of any kind
    sch, layout, mask = schema
    blocks = {k: [np.arange(float(rows * layout.dim(k))).reshape(rows, layout.dim(k))
                  for rows in (mask.observed_rows(k).size, mask.n)]
              for k in layout.clients()}
    assert [b.shape for k in (1, 2) for b in blocks[k]] == [(3, 2), (4, 2),
                                                            (1, 3), (4, 3)]
    msgs = valid_messages()
    slots = 0
    for msg in (*msgs.values(), stepped_fit()):
        sch.validate(msg)
        for field in msg.payload:
            slots += 1
            for block in blocks[1] + blocks[2]:
                bad = with_payload(msg, **{field: block})
                with pytest.raises(SchemaViolation):
                    sch.validate(bad)
                with pytest.raises(SchemaViolation):
                    encode(bad)
    assert slots == 15

    # packed into a vector slot, a block's bytes decode to a vector of
    # length m_k * p_k or n * p_k: a client's own block does not fit its
    # fit, so no block reaches the server, and no block fits the residuals
    # sent to the client that holds it
    fit = msgs[ESTEP_LOCAL_FIT]
    bcast = msgs[ESTEP_BROADCAST]
    for k in layout.clients():
        to_k = addressed(with_payload(bcast, resid=np.zeros(mask.observed_rows(k).size)), k)
        sch.validate(to_k)
        for block in blocks[k]:
            flat = Message(0, k, ESTEP_LOCAL_FIT,
                           {**fit.payload, "fit": block.ravel()})
            back = decode(encode(flat))
            assert back.payload["fit"].tobytes() == block.tobytes()
            with pytest.raises(SchemaViolation):
                sch.validate(back)
            bad = with_payload(to_k, resid=block.ravel())
            with pytest.raises(SchemaViolation):
                sch.validate(decode(encode(bad)))
    # the one coincidence of lengths: client 2's (1, 3) block holds as many
    # floats as client 1 observes rows. Shapes cannot tell values apart; what
    # keeps that block off the downlink is that it never fits the uplink
    assert blocks[2][0].size == mask.observed_rows(1).size
    sch.validate(with_payload(bcast, resid=blocks[2][0].ravel()))


def test_unknown_kind_and_fields_rejected(schema):
    sch, *_ = schema
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, 1, "covariate_dump", {"x": [1.0]}))
    with pytest.raises(SchemaViolation):
        encode(Message(0, 1, VARSTEP_SCALAR,
                       {"value": 1.0, "extra": [1, 2]}))
    for msg in valid_messages().values():
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(msg, extra=[1, 2]))


@pytest.mark.parametrize("field", ["t", "from", "to"])
@pytest.mark.parametrize("text", ['"7"', "true", "1.9", "1e999"],
                         ids=["string", "boolean", "fraction", "overflow"])
def test_envelope_numbers_are_json_integers(field, text):
    # json reads these as str, bool, float and float inf; none is an
    # iteration or a client id, and int() would turn the first three into
    # 7, 1 and 1 and raise OverflowError on the last
    good = encode(Message(1, 2, VARSTEP_SCALAR, {"value": 0.5}))
    obj = json.loads(good)
    line = good.replace(f'"{field}":{obj[field]}', f'"{field}":{text}')
    assert line != good
    with pytest.raises(SchemaViolation):
        decode(line)


def test_integer_scalar_beyond_float_range_rejected(schema):
    # a 400-digit integer is a valid JSON number but no finite float64
    sch, *_ = schema
    huge = 10 ** 400
    msg = with_payload(valid_messages()[VARSTEP_SCALAR], value=huge)
    with pytest.raises(SchemaViolation):
        sch.validate(msg)
    line = encode(valid_messages()[VARSTEP_SCALAR]).replace(
        '"value":0.5', f'"value":{huge}')
    with pytest.raises(SchemaViolation):
        sch.validate(decode(line))


def test_non_finite_payload_rejected(schema):
    sch, *_ = schema
    with pytest.raises(SchemaViolation):
        encode(Message(0, 1, VARSTEP_SCALAR, {"value": np.inf}))
    msgs = valid_messages()
    for value in ("1.0", True, [1.0], None, np.nan, -np.inf):
        for msg, field in ((msgs[VARSTEP_SCALAR], "value"),
                           (stepped_fit(), "step"),
                           (msgs[ESTEP_LOCAL_FIT], "mean"),
                           (msgs[ESTEP_LOCAL_FIT], "quad"),
                           (msgs[ESTEP_BROADCAST], "sigma2"),
                           (msgs[ESTEP_BROADCAST], "sum_a"),
                           (msgs[ESTEP_BROADCAST], "sum_q")):
            with pytest.raises(SchemaViolation):
                sch.validate(with_payload(msg, **{field: value}))
    bad = [
        with_payload(msgs[ESTEP_LOCAL_FIT], fit=np.array([0.0, np.nan, 0.0])),
        with_payload(msgs[ESTEP_BROADCAST],
                     resid=np.array([0.0, -np.inf, 0.0])),
    ]
    for msg in bad:
        with pytest.raises(SchemaViolation):
            sch.validate(msg)
        with pytest.raises(SchemaViolation):
            encode(msg)
    for fit in ([0.0, np.nan, 0.0, 0.0], np.array([0.0, 0.0, -np.inf, 0.0])):
        with pytest.raises(SchemaViolation):
            encode(Message(0, 1, ESTEP_LOCAL_FIT, {"fit": fit}))
    # a step norm is never negative
    with pytest.raises(SchemaViolation):
        sch.validate(with_payload(msgs[VARSTEP_SCALAR], value=-0.5))


def test_varstep_scalars_one_per_pattern(schema):
    # the step reply is one scalar per party now, not one per pattern
    sch, layout, mask = schema
    ok = valid_messages()[VARSTEP_SCALAR]
    sch.validate(ok)
    for value in (np.zeros(3), np.zeros(1), np.zeros((2, 1)),
                  np.zeros(mask.missing_rows(2).size)):
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(ok, value=value))
    for payload in ({"idx": mask.missing_rows(2), "vals": np.zeros(3)},
                    {"patterns": [(1, 2), (2,)], "vals": np.array([0.5, 0.25])},
                    {"value": 0.5, "vals": np.array([0.5, 0.25])}):
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, 2, VARSTEP_SCALAR, payload))


def test_broadcast_carries_no_denominators(schema):
    # the server sends e itself, so no per-pattern denominator goes down: a
    # broadcast that carries them, one per pattern as the earlier protocol
    # sent them or in any other shape, is rejected
    sch, *_ = schema
    ok = valid_messages()[ESTEP_BROADCAST]
    sch.validate(ok)
    sch.validate(decode(encode(ok)))
    assert list(ok.payload) == ["sigma2", "resid", "sum_a", "sum_q", "best",
                                "restore", "last"]
    for denom in (np.array([2.0, 1.5]), np.ones(4), np.ones(1), 2.0):
        bad = with_payload(ok, denom=denom)
        with pytest.raises(SchemaViolation):
            sch.validate(bad)
        with pytest.raises(SchemaViolation):
            encode(bad)
    for sigma2 in (0.0, -1.0):
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(ok, sigma2=sigma2))


def test_broadcast_only_from_server(schema):
    sch, *_ = schema
    msgs = valid_messages()
    with pytest.raises(SchemaViolation):
        sch.validate(Message(0, 1, ESTEP_BROADCAST, msgs[ESTEP_BROADCAST].payload))
    # and the clients' kinds only from clients 1..K, even when addressed as
    # a server record would be
    for kind in (ESTEP_LOCAL_FIT, VARSTEP_SCALAR):
        for sender in (SERVER_ID, 3):
            with pytest.raises(SchemaViolation):
                sch.validate(Message(0, sender, kind,
                                     msgs[kind].payload, to=1))


def test_verdict_travels_only_on_the_broadcast(schema):
    # a restore always halves the step, so no step scale travels at all;
    # the verdict flags go down on the broadcast and on no other record,
    # nor on a forged `control` record, the kind that opened and closed a fit
    sch, *_ = schema
    msgs = valid_messages()
    carriers = [msgs[ESTEP_LOCAL_FIT], stepped_fit(), msgs[VARSTEP_SCALAR]]
    carriers += [Message(0, SERVER_ID, "control", {"event": event}, to=1)
                 for event in ("round_begin", "converged")]
    for extra in ({"best": True}, {"restore": False}, {"last": True},
                  {"restore": True, "eta_scale": 0.5}):
        for msg in carriers:
            bad = with_payload(msg, **extra)
            with pytest.raises(SchemaViolation):
                sch.validate(bad)
            with pytest.raises(SchemaViolation):
                encode(bad)
    with pytest.raises(SchemaViolation):
        sch.validate(with_payload(msgs[ESTEP_BROADCAST], eta_scale=0.5))


def test_broadcast_verdict_flags_are_required_booleans(schema):
    sch, *_ = schema
    ok = valid_messages()[ESTEP_BROADCAST]
    for flags in ((True, True, True), (False, False, False),
                  (np.bool_(True), np.bool_(False), False)):
        msg = with_payload(ok, **dict(zip(("best", "restore", "last"), flags)))
        sch.validate(msg)
        back = decode(encode(msg))
        sch.validate(back)
        assert [back.payload[key] for key in ("best", "restore", "last")] == list(flags)
    for key in ("best", "restore", "last"):
        missing = dict(ok.payload)
        del missing[key]
        with pytest.raises(SchemaViolation):
            sch.validate(Message(0, SERVER_ID, ESTEP_BROADCAST, missing, to=1))
        for value in (0, 1, 1.0, "true", None, [True]):
            with pytest.raises(SchemaViolation):
                sch.validate(with_payload(ok, **{key: value}))


def test_local_fit_carries_a_step_exactly_after_the_first_iteration(schema):
    sch, *_ = schema
    first, later = valid_messages()[ESTEP_LOCAL_FIT], stepped_fit()
    sch.validate(first)
    sch.validate(later)
    sch.validate(with_payload(later, step=0.0))
    # no step has been taken before the first local fit
    with pytest.raises(SchemaViolation):
        sch.validate(with_payload(first, step=0.125))
    # and every later one reports the step that led to it
    no_step = dict(later.payload)
    del no_step["step"]
    with pytest.raises(SchemaViolation):
        sch.validate(Message(later.t, later.sender, ESTEP_LOCAL_FIT, no_step))
    # a norm is a finite scalar, never negative
    for step in (-0.5, -1e-300, np.inf, np.nan, True, "0.5", [0.5], None):
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(later, step=step))
    back = decode(encode(later))
    sch.validate(back)
    assert back.payload["step"] == 0.125


# every kind's payload fields and the type of each, as the battery below
# probes them: a float vector with one entry per row the client observes,
# a finite number, one that is >= 0 or > 0, or a boolean flag
FIELD_TYPES = {
    ESTEP_LOCAL_FIT: {"fit": "vector", "mean": "number", "quad": "number",
                      "step": "non-negative"},
    ESTEP_BROADCAST: {"sigma2": "positive", "resid": "vector",
                      "sum_a": "number", "sum_q": "number", "best": "flag",
                      "restore": "flag", "last": "flag"},
    VARSTEP_SCALAR: {"value": "non-negative"},
}

# the valid records of the fixture: each kind, and the opening local fit,
# which follows no step; client 1 observes 3 rows
RECORDS = {
    "opening": valid_messages()[ESTEP_LOCAL_FIT],
    ESTEP_LOCAL_FIT: stepped_fit(),
    ESTEP_BROADCAST: valid_messages()[ESTEP_BROADCAST],
    VARSTEP_SCALAR: valid_messages()[VARSTEP_SCALAR],
}
FIELD_CASES = [(name, field) for name, msg in RECORDS.items()
               for field in FIELD_TYPES[msg.kind]]


def wrong_values(ftype, length):
    """Values that a field of type `ftype` must refuse."""
    bad = ["0.5", None]
    if ftype == "flag":
        return bad + [0, 1, 0.0, 1.0, np.float64(1.0), "true", [True]]
    if ftype == "vector":
        bad += [np.zeros(length - 1), np.zeros(length + 1),
                np.zeros((length, 1)), np.zeros((1, length)), 0.5]
        for value in (np.nan, np.inf, -np.inf):
            vec = np.zeros(length)
            vec[1] = value
            bad.append(vec)
        return bad
    bad += [True, False, np.bool_(True), np.nan, np.inf, -np.inf, [0.5],
            np.zeros(1), 10 ** 400]
    if ftype == "non-negative":
        bad += [-0.5, -1e-300, -1]
    if ftype == "positive":
        bad += [0.0, 0, -0.0, -0.5]
    return bad


def right_values(ftype, length):
    """Values that a field of type `ftype` must accept."""
    if ftype == "flag":
        return [True, False, np.bool_(True), np.bool_(False)]
    if ftype == "vector":
        return [np.ones(length), [0.5] * length, np.arange(length),
                np.full(length, -1e300)]
    good = [2, 0.5, 1e300, np.float64(0.25), np.int64(3), np.float32(0.5)]
    if ftype == "number":
        good += [0, -0.0, -2.5, -1e300]
    elif ftype == "non-negative":
        good += [0, 0.0, -0.0]
    return good


def without(msg, field):
    payload = dict(msg.payload)
    del payload[field]
    return Message(msg.t, msg.sender, msg.kind, payload, to=msg.to)


def test_battery_covers_every_kind():
    assert {msg.kind for msg in RECORDS.values()} == MESSAGE_KINDS == set(FIELD_TYPES)
    for name, msg in RECORDS.items():
        declared = list(FIELD_TYPES[msg.kind])
        if name == "opening":
            declared.remove("step")
        assert list(msg.payload) == declared


@pytest.mark.parametrize("name,field", FIELD_CASES)
def test_every_declared_field_is_required(schema, name, field):
    # the opening local fit carries every field but `step`, which it must not
    sch, *_ = schema
    msg = RECORDS[name]
    sch.validate(msg)
    if field in msg.payload:
        with pytest.raises(SchemaViolation):
            sch.validate(without(msg, field))
    else:
        assert (name, field) == ("opening", "step")
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(msg, step=0.125))


@pytest.mark.parametrize("name", list(RECORDS))
def test_no_undeclared_field_is_accepted(schema, name):
    # neither a new name nor a field that another kind declares
    sch, *_ = schema
    msg = RECORDS[name]
    others = {f for fields in FIELD_TYPES.values() for f in fields}
    extras = ["extra", "denom", "eta_scale", "x"] + sorted(
        others - set(FIELD_TYPES[msg.kind]))
    for field in extras:
        for value in (0.5, True, np.zeros(3)):
            with pytest.raises(SchemaViolation):
                sch.validate(with_payload(msg, **{field: value}))


@pytest.mark.parametrize("name,field", FIELD_CASES)
def test_every_field_refuses_wrong_values(schema, name, field):
    sch, *_ = schema
    msg = RECORDS[name]
    if field not in msg.payload:
        return  # the opening's step: absent, whatever its value
    ftype = FIELD_TYPES[msg.kind][field]
    for value in wrong_values(ftype, 3):
        with pytest.raises(SchemaViolation):
            sch.validate(with_payload(msg, **{field: value}))


@pytest.mark.parametrize("name,field", FIELD_CASES)
def test_every_field_takes_its_type_across_the_wire(schema, name, field):
    # each valid record, and each valid value of each field, validates as
    # it is and after a round trip through `encode` and `decode`, and
    # comes back equal
    sch, *_ = schema
    msg = RECORDS[name]
    variants = [msg]
    if field in msg.payload:
        ftype = FIELD_TYPES[msg.kind][field]
        variants += [with_payload(msg, **{field: value})
                     for value in right_values(ftype, 3)]
    for variant in variants:
        sch.validate(variant)
        back = decode(encode(variant))
        sch.validate(back)
        assert list(back.payload) == list(variant.payload)
        for key, value in variant.payload.items():
            assert np.array_equal(back.payload[key], value)


@pytest.mark.parametrize("name,field", FIELD_CASES)
def test_encode_checks_each_field_as_validate_does(name, field):
    # but for a vector's length, which only the schema knows
    msg = RECORDS[name]
    ftype = FIELD_TYPES[msg.kind][field]
    for value in wrong_values(ftype, 3):
        bad = with_payload(msg, **{field: value})
        if ftype == "vector" and np.ndim(value) == 1 and np.isfinite(value).all():
            assert decode(encode(bad)).payload[field].shape == np.shape(value)
        else:
            with pytest.raises(SchemaViolation):
                encode(bad)
