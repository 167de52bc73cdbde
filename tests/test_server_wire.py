"""Wire codec: round-trip identity and typed rejection of garbage.

The server's correctness rests on two codec properties.  First,
*round-trip identity*: any facts an instance can hold -- unicode
relation names and values, empty instances, nested tuples -- survive
encode -> JSON -> decode exactly, so the HTTP surface cannot corrupt a
session.  Second, *typed rejection*: a malformed or unknown-version
payload raises :class:`~repro.errors.WireError` (and an error envelope
decodes to the same typed exception the server raised) -- it never
crashes a worker and never surfaces as an untyped exception.
"""

import json
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import FIGURE1_INPUTS, build_short, default_database
from repro.errors import (
    AuditViolation,
    Backpressure,
    ReproError,
    ServerError,
    SessionError,
    ShardError,
    StoreError,
    WireError,
)
from repro.pods.api import SessionHandle, SessionSnapshot, StepRequest
from repro.pods.service import PodService
from repro.pods.store import encode_facts
from repro.server import wire

# -- strategies ----------------------------------------------------------------

# Values that JSON round-trips exactly; nested tuples exercise the
# list<->tuple recursion of the facts codec.
values = st.recursive(
    st.one_of(
        st.integers(-(10**9), 10**9),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)
rows = st.lists(values, max_size=4).map(tuple)
facts = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.frozensets(rows, max_size=5),
    max_size=4,
)
session_ids = st.text(min_size=1, max_size=20)


def json_round_trip(payload):
    """Exactly what HTTP does to a message."""
    return json.loads(json.dumps(payload))


# -- round-trip identity -------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(facts=facts, session_id=session_ids, shard=st.integers(0, 64))
    def test_step_request_with_handle(self, facts, session_id, shard):
        request = StepRequest(SessionHandle(session_id, shard), facts)
        body = json_round_trip(wire.encode_step_request(request))
        decoded = wire.decode_step_request(body)
        assert decoded.session == request.session
        assert decoded.inputs == {
            name: frozenset(rows) for name, rows in facts.items()
        }

    @settings(max_examples=25, deadline=None)
    @given(facts=facts, session_id=session_ids)
    def test_step_request_with_bare_id(self, facts, session_id):
        request = StepRequest(session_id, facts)
        decoded = wire.decode_step_request(
            json_round_trip(wire.encode_step_request(request))
        )
        assert decoded.session == session_id

    @settings(max_examples=50, deadline=None)
    @given(
        session_id=session_ids,
        steps=st.integers(0, 10**6),
        state=facts,
        logs=st.lists(facts, max_size=3),
    )
    def test_snapshot(self, session_id, steps, state, logs):
        snapshot = SessionSnapshot(session_id, steps, state, tuple(logs))
        decoded = wire.decode_snapshot(
            json_round_trip(wire.encode_snapshot(snapshot))
        )
        assert decoded.session_id == session_id
        assert decoded.steps == steps
        assert decoded.state_facts == dict(state)
        assert list(decoded.log_facts) == [dict(entry) for entry in logs]

    def test_step_result_round_trip(self):
        """Real results (typed Instance outputs) survive the wire."""
        service = PodService(build_short(), default_database())
        handle = service.create_session("wire-rt")
        results = service.run_session(handle, FIGURE1_INPUTS)
        outputs = build_short().schema.outputs
        for result in results:
            decoded = wire.decode_step_result(
                json_round_trip(wire.encode_step_result(result)), outputs
            )
            assert decoded.step == result.step
            assert decoded.output == result.output
            assert decoded.session.session_id == "wire-rt"
        # A worker's result texts, spliced, are the bytes of encoding
        # the whole message.
        bodies = [wire.encode_step_result(result) for result in results]
        assert wire.message_json(
            "results",
            '{"results": ['
            + ", ".join(json.dumps(body) for body in bodies)
            + "]}",
        ) == json.dumps(wire.message("results", {"results": bodies}))

    @settings(max_examples=25, deadline=None)
    @given(session_id=session_ids, shard=st.integers(0, 1024))
    def test_handle(self, session_id, shard):
        handle = SessionHandle(session_id, shard)
        assert (
            wire.decode_handle(json_round_trip(wire.encode_handle(handle)))
            == handle
        )


# -- typed errors across the wire ----------------------------------------------


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "error, code, status",
        [
            (SessionError("no such session"), "session-error", 400),
            (StoreError("store closed"), "store-error", 500),
            (ShardError("stale handle"), "shard-error", 400),
            (ServerError("worker died"), "server-error", 503),
            (WireError("bad payload"), "wire-error", 400),
            (Backpressure("full"), "backpressure", 429),
            (AuditViolation("violated"), "audit-violation", 409),
        ],
    )
    def test_typed_errors_round_trip(self, error, code, status):
        envelope = json_round_trip(wire.encode_error(error))
        assert envelope["body"]["code"] == code
        assert wire.http_status_of(envelope) == status
        with pytest.raises(type(error)) as caught:
            wire.parse_message(envelope)
        assert str(caught.value) == str(error)

    def test_backpressure_carries_shard_and_depth(self):
        envelope = json_round_trip(
            wire.encode_error(Backpressure("full", shard=3, queue_depth=7))
        )
        with pytest.raises(Backpressure) as caught:
            wire.parse_message(envelope)
        assert caught.value.shard == 3
        assert caught.value.queue_depth == 7

    def test_audit_findings_survive(self):
        finding = wire.WireFinding("alice", 4, "log-validity")
        envelope = json_round_trip(
            wire.encode_error(AuditViolation("bad", findings=(finding,)))
        )
        with pytest.raises(AuditViolation) as caught:
            wire.parse_message(envelope)
        assert caught.value.findings == (finding,)

    def test_unexpected_exception_maps_to_internal(self):
        envelope = wire.encode_error(ValueError("boom"))
        assert envelope["body"]["code"] == "internal"
        with pytest.raises(ServerError):
            wire.parse_message(json_round_trip(envelope))

    def test_unknown_code_decodes_to_server_error(self):
        envelope = wire.message(
            "error", {"code": "flux-capacitor", "message": "??"}
        )
        with pytest.raises(ServerError):
            wire.parse_message(envelope)


# -- malformed payloads never crash, always WireError --------------------------

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-100, 100),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=10),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=8,
)


def earlier_facts_body(encoded, label):
    """The two-pass decoder ``wire._facts_body`` replaced: rebuild each
    row as a list, then convert lists to tuples recursively."""

    def decode_row(row):
        return tuple(
            decode_row(value) if isinstance(value, list) else value
            for value in row
        )

    if not isinstance(encoded, Mapping):
        raise WireError(f"{label} must be a facts object, got {encoded!r}")
    try:
        return {
            name: frozenset(decode_row(row) for row in rows)
            for name, rows in {
                name: [list(row) for row in rows]
                for name, rows in encoded.items()
            }.items()
        }
    except (TypeError, AttributeError) as error:
        raise WireError(f"malformed {label}: {error}") from None


def typed(decoded):
    """Decoded facts with every value's type visible (``1 != True``)."""
    return {name: sorted(map(repr, rows)) for name, rows in decoded.items()}


class TestFactsBody:
    """``_facts_body`` decodes in one pass what the earlier decoder
    decoded in two, and rejects the same inputs."""

    @settings(max_examples=200, deadline=None)
    @given(facts=facts)
    def test_equals_the_earlier_decode_on_wire_facts(self, facts):
        encoded = json_round_trip(encode_facts(facts))
        decoded = wire._facts_body(encoded, "facts")
        assert decoded == facts
        assert typed(decoded) == typed(earlier_facts_body(encoded, "facts"))

    @settings(max_examples=300, deadline=None)
    @given(
        encoded=st.one_of(
            json_values,
            st.dictionaries(
                st.text(max_size=4),
                st.one_of(json_values, st.lists(json_values, max_size=3)),
                max_size=3,
            ),
        )
    )
    def test_same_results_and_rejections_on_arbitrary_input(self, encoded):
        try:
            expected = earlier_facts_body(encoded, "facts")
        except WireError:
            with pytest.raises(WireError):
                wire._facts_body(encoded, "facts")
            return
        assert typed(wire._facts_body(encoded, "facts")) == typed(expected)


class TestMalformed:
    @pytest.mark.parametrize(
        "payload",
        [
            42,
            "hello",
            [],
            None,
            {},
            {"kind": "result", "body": {}},  # no version
            {"v": 2, "kind": "result", "body": {}},  # future version
            {"v": "1", "kind": "result", "body": {}},  # stringly version
            {"v": 1, "body": {}},  # no kind
            {"v": 1, "kind": 7, "body": {}},  # non-string kind
            {"v": 1, "kind": "result"},  # no body
            {"v": 1, "kind": "result", "body": []},  # non-object body
        ],
    )
    def test_rejected_with_wire_error(self, payload):
        with pytest.raises(WireError):
            wire.parse_message(payload)

    def test_kind_mismatch(self):
        with pytest.raises(WireError):
            wire.parse_message(wire.message("pong", {}), expect="result")

    @settings(max_examples=100, deadline=None)
    @given(payload=json_values)
    def test_arbitrary_json_never_crashes(self, payload):
        """Fuzzed payloads either parse or raise a *typed* error --
        the property that keeps a worker alive under garbage input."""
        try:
            wire.parse_message(payload)
        except ReproError:
            pass  # typed: the worker answers with an error envelope

    @settings(max_examples=100, deadline=None)
    @given(body=json_values)
    def test_arbitrary_bodies_never_crash_decoders(self, body):
        for decoder in (
            wire.decode_step_request,
            wire.decode_snapshot,
            wire.decode_handle,
        ):
            try:
                decoder(body)
            except ReproError:
                pass

    def test_malformed_inputs_inside_valid_envelope(self):
        with pytest.raises(WireError):
            wire.decode_step_request({"session": "s", "inputs": 42})
        with pytest.raises(WireError):
            wire.decode_step_request({"session": "s", "inputs": {"r": 5}})
        with pytest.raises(WireError):
            wire.decode_step_request({"inputs": {}})

    def test_malformed_error_body_is_wire_error(self):
        decoded = wire.decode_error(["not", "a", "dict"])
        assert isinstance(decoded, WireError)


# -- encode once ---------------------------------------------------------------

# Every JSON scalar shape a fact can hold, floats at the edges included.
encoded_values = st.recursive(
    st.one_of(
        st.integers(),
        st.integers(min_value=10**20, max_value=10**40),
        st.floats(allow_nan=False),
        st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324]),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)


def perf_counter_latencies() -> list[float]:
    """Latencies exactly as the service measures them."""
    from time import perf_counter

    latencies = []
    for _ in range(4):
        started = perf_counter()
        sum(range(50))
        latencies.append(perf_counter() - started)
    return latencies


@st.composite
def outputs(draw):
    """An output instance over a drawn schema (unicode names, any arity)."""
    from repro.relalg.instance import Instance
    from repro.relalg.schema import DatabaseSchema, RelationSchema

    names = draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=4))
    arities = [draw(st.integers(0, 3)) for _ in names]
    data = {
        name: draw(
            st.frozensets(
                st.tuples(*[encoded_values] * arity) if arity else st.just(()),
                max_size=4,
            )
        )
        for name, arity in zip(names, arities)
    }
    schema = DatabaseSchema(
        RelationSchema(name, arity) for name, arity in zip(names, arities)
    )
    return Instance(schema, data)


class TestEncodeOnce:
    """The worker's reply text is exactly the dict encoder's bytes."""

    @given(outputs(), session_ids, st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=120, deadline=None)
    def test_step_result_json_equals_json_dumps(self, output, session_id, shard, step):
        from repro.pods.api import StepResult

        for latency in [*perf_counter_latencies(), 0.0, 1e300]:
            result = StepResult(SessionHandle(session_id, shard), step, output, latency)
            assert wire.step_result_json(result) == json.dumps(
                wire.encode_step_result(result)
            )

    @given(outputs())
    @settings(max_examples=60, deadline=None)
    def test_store_cells_share_the_encoder(self, output):
        # The SQLite cells' format, produced by the same function.
        from repro.pods.api import facts_of
        from repro.pods.store import facts_json, facts_layout

        assert facts_json(*facts_layout(output)[1:]) == json.dumps(
            encode_facts(facts_of(output)), sort_keys=True
        )
        plain = facts_of(output)
        assert facts_json(*facts_layout(plain)[1:]) == json.dumps(
            encode_facts(plain), sort_keys=True
        )
