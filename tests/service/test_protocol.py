"""Wire protocol and configuration: framing, validation, error mapping."""

import pytest

from repro.batch.driver import BatchOptions
from repro.service.config import POOL_KINDS, ServiceConfig
from repro.service.protocol import (
    E_BUSY,
    E_INTERNAL,
    ERROR_CODES,
    REQUEST_TYPES,
    ProtocolError,
    ServiceError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
    raise_for_error,
    request_deadline,
    request_options,
)
from repro.util.errors import ReproError


# -- framing ------------------------------------------------------------------

def test_encode_decode_roundtrip():
    payload = {"type": "compile", "id": 7, "source": "program p\nend\n"}
    line = encode_message(payload)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert decode_message(line) == payload


def test_encode_is_deterministic():
    # key-sorted compact JSON: the same message always frames identically
    assert (encode_message({"b": 1, "a": 2})
            == encode_message({"a": 2, "b": 1})
            == b'{"a":2,"b":1}\n')


def test_decode_rejects_non_json_and_non_objects():
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_message(b"not json\n")
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_message(b"[1, 2]\n")
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_message(b"\xff\xfe\n")


def test_parse_request_validates_type():
    assert parse_request(b'{"type": "ping"}\n')["type"] == "ping"
    with pytest.raises(ProtocolError, match="unknown request type"):
        parse_request(b'{"type": "explode"}\n')
    with pytest.raises(ProtocolError, match="unknown request type"):
        parse_request(b'{"source": "..."}\n')  # missing type entirely


# -- responses ----------------------------------------------------------------

def test_ok_and_error_responses_echo_request_identity():
    request = {"type": "compile", "id": 42}
    ok = ok_response(request, result={"ok": True})
    assert ok["id"] == 42 and ok["type"] == "compile" and ok["ok"] is True
    err = error_response(request, E_BUSY, "full", retry_after_s=0.25)
    assert err["id"] == 42 and err["ok"] is False
    assert err["error"]["code"] == E_BUSY
    assert err["retry_after_s"] == 0.25


def test_raise_for_error_passes_ok_and_raises_errors():
    ok = {"ok": True, "result": 1}
    assert raise_for_error(ok) is ok
    with pytest.raises(ServiceError) as excinfo:
        raise_for_error({"ok": False,
                         "error": {"code": E_BUSY, "message": "full"},
                         "retry_after_s": 0.5})
    assert excinfo.value.code == E_BUSY
    assert excinfo.value.retry_after_s == 0.5
    # a malformed error response still raises, with the internal code
    with pytest.raises(ServiceError) as excinfo:
        raise_for_error({"ok": False})
    assert excinfo.value.code == E_INTERNAL


def test_service_errors_are_repro_errors():
    # so the CLI's one-line error handling applies unchanged
    assert issubclass(ServiceError, ReproError)
    assert issubclass(ProtocolError, ReproError)
    assert all(isinstance(code, str) for code in ERROR_CODES)
    assert set(REQUEST_TYPES) == {"ping", "compile", "compile_delta",
                                  "batch", "status", "drain"}


# -- per-request options ------------------------------------------------------

def test_request_options_default_to_config():
    config = ServiceConfig(hardened=True, split_messages=False)
    options = request_options({"type": "compile"}, config)
    assert isinstance(options, BatchOptions)
    assert options.hardened is True
    assert options.split_messages is False


def test_request_options_override_config():
    config = ServiceConfig(hardened=False,
                           pipeline={"owner_computes": False})
    options = request_options(
        {"options": {"hardened": True,
                     "pipeline": {"owner_computes": True}}}, config)
    assert options.hardened is True
    assert options.pipeline["owner_computes"] is True


def test_request_options_reject_unknown_keys():
    config = ServiceConfig()
    with pytest.raises(ProtocolError, match="unknown option"):
        request_options({"options": {"hardend": True}}, config)  # typo
    with pytest.raises(ProtocolError, match="JSON object"):
        request_options({"options": [1]}, config)
    with pytest.raises(ProtocolError, match="owner_compute"):
        request_options({"options": {"pipeline": {"owner_compute": 1}}},
                        config)


def test_a_hardened_request_drops_the_service_defaults_its_ladder_sets():
    """A plain service's rung-option defaults do not bind a request that
    turns hardening on; the request's own overrides of them still fail."""
    config = ServiceConfig(pipeline={"hoist_zero_trip": False,
                                     "solver_rounds": 8})
    plain = request_options({"type": "compile"}, config)
    assert plain.pipeline == {"hoist_zero_trip": False, "solver_rounds": 8}
    hardened = request_options({"options": {"hardened": True}}, config)
    assert hardened.hardened
    assert hardened.pipeline == {"solver_rounds": 8}
    with pytest.raises(ProtocolError, match="hoist_zero_trip"):
        request_options({"options": {
            "hardened": True, "pipeline": {"hoist_zero_trip": False}}},
            config)


def test_request_options_reject_unknown_solver_backends():
    """The solver kernel is no pipeline option: any ``solver_backend``,
    known to the solver or not, is a bad request up front, not a compile
    that takes a pool slot."""
    config = ServiceConfig()
    for backend in ("vector", "vectr", "planned", "reference"):
        with pytest.raises(ProtocolError, match="solver_backend"):
            request_options(
                {"options": {"pipeline": {"solver_backend": backend}}},
                config)


def test_request_deadline_validation():
    config = ServiceConfig(deadline_s=2.0)
    assert request_deadline({}, config) == 2.0
    assert request_deadline({"deadline_s": 0.5}, config) == 0.5
    assert request_deadline({}, ServiceConfig()) is None
    for bad in (0, -1, "soon", True):
        with pytest.raises(ProtocolError, match="positive number"):
            request_deadline({"deadline_s": bad}, config)


# -- configuration ------------------------------------------------------------

def test_config_validates_eagerly():
    with pytest.raises(ValueError, match="pool"):
        ServiceConfig(pool="fibers")
    with pytest.raises(ValueError, match="queue_limit"):
        ServiceConfig(queue_limit=0)
    with pytest.raises(ValueError, match="deadline_s"):
        ServiceConfig(deadline_s=-1)
    with pytest.raises(ValueError, match="owner_compute"):
        ServiceConfig(pipeline={"owner_compute": True})  # typo'd key
    with pytest.raises(TypeError, match="solver_rounds"):
        ServiceConfig(pipeline={"solver_rounds": [1]})
    # a hardened service would silently ignore these defaults
    with pytest.raises(ValueError, match="after_jumps"):
        ServiceConfig(hardened=True, pipeline={"after_jumps": "conservative"})


def test_config_as_dict_is_complete():
    config = ServiceConfig(port=7777, workers=2, pool="thread")
    payload = config.as_dict()
    assert payload["port"] == 7777
    assert payload["workers"] == 2
    assert payload["pool"] in POOL_KINDS
    assert set(payload) == {
        "host", "port", "workers", "pool", "queue_limit", "deadline_s",
        "hardened", "split_messages", "pipeline", "cache_dir", "use_cache",
    }
