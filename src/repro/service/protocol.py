"""The service wire protocol: newline-delimited JSON (``docs/serving.md``).

Every message — request or response — is one line of UTF-8 JSON
terminated by ``\\n``.  Requests carry a ``type`` (one of
:data:`REQUEST_TYPES`) and an optional ``id`` the server echoes back, so
clients may pipeline.  Responses carry ``ok``; a refused or failed
request has ``ok=False`` plus an ``error`` object with a stable ``code``
(:data:`ERROR_CODES`) — backpressure refusals additionally carry
``retry_after_s``, the server's hint for when to try again.

Request shapes::

    {"type": "ping"}
    {"type": "compile", "name": "...", "source": "...",
     "deadline_s": 2.0, "options": {"hardened": true, "pipeline": {...}}}
    {"type": "batch", "programs": [{"name": "...", "source": "..."}, ...],
     "deadline_s": 10.0, "options": {...}}
    {"type": "status"}
    {"type": "drain"}

A compile response wraps one
:meth:`~repro.batch.driver.CompiledProgram.as_dict` payload under
``result`` (transport-level ``ok`` means "the request was processed";
``result["ok"]`` is the compile verdict, with per-program errors carried
as data exactly like the batch layer).  ``status`` returns the live
metrics snapshot; ``drain`` stops admission, waits for in-flight work,
replies, and shuts the server down.
"""

import json

from repro.batch.driver import HARDENED_FIXED, BatchOptions
from repro.util.errors import ReproError

#: Protocol identifier, echoed by ``ping`` (bump on breaking changes;
#: ``/2`` dropped the delta request type: an edited program is a plain
#: ``compile``).
PROTOCOL = "repro-service/2"

#: Hard cap on one message line (requests and responses both).
MAX_LINE_BYTES = 8 * 1024 * 1024

REQUEST_TYPES = ("ping", "compile", "batch", "status", "drain")

#: Stable error codes.
E_BAD_REQUEST = "bad_request"
E_BUSY = "busy"
E_DRAINING = "draining"
E_DEADLINE = "deadline"
E_INTERNAL = "internal"
E_UNAVAILABLE = "unavailable"
ERROR_CODES = (E_BAD_REQUEST, E_BUSY, E_DRAINING, E_DEADLINE, E_INTERNAL,
               E_UNAVAILABLE)

#: Request ``options`` keys (everything else is a bad request).
OPTION_KEYS = ("hardened", "split_messages", "pipeline")


class ProtocolError(ReproError):
    """Raised for undecodable or malformed protocol messages."""


class ServiceError(ReproError):
    """An ``ok=False`` response, surfaced client-side.

    ``code`` is one of :data:`ERROR_CODES`; ``retry_after_s`` is the
    server's backpressure hint when the code is ``busy``."""

    def __init__(self, code, message, retry_after_s=None):
        self.code = code
        self.retry_after_s = retry_after_s
        super().__init__(f"{code}: {message}")


def encode_message(payload):
    """One protocol line: compact, key-sorted JSON plus the terminator."""
    return json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode_message(line):
    """Parse one protocol line into a dict (:class:`ProtocolError` on
    anything that is not a JSON object)."""
    try:
        payload = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


def parse_request(line):
    """Decode and validate one request line."""
    request = decode_message(line)
    rtype = request.get("type")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {rtype!r} "
                            f"(expected one of {', '.join(REQUEST_TYPES)})")
    return request


def ok_response(request, **payload):
    response = {"id": request.get("id"), "type": request.get("type"),
                "ok": True}
    response.update(payload)
    return response


def error_response(request, code, message, **extra):
    response = {"id": request.get("id"), "type": request.get("type"),
                "ok": False, "error": {"code": code, "message": message}}
    response.update(extra)
    return response


def raise_for_error(response):
    """Client-side guard: return an ``ok`` response unchanged, raise
    :class:`ServiceError` for everything else."""
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise ServiceError(error.get("code", E_INTERNAL),
                       error.get("message", "unknown error"),
                       retry_after_s=response.get("retry_after_s"))


def request_options(request, config):
    """The :class:`~repro.batch.driver.BatchOptions` for one request:
    request-level overrides applied on top of the service defaults.
    Any option the compile would refuse raises :class:`ProtocolError`
    here, before the request takes an admission slot."""
    raw = request.get("options") or {}
    if not isinstance(raw, dict):
        raise ProtocolError("options must be a JSON object")
    unknown = set(raw) - set(OPTION_KEYS)
    if unknown:
        raise ProtocolError(f"unknown option(s): {sorted(unknown)} "
                            f"(expected {', '.join(OPTION_KEYS)})")
    overrides = raw.get("pipeline") or {}
    if not isinstance(overrides, dict):
        raise ProtocolError("options.pipeline must be a JSON object")
    hardened = bool(raw.get("hardened", config.hardened))
    # The hardened ladder sets HARDENED_FIXED itself: a plain service's
    # defaults for those keys do not apply to a request that turns it
    # on, and only the request's own overrides of them are refused.
    pipeline = {key: value for key, value in config.pipeline.items()
                if not (hardened and key in HARDENED_FIXED)}
    pipeline.update(overrides)
    try:
        return BatchOptions(
            hardened=hardened,
            split_messages=bool(raw.get("split_messages",
                                        config.split_messages)),
            pipeline=pipeline,
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(str(error)) from error


def request_deadline(request, config):
    """The effective deadline for one request (seconds or ``None``)."""
    deadline = request.get("deadline_s", config.deadline_s)
    if deadline is None:
        return None
    if not isinstance(deadline, (int, float)) or isinstance(deadline, bool) \
            or deadline <= 0:
        raise ProtocolError("deadline_s must be a positive number")
    return float(deadline)
