"""HTTP clients for the solve service.

:class:`ServiceClient` is the supported interface: one keep-alive
connection reused across calls (a context manager), automatic backoff
and retry on HTTP 429 honouring the server's ``Retry-After`` hint, and
first-class :meth:`~ServiceClient.solve` / :meth:`~ServiceClient.session`
methods against the versioned ``/v1`` API.  Server errors surface as
:class:`~repro.exceptions.ExperimentError` carrying the message from the
``{"error": {"code", "message"}}`` envelope; a 429 that exhausts the
retry budget raises :class:`~repro.exceptions.ServiceOverloadedError`
with the ``Retry-After`` hint intact (``retries=0`` surfaces every 429).
"""

from __future__ import annotations

import json
import socket
import urllib.parse
from http.client import HTTPConnection, HTTPException
from time import sleep

from ..exceptions import ExperimentError, ServiceOverloadedError

__all__ = ["ServiceClient", "ServiceSession"]

#: Default per-call timeout (seconds); a queued solve answers once the
#: groups ahead of it and its own have been solved, which under any sane
#: load is far below this.
DEFAULT_TIMEOUT = 30.0
#: Default number of automatic retries after a 429 before giving up.
DEFAULT_RETRIES = 4
#: Cap on how long one 429 backoff sleeps, whatever ``Retry-After`` says.
MAX_RETRY_SLEEP = 5.0


def _decode(raw: bytes, url: str) -> dict:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"{url} returned a non-JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ExperimentError(f"{url} returned {type(payload).__name__}, expected object")
    return payload


def _error_message(payload: dict, url: str, status: int) -> str:
    """Message out of the ``{"error": {...}}`` envelope (or legacy string)."""
    error = payload.get("error")
    if isinstance(error, dict) and "message" in error:
        return str(error["message"])
    if isinstance(error, str):
        return error
    return f"{url} failed with HTTP {status}"


def _retry_after(header: str | None, payload: dict) -> float | None:
    """Backoff hint: the ``Retry-After`` header, else the envelope field."""
    if header:
        try:
            return float(header)
        except ValueError:
            pass
    error = payload.get("error")
    seconds = (
        error.get("retry_after_seconds")
        if isinstance(error, dict)
        else payload.get("retry_after_seconds")
    )
    return float(seconds) if isinstance(seconds, (int, float)) else None


class ServiceClient:
    """Persistent client of one solve service.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running service (a bare ``host:port``
        is accepted).
    timeout:
        Per-call socket timeout in seconds.
    retries:
        How many times a 429 is retried (sleeping per the server's
        ``Retry-After``) before :class:`ServiceOverloadedError`
        propagates.  ``0`` disables the retry loop.

    The underlying keep-alive connection is opened lazily and reused
    across calls; a connection that went stale (server restarted, idle
    timeout) is re-opened transparently once per call.  Use as a context
    manager to release the socket deterministically.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ):
        if "//" not in base_url:
            base_url = "http://" + base_url
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ExperimentError(
                f"bad service URL {base_url!r}: expected http://host:port"
            )
        self._host: str = parsed.hostname
        self._port: int = parsed.port if parsed.port is not None else 80
        self.timeout = float(timeout)
        self.retries = int(retries)
        self._conn: HTTPConnection | None = None
        #: ``X-Request-Id`` echoed by the last response (``None`` before
        #: the first call).  When a call supplies ``request_id`` the
        #: server echoes it back verbatim; otherwise the server mints
        #: one — either way this is the id to grep for in a trace.
        self.last_request_id: str | None = None

    # -- lifecycle ---------------------------------------------------------------
    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self._port}"

    def close(self) -> None:
        """Drop the keep-alive connection (re-opened on the next call)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        retries: int | None = None,
        request_id: str | None = None,
    ) -> dict:
        """One JSON round trip with the automatic 429 backoff loop.

        ``request_id`` is sent as ``X-Request-Id`` when given; either
        way the id the server answered under lands in
        :attr:`last_request_id`.
        """
        budget = self.retries if retries is None else int(retries)
        attempt = 0
        while True:
            try:
                # Only thread request_id through when given: _roundtrip's
                # historical 3-argument signature is an override point.
                if request_id is None:
                    return self._roundtrip(method, path, payload)
                return self._roundtrip(method, path, payload, request_id)
            except ServiceOverloadedError as exc:
                if attempt >= budget:
                    raise
                attempt += 1
                hint = exc.retry_after_seconds
                sleep(min(hint if hint and hint > 0 else 0.05, MAX_RETRY_SLEEP))

    def _exchange(self, method: str, path: str, body, headers: dict, url: str):
        """One raw HTTP exchange on the keep-alive connection."""
        for last_try in (False, True):
            if self._conn is None:
                self._conn = HTTPConnection(self._host, self._port, timeout=self.timeout)
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()  # must drain fully to keep the connection reusable
                return response, raw
            except (ConnectionError, HTTPException, socket.timeout, OSError) as exc:
                # A stale keep-alive connection fails exactly like this;
                # retry once on a fresh socket before giving up.
                self.close()
                if last_try:
                    raise ExperimentError(f"cannot reach {url}: {exc}") from exc

    def _roundtrip(
        self,
        method: str,
        path: str,
        payload: dict | None,
        request_id: str | None = None,
    ) -> dict:
        url = self.base_url + path
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        response, raw = self._exchange(method, path, body, headers, url)
        self.last_request_id = response.getheader("X-Request-Id")
        data = _decode(raw, url)
        if 200 <= response.status < 300:
            return data
        message = _error_message(data, url, response.status)
        if response.status == 429:
            raise ServiceOverloadedError(
                message,
                retry_after_seconds=_retry_after(
                    response.getheader("Retry-After"), data
                ),
            )
        raise ExperimentError(message)

    def get(self, path: str) -> dict:
        return self.request("GET", path)

    def post(self, path: str, payload: dict) -> dict:
        return self.request("POST", path, payload)

    # -- API surface -------------------------------------------------------------
    def solve(
        self,
        request: dict,
        *,
        retries: int | None = None,
        request_id: str | None = None,
    ) -> dict:
        """``POST /v1/solve`` one request; retries 429s per the budget."""
        return self.request(
            "POST", "/v1/solve", request, retries=retries, request_id=request_id
        )

    def stats(self) -> dict:
        """``GET /v1/stats``."""
        return self.get("/v1/stats")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the Prometheus text exposition page."""
        url = self.base_url + "/v1/metrics"
        response, raw = self._exchange("GET", "/v1/metrics", None, {}, url)
        self.last_request_id = response.getheader("X-Request-Id")
        if response.status != 200:
            raise ExperimentError(
                _error_message(_decode(raw, url), url, response.status)
            )
        return raw.decode("utf-8")

    def healthz(self) -> dict:
        """``GET /v1/healthz``."""
        return self.get("/v1/healthz")

    def session(self, request: dict) -> ServiceSession:
        """Open a live replanning session (``POST /v1/session``).

        The returned :class:`ServiceSession` is itself a context
        manager; leaving the block closes the session server-side.
        """
        return ServiceSession(self, self.post("/v1/session", request))


class ServiceSession:
    """Handle on one open server-side replanning session."""

    def __init__(self, client: ServiceClient, created: dict):
        self._client = client
        #: Full ``POST /v1/session`` response (initial solve included).
        self.created = created
        self.id: str = created["session"]
        self._closed: dict | None = None

    def event(self, kind: str, time: float, machine: int | None = None) -> dict:
        """Apply one platform event; returns the replan record."""
        payload: dict = {"kind": kind, "time": time}
        if machine is not None:
            payload["machine"] = machine
        return self._client.post(f"/v1/session/{self.id}/event", payload)

    def state(self) -> dict:
        """Current server-side state (``GET /v1/session/{id}``)."""
        return self._client.get(f"/v1/session/{self.id}")

    def close(self) -> dict:
        """Close the session; idempotent (returns the first summary)."""
        if self._closed is None:
            self._closed = self._client.request("DELETE", f"/v1/session/{self.id}")
        return self._closed

    def __enter__(self) -> ServiceSession:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.close()
        except ExperimentError:
            pass  # session already expired or server gone; nothing to release

