"""The one HTTP call of the toolkit: a JSON POST to a configured endpoint.

The chat-completion client goes through :func:`post_json`. ``urllib.request`` is imported on first call, so
commands that reach no endpoint never load the HTTP stack.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from .errors import EndpointError


def post_json(
    url: str,
    payload: dict,
    token: str | None,
    timeout: float,
    attempts: int,
    error: type[EndpointError],
    read: Callable[[dict], object],
):
    """POST ``payload`` as JSON and return ``read`` of the JSON object answered.

    An attempt fails on any transport error, timeout or HTTP error status,
    on a body that is not JSON or not a JSON object, and on a ``ValueError``
    from ``read``; after ``attempts`` failures ``error`` is raised, naming
    the last one. A URL that is not http(s) raises ``error`` at once
    (``urllib`` would otherwise read ``file:`` and ``data:`` URLs).
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise error(f"endpoint {url!r} is not an http(s) URL")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    data = json.dumps(payload).encode("utf-8")
    last: Exception | None = None
    for _ in range(attempts):
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
            if not isinstance(body, dict):
                raise ValueError("body is not a JSON object")
            return read(body)
        except urllib.error.HTTPError as exc:
            exc.close()  # an error status arrives as the still-open response
            last = exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            last = exc
    raise error(f"endpoint {url} failed after {attempts} attempt(s): {last}")
