"""Chat-completion clients: an HTTP client and a deterministic mock.

The wire contract is a POST of {"messages": [...], "max_new_tokens": n,
"temperature": t} answered by {"text": "...", "finish_reason": "..."},
which matches prevailing chat-completion services behind a thin proxy.
The mock client answers from a pattern table and, by default, follows
the strongest compatibility evidence it can find in the prompt — so
offline runs exercise the full prompt/parse/fallback machinery.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from .errors import ClientTimeout
from .jsonio import Record
from .prompts import ANSWER_INSTRUCTION, EVIDENCE_LINE, PLAN_INSTRUCTION
from .taskgen.model import OPTION_LETTERS

CHAT_URL_VAR = "MATPROC_CHAT_URL"
CHAT_TOKEN_VAR = "MATPROC_CHAT_TOKEN"


@dataclass
class ChatExchange(Record):
    """One request/response pair, replayable from its serialized form."""

    messages: list[dict]
    max_new_tokens: int
    temperature: float = 0.0
    response_text: str = ""
    finish_reason: str = ""


class HttpChatClient:
    def __init__(self, url: str, token: str | None = None, timeout: float = 60.0, retries: int = 2):
        self.url = url
        self.token = token
        self.timeout = timeout
        self.retries = retries

    def complete(self, messages: list[dict], max_new_tokens: int, temperature: float = 0.0) -> ChatExchange:
        """POST the request and read its reply. An attempt fails on any
        transport error, timeout or HTTP error status, and on a body that is
        not a JSON object or not a valid reply (see :func:`_reply`); after
        ``retries + 1`` failed attempts :class:`ClientTimeout` is raised,
        naming the last failure. A URL that is not http(s) raises it at once
        (``urllib`` would otherwise read ``file:`` and ``data:`` URLs).
        ``urllib`` is imported on the first call, so a run that reaches no
        endpoint never loads the HTTP stack."""
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        if urllib.parse.urlsplit(self.url).scheme not in ("http", "https"):
            raise ClientTimeout(f"endpoint {self.url!r} is not an http(s) URL")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        data = json.dumps({
            "messages": messages,
            "max_new_tokens": max_new_tokens,
            "temperature": temperature,
        }).encode("utf-8")
        attempts, last = self.retries + 1, None
        for _ in range(attempts):
            request = urllib.request.Request(self.url, data=data, headers=headers, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    text, finish_reason = _reply(json.loads(response.read().decode("utf-8")))
                break
            except urllib.error.HTTPError as exc:
                exc.close()  # an error status arrives as the still-open response
                last = exc
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last = exc
        else:
            raise ClientTimeout(f"endpoint {self.url} failed after {attempts} attempt(s): {last}")
        return ChatExchange(
            messages=messages,
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            response_text=text,
            finish_reason=finish_reason,
        )


def _reply(body) -> tuple[str, str]:
    """The text and finish reason of a reply body; ValueError unless it is a
    JSON object with a string ``text`` and, if given, a string ``finish_reason``."""
    if not isinstance(body, dict):
        raise ValueError("body is not a JSON object")
    text, finish_reason = body.get("text"), body.get("finish_reason", "stop")
    if not isinstance(text, str) or not isinstance(finish_reason, str):
        raise ValueError("reply needs a string 'text' and, if given, a string 'finish_reason'")
    return text, finish_reason


@dataclass
class MockChatClient:
    """Deterministic stand-in: pattern rules first, then evidence-following.

    ``rules`` maps regex patterns to canned responses, matched against the
    concatenated prompt text in order. Without a matching rule the mock
    answers: a fixed plan sentence for plan prompts, the option letter with
    the highest rendered compatibility score for answer prompts that carry
    evidence lines, and "Answer: A" otherwise.
    """

    rules: list[tuple[str, str]] = field(default_factory=list)
    follow_evidence: bool = True
    calls: int = 0

    def complete(self, messages: list[dict], max_new_tokens: int, temperature: float = 0.0) -> ChatExchange:
        self.calls += 1
        prompt = "\n".join(m["content"] for m in messages)
        text = self._respond(prompt)
        return ChatExchange(
            messages=messages,
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            response_text=text,
            finish_reason="stop",
        )

    def _respond(self, prompt: str) -> str:
        for pattern, response in self.rules:
            if re.search(pattern, prompt, re.MULTILINE):
                return response
        if PLAN_INSTRUCTION in prompt:
            return (
                "Compare each option against the retrieved precedent routes, "
                "their conditions and tools, then prefer the option with the "
                "strongest compatibility evidence."
            )
        if self.follow_evidence and ANSWER_INSTRUCTION in prompt:
            best_letter, best_score = None, -1.0
            for letter, rendered in EVIDENCE_LINE.findall(prompt):
                score = float(rendered)
                if score > best_score:
                    best_letter, best_score = letter, score
            if best_letter is not None:
                return f"Answer: {best_letter}"
        return f"Answer: {OPTION_LETTERS[0]}"


def get_chat_client(url: str | None = None, token: str | None = None):
    """HTTP client when an endpoint is configured, the mock otherwise."""
    url = url if url is not None else os.environ.get(CHAT_URL_VAR, "")
    token = token if token is not None else os.environ.get(CHAT_TOKEN_VAR) or None
    return HttpChatClient(url, token) if url else MockChatClient()
