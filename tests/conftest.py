"""Every endpoint test talks to a loopback server: never route it via a proxy."""

import pytest


@pytest.fixture(autouse=True)
def _no_proxy(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
