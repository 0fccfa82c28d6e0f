"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def budget_requests(monkeypatch):
    """A function that makes a module's ``check_buffer`` record the bytes each
    call asks for, by name, before it checks them; it returns that record."""

    def record(module):
        asked, check = {}, module.check_buffer

        def recording(n_items, item_bytes, what):
            asked[what] = n_items * item_bytes
            check(n_items, item_bytes, what)

        monkeypatch.setattr(module, "check_buffer", recording)
        return asked

    return record
