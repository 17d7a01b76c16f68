"""Set-up shared by every test module."""
from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def unfreeze_the_collector():
    """Undo a gc.freeze() a test leaves behind.

    `hgoe search` and `compare` freeze the collector once their graph is
    ready, and the tests call `cli.main` in this process, so without this
    every object those commands made would stay out of the collector's
    reach for the rest of the session.
    """
    frozen = gc.get_freeze_count()
    yield
    if gc.get_freeze_count() > frozen:
        gc.unfreeze()
