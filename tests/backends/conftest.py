"""Backend fixtures: every contract test runs on every backend.

The factories come from the backend registry
(:mod:`repro.backends.registry`) — registering a new backend makes the
whole contract suite run over it with no test edits.
"""

from __future__ import annotations

import pytest

from repro.backends import backend_factory as registered_factory
from repro.backends import backend_names


@pytest.fixture(params=sorted(backend_names()), ids=sorted(backend_names()))
def backend_factory(request):
    """A zero-argument constructor for one registered backend kind."""
    return registered_factory(request.param)
