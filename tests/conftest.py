import sys

import numpy as np
import pytest

from recipeff.core import perron_stack
from recipeff.harness import (
    EXAMPLE_DIAG,
    EXAMPLE_EXTENSION_PERRON,
    EXAMPLE_REFERENCE_PERRON,
    example_base,
    example_conjugate_reference,
)


@pytest.fixture(scope="session")
def base_matrix():
    return example_base()


@pytest.fixture(scope="session")
def conjugate_reference():
    return example_conjugate_reference()


@pytest.fixture(scope="session")
def diag():
    return np.array(EXAMPLE_DIAG)


@pytest.fixture(scope="session")
def reference_perron():
    return np.array(EXAMPLE_REFERENCE_PERRON)


@pytest.fixture(scope="session")
def extension_perron_reference():
    return np.array(EXAMPLE_EXTENSION_PERRON)


@pytest.fixture
def perron_calls(monkeypatch):
    """Orders of the Perron solves made through any recipeff module, one
    entry per row of each stack that passes through `perron_stack`."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.extend([a.shape[-1]] * len(a))
        return perron_stack(a, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("recipeff") and getattr(mod, "perron_stack", None) is perron_stack:
            monkeypatch.setattr(mod, "perron_stack", counted)
    return calls
