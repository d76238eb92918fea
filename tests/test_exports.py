"""Every exported name resolves, so a deleted name cannot linger in an
export list."""

import pytest

MODULES = ("pairinglab", "pairinglab.bv", "pairinglab.cli",
           "pairinglab.errors", "pairinglab.fields", "pairinglab.measures",
           "pairinglab.pairing", "pairinglab.quadrature",
           "pairinglab.scenarios", "pairinglab.variational")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_import(name):
    # import * raises AttributeError for a name in __all__ that is gone, and
    # importing the package runs its own re-export imports
    exec(f"from {name} import *", {})
