"""The public surface of the package: `cpdilate.__all__` and the names it dropped.

Run against the installed package too (CI, after `pip install .`), where a
stale export would not be hidden by `src/` on the path.
"""

import cpdilate
from cpdilate import dilation, prodsys


def test_every_exported_name_resolves_once():
    names = cpdilate.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cpdilate, name)] == []


def test_removed_names_stay_removed():
    # Test-only entry points; the tests call prodsys._product_map and the
    # commutant solver of minimality_check instead.
    for module in (cpdilate, prodsys, dilation):
        for name in ("multiply", "FiberVector", "algebra_dims"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
