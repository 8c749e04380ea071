"""The package's public names: every entry of ``zerowind.__all__`` resolves, once."""

import zerowind


def test_every_exported_name_resolves():
    missing = [name for name in zerowind.__all__ if not hasattr(zerowind, name)]
    assert missing == []


def test_no_exported_name_twice():
    assert len(set(zerowind.__all__)) == len(zerowind.__all__)


def test_removed_configuration_is_gone():
    # the on-curve band is the one setting; every entry point takes it as ``band=``
    assert "CrossingConfig" not in zerowind.__all__
    assert not hasattr(zerowind, "CrossingConfig")
