"""The package's public names: every entry of ``zerowind.__all__`` resolves, once."""

import inspect

import zerowind
import zerowind.crossings


def test_every_exported_name_resolves():
    missing = [name for name in zerowind.__all__ if not hasattr(zerowind, name)]
    assert missing == []


def test_no_exported_name_twice():
    assert len(set(zerowind.__all__)) == len(zerowind.__all__)


def test_removed_configuration_is_gone():
    # the on-curve band is the one setting; every entry point takes it as ``band=``
    assert "CrossingConfig" not in zerowind.__all__
    assert not hasattr(zerowind, "CrossingConfig")


def test_one_line_residual():
    # the one residual is Line.residual, applied to f's values along the curve
    assert "line_residual" not in zerowind.__all__
    assert not hasattr(zerowind, "line_residual")
    assert not hasattr(zerowind.crossings, "line_residual")


def test_curve_construction_has_no_options():
    assert list(inspect.signature(zerowind.JordanCurve.from_segments).parameters) == ["segments"]
