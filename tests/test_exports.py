"""Tests for the package's public surface: every exported name resolves."""
import regcoulomb


def test_every_exported_name_resolves():
    missing = [name for name in regcoulomb.__all__ if not hasattr(regcoulomb, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(regcoulomb.__all__) == len(set(regcoulomb.__all__))
