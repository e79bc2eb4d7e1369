import minaxp


def test_every_exported_name_resolves():
    missing = [name for name in minaxp.__all__ if not hasattr(minaxp, name)]
    assert not missing


def test_star_import_gives_exactly_the_exported_names():
    namespace = {}
    exec("from minaxp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(minaxp.__all__)


def test_no_name_is_exported_twice():
    assert len(minaxp.__all__) == len(set(minaxp.__all__))
