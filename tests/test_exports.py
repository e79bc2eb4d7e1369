import inspect

import minaxp
from minaxp import baseline, calibration, classified, cli, dataio, explain, model, oracle, rejected


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


def _public_callables():
    """Every callable the package exports, every public function of its
    modules and every method of ``CoverProblem``."""
    for name in minaxp.__all__:
        if callable(getattr(minaxp, name)):
            yield name, getattr(minaxp, name)
    for module in (model, classified, rejected, baseline, explain, oracle, calibration, dataio, cli):
        for name, value in vars(module).items():
            if inspect.isfunction(value) and not name.startswith("_"):
                yield f"{module.__name__}.{name}", value
    for name, value in vars(minaxp.CoverProblem).items():
        if inspect.isfunction(value):
            yield f"CoverProblem.{name}", value


def test_no_public_callable_takes_a_tolerance():
    # MINAXP_EPSILON, read once into DEFAULT_EPSILON, is the one tolerance.
    checked = 0
    takes_eps = []
    for name, value in _public_callables():
        try:
            parameters = inspect.signature(value).parameters
        except ValueError:  # exception classes have no signature to read
            continue
        checked += 1
        if "eps" in parameters:
            takes_eps.append(name)
    assert checked > 100
    assert takes_eps == []
