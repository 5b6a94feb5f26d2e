"""The lazy package exports (:mod:`repro._lazy`) behave like eager ones.

Each lazy package keeps a literal ``__all__`` and an ``_EXPORTS`` table
of ``{home module: names}``; a name is imported from its home module the
first time it is asked for.
"""

import importlib

import pytest

PACKAGES = ["repro", "repro.core", "repro.stats", "repro.markov", "repro.chains"]

#: ``__all__`` names a package defines itself rather than re-exports.
OWN = {"repro": {"__version__"}}


def exports(package):
    return [
        (name, home)
        for home, names in package._EXPORTS.items()
        for name in names
    ]


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_is_its_home_modules_object(package):
    for name, home in exports(package):
        assert getattr(package, name) is getattr(
            importlib.import_module(home), name
        ), name


def test_export_table_equals_all(package):
    names = [name for name, _ in exports(package)]
    assert len(names) == len(set(names)), "a name is exported twice"
    own = OWN.get(package.__name__, set())
    assert set(names) | own == set(package.__all__)
    assert len(package.__all__) == len(set(package.__all__))


def test_dir_lists_every_export(package):
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name), name


def test_unknown_name_raises_attribute_error_naming_the_package(package):
    with pytest.raises(AttributeError, match=f"'{package.__name__}'.*'nope'"):
        package.nope
    assert not hasattr(package, "nope")


def test_submodules_still_import_through_the_package():
    # ``from pkg import submodule`` asks __getattr__ first; an
    # AttributeError there must let the import system load the module.
    from repro.core import sweep
    from repro.markov import properties

    assert sweep.__name__ == "repro.core.sweep"
    assert properties.__name__ == "repro.markov.properties"
