"""The package's names are its modules' ``__all__``, re-exported as they
are."""

import inspect

import obfgame
from obfgame import dp, erm, errors, mfg, model, stackelberg

MODULES = (dp, erm, errors, mfg, model, stackelberg)


def test_names_are_the_union_of_the_modules_all():
    public = {name for name, value in vars(obfgame).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set().union(*(module.__all__ for module in MODULES))
    assert {"INDIFFERENCE_TOL", "BOUNDARY_BAND", "ObfGameError"} <= public


def test_each_name_is_its_modules_object():
    assert obfgame.pbne_solve is obfgame.stackelberg.pbne_solve
    for module in MODULES:
        for name in module.__all__:
            assert getattr(obfgame, name) is getattr(module, name), name
