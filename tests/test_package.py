"""The package's names are its modules' ``__all__``, re-exported as they
are, and its source holds no import or private name that nothing reads."""

import ast
import inspect
from pathlib import Path

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


def _trees():
    """Each module of the imported package, by name, as its syntax tree."""
    root = Path(obfgame.__file__).parent
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(root.glob("*.py"))}


def _loaded(tree):
    """The names a tree reads: each name loaded, each attribute, and each
    name its ``__all__`` exports."""
    nodes = list(ast.walk(tree))
    exported = {item.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)}
    names = {node.id for node in nodes if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    attributes = {node.attr for node in nodes
                  if isinstance(node, ast.Attribute)}
    return exported | names | attributes


def test_no_module_imports_a_name_it_does_not_use():
    for name, tree in _trees().items():
        if name == "__init__":  # it star-imports the modules' __all__
            continue
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        assert imported <= _loaded(tree), (name, imported - _loaded(tree))


def test_every_private_top_level_name_is_used():
    trees = _trees()
    used = set().union(*map(_loaded, trees.values()))
    for name, tree in trees.items():
        defined = {target.id for node in tree.body
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target])
                   if isinstance(target, ast.Name)}
        defined |= {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))}
        private = {d for d in defined
                   if d.startswith("_") and not d.startswith("__")}
        assert private <= used, (name, private - used)
