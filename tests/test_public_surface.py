"""The public surface: every name stochlab exports, and every member of an
exported class, has a reader in the package or in the acceptance battery,
unless an allowlisted reason says why not.  And the noise schedule's
internals are named in noise.py only, and only the complex step enters a
warning filter context."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochlab"

# exported name -> why it is public though no module or acceptance entry calls it
UNCALLED = {
    "refine": "the one-path refinement that the stacked refinement is tested against",
    "iterated_log_eta": "the one-path eta that the models' eta builders are tested against",
    "equilibrium_attraction": "the public form of the attraction estimator the CLI runs",
}

# exported class's member -> why it is public though no module or acceptance
# entry reads it
UNREAD = {
    "InvarianceReport.to_text": "the README quick start prints it, and test_readme runs that",
    "GapDecay.gaps": "test_analyze pins the streamed gaps bit for bit against whole-level "
                     "stepping; ratios are their quotients",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _read_trees():
    """The parsed package modules and acceptance battery."""
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    return [ast.parse(f.read_text()) for f in files + [ROOT / "tests" / "test_acceptance.py"]]


def _referenced():
    """Names read as a Name or an Attribute (never a string), in the package
    modules and the acceptance battery."""
    return {node.id if isinstance(node, ast.Name) else node.attr for tree in _read_trees()
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _own(node):
    """Whether node reads an attribute of self."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
        and node.value.id == "self"


def _read_members():
    """Attribute names read on anything but self, and Class.member for each
    self.member read inside a class body, in the same files as _referenced."""
    trees = _read_trees()
    return ({node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and not _own(node)}
            | {f"{cls.name}.{node.attr}" for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in ast.walk(cls) if _own(node)})


def test_every_export_has_a_caller_or_an_allowlisted_reason():
    exported = _exported()
    assert UNCALLED.keys() <= exported, "allowlisted names the package no longer exports"
    uncalled = exported - _referenced()
    assert uncalled == set(UNCALLED), (
        f"exported without a caller: {sorted(uncalled - set(UNCALLED))}; "
        f"allowlisted but called: {sorted(set(UNCALLED) - uncalled)}")


def _members():
    """Class.member for each public field, method and property of the
    classes stochlab exports."""
    exported = _exported()
    members = set()
    for f in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(f.read_text()).body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                for node in cls.body:
                    name = (node.target.id if isinstance(node, ast.AnnAssign) else
                            node.name if isinstance(node, ast.FunctionDef) else "_")
                    if not name.startswith("_"):
                        members.add(f"{cls.name}.{name}")
    return members


def test_every_member_of_an_exported_class_has_a_reader_or_an_allowlisted_reason():
    """A member counts as read where an attribute of its name is read on
    anything but self, or where its own class reads it as self.member: a
    read of report.tol counts for the tol of every exported class, and one
    of self.tol only for the tol of the class whose body reads it."""
    members = _members()
    assert UNREAD.keys() <= members, "allowlisted members no exported class has"
    read = _read_members()
    unread = {m for m in members if m not in read and m.split(".")[1] not in read}
    assert unread == set(UNREAD), (
        f"members without a reader: {sorted(unread - set(UNREAD))}; "
        f"allowlisted but read: {sorted(set(UNREAD) - unread)}")


# what decides how the noise of a run is laid out in time and drawn
SCHEDULE = {"_normal_rows", "_philox", "_refine_stack", "_refine_scratch", "_brownian_stack",
            "_BLOCK_VALUES"}


def _names(tree):
    """Names a module reads, binds, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name
        elif isinstance(node, ast.FunctionDef):
            yield node.name


def test_the_noise_schedule_is_named_in_noise_only():
    """Ensembles and refinement studies draw their noise through
    noise._noise_pieces; no other module picks blocks, streams or draws."""
    leaks = {f.name: sorted(SCHEDULE & set(_names(ast.parse(f.read_text()))))
             for f in sorted(PACKAGE.glob("*.py")) if f.name != "noise.py"}
    assert {name: found for name, found in leaks.items() if found} == {}


def _readers(names):
    """(module, top-level definition, name) for each read of one of names in
    the package, as a Name or as an Attribute."""
    found = set()
    for f in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(f.read_text()).body:
            for node in ast.walk(top):
                read = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if read in names:
                    found.add((f.name, getattr(top, "name", None), read))
    return found


def test_only_the_fuser_reads_the_advance_table_or_calls_exec():
    """Every scheme steps through integrate._fused, which traces its advance
    function once; nothing else in the package picks an advance or runs
    generated source."""
    assert _readers({"_ADVANCE", "exec"}) == {("integrate.py", "_fused", "_ADVANCE"),
                                               ("integrate.py", "_fused", "exec")}


def test_only_the_complex_step_enters_a_warning_filter_context():
    """Entering warnings.catch_warnings() resets every module's warning
    registry, so a warning shown once per source line shows again; only
    vecalg.derivative, which must see a cast inside fn, enters one."""
    assert _readers({"catch_warnings"}) == {("vecalg.py", "derivative", "catch_warnings")}
