"""No public API whose only caller is a test: every public module-level
function or class in `src/cellsearch` is referenced from the package itself
or from the bench scripts in `perfbench`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cellsearch").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py"))

# the replay that criterion 4, criterion 5's bandit and criterion 6 are
# built on: a fixed-action rollout the search itself never needs
TEST_ONLY = {"reinforce.follow"}

# "module.name", the form in which perfbench's tracer looks functions up
_DOTTED = re.compile(r"([a-z_]+)\.([A-Za-z_]\w*)")


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name


def _package_modules(tree):
    """Local name -> package module, for each module the file imports
    whole (`from . import m`, `from cellsearch import m`)."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "cellsearch"):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
    return modules


def _bound_names(top):
    """Names a top-level definition binds itself: arguments, assignment
    and loop targets, nested definitions."""
    bound = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif node is not top and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return bound


def _references(tree, own=None):
    """(module, name) for every reference that resolves to a package
    module: `m.name` through an imported module `m`, `from .m import
    name`, a string "m.name", and, in module `own`, a bare name outside
    its own top-level definition that the definition does not bind."""
    modules = _package_modules(tree)
    for top in tree.body:
        owner = getattr(top, "name", None)
        local = _bound_names(top) if owner else set()
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    yield modules[node.value.id], node.attr
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.removeprefix("cellsearch.")
                for alias in node.names:
                    yield source, alias.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _DOTTED.fullmatch(node.value)
                if match:
                    yield match.groups()
            elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id != owner and node.id not in local:
                    yield own, node.id


def _unused(package, callers):
    """Public names of `package` (module -> source) that nothing in
    `package` or `callers` (sources) references."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    refs = set()
    for module, tree in trees.items():
        refs.update(_references(tree, module))
    for source in callers:
        refs.update(_references(ast.parse(source)))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if (module, name) not in refs
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {path.stem: path.read_text() for path in PACKAGE}
    callers = [path.read_text() for path in CALLERS]
    assert _unused(package, callers) == sorted(TEST_ONLY)


def test_a_name_counts_only_where_it_resolves_to_its_module():
    package = {
        "layout": "def size(x):\n    return 0\n\n\ndef used():\n    return size(1)\n",
        "model": (
            "from . import layout\n\n\n"
            "def fit(a):\n    return a.size + layout.used()\n\n\n"
            "def score(size):\n    return size\n"
        ),
        "cli": "from .model import fit\n\n\ndef main():\n    fit(1)\n",
    }
    # layout.size is called by layout.used; model.score by nobody, though
    # `a.size` and the argument `size` share a name with layout.size
    assert _unused(package, []) == ["cli.main", "model.score"]
    package["layout"] = "def size(x):\n    return 0\n\n\ndef used():\n    return 1\n"
    assert _unused(package, ["import numpy as np\nnp.zeros(3).size\n"]) == [
        "cli.main", "layout.size", "model.score"
    ]
    assert _unused(package, ["from cellsearch import cli as c, model\nc.main(model.score)\n"]) == [
        "layout.size"
    ]
    assert _unused(package, ['TRACED = ("layout.size", "cli.main", "model.score")']) == []


# random.Random's integer draws; `cellspace.below`'s `getrandbits` rule,
# which `random_spec` writes inline, is the package's one integer-draw
# path, and `rng.random()` its one float draw
_INTEGER_DRAWS = {"choice", "choices", "randrange", "randint", "sample", "shuffle"}


def _integer_draws(source):
    """(line, method) for every read of an `_INTEGER_DRAWS` attribute, so a
    call through a bound alias (`choice = rng.choice`) is found too."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in _INTEGER_DRAWS
    ]


def test_integer_draws_go_through_below():
    found = {
        path.name: draws for path in PACKAGE if (draws := _integer_draws(path.read_text()))
    }
    assert found == {}


def test_the_integer_draw_scan_sees_every_form():
    source = (
        "def f(rng, xs):\n"
        "    uniform, choice = rng.random, rng.choice\n"
        "    return rng.randrange(3) + uniform(), choice(xs), rng.getrandbits(2)\n"
    )
    assert sorted(_integer_draws(source)) == [(2, "choice"), (3, "randrange")]
    assert _integer_draws("import random\nrandom.Random(1).shuffle([])\n") == [(2, "shuffle")]


def _catch_alls(source):
    """Line of every bare `except:` and of every handler that names
    Exception or BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                kind is None or isinstance(kind, ast.Name) and kind.id in ("Exception", "BaseException")
                for kind in caught
            ):
                lines.append(node.lineno)
    return lines


def test_no_handler_catches_everything():
    # a read failure becomes a ParseError through `errors.parsing`, which
    # names the failures it turns; a catch-all would turn the program's own
    # faults into parse errors too
    found = {path.name: lines for path in PACKAGE if (lines := _catch_alls(path.read_text()))}
    assert found == {}


def test_the_catch_all_scan_sees_every_form():
    source = "".join(
        f"try:\n    pass\nexcept{kind}:\n    pass\n"
        for kind in ("", " Exception", " (KeyError, BaseException) as exc", " (KeyError, ValueError)")
    )
    assert _catch_alls(source) == [3, 7, 11]


# the records the search loop builds on every cycle (cellspace.ModelSpec,
# evolution.Individual, traces.TraceRow): each must be built at tuple cost
_HOT_RECORDS = {"ModelSpec", "Individual", "TraceRow"}


def _slow_builds(source):
    """(class, reason) for each `_HOT_RECORDS` class that gets a generated
    frozen dataclass __init__ (a `dataclass(frozen=True)` without
    `init=False`, or a `__post_init__`) or calls `check_fields` in its body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or node.name not in _HOT_RECORDS:
            continue
        for deco in node.decorator_list:
            options = {
                kw.arg: getattr(kw.value, "value", None)
                for kw in getattr(deco, "keywords", ())
            }
            if options.get("frozen") is True and options.get("init") is not False:
                found.append((node.name, "generated frozen __init__"))
        if any(
            isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
            for item in node.body
        ):
            found.append((node.name, "__post_init__"))
        if any(
            isinstance(call, ast.Call)
            and "check_fields" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(node)
        ):
            found.append((node.name, "check_fields"))
    return found


def test_per_cycle_records_are_built_at_tuple_cost():
    # a frozen dataclass's generated __init__ stores each field through
    # object.__setattr__, and a type check on construction runs on every
    # cycle; ModelSpec stores its fields once in its own __init__, and
    # Individual and TraceRow are named tuples
    sources = {path.name: path.read_text() for path in PACKAGE}
    defined = {
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    assert _HOT_RECORDS <= defined
    found = {name: slow for name, source in sources.items() if (slow := _slow_builds(source))}
    assert found == {}


def test_the_slow_build_scan_sees_every_form():
    source = (
        "@dataclass(frozen=True)\nclass ModelSpec:\n    x: int\n\n\n"
        "@dataclasses.dataclass(frozen=True, init=False)\nclass Individual:\n"
        "    def __post_init__(self):\n        errors.check_fields(self)\n\n\n"
        "class TraceRow(NamedTuple):\n    x: int\n\n\n"
        "@dataclass(frozen=True)\nclass SpaceLimits:\n"
        "    def __post_init__(self):\n        check_fields(self)\n"
    )
    assert _slow_builds(source) == [
        ("ModelSpec", "generated frozen __init__"),
        ("Individual", "__post_init__"),
        ("Individual", "check_fields"),
    ]
