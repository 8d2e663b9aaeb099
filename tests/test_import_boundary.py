"""What ``src/`` may import, and what it may hold.

The simulator is a reader: ``repro.bsp`` prices metered runs for the
figure scripts.  No ``src/`` module outside it imports it — the engine
and the TLV/TLP baselines meter onto ``repro.core.results`` records — and
it may know of the product only that run record.

``src/`` holds only what a surface reaches: every function, class and
method is reached from the CLI, the session facade, the service, a
benchmark or an example, or is listed in ``ALLOWED`` with the reason it
stays.  Code only the tests call lives in ``tests/``.

Both walk the sources with ``ast``, so imports under ``TYPE_CHECKING`` or
inside functions count too.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

BSP_MAY_IMPORT = {"repro.core.results"}


def imported_modules(path: Path) -> set[str]:
    """Absolute dotted names of every module ``path`` imports from, plus
    ``package.name`` for each ``from package import name`` (the name may be
    a submodule)."""
    package = ("repro", *path.relative_to(PACKAGE).parent.parts)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            if node.module:
                base.append(node.module)
            module = ".".join(base)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def test_nothing_in_src_imports_bsp():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "bsp":
            continue
        reaching_in = sorted(
            m for m in imported_modules(path) if within(m, "repro.bsp")
        )
        if reaching_in:
            offenders[relative.as_posix()] = reaching_in
    assert offenders == {}


def test_bsp_reads_only_the_run_record_and_the_wire_model():
    offenders = {}
    for path in sorted((PACKAGE / "bsp").glob("*.py")):
        outside = sorted(
            module
            for module in imported_modules(path)
            if within(module, "repro")
            and not within(module, "repro.bsp")
            and not any(
                within(module, allowed) or within(allowed, module)
                for allowed in BSP_MAY_IMPORT
            )
        )
        if outside:
            offenders[path.name] = outside
    assert offenders == {}


# -- reachability --------------------------------------------------------------
#: The surfaces: ``src/repro`` modules whose top level a user runs, and the
#: scripts (under the repository root) that are run whole.
SURFACE_MODULES = ("cli.py", "__main__.py", "session/*.py", "service/*.py")
SURFACE_SCRIPTS = ("benchmarks/**/*.py", "examples/*.py")

#: Definitions no surface reaches, kept on purpose (``path::qualname``,
#: path under ``src/repro``).  What an entry reaches needs no entry.
ALLOWED = {
    **{f"graph/generators.py::{name}": "public graph constructor of repro.graph"
       for name in ("complete_graph", "cycle_graph", "gnm_random_graph",
                    "graph_from_edges", "grid_graph", "path_graph",
                    "powerlaw_graph", "star_graph")},
    "graph/io.py::write_edge_list": "writes the edge-list format every surface reads",
    "isomorphism/vf2.py::distinct_embeddings": "VF2 baseline: distinct matched vertex sets",
    "isomorphism/vf2.py::find_isomorphisms": "VF2 baseline: every pattern-to-graph mapping",
    "baselines/bron_kerbosch.py::enumerate_maximal_cliques":
        "centralized maximal-clique baseline (the paper's Mace)",
    "session/miner.py::Miner.maximal_cliques": "the facade's maximal-cliques query",
    "session/miner.py::Miner.compute":
        "the facade's escape hatch: any Computation on a warm session (README)",
    "session/query.py::ComputeQuery": "the query Miner.compute returns",
    "session/query.py::Query.deadline": "the facade's wall-clock budget option",
    "session/query.py::Query.spec": "the validated QuerySpec a fluent query describes",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BINDING = (ast.Assign, ast.AnnAssign, ast.AugAssign)


FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_in(function) -> set[str]:
    """The bare names ``function`` binds for itself: its arguments, its
    assignment, loop and ``with`` targets and its comprehension variables
    (nested functions and classes bind for themselves), less the names it
    declares ``global`` or ``nonlocal``."""
    args = function.args
    bound = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg}
    declared = set()
    body = function.body if isinstance(function.body, list) else [function.body]
    pending = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, (*FUNCTION, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))
    return bound - declared


def names_in(nodes) -> set[str]:
    """Every identifier ``nodes`` load or store, attribute names included,
    less bare names bound in an enclosing function: a local, not the
    definition it shares a name with."""
    found = set()
    pending = [(tree, frozenset()) for tree in nodes]
    while pending:
        node, local = pending.pop()
        if isinstance(node, ast.Name):
            if node.id not in local:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        if isinstance(node, FUNCTION):
            # Decorators, defaults and annotations run in the enclosing
            # scope; only the body sees the function's own names.
            inner = local | bound_in(node)
            body = node.body if isinstance(node.body, list) else [node.body]
            pending.extend(
                (child, inner if any(child is stmt for stmt in body) else local)
                for child in ast.iter_child_nodes(node)
            )
        else:
            pending.extend((child, local) for child in ast.iter_child_nodes(node))
    return found


def class_level(cls: ast.ClassDef) -> list:
    """What runs when a class statement does: its bases, its decorators and
    its body, less the bodies of its own defs."""
    runs = [*cls.bases, *cls.keywords, *cls.decorator_list]
    for stmt in cls.body:
        runs.extend(stmt.decorator_list if isinstance(stmt, DEFINITION) else [stmt])
    return runs


def reachability(repo: Path, allowed) -> tuple[list[str], list[str]]:
    """``(unreached, stale)``: the ``src/repro`` definitions no surface
    reaches that ``allowed`` does not list, and the ``allowed`` entries that
    are gone or reached.  A fixpoint over names: a top-level definition is
    reached when its name appears in reached code, a method when its class
    is reached and its name appears (dunders with the class alone); a bare
    name an enclosing function binds is a local and appears as nothing.  A
    module-level binding is reached with its name, the rest of a module's
    top level always.  Names are not resolved, so the walk over-approximates
    and never flags live code."""
    package = repo / "src" / "repro"
    defs, bindings, reached_code = {}, [], []

    def scan(body, prefix, owner, surface):
        for stmt in body:
            if isinstance(stmt, DEFINITION):
                key = prefix + stmt.name
                defs[key] = (stmt, owner)
                if isinstance(stmt, ast.ClassDef):
                    scan(stmt.body, key + ".", key, False)
            elif owner is not None or isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(stmt, (ast.If, ast.Try)):
                if isinstance(stmt, ast.If):
                    reached_code.append(stmt.test)
                for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", ()),
                              *(handler.body for handler in getattr(stmt, "handlers", ()))):
                    scan(block, prefix, None, surface)
            elif isinstance(stmt, BINDING) and not surface:
                targets = getattr(stmt, "targets", None) or [stmt.target]
                value = [stmt.value] if stmt.value else []
                bindings.append((names_in(targets), names_in(value)))
            else:
                reached_code.append(stmt)

    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        surface = any(relative.match(pattern) for pattern in SURFACE_MODULES)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scan(tree.body, f"{relative.as_posix()}::", None, surface)
    for pattern in SURFACE_SCRIPTS:
        for path in repo.glob(pattern):
            reached_code.append(ast.parse(path.read_text(encoding="utf-8")))

    def unreached(seeds) -> set[str]:
        reached, names = set(), names_in(reached_code)
        pending = [key for key in seeds if key in defs]
        while True:
            for key in pending:
                node, _ = defs[key]
                reached.add(key)
                is_class = isinstance(node, ast.ClassDef)
                names |= names_in(class_level(node) if is_class else [node])
            fresh = set().union(*(used for bound, used in bindings if bound & names))
            fresh -= names
            names |= fresh
            pending = [
                key for key, (node, owner) in defs.items()
                if key not in reached and (owner is None or owner in reached)
                and (node.name in names or owner and node.name.startswith("__")
                     and node.name.endswith("__"))
            ]
            if not pending and not fresh:
                return defs.keys() - reached

    orphans = unreached(())
    stale = sorted(key for key in allowed if key not in orphans)
    return sorted(unreached(allowed) - set(allowed)), stale


def test_src_holds_only_what_a_surface_reaches():
    unreached, stale = reachability(REPO, ALLOWED)
    assert unreached == [], "reached only from tests: move it to tests/, or delete it"
    assert stale == [], "ALLOWED lists a definition that is gone or now reached"


def synthetic(root: Path, files: dict[str, str]) -> Path:
    """A repository at ``root`` holding ``files`` (paths under it)."""
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


RUNNER_TREE = {
    "src/repro/cli.py": "from .lib import main\n\nmain()\n",
    "src/repro/lib.py": (
        "HANDLERS = {'run': RUNNER}\n"
        "RUNNER = Runner\n"
        "def main():\n    return HANDLERS['run']().run()\n"
        "class Runner:\n"
        "    def __init__(self):\n        self.n = 1\n"
        "    def run(self):\n        return self.n\n"
        "    def test_only_method(self):\n        return 2\n"
        "def test_only():\n    return 3\n"
        "def public():\n    return helper()\n"
        "def helper():\n    return 4\n"
    ),
}

#: ``case: (files, allowed, (unreached, stale))`` on a synthetic tree, one
#: rule of the gate each.
GATE_CASES = {
    # A test-only function or method fails; an allowlisted def, and what it
    # calls, passes.
    "test-only-def-fails": (
        RUNNER_TREE, {"lib.py::public": "kept on purpose"},
        (["lib.py::Runner.test_only_method", "lib.py::test_only"], []),
    ),
    # An entry that is gone, or that a surface reaches, is stale.
    "stale-entry-fails": (
        RUNNER_TREE,
        dict.fromkeys(["lib.py::public", "lib.py::test_only", "lib.py::main",
                       "lib.py::gone"], ""),
        (["lib.py::Runner.test_only_method"], ["lib.py::gone", "lib.py::main"]),
    ),
    "tests-are-no-surface": ({
        "src/repro/cli.py": "from .lib import used\nused()\n",
        "src/repro/lib.py": "def used():\n    pass\ndef only_tested():\n    pass\n",
        "tests/test_lib.py": "from repro.lib import only_tested\nonly_tested()\n",
    }, {}, (["lib.py::only_tested"], [])),
    "benchmarks-and-examples-are-surfaces": ({
        "src/repro/lib.py": ("def benched():\n    pass\ndef shown():\n    pass\n"
                             "def orphan():\n    pass\n"),
        "benchmarks/spine/bench.py": "from repro.lib import benched\nbenched()\n",
        "examples/demo.py": "def main():\n    from repro.lib import shown\n    shown()\n",
    }, {}, (["lib.py::orphan"], [])),
    "dunders-come-with-their-class": ({
        "src/repro/cli.py": "from .lib import Box\nBox()\n",
        "src/repro/lib.py": ("class Box:\n"
                             "    def __init__(self):\n        pass\n"
                             "    def __len__(self):\n        return 0\n"
                             "    def unused(self):\n        pass\n"),
    }, {}, (["lib.py::Box.unused"], [])),
    "methods-need-their-class": ({
        "src/repro/cli.py": "import sys\nsys.stdout.write('')\n",
        "src/repro/lib.py": "class Writer:\n    def write(self, text):\n        pass\n",
    }, {}, (["lib.py::Writer", "lib.py::Writer.write"], [])),
    "bindings-reach-only-through-their-name": ({
        "src/repro/cli.py": "from .lib import TABLE\nTABLE['a']()\n",
        "src/repro/lib.py": ("TABLE = {'a': handler}\nSPARE = {'b': spare}\n"
                             "def handler():\n    pass\ndef spare():\n    pass\n"),
    }, {}, (["lib.py::spare"], [])),
    "surface-bindings-run": ({
        "src/repro/session/run.py": "from ..lib import go\nDEFAULT = go\n",
        "src/repro/lib.py": "def go():\n    pass\n",
    }, {}, ([], [])),
    # A bare name an enclosing function binds (argument, assignment
    # target, comprehension variable, closed-over local) is that local,
    # not the definition it shares a name with; an attribute, or a
    # default value (it runs in the enclosing scope), still reaches.
    "function-locals-reach-nothing": ({
        "src/repro/cli.py": "from .lib import Stepper, run\nrun(Stepper())\n",
        "src/repro/lib.py": (
            "class Stepper:\n"
            "    def step(self):\n        return ()\n"
            "    def survivors(self):\n        pass\n"
            "    def member_masks(self):\n        pass\n"
            "    def accepting(self):\n        pass\n"
            "def helper():\n    pass\n"
            "def loader():\n    pass\n"
            "def run(stepper, survivors=(), helper=helper):\n"
            "    member_masks = stepper.step()\n"
            "    loader = helper\n"
            "    def inner():\n        return loader()\n"
            "    return [accepting for accepting in survivors], member_masks, inner()\n"
        ),
    }, {}, (["lib.py::Stepper.accepting", "lib.py::Stepper.member_masks",
             "lib.py::Stepper.survivors", "lib.py::loader"], [])),
    "top-level-if-and-try-are-walked": ({
        "src/repro/cli.py": "from .lib import fast, fallback\nfast()\nfallback()\n",
        "src/repro/lib.py": ("if probe():\n    def fast():\n        pass\n"
                             "else:\n    def slow():\n        pass\n"
                             "try:\n    import missing\n"
                             "except ImportError:\n    def fallback():\n        pass\n"
                             "def probe():\n    return True\n"),
    }, {}, (["lib.py::slow"], [])),
}


@pytest.mark.parametrize("case", GATE_CASES)
def test_the_reachability_gate_fires(tmp_path, case):
    files, allowed, expected = GATE_CASES[case]
    assert reachability(synthetic(tmp_path, files), allowed) == expected
