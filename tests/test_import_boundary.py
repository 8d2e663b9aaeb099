"""The simulator is a reader: who may import ``repro.bsp``, and what it may import.

``repro.bsp`` prices metered runs for the figure scripts and hosts the TLV
baseline's substrate.  The product — engine, apps, session, service, CLI —
must not depend on it, and it may know of the product only the run record
it reads (``repro.core.results``) and the wire model (``repro.core.wire``).
Walks the sources with ``ast``, so imports under ``TYPE_CHECKING`` or
inside functions count too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

MAY_IMPORT_BSP = {"baselines/tlv.py", "baselines/tlp.py"}
BSP_MAY_IMPORT = {"repro.core.results", "repro.core.wire"}


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


def test_only_the_bsp_package_and_its_baselines_import_bsp():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "bsp" or relative.as_posix() in MAY_IMPORT_BSP:
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
