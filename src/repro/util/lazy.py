"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that imports everything it re-exports makes every
process that imports the package load every module behind it: for
``repro`` that is the service, the fleet, the overlap scheduler and the
machine simulator, and through them ``asyncio``, ``multiprocessing`` and
``ssl``; for ``repro.core`` the checker, the region extractor and the
pressure limiter, none of which a compile runs.  Every package
``__init__`` in ``repro`` therefore lists its exports in one table and
passes it to :func:`lazy_exports`, which gives the package the
module-level ``__getattr__`` and ``__dir__`` that import an owning
module only when one of its names is first read, so a process loads
what it runs.
"""

import importlib


def lazy_exports(namespace, table):
    """Hooks that resolve a package's exports on first access.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    owning module to the names the package re-exports from it, each
    name listed once.  A name listed under the package itself is one of
    its submodules (``repro.lang`` exports ``ast``).  Returns
    ``(names, __getattr__, __dir__)``:

    * ``names`` — every exported name, in table order;
    * ``__getattr__`` — imports the owning module of an exported name,
      stores the value in ``namespace`` (later reads never come back
      here) and returns it; any other public name is tried as a
      submodule, so ``repro.core`` resolves after a bare
      ``import repro``; anything else raises :class:`AttributeError`;
    * ``__dir__`` — the package's globals plus every exported name.

    An export named like the submodule that owns it
    (``repro.graph.normalize``) is bound at once: importing the
    submodule binds the module under that name, and ``__getattr__``
    would never see the export again.
    """
    package = namespace["__name__"]
    names = [name for exported in table.values() for name in exported]
    owners = {name: module for module, exported in table.items()
              for name in exported}
    for name, owner in owners.items():
        if owner == f"{package}.{name}":
            namespace[name] = getattr(importlib.import_module(owner), name)

    def __getattr__(name):
        owner = owners.get(name)
        if owner is not None:
            if owner == package:
                value = importlib.import_module(f"{package}.{name}")
            else:
                value = getattr(importlib.import_module(owner), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace) | set(owners))

    return names, __getattr__, __dir__
