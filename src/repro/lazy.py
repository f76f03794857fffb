"""Lazy package exports (PEP 562): a package imports a submodule only when
one of the names it exports from there is first used.

A package re-exports its public names through one table instead of
eager ``from .x import ...`` lines, so importing the package, or one of
its submodules, loads no sibling it does not use::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "timing": ("DDR4_3200", "DramTiming"),
        "memo": ("TIMING_MEMO",),
    })

``from repro.dram import DDR4_3200`` then imports ``repro.dram.timing``
and nothing else.  A resolved name is bound in the package's namespace,
so only its first use goes through ``__getattr__``.
"""

import importlib


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``.

    ``exports`` maps each submodule's name to the names the package
    exports from it; a submodule that the package exports as itself lists
    its own name.  Any other name raises :class:`AttributeError` naming it.
    """
    package = namespace["__name__"]
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
