"""Strict parsing of the ``REPRO_*`` environment variables.

Every environment switch of the package goes through :func:`read_env`, so
a misspelt value fails loudly instead of silently picking a default.
"""

import os

_TRUE = ("1", "on", "true")
_FALSE = ("0", "off", "false")


def read_env(name: str, default: bool | int) -> bool | int:
    """The value of environment variable ``name``, or ``default`` when it is
    unset or empty.

    The type of ``default`` picks the syntax: a ``bool`` default reads a
    switch (``1``/``on``/``true`` or ``0``/``off``/``false``, any case), an
    ``int`` default a base-10 integer.  Any other value raises
    :class:`ValueError` naming the variable.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    if isinstance(default, bool):
        if raw.lower() in _TRUE:
            return True
        if raw.lower() in _FALSE:
            return False
        expected = "one of " + "/".join(_TRUE + _FALSE)
    else:
        try:
            return int(raw)
        except ValueError:
            expected = "an integer"
    raise ValueError(f"{name}={raw!r}: expected {expected}")


#: ``REPRO_REFERENCE=1`` forces the reference paths: the timing memo and
#: the controller's hit phase (its per-bankgroup loop over all-hit windows
#: and the closed form within it) are off, so every drain runs its full
#: per-command step for every command.  Results are bit-identical either
#: way.
REFERENCE_ENV_VAR = "REPRO_REFERENCE"


def reference_mode() -> bool:
    """True when ``REPRO_REFERENCE`` forces the reference paths (read on
    every call, so tests and benchmarks can flip it around single runs)."""
    return read_env(REFERENCE_ENV_VAR, False)
