"""What is a pure function of its content, built once per process.

The presentation parsed from a file's text, an ``Engine`` on a presentation at
some cutoffs, the ``HopfOps`` of an engine and the ``Pairing`` of two HopfOps
under a seed and a convention depend on nothing but those inputs.  Their
caches fill only with values that the same inputs give again, and no check
mutates them.  So each is built by a factory that keeps what it built for the
rest of the process, keyed by that content: texts, presentations and cutoffs
by value, engines and HopfOps by identity, since they come from these
factories too.  A file rewritten under the same path has a new text, and so a
new presentation, engine, HopfOps and pairing.

Each factory keeps at most ``KEEP`` values and drops the least recently used
first.  Between two lookups of one key, the benchmark's ``catalog`` command
list looks up at most 12 other engines, 13 other HopfOps and 6 other texts,
and its ``double`` list at most 5 other pairings, so there every reuse finds
its value.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["KEEP", "shared", "clear"]

KEEP = 16

_FACTORIES: list = []


def shared(fn):
    """``fn`` with its values kept per process, keyed by its arguments, at
    most KEEP of them.  A call that raises keeps nothing."""
    kept = lru_cache(maxsize=KEEP)(fn)
    _FACTORIES.append(kept)
    return kept


def clear() -> None:
    """Forget every kept value, as a fresh process would."""
    for kept in _FACTORIES:
        kept.cache_clear()
