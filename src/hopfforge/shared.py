"""What is a pure function of its content, built once per process.

The presentation parsed from a file's text, an ``Engine`` on a presentation at
some cutoffs, the ``HopfOps`` of an engine, the ``Pairing`` of two HopfOps
under a seed and a convention, and the pairing conventions locked for two
HopfOps at a degree depend on nothing but those inputs.  Their caches fill
only with values that the same inputs give again, and no check mutates them.
So each is built by a factory that keeps what it built for the rest of the
process, keyed by that content: texts, presentations and cutoffs by value,
engines and HopfOps by identity, since they come from these factories too.  A
file rewritten under the same path has a new text, and so a new presentation,
engine, HopfOps, pairing and lock.

Each factory keeps at most ``KEEP`` values and drops the least recently used
first.  Between two lookups of one key, the benchmark's ``catalog`` command
list looks up at most 12 other engines, 13 other HopfOps and 6 other texts,
and its ``double`` list at most 5 other pairings and no other lock, so there
every reuse finds its value.

Inside those objects, every table that the kernel fills on first lookup is a
``Memo``: products, coproducts and antipodes of monomials, pairing values and
rows, the double's 3-leg tensors.  A memo lives as long as its owner.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["KEEP", "Memo", "shared", "clear"]

KEEP = 16

_FACTORIES: list = []


class Memo(dict):
    """{key: fill(key)}, each value computed on its first lookup.  A fill that
    raises keeps nothing; a fill may look up other keys of its own memo."""

    __slots__ = ("fill",)

    def __init__(self, fill, initial=()):
        super().__init__(initial)
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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
