"""``shared.Memo``, the table that every kernel cache is: a value is computed
on its first lookup and kept, and a lookup that raises keeps nothing."""

import pytest

from hopfforge.shared import Memo


def test_a_fill_that_raises_keeps_nothing():
    calls = []

    def fill(key):
        calls.append(key)
        if len(calls) == 1:
            raise ValueError(key)
        return key * 2

    memo = Memo(fill)
    with pytest.raises(ValueError):
        memo[3]
    assert 3 not in memo and len(memo) == 0
    assert memo[3] == 6 and calls == [3, 3]
    assert memo[3] == 6 and calls == [3, 3]  # now kept


def test_a_fill_that_reads_its_own_memo_fills_both_keys():
    calls = []

    def fill(n):
        calls.append(n)
        return 1 if n == 0 else n * memo[n - 1]

    memo = Memo(fill, {0: 1})
    assert memo[2] == 2
    assert dict(memo) == {0: 1, 1: 1, 2: 2}
    assert calls == [2, 1]  # the initial entry is never filled
    assert memo[3] == 6 and calls == [2, 1, 3]
