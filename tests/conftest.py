from __future__ import annotations

import pytest

from repfn import BlockSet, TailRule


@pytest.fixture
def s1() -> BlockSet:
    """The running example set: blocks [4,5), [7,8), then doubling with period 3."""
    return BlockSet((4, 5, 7), TailRule(a=3, k=2, i0=0))


@pytest.fixture
def dyadic() -> BlockSet:
    """[1,2) then every other dyadic block: [4,8), [16,32), ..."""
    return BlockSet((1,), TailRule(a=1, k=2, i0=0))


@pytest.fixture
def prefixed() -> BlockSet:
    """[1,3) then [6,12), [24,48), ...: the doubling law holds from i0 = 1 on."""
    return BlockSet((1, 3), TailRule(a=1, k=2, i0=1))
