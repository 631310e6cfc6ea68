"""The acceptance gate: every reproduction criterion runs at its stated time
limit and must report exact success.  One pass/fail line is printed per
criterion (run with -s to see them inline; they also land in the captured
output on failure)."""

import pytest

from chromaposet import verification

_IDS = [name for _, name, _, _ in verification.CRITERIA]
_NUMBERS = [number for number, _, _, _ in verification.CRITERIA]


@pytest.mark.parametrize("number", _NUMBERS, ids=_IDS)
def test_criterion(number):
    [result] = verification.run_all([number])
    print(result.line())
    assert result.ok, result.line()
    assert result.within_limit, result.line()
