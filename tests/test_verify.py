"""Every self-check in the property suite must pass individually."""

import pytest

from factored_pg import verify
from factored_pg.verify import CHECKS, run_all


@pytest.mark.parametrize("check", CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    result = check()
    assert result.passed, result.line()


def test_run_all_reports_every_check(monkeypatch):
    # stubs, so the suite itself runs once (above), not again here
    def passes():
        return verify.CheckResult("passes", True, "ok")

    def fails():
        return verify.CheckResult("fails", False, "off by one")

    def raises():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "CHECKS", (passes, fails, raises))
    lines = [res.line() for res in run_all()]
    assert lines == ["PASS passes: ok", "FAIL fails: off by one",
                     "FAIL raises: raised RuntimeError('boom')"]
