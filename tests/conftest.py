import contextlib
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from randtri import quadrature, report
from randtri.cli import main

# wall-clock deadlines are flaky on shared CI hosts; correctness only
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def full_report(tmp_path_factory):
    """One in-process `randtri report --out` run, shared by the tests.

    Holds the exit code, the printed record, the written file and the
    regions passed to ``nested_quadrature`` during the run, in call order.
    """
    calls = []
    nested = quadrature.nested_quadrature

    def counting(region, *args, **kwargs):
        calls.append(region.name)
        return nested(region, *args, **kwargs)

    out_file = tmp_path_factory.mktemp("report") / "report.json"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "nested_quadrature", counting)
        mp.setattr(report, "nested_quadrature", counting)
        report._unit_square_catalog.cache_clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["report", "--out", str(out_file)])
    return SimpleNamespace(
        code=code,
        record=json.loads(out.getvalue()),
        out_file=out_file,
        calls=calls,
    )
