"""Tests for the paper-claims checker."""

import pytest

from repro.experiments import claims


@pytest.fixture(scope="module")
def report():
    # Three representative benchmarks keep the checker fast under test.
    return claims.run(
        scale=0.3, benchmarks=("groff", "real_gcc", "verilog")
    )


class TestClaimsChecker:
    def test_every_registered_claim_evaluated(self, report):
        assert len(report.results) == len(claims.CLAIMS)
        names = {result.name for result in report.results}
        assert names == set(claims.CLAIMS)

    def test_all_claims_pass_on_default_benchmarks(self, report):
        failed = [r.name for r in report.results if not r.passed]
        assert failed == []

    def test_details_are_informative(self, report):
        for result in report.results:
            assert "holds on" in result.detail
            assert result.source

    def test_render_shows_verdicts(self, report):
        text = claims.render(report)
        assert "Paper-claims checklist (scale 0.3)" in text
        assert "PASS" in text
        assert "ALL CLAIMS REPRODUCED" in text

    def test_render_flags_failures(self):
        from repro.experiments.claims import ClaimResult, ClaimsReport

        report = ClaimsReport(
            results=[
                ClaimResult(
                    name="x", source="s", passed=False, detail="holds on 0/6"
                )
            ]
        )
        text = claims.render(report)
        assert "FAIL" in text
        assert "SOME CLAIMS FAILED" in text

    def test_runner_integration(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "claims" in EXPERIMENTS
