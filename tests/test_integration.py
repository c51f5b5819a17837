"""End-to-end integration tests: the analysis harness runs a full
experiment end-to-end, and the advisor answers from the whole stack.
"""


class TestHarnessEndToEnd:
    def test_fig3e_experiment_runs_and_reports(self):
        from repro import run_experiment
        result, text = run_experiment("fig3e")
        assert "fbfft" in text
        # The stride-1 row carries fbfft; the others show it missing.
        assert "-" in text

    def test_advisor_end_to_end(self):
        from repro import Advisor, BASE_CONFIG
        rec = Advisor().recommend(BASE_CONFIG)
        assert rec.best == "fbfft"
        assert len(rec.candidates) == 7
