"""Tests for EXPLAIN and the interactive shell."""

import io

import pytest

from repro.cli import MediatorShell, _build_demo, main
from repro.core.explain import explain, explain_last_execution
from repro.errors import ReproError


@pytest.fixture
def shell(m1_mediator) -> MediatorShell:
    return MediatorShell(m1_mediator, stdin=io.StringIO(), stdout=io.StringIO())


def output_of(shell: MediatorShell) -> str:
    return shell.stdout.getvalue()


def _identity(plan) -> tuple[str, str]:
    """A plan as explain renders its rules and adornments lines."""
    return plan.origin, ", ".join(plan.adornments())


def _chosen_entry(report: str) -> tuple[str, str]:
    [entry] = [e for e in report.split("\n\n") if "<== chosen" in e]
    lines = entry.splitlines()
    rules = next(line for line in lines if line.startswith("  rules: "))
    adornments = next(line for line in lines if line.startswith("  adornments: "))
    return rules[len("  rules: ") :], adornments[len("  adornments: ") :]


class TestExplain:
    def test_lists_all_plans(self, m1_mediator):
        report = explain(m1_mediator, "?- m(a, C).")
        assert "candidate plan(s)" in report
        assert report.count("Plan ") >= 4
        assert "adornments:" in report

    def test_untrained_notes_missing_statistics(self, m1_mediator):
        report = explain(m1_mediator, "?- m(a, C).")
        assert "no plan could be priced" in report

    def test_trained_shows_winner_and_vectors(self, m1_mediator):
        m1_mediator.train(["?- m(a, C)."])
        for plan in m1_mediator.plans("?- m(a, C)."):
            m1_mediator.query("?- m(a, C).", plan=plan)
        report = explain(m1_mediator, "?- m(a, C).")
        assert "<== chosen" in report
        assert "cost(" in report
        assert "Tf=" in report

    def test_chosen_mark_is_the_plan_query_runs(self, m1_mediator):
        m1_mediator.train(["?- m(a, C)."])
        for plan in m1_mediator.plans("?- m(a, C)."):
            m1_mediator.query("?- m(a, C).", plan=plan)
        for objective, mode in (("all", "all"), ("first", "interactive")):
            report = explain(m1_mediator, "?- m(a, C).", objective=objective)
            result = m1_mediator.query("?- m(a, C).", mode=mode)
            assert _chosen_entry(report) == _identity(result.chosen)

    def test_chosen_mark_beyond_truncated_enumeration(self, wide_union_mediator):
        """Rule b is cheaper but enumeration stops inside rule a's 120
        orderings: the chosen entry is the search's rule-b plan, listed
        after the enumerated candidates."""
        mediator = wide_union_mediator(a_ms=50.0, b_ms=1.0)
        for rule in "ab":
            for index in range(5):
                mediator.query(f"?- in(O, d:{rule}{index}()).", optimize=False)
        report = explain(mediator, "?- p(X).")
        result = mediator.query("?- p(X).")
        assert "d:b0()" in result.chosen.origin
        assert _chosen_entry(report) == _identity(result.chosen)
        assert "Plan 65 <== chosen (found by search" in report

    def test_objective_first(self, m1_mediator):
        m1_mediator.train(["?- m(a, C)."])
        report = explain(m1_mediator, "?- m(a, C).", objective="first")
        assert "time to first answer" in report

    def test_post_mortem(self, m1_mediator):
        result = m1_mediator.query("?- m(a, C).")
        text = explain_last_execution(result)
        assert "T_first" in text and "T_all" in text
        assert "source call" in text


class TestShellCommands:
    def test_query_round_trip(self, shell):
        shell.handle("?- m(a, C).")
        out = output_of(shell)
        assert "x" in out and "y" in out
        assert "EXECUTED" in out

    def test_add_rule_then_query(self, shell):
        shell.handle("twice(C) :- m(a, C).")
        shell.handle("?- twice(C).")
        assert "rule added." in output_of(shell)

    def test_plans_command(self, shell):
        shell.handle(":plans ?- m(a, C).")
        assert "Plan[" in output_of(shell)

    def test_explain_command(self, shell):
        shell.handle(":explain ?- m(a, C).")
        assert "EXPLAIN" in output_of(shell)

    def test_stats_command(self, shell):
        shell.handle("?- m(a, C).")
        shell.handle(":stats")
        out = output_of(shell)
        assert "DCSM:" in out and "CIM:" in out

    def test_cim_toggle(self, shell):
        shell.handle(":cim on")
        shell.handle("?- m(a, C).")
        shell.handle("?- m(a, C).")
        assert shell.mediator.cim.stats.exact_hits > 0
        shell.handle(":cim off")
        assert "CIM routing off." in output_of(shell)

    def test_invariant_command(self, shell):
        shell.handle(":invariant d1:p_fb(X) = d1:p_fb(X).")
        assert "invariant added." in output_of(shell)

    def test_parse_error_reported_not_raised(self, shell):
        shell.handle("?- m(a C).")
        assert "error:" in output_of(shell)

    def test_unknown_command(self, shell):
        shell.handle(":frobnicate")
        assert "unknown command" in output_of(shell)

    def test_help(self, shell):
        shell.handle(":help")
        assert ":demo" in output_of(shell)

    def test_comments_and_blank_lines_ignored(self, shell):
        shell.handle("")
        shell.handle("% comment")
        shell.handle("# comment")
        assert output_of(shell) == ""

    def test_save_and_load_stats(self, shell, tmp_path):
        shell.handle("?- m(a, C).")
        path = str(tmp_path / "stats.json")
        shell.handle(f":save-stats {path}")
        shell.handle(f":load-stats {path}")
        out = output_of(shell)
        assert "saved" in out and "loaded" in out

    def test_domains_listing(self, shell):
        shell.handle(":domains")
        out = output_of(shell)
        assert "d1" in out and "p_ff" in out

    def test_load_program_file(self, shell, tmp_path):
        path = tmp_path / "extra.med"
        path.write_text("extra(X) :- m(a, X).\n")
        shell.handle(f":load {path}")
        shell.handle("?- extra(X).")
        assert "loaded" in output_of(shell)


class TestShellLifecycle:
    def test_run_until_quit(self, m1_mediator):
        stdin = io.StringIO("?- m(a, C).\n:quit\n")
        shell = MediatorShell(m1_mediator, stdin=stdin, stdout=io.StringIO())
        shell.run()
        assert "bye." in output_of(shell)
        assert not shell.running

    def test_run_until_eof(self, m1_mediator):
        shell = MediatorShell(m1_mediator, stdin=io.StringIO(""), stdout=io.StringIO())
        shell.run()  # terminates on EOF without error

    def test_demo_command(self):
        shell = MediatorShell(stdin=io.StringIO(), stdout=io.StringIO())
        shell.handle(":demo rope")
        shell.handle("?- actors(A).")
        out = output_of(shell)
        assert "demo 'rope' loaded" in out
        assert "stewart" in out

    def test_demo_logistics(self):
        shell = MediatorShell(stdin=io.StringIO(), stdout=io.StringIO())
        shell.handle(":demo logistics")
        assert "ingres" in output_of(shell)

    def test_unknown_demo(self):
        with pytest.raises(ReproError):
            _build_demo("atlantis")


class TestMainEntry:
    def test_main_with_demo_and_quit(self, monkeypatch, capsys):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(":quit\n"))
        code = main(["--demo", "rope"])
        assert code == 0
        assert "bye." in capsys.readouterr().out
