import json

import numpy as np
import pytest

from sre_lab import cli
from sre_lab.games import Game, MixedProfile
from sre_lab.testgames import make_matching_pennies, make_test_game_gx


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.json"
    path.write_text(json.dumps(make_matching_pennies().to_json()))
    return str(path)


@pytest.fixture
def uniform_profile_file(tmp_path):
    path = tmp_path / "uniform.json"
    profile = MixedProfile.uniform(make_matching_pennies())
    path.write_text(json.dumps(profile.to_json()))
    return str(path)


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps({"atoms": [{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.5}]}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestSolve:
    def test_pennies_lqre_json(self, capsys, mp_file):
        code, out = run(capsys, ["solve", "--game", mp_file, "--concept", "lqre", "--lambda", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["residuals"][0] < 1e-10
        np.testing.assert_allclose(payload["profiles"][0]["distributions"][0], [0.5, 0.5])

    def test_text_output(self, capsys, mp_file):
        code, out = run(capsys, ["solve", "--game", mp_file, "--concept", "nash"])
        assert code == 0 and "residual" in out

    def test_fosd_check_only(self, capsys, mp_file):
        code, out = run(
            capsys, ["solve", "--game", mp_file, "--concept", "fosd-nash-check-only", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fosd_nash"] == [[]]
        # Of the 9 support profiles, only full support has no action beaten against every opponent action.
        assert payload["diagnostics"]["enumeration_pruned"] == 8

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code = cli.main(["solve", "--game", str(tmp_path / "nope.json"), "--concept", "nash"])
        assert code == 1

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["solve", "--game", str(bad), "--concept", "nash"]) == 1

    def test_bad_flag_is_usage_error(self, capsys, mp_file):
        assert cli.main(["solve", "--game", mp_file, "--concept", "wrong"]) == 1

    def test_statistic_file_flag(self, capsys, mp_file, tmp_path):
        stat = tmp_path / "phi.json"
        stat.write_text(
            json.dumps({"atoms": [{"a": "-inf", "w": 0.25}, {"a": 0.0, "w": 0.5}, {"a": "+inf", "w": 0.25}]})
        )
        code, out = run(
            capsys,
            ["solve", "--game", mp_file, "--concept", "lqre", "--statistic", str(stat), "--json"],
        )
        assert code == 0
        assert "-inf" in json.loads(out)["concept"]

    def test_solve_is_deterministic(self, capsys, mp_file):
        argv = ["solve", "--game", mp_file, "--concept", "lqre", "--seed", "5", "--json"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


class TestVerify:
    def test_member(self, capsys, mp_file, uniform_profile_file):
        code, out = run(
            capsys,
            ["verify", "--game", mp_file, "--profile", uniform_profile_file, "--concept", "lqre", "--lambda", "1"],
        )
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_non_member_exits_two(self, capsys, mp_file, tmp_path):
        lopsided = tmp_path / "p.json"
        lopsided.write_text(json.dumps({"distributions": [[0.9, 0.1], [0.5, 0.5]]}))
        code, out = run(
            capsys,
            ["verify", "--game", mp_file, "--profile", str(lopsided), "--concept", "lqre", "--lambda", "1"],
        )
        assert code == 2
        assert json.loads(out)["member"] is False


class TestCompose:
    def test_round_trip_solves_without_warnings(self, capsys, mp_file, tmp_path):
        import warnings

        out_path = tmp_path / "combo.json"
        code = cli.main(["compose", "--game", mp_file, "--game2", mp_file, "-o", str(out_path)])
        assert code == 0
        combo = Game.load(str(out_path))
        assert combo.action_counts == (4, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["solve", "--game", str(out_path), "--concept", "lqre", "--json"])
        assert code == 0

    def test_reparam_identity(self, capsys, mp_file, tmp_path):
        reparam = tmp_path / "phi.json"
        reparam.write_text(json.dumps({"kind": "identity"}))
        out_path = tmp_path / "combo.json"
        code = cli.main(
            ["compose", "--game", mp_file, "--game2", mp_file, "--phi-reparam", str(reparam), "-o", str(out_path)]
        )
        assert code == 0
        assert Game.load(str(out_path)).action_counts == (4, 4)

    @pytest.mark.parametrize(
        "body",
        [
            '{"kind": "power", "exponent": "3"}',
            '{"kind": "power", "exponent": 1e400}',
            '["power"]',
            '{"kind": "power", "exponent": true}',
            '{"kind": "power", "exponent": 1001}',
            '{"kind": "power", "exponent": 10000000000000000000000000000000000000001}',
        ],
        ids=[
            "string-exponent",
            "infinite-exponent",
            "not-an-object",
            "bool-exponent",
            "underflowing-exponent",
            "overflowing-exponent",
        ],
    )
    def test_malformed_reparam_is_usage_error(self, capsys, mp_file, tmp_path, body):
        reparam = tmp_path / "phi.json"
        reparam.write_text(body)
        out_path = tmp_path / "combo.json"
        code = cli.main(
            ["compose", "--game", mp_file, "--game2", mp_file, "--phi-reparam", str(reparam), "-o", str(out_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestAxioms:
    def test_bracketing_suite_passes(self, capsys):
        code, out = run(
            capsys,
            ["axioms", "--suite", "bracketing", "--concept", "lqre", "--lambda", "1", "--corpus-size", "2", "--seed", "7", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_deterministic_output(self, capsys):
        argv = ["axioms", "--suite", "bracketing", "--concept", "lqre", "--corpus-size", "2", "--seed", "3", "--json"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_bnb_suite_fails_for_logit_play(self, capsys):
        code, out = run(
            capsys,
            ["axioms", "--suite", "bnb", "--concept", "lqre", "--lambda", "1", "--json"],
        )
        assert code == 2
        payload = json.loads(out)
        failed = [r["axiom"] for r in payload["reports"] if not r["passed"]]
        assert "consequentialism" in failed

    def test_bnb_suite_passes_for_best_response(self, capsys):
        code, out = run(capsys, ["axioms", "--suite", "bnb", "--concept", "nash", "--json"])
        assert code == 0

    @pytest.mark.parametrize("concept, code", [("nash", 0), ("lqre", 2)])
    def test_all_suites_report_every_axiom(self, capsys, concept, code):
        # Logit play fails consequentialism by design, so the lqre run exits 2.
        got, out = run(capsys, ["axioms", "--suite", "all", "--concept", concept, "--corpus-size", "1", "--json"])
        assert got == code
        payload = json.loads(out)
        assert payload["suite"] == "all" and payload["passed"] is (code == 0)
        suites = {
            "bracketing": {"bracketing"},
            "monotonicity": {"distribution-monotonicity", "expectation-monotonicity"},
            "anonymity": {"anonymity"},
            "scale": {"scale-invariance"},
            "strategic": {"strategic-invariance"},
            "bnb": {"consistency", "consequentialism", "rationality"},
        }
        names = {r["axiom"] for r in payload["reports"]}
        for suite, axioms in suites.items():
            assert axioms <= names, suite
        assert {r["axiom"] for r in payload["reports"] if not r["passed"]} == (set() if code == 0 else {"consequentialism"})


class TestElicit:
    def test_qre_mode(self, capsys, coin_file):
        code, out = run(capsys, ["elicit", "--lottery", coin_file, "--concept", "lqre", "--lambda", "1"])
        assert code == 0
        assert json.loads(out)["r_star"] == pytest.approx(0.5, abs=1e-8)

    def test_fosd_mode(self, capsys, coin_file):
        code, out = run(capsys, ["elicit", "--lottery", coin_file, "--concept", "nash", "--mode", "fosd"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"estimates", "extrapolated", "converged", "iterations", "notes", "mode", "concept"}
        assert payload["mode"] == "fosd" and payload["notes"] == ""
        assert len(payload["estimates"]) == 3
        assert payload["extrapolated"] == payload["estimates"][-1][1] == pytest.approx(0.5, abs=1e-3)

    def test_mode_concept_mismatch(self, capsys, coin_file):
        assert cli.main(["elicit", "--lottery", coin_file, "--concept", "nash", "--mode", "qre"]) == 1


class TestDemos:
    @pytest.mark.parametrize("name", ["allais", "table2", "no-extremal", "cauchy-identity"])
    def test_demo_passes(self, capsys, name):
        code, out = run(capsys, ["demo", name])
        assert code == 0
        assert "PASS" in out


class TestFixtures:
    def test_lists_ids(self, capsys):
        code, out = run(capsys, ["fixtures"])
        assert code == 0
        assert "vmp" in out and "allais" in out


class TestSolverFailureExit:
    def test_exit_three(self, capsys, mp_file, monkeypatch):
        from sre_lab import solvers

        def boom(*args, **kwargs):
            raise solvers.SolverError("forced")

        monkeypatch.setattr(cli, "SolverError", solvers.SolverError)
        monkeypatch.setattr(solvers.ConceptSpec, "solve", lambda self, game: boom())
        assert cli.main(["solve", "--game", mp_file, "--concept", "lqre"]) == 3


class TestInvalidValues:
    """Values the parser accepts but the library rejects exit 1 with an error line, not a traceback."""

    def assert_usage_error(self, capsys, argv):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--game", "{game}"],
            ["verify", "--game", "{game}", "--profile", "{profile}"],
            ["axioms", "--suite", "bracketing", "--corpus-size", "1"],
            ["elicit", "--lottery", "{lottery}"],
        ],
        ids=["solve", "verify", "axioms", "elicit"],
    )
    def test_negative_lambda(self, capsys, mp_file, uniform_profile_file, coin_file, command):
        files = {"game": mp_file, "profile": uniform_profile_file, "lottery": coin_file}
        argv = [arg.format(**files) for arg in command] + ["--concept", "lqre", "--lambda", "-1"]
        self.assert_usage_error(capsys, argv)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda(self, capsys, mp_file, lam):
        self.assert_usage_error(capsys, ["solve", "--game", mp_file, "--concept", "lqre", "--lambda", lam])

    @pytest.mark.parametrize("concept", ["lqre", "nash"])
    def test_negative_seed(self, capsys, mp_file, concept):
        self.assert_usage_error(capsys, ["solve", "--game", mp_file, "--concept", concept, "--seed", "-1"])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tol(self, capsys, mp_file, tmp_path, tol):
        # A NaN tolerance would pass the pure profile ((1, 0), (1, 0)), which is no equilibrium.
        profile = tmp_path / "pure.json"
        profile.write_text(json.dumps({"distributions": [[1.0, 0.0], [1.0, 0.0]]}))
        argv = ["verify", "--game", mp_file, "--profile", str(profile), "--concept", "nash", "--tol", tol]
        self.assert_usage_error(capsys, argv)

    @pytest.mark.parametrize(
        "kind, body, command",
        [
            ("profile", {"distributions": [[float("nan"), 0.5], [0.5, 0.5]]}, ["verify", "--concept", "nash"]),
            ("statistic", {"atoms": [{"a": 0.0, "w": float("nan")}]}, ["solve", "--concept", "nash-phi"]),
            ("lottery", {"atoms": [{"x": 0.0, "p": float("nan")}, {"x": 1.0, "p": 0.5}]}, ["elicit", "--concept", "lqre"]),
        ],
        ids=["profile", "statistic", "lottery"],
    )
    def test_nan_weight(self, capsys, mp_file, tmp_path, kind, body, command):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(body))  # written as the bare token NaN, which json reads back
        argv = command + ["--" + kind, str(path)] + ([] if kind == "lottery" else ["--game", mp_file])
        self.assert_usage_error(capsys, argv)

    def test_negative_corpus_size(self, capsys):
        self.assert_usage_error(capsys, ["axioms", "--suite", "bracketing", "--concept", "lqre", "--corpus-size", "-3"])

    def test_qre_elicitation_at_lambda_zero(self, capsys, coin_file):
        self.assert_usage_error(capsys, ["elicit", "--lottery", coin_file, "--concept", "lqre", "--lambda", "0"])

    def test_fosd_elicitation_of_a_four_outcome_lottery(self, capsys, tmp_path):
        lottery = tmp_path / "four.json"
        lottery.write_text(json.dumps({"atoms": [{"x": float(x), "p": 0.25} for x in range(4)]}))
        self.assert_usage_error(capsys, ["elicit", "--lottery", str(lottery), "--concept", "nash", "--mode", "fosd"])

    def test_fosd_elicitation_under_an_extreme_atom(self, capsys, coin_file, tmp_path):
        stat = tmp_path / "phi.json"
        stat.write_text(json.dumps({"atoms": [{"a": "-inf", "w": 0.5}, {"a": 0.0, "w": 0.5}]}))
        argv = ["elicit", "--lottery", coin_file, "--concept", "nash", "--statistic", str(stat), "--mode", "fosd"]
        self.assert_usage_error(capsys, argv)

    def test_compose_of_different_player_counts(self, capsys, mp_file, tmp_path):
        three = tmp_path / "three.json"
        three.write_text(json.dumps(make_test_game_gx(1.0, n_players=3).to_json()))
        self.assert_usage_error(capsys, ["compose", "--game", mp_file, "--game2", str(three), "-o", str(tmp_path / "c.json")])

    def test_statistic_with_the_fosd_check_only_concept(self, capsys, mp_file, tmp_path):
        # The concept solves under the expectation, so a statistic would be dropped unread.
        stat = tmp_path / "phi.json"
        stat.write_text(json.dumps({"atoms": [{"a": "-inf", "w": 0.5}, {"a": "inf", "w": 0.5}]}))
        argv = ["solve", "--game", mp_file, "--concept", "fosd-nash-check-only", "--statistic", str(stat), "--json"]
        self.assert_usage_error(capsys, argv)
