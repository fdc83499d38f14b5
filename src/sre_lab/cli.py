"""Command-line front end.

Exit codes: 0 success / membership / all checks passed; 1 usage error or
malformed input; 2 non-membership or axiom violations; 3 solver failure.
Output is JSON-first (deterministic for a fixed seed) with a plain-text
fallback for human reading.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import axioms as ax
from .games import Game, MixedProfile, compose, compose_generalized
from .lotteries import Lottery
from .statistics import MAStatistic, evaluate
from .solvers import ConceptSpec, SolverConfig, SolverError, solve_lqre, verify_fosd_nash
from .testgames import (
    elicit_fosd,
    elicit_qre,
    fixture_ids,
    make_allais_lotteries,
    make_matching_pennies,
    make_no_extremal_eq_game,
    make_sure_thing_game,
    make_table2_lotteries,
    make_test_game_gx,
    random_game,
    random_shifts,
    vector_from_lottery,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_SOLVER = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str, loader, what: str):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed JSON in {what} file {path}: {err}")
    try:
        return loader(raw)
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"invalid {what} in {path}: {err}")


def _concept(args) -> ConceptSpec:
    phi = MAStatistic.expectation()
    if getattr(args, "statistic", None):
        phi = _load_json(args.statistic, MAStatistic.from_json, "statistic")
    kind = args.concept
    if kind == "fosd-nash-check-only":
        # Solve under best response to the expectation, then report the
        # ordinal no-dominated-action check on every solution found.
        if getattr(args, "statistic", None):
            raise UsageError("--statistic does not apply to fosd-nash-check-only, which solves under the expectation")
        kind = "nash"
    if kind == "nash" and not phi.is_expectation:
        kind = "nash-phi"
    try:
        solver = SolverConfig(seed=getattr(args, "seed", 0) or 0)
        return ConceptSpec(kind, phi, args.lam if args.lam is not None else 1.0, solver)
    except ValueError as err:
        raise UsageError(str(err))


def _add_concept_flags(sub, default_concept: Optional[str] = None):
    sub.add_argument(
        "--concept",
        required=default_concept is None,
        default=default_concept,
        choices=["nash", "nash-phi", "lqre", "fosd-nash-check-only"],
    )
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--statistic", default=None, help="statistic JSON file (default: expectation)")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="sre-lab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve a game for a concept")
    p_solve.add_argument("--game", required=True)
    _add_concept_flags(p_solve)
    p_solve.add_argument("--json", action="store_true")

    p_verify = subs.add_parser("verify", help="check membership of a profile")
    p_verify.add_argument("--game", required=True)
    p_verify.add_argument("--profile", required=True)
    _add_concept_flags(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-8)

    p_comp = subs.add_parser("compose", help="compose two games")
    p_comp.add_argument("--game", required=True)
    p_comp.add_argument("--game2", required=True)
    p_comp.add_argument("--phi-reparam", dest="phi_reparam", default=None)
    p_comp.add_argument("-o", "--output", required=True)

    p_ax = subs.add_parser("axioms", help="run an axiom suite")
    p_ax.add_argument(
        "--suite",
        required=True,
        choices=["bracketing", "monotonicity", "anonymity", "scale", "strategic", "bnb", "all"],
    )
    _add_concept_flags(p_ax)
    p_ax.add_argument("--corpus-size", type=int, default=6)
    p_ax.add_argument("--json", action="store_true")

    p_el = subs.add_parser("elicit", help="recover the statistic from play")
    p_el.add_argument("--lottery", required=True)
    _add_concept_flags(p_el)
    p_el.add_argument("--mode", choices=["qre", "fosd"], default="qre")

    p_demo = subs.add_parser("demo", help="reproduce a named worked example")
    p_demo.add_argument("name", choices=["allais", "table2", "no-extremal", "cauchy-identity"])

    subs.add_parser("fixtures", help="list fixture registry ids")
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    game = _load_json(args.game, Game.from_json, "game")
    spec = _concept(args)
    result = spec.solve(game)
    payload = result.to_json()
    payload["concept"] = spec.label()
    if args.concept == "fosd-nash-check-only":
        payload["fosd_nash"] = [verify_fosd_nash(game, p) for p in result.profiles]
    if args.json:
        print(_dump(payload))
    else:
        print(f"concept: {payload['concept']}")
        if not result.profiles:
            print("no equilibria found under the enumeration limit")
        for prof, res in zip(result.profiles, result.residuals):
            print(f"  residual {res:.3g}  {prof}")
        if "fosd_nash" in payload:
            for k, violations in enumerate(payload["fosd_nash"]):
                verdict = "member" if not violations else f"{len(violations)} violations"
                print(f"  fosd-nash check for profile {k}: {verdict}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 0 <= args.tol < math.inf:  # NaN fails the test too
        raise UsageError("--tol must be finite and nonnegative")
    game = _load_json(args.game, Game.from_json, "game")
    profile = _load_json(args.profile, MixedProfile.from_json, "profile")
    if not profile.matches(game):
        raise UsageError("profile shape does not match the game")
    spec = _concept(args)
    if args.concept == "fosd-nash-check-only":
        spec = ConceptSpec.fosd_nash()
    report = spec.membership_report(game, profile, tol=args.tol)
    print(_dump(report))
    return EXIT_OK if report["member"] else EXIT_VIOLATIONS


def _named_reparam(path: str):
    spec = _load_json(path, lambda raw: raw, "reparameterization")
    if not isinstance(spec, dict):
        raise UsageError(f"invalid reparameterization in {path}: expected a JSON object")
    kind = spec.get("kind")
    if kind == "identity":
        return (lambda v: v), (lambda v: v)
    if kind == "exp":
        return (lambda v: np.exp(v)), (lambda v: np.log(v))
    if kind == "power":
        k = spec.get("exponent", 3)
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0 or k % 2 == 0:
            raise UsageError("power reparameterization needs a positive odd integer exponent")
        return (lambda v: np.power(v, k)), (lambda v: np.sign(v) * np.abs(v) ** (1.0 / k))
    raise UsageError(f"unknown reparameterization kind {kind!r}")


def _cmd_compose(args) -> int:
    g = _load_json(args.game, Game.from_json, "game")
    h = _load_json(args.game2, Game.from_json, "game")
    try:
        if args.phi_reparam:
            phi, phi_inv = _named_reparam(args.phi_reparam)
            combined = compose_generalized(g, h, phi, phi_inv)
        else:
            combined = compose(g, h)
    except ValueError as err:
        raise UsageError(str(err))
    with open(args.output, "w") as fh:
        json.dump(combined.to_json(), fh, sort_keys=True)
    print(f"wrote {args.output}: players={combined.num_players} actions={list(combined.action_counts)}")
    return EXIT_OK


def _suite_reports(spec: ConceptSpec, suite: str, corpus_size: int, seed: int) -> list[ax.AxiomReport]:
    rng = np.random.default_rng(seed)
    reports: list[ax.AxiomReport] = []
    small = dict(players=(2, 2), actions=(2, 3))

    if suite in ("bracketing", "all"):
        for _ in range(corpus_size):
            reports.append(
                ax.check_bracketing(spec, random_game(rng, **small), random_game(rng, **small))
            )
    if suite in ("monotonicity", "all"):
        for _ in range(corpus_size):
            game = random_game(rng, **small)
            for profile in spec.solve(game).profiles:
                reports.append(ax.check_distribution_monotonicity(game, profile))
                reports.append(ax.check_expectation_monotonicity(game, profile))
    if suite in ("anonymity", "all"):
        from .games import PlayerPermutation

        for _ in range(corpus_size):
            game = random_game(rng, **small)
            pi = PlayerPermutation.swap(game.num_players, 0, game.num_players - 1)
            reports.append(ax.check_anonymity(spec, game, pi))
    if suite in ("scale", "all"):
        reports.append(ax.check_scale_invariance(spec, make_matching_pennies()))
        if spec.family == "logit":
            x = np.array([0.0, 1.0])
            r = evaluate(spec.phi, Lottery.from_vector(x))
            reports.append(ax.check_scale_invariance(spec, make_sure_thing_game(r, x)))
    if suite in ("strategic", "all"):
        for _ in range(corpus_size):
            game = random_game(rng, **small)
            reports.append(ax.check_strategic_invariance(spec, game, random_shifts(rng, game)))
    if suite in ("bnb", "all"):
        mp = make_matching_pennies()
        reports.append(ax.check_consistency(spec, mp, make_matching_pennies(stake=2.0)))
        reports.append(ax.check_consequentialism(spec, mp, [[0, 0, 1], [0, 1]]))
        for profile in spec.solve(make_test_game_gx(1.0)).profiles:
            reports.append(ax.check_rationality(make_test_game_gx(1.0), profile))
    return reports


def _cmd_axioms(args) -> int:
    spec = _concept(args)
    if args.corpus_size < 0:
        raise UsageError("--corpus-size must be nonnegative")
    reports = _suite_reports(spec, args.suite, args.corpus_size, args.seed or 0)
    payload = {
        "concept": spec.label(),
        "suite": args.suite,
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"suite {args.suite} for {spec.label()}")
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            extra = " (vacuous)" if r.vacuous else ""
            print(f"  [{flag}] {r.axiom}: {r.instances_checked} instances, {len(r.violations)} violations{extra}")
    return EXIT_OK if payload["passed"] else EXIT_VIOLATIONS


def _cmd_elicit(args) -> int:
    lottery = _load_json(args.lottery, Lottery.from_json, "lottery")
    try:
        x = vector_from_lottery(lottery, max_m=24 if args.mode == "fosd" else 360)
    except ValueError as err:
        raise UsageError(str(err))
    spec = _concept(args)
    elicit = elicit_qre if args.mode == "qre" else elicit_fosd
    try:
        result = elicit(spec, x)
    except ValueError as err:
        raise UsageError(str(err))
    if args.mode == "qre":
        print(_dump({"mode": "qre", "r_star": result, "concept": spec.label()}))
        return EXIT_OK
    payload = result.to_json()
    payload["mode"] = "fosd"
    payload["concept"] = spec.label()
    print(_dump(payload))
    return EXIT_OK if result.estimates else EXIT_SOLVER


def _demo_allais() -> int:
    lots = make_allais_lotteries()
    ok = True
    print("lottery values under min/mean/max weighting (min weight >= 10x max weight):")
    for w_max, factor in ((0.01, 10.0), (0.03, 12.0), (0.05, 10.0)):
        w_min = factor * w_max
        phi = MAStatistic.min_max_mean(w_min, 1.0 - w_min - w_max, w_max)
        vals = {name: evaluate(phi, lot) for name, lot in lots.items()}
        row_ok = vals["a"] > vals["b"] and vals["d"] > vals["c"]
        ok &= row_ok
        print(
            f"  weights(min={w_min:.2f}, mean={1 - w_min - w_max:.2f}, max={w_max:.2f}): "
            + " ".join(f"{k}={v:.4g}" for k, v in vals.items())
            + f"  a>b and d>c: {row_ok}"
        )
    means = {name: lot.mean() for name, lot in lots.items()}
    print(f"  expectations: {means} (a~b and c~d tie, so mean-only play cannot pick a and d)")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _demo_table2() -> int:
    lots = make_table2_lotteries()
    phi = MAStatistic.min_max_mean(0.45, 0.10, 0.45)
    vals = {name: evaluate(phi, lot) for name, lot in lots.items()}
    means = {name: lot.mean() for name, lot in lots.items()}
    ok = vals["b"] > vals["a"] and vals["b"] > vals["c"]
    ok &= means["b"] < means["a"] and means["b"] < means["c"]
    print(f"extreme-weighted values: {vals}")
    print(f"expectations:            {means}")
    print("b ranks strictly top under the extreme weighting and strictly bottom by expectation")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _demo_no_extremal() -> int:
    game = make_no_extremal_eq_game(0.25)
    phi = MAStatistic(((-np.inf, 0.125), (np.inf, 0.125), (0.0, 0.75)))
    result = ConceptSpec.nash_phi(phi).solve(game)
    complete = not result.diagnostics.get("enumeration_truncated", True)
    print(f"statistic {phi.describe()} on the epsilon=0.25 matching-pennies variant:")
    if result.profiles or not complete:
        print(f"  found {len(result.profiles)} equilibria (enumeration complete: {complete})")
        print("FAIL")
        return EXIT_VIOLATIONS
    print("  no best-response equilibrium found under full support enumeration")
    mean_result = ConceptSpec.nash().solve(game)
    for prof in mean_result.profiles:
        print(f"  mean-response equilibrium for comparison: {prof}")
    print("PASS")
    return EXIT_OK


def _demo_cauchy() -> int:
    lam = 1.0
    print(f"logit play on the two-action sure-payoff games at lambda={lam:g}:")
    r = {}
    for x in (1.0, 2.0):
        res = solve_lqre(make_test_game_gx(x), MAStatistic.expectation(), lam)
        r[x] = float(res.profiles[0].distributions[0][0])
        closed = math.exp(lam * x) / (1.0 + math.exp(lam * x))
        print(f"  r_{x:g} = {r[x]:.9f} (closed form {closed:.9f})")
    residual = r[1.0] * r[1.0] * (1 - r[2.0]) - (1 - r[1.0]) * (1 - r[1.0]) * r[2.0]
    print(f"  product-consistency residual r_1*r_1*(1-r_2) - (1-r_1)^2*r_2 = {residual:.3e}")
    ok = abs(residual) < 1e-8
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _cmd_demo(args) -> int:
    if args.name == "allais":
        return _demo_allais()
    if args.name == "table2":
        return _demo_table2()
    if args.name == "no-extremal":
        return _demo_no_extremal()
    return _demo_cauchy()


def _cmd_fixtures(_args) -> int:
    for name in fixture_ids():
        print(name)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {
            "solve": _cmd_solve,
            "verify": _cmd_verify,
            "compose": _cmd_compose,
            "axioms": _cmd_axioms,
            "elicit": _cmd_elicit,
            "demo": _cmd_demo,
            "fixtures": _cmd_fixtures,
        }
        return handlers[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
