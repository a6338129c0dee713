"""Command-line surface: run, resume, evaluate, analyze, leaderboard, simulate."""

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import orchestrator, scheduler, toolrun
from .analyzer import analyze
from .errors import ConfigError, EvoSqlError
from .harness import TaskPool, evaluate_agent, execute_gold
from .registry import load_package
from .simulate import SimulationConfig, SyntheticAgent, simulate
from .toolrun import DEFAULT_TOKEN_BUDGET

_BACKEND_CONCURRENCY = orchestrator.RunConfig.backend_concurrency
_HTTP_WINDOW_NOTE = ("an http: backend keeps fewer calls in flight while its endpoint "
                      "answers 429 or 503, and jitters its retries")


def _add_run_flags(parser):
    parser.add_argument("--config", type=Path, help="JSON config file mirroring RunConfig")
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--seed", type=int, dest="run_seed")
    parser.add_argument("--data-root", type=Path, dest="data_root")
    parser.add_argument("--output-dir", type=Path, dest="output_dir")
    parser.add_argument("--strategy", type=Path, dest="strategy_path")
    parser.add_argument("--gen-backend", dest="gen_backend",
                        help="oracle | scripted:<fixture.json> | http:<model>@<base_url>")
    parser.add_argument("--evo-backend", dest="evo_backend",
                        help="none | scripted:<fixture.json> | http:<model>@<base_url>")
    parser.add_argument("--workers", type=int,
                        help="tasks running Python, SQL or tools at once")
    parser.add_argument("--backend-concurrency", type=int, dest="backend_concurrency",
                        help="(agent, question) tasks in flight, each waiting on at most "
                             f"one generation call (default {_BACKEND_CONCURRENCY}); "
                             f"{_HTTP_WINDOW_NOTE}")
    parser.add_argument("--deep-focus-k", type=int, dest="deep_focus_k")


def _build_config(args) -> orchestrator.RunConfig:
    config_keys = {f.name for f in fields(orchestrator.RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in config_keys and v is not None}
    if args.config:
        return orchestrator.RunConfig.from_file(args.config, **overrides)
    missing = [k for k in ("data_root", "output_dir") if k not in overrides]
    if missing:
        raise SystemExit(f"missing required flags without --config: {', '.join(missing)}")
    return orchestrator.RunConfig(**overrides)


def cmd_run(args) -> int:
    config = _build_config(args)
    state = orchestrator.run(config)
    print(orchestrator.leaderboard(state))
    return 0


def cmd_resume(args) -> int:
    config = _build_config(args)
    state = orchestrator.resume(config)
    print(orchestrator.leaderboard(state))
    return 0


def cmd_evaluate(args) -> int:
    pkg = load_package(args.agent_dir)
    db_pool, question_pool = scheduler.load_question_pool(args.data_root)
    databases = args.databases.split(",") if args.databases else db_pool
    unknown = [db for db in databases if db not in db_pool]
    if unknown:
        raise SystemExit(f"unknown databases: {', '.join(unknown)}")
    if args.questions_per_db < 1:
        raise SystemExit("--questions-per-db must be >= 1")

    databases, questions = scheduler.sample_iteration_tasks(
        databases, question_pool, scheduler.iteration_rng(args.seed, 1), len(databases),
        args.questions_per_db)
    backend = orchestrator.build_generation_backend(args.gen_backend, question_pool)
    with TaskPool(backend, args.workers, args.backend_concurrency) as pool:
        evaluation = evaluate_agent(
            [pkg], questions,
            lambda agent, db: toolrun.run_agent_tool(
                agent, scheduler.database_path(args.data_root, db)),
            execute_gold(questions, args.data_root), pool,
        )[pkg.id]
    blocked = [db for db in databases if evaluation.tools[db].text is None]
    for db in blocked:
        print(f"blocked: {db} ({evaluation.tools[db].reason}); its questions are skipped")
    evaluation = replace(evaluation,
                         outcomes=[o for o in evaluation.outcomes if o.db_id not in blocked])
    if not evaluation.outcomes:
        raise SystemExit("every database is evaluation-blocked")
    print(f"agent: {pkg.id}")
    print(f"accuracy: {evaluation.matches}/{evaluation.total} "
          f"({100 * evaluation.matches / evaluation.total:.1f}%)")
    for outcome in evaluation.outcomes:
        marker = "ok " if outcome.match else outcome.failure_kind
        print(f"  [{marker}] {outcome.db_id} q{outcome.question_id}: {outcome.question}")
    return 0


def cmd_analyze(args) -> int:
    analysis = analyze(args.database, budget_tokens=args.budget)
    if args.output:
        Path(args.output).write_text(analysis.text)
        print(f"wrote {analysis.token_estimate} estimated tokens to {args.output}")
    else:
        print(analysis.text)
    return 0


def cmd_leaderboard(args) -> int:
    state = orchestrator.load_state(args.output_dir)
    if state is None:
        raise SystemExit(f"no run state under {args.output_dir}")
    print(orchestrator.leaderboard(state))
    if args.costs:
        print(json.dumps(orchestrator.token_totals(state, args.output_dir), indent=2,
                         sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    try:
        latents = [float(x) for x in args.latents.split(",")]
    except ValueError:
        raise ConfigError(f"--latents must be comma-separated numbers, not {args.latents!r}") from None
    population = [
        SyntheticAgent(agent_id=f"agent_{i + 1}", global_accuracy=p)
        for i, p in enumerate(latents)
    ]

    def run(seed: int):
        config = SimulationConfig(iterations=args.iterations, seed=seed, evolve=args.evolve)
        return simulate(population, config)

    if args.seeds <= 1:
        result = run(args.seed)
        print(f"kendall tau (latent vs final ELO): {result.kendall_tau:.3f}")
        for agent_id in sorted(result.final_ratings, key=result.final_ratings.get, reverse=True):
            print(f"  {agent_id}: latent {result.latent_strengths[agent_id]:.2f} "
                  f"-> rating {result.final_ratings[agent_id]:.1f}")
        return 0

    order_matches = 0
    for seed in range(args.seed, args.seed + args.seeds):
        result = run(seed)
        by_latent = sorted(population, key=lambda a: -result.latent_strengths[a.agent_id])
        by_rating = sorted(population, key=lambda a: -result.final_ratings[a.agent_id])
        order_matches += by_latent == by_rating
    print(f"final ELO order matched latent order in {order_matches}/{args.seeds} seeds")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evosql",
        description="ELO-driven evolutionary tournament for text-to-SQL agent packages",
    )
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_run = subparsers.add_parser("run", help="run the evolution cycle")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_resume = subparsers.add_parser("resume", help="resume a halted run")
    _add_run_flags(p_resume)
    p_resume.set_defaults(func=cmd_resume)

    p_eval = subparsers.add_parser("evaluate", help="evaluate one agent on chosen databases")
    p_eval.add_argument("--agent-dir", type=Path, required=True)
    p_eval.add_argument("--data-root", type=Path, required=True)
    p_eval.add_argument("--databases", help="comma-separated db ids (default: all)")
    p_eval.add_argument("--questions-per-db", type=int,
                        default=scheduler.QUESTIONS_PER_DATABASE)
    p_eval.add_argument("--gen-backend", default=orchestrator.RunConfig.gen_backend)
    p_eval.add_argument("--workers", type=int, default=1,
                        help="tasks running Python, SQL or tools at once")
    p_eval.add_argument("--backend-concurrency", type=int,
                        default=_BACKEND_CONCURRENCY,
                        help="questions in flight, each waiting on at most one "
                             f"generation call (default {_BACKEND_CONCURRENCY}); "
                             f"{_HTTP_WINDOW_NOTE}")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_evaluate)

    p_analyze = subparsers.add_parser("analyze", help="run the database analyzer on one file")
    p_analyze.add_argument("--database", type=Path, required=True)
    p_analyze.add_argument("--budget", type=int, default=DEFAULT_TOKEN_BUDGET)
    p_analyze.add_argument("--output", type=Path, help="write to file instead of stdout")
    p_analyze.set_defaults(func=cmd_analyze)

    p_board = subparsers.add_parser("leaderboard", help="print standings from a run state")
    p_board.add_argument("--output-dir", type=Path, required=True)
    p_board.add_argument("--costs", action="store_true", help="also print token and call totals")
    p_board.set_defaults(func=cmd_leaderboard)

    p_sim = subparsers.add_parser("simulate", help="synthetic-agent rating dynamics")
    p_sim.add_argument("--latents", default="0.8,0.6,0.4",
                       help="comma-separated global accuracies")
    p_sim.add_argument("--iterations", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--seeds", type=int, default=1,
                       help="run a battery of this many consecutive seeds")
    p_sim.add_argument("--evolve", action="store_true",
                       help="enable synthetic evolution iterations")
    p_sim.set_defaults(func=cmd_simulate)

    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    # A bad input (a missing or unreadable file, a database over the budget,
    # a run state that cannot be resumed) ends in one line, not a traceback.
    try:
        return args.func(args)
    except (EvoSqlError, FileNotFoundError) as exc:
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":
    sys.exit(main())
