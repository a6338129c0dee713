"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its runtime and asserting the stated bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import random
import sqlite3
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from evosql.analyzer import TIER_CONFIGS, analyze, classify_size
from evosql.backends import ScriptedEvolutionBackend, ScriptedGenerationBackend
from evosql.elo import EloEngine, K_FACTOR, update_pair
from evosql.harness import ResultTable, compare_results
from evosql.orchestrator import RunConfig, leaderboard, run
from evosql.pipeline import CORRECT_SENTINEL, generate_with_verification
from evosql.scheduler import MODE_CHALLENGER, MODE_EVOLVE, MODE_NONE, choose_mode
from evosql.simulate import SimulationConfig, SyntheticAgent, simulate
from evosql.toolrun import extract_naive_schema
from tests.conftest import TOY_QUESTIONS, make_database, make_evolution_response
from tests.test_harness import _gold, _oracle_compare
from tests.test_pipeline import SYSTEM, FakeExecutor


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds:g}s runtime budget"


def test_elo_exactness():
    with criterion("ELO exactness and zero-sum conservation", 1.0):
        assert K_FACTOR == 32.0
        assert update_pair(1500.0, 1500.0, 1.0) == (1516.0, 1484.0)

        rng = random.Random(20260808)
        ratings = [1500.0] * 8
        total_before = sum(ratings)
        for _ in range(10_000):
            i, j = rng.sample(range(8), 2)
            score = rng.choice([0.0, 0.5, 1.0])
            ratings[i], ratings[j] = update_pair(ratings[i], ratings[j], score)
        assert abs(sum(ratings) - total_before) < 1e-9


def test_pairwise_decomposition_worked_case():
    with criterion("pairwise decomposition of the 65/62/62 case", 1.0):
        engine = EloEngine()
        for agent in ("A", "B", "C"):
            engine.register(agent)
        engine.decompose_and_update(
            [("A", Fraction(65, 100)), ("B", Fraction(62, 100)), ("C", Fraction(62, 100))],
        )
        # A hand replay of the pairs A>B, A>C, B=C in canonical order, each
        # on the ratings the pair before it left.
        a, b = update_pair(1500.0, 1500.0, 1.0)
        a, c = update_pair(a, 1500.0, 1.0)
        b, c = update_pair(b, c, 0.5)
        assert [engine.ratings[agent].value for agent in "ABC"] == [a, b, c]
        assert [engine.ratings[agent].games for agent in "ABC"] == [2, 2, 2]


def test_size_adaptive_feature_matrix():
    with criterion("size-adaptive feature matrix boundaries", 1.0):
        expectations = {
            "Small": (10, None, "full", "full"),
            "Medium": (5, 15, "essential", "critical"),
            "Large": (3, 5, "skip", "skip"),
            "Ultra": (1, 0, "skip", "skip"),
        }
        boundaries = {
            150: "Small", 151: "Medium",
            300: "Medium", 301: "Large",
            400: "Large", 401: "Ultra",
        }
        for columns, tier_name in boundaries.items():
            tier = classify_size(columns)
            assert tier.tier == tier_name, columns
            config = TIER_CONFIGS[tier.tier]
            samples, enum_limit, semantic, cross = expectations[tier_name]
            assert config.samples_per_column == samples
            assert config.enum_value_limit == enum_limit
            assert config.semantic_patterns == semantic
            assert config.cross_table_validation == cross


def test_naive_extractor_parity(data_root):
    with criterion("naive DDL extractor parity with the direct query", 1.0):
        for db_id in ("films", "school", "shop"):
            db_path = data_root / db_id / f"{db_id}.sqlite"
            conn = sqlite3.connect(db_path)
            rows = conn.execute(
                "SELECT sql || ';' FROM sqlite_master WHERE sql IS NOT NULL "
                "ORDER BY tbl_name, type DESC, name"
            ).fetchall()
            conn.close()
            assert extract_naive_schema(db_path) == "\n".join(sql for (sql,) in rows)


def test_set_comparison_oracle():
    with criterion("set comparison agrees with the brute-force oracle", 5.0):
        rng = random.Random(777)

        def random_rows():
            def cell():
                kind = rng.randrange(6)
                if kind == 0:
                    return None
                if kind == 1:
                    return rng.randrange(-5, 6)
                if kind == 2:
                    return float(rng.randrange(-5, 6))
                if kind == 3:
                    return rng.choice(["a", "b", "A", "bb", ""])
                if kind == 4:
                    return rng.choice([0.25, 1.5, 2.5, 3.75])
                return bytes([rng.randrange(4)])

            arity = rng.randrange(1, 4)
            return [tuple(cell() for _ in range(arity)) for _ in range(rng.randrange(0, 7))]

        agreements = 0
        for case in range(1000):
            gold = random_rows()
            mutation = rng.randrange(4)
            if mutation == 0:  # permutation
                pred = list(gold)
                rng.shuffle(pred)
            elif mutation == 1:  # duplicate collapse
                pred = gold + [r for r in gold if rng.random() < 0.5]
                rng.shuffle(pred)
            elif mutation == 2 and gold:  # arity mismatch
                pred = [r + (0,) for r in gold]
            else:
                pred = random_rows()
            expected = _oracle_compare(pred, gold)
            actual = compare_results(ResultTable(pred), _gold(gold))
            assert actual == expected, (case, pred, gold)
            agreements += 1
        assert agreements == 1000


def test_verification_loop_shape():
    with criterion("verification loop temperatures and call counts", 1.0):
        scripts = {
            "accept": ["SELECT ok;", CORRECT_SENTINEL],
            "revise": ["SELECT bad;", "SELECT good;", CORRECT_SENTINEL],
            "exhaust": ["SELECT a;", "SELECT b;", "SELECT c;"],
            "error_retry": ["SELECT broken;", "SELECT broken;", "SELECT broken;", "SELECT ok;"],
            "empty_retry": ["SELECT none;", CORRECT_SENTINEL, "SELECT filled;"],
        }
        observed_verdicts = set()
        for name, script in scripts.items():
            class _Backend:
                def __init__(self, replies):
                    self.replies = list(replies)

                def complete(self, system_text, conversation, temperature):
                    return self.replies.pop(0)

            executor = FakeExecutor(errors={"SELECT broken;"}, empty={"SELECT none;"})
            _, transcript = generate_with_verification(
                _Backend(script), SYSTEM, executor
            )
            temps = [a.temperature for a in transcript.attempts]
            retries = [a for a in transcript.attempts if a.verdict == "error_retry"]
            assert len(retries) <= 1, name
            core = temps[: len(temps) - len(retries)]
            assert core == [0.0, 0.2, 0.3][: len(core)], (name, temps)
            assert transcript.backend_calls <= 4, name
            observed_verdicts.update(a.verdict for a in transcript.attempts)
        assert {"accepted_correct", "revised", "error_retry", "exhausted"} <= observed_verdicts


def test_selection_distribution():
    with criterion("mode distribution: early evolve, late 70/15/15", 5.0):
        rng = random.Random(4242)
        assert all(
            choose_mode(iteration, rng) == MODE_EVOLVE
            for iteration in range(1, 12)
            for _ in range(50)
        )

        draws = 10_000
        counts = {MODE_EVOLVE: 0, MODE_CHALLENGER: 0, MODE_NONE: 0}
        for _ in range(draws):
            counts[choose_mode(15, rng)] += 1
        assert abs(counts[MODE_EVOLVE] / draws - 0.70) <= 0.02
        assert abs(counts[MODE_CHALLENGER] / draws - 0.15) <= 0.02
        assert abs(counts[MODE_NONE] / draws - 0.15) <= 0.02
        expected = {MODE_EVOLVE: 0.70 * draws, MODE_CHALLENGER: 0.15 * draws,
                    MODE_NONE: 0.15 * draws}
        chi2 = sum((counts[m] - expected[m]) ** 2 / expected[m] for m in counts)
        assert chi2 < 9.210340371976182  # chi-squared critical value, df=2, alpha=0.01


def test_simulation_convergence_and_non_transitivity():
    with criterion("simulation convergence and bounded non-transitive band", 30.0):
        population = [
            SyntheticAgent("strong", global_accuracy=0.8),
            SyntheticAgent("mid", global_accuracy=0.6),
            SyntheticAgent("weak", global_accuracy=0.4),
        ]
        matches = 0
        for seed in range(20):
            result = simulate(population, SimulationConfig(iterations=200, seed=seed))
            order = sorted(result.final_ratings, key=result.final_ratings.get, reverse=True)
            matches += order == ["strong", "mid", "weak"]
        assert matches >= 19  # >= 95% of seeds

        # Cyclic dominance: A beats B on f1, B beats C on f2, C beats A on
        # f3; neutral databases tie. Ratings must stay inside a 200-point
        # band (trailing window) with a stationary, non-diverging spread.
        cyclic = []
        for index, name in enumerate(("A", "B", "C"), start=1):
            latents = {f"f{i}": (1.0 if i == index else 0.0) for i in (1, 2, 3)}
            latents.update({f"n{i}": 1.0 for i in (1, 2, 3)})
            cyclic.append(SyntheticAgent(name, latents=latents))
        for seed in range(5):
            config = SimulationConfig(
                iterations=500,
                seed=seed,
                databases=["f1", "f2", "f3", "n1", "n2", "n3"],
            )
            result = simulate(cyclic, config)
            spreads = [max(t.values()) - min(t.values()) for t in result.replay_trajectories()]
            assert max(spreads[-100:]) < 200, seed
            mid_mean = sum(spreads[100:300]) / 200
            late_mean = sum(spreads[300:500]) / 200
            assert late_mean <= mid_mean + 25, seed  # no divergence


def _scripted_generation_fixture():
    by_question = {}
    for record in TOY_QUESTIONS:
        question, gold = record["question"], record["SQL"]
        by_question[question] = [gold, CORRECT_SENTINEL]
    # Exercise the revision and fence-stripping paths on two questions.
    first = TOY_QUESTIONS[0]
    by_question[first["question"]] = ["SELECT 'bogus'", first["SQL"], CORRECT_SENTINEL]
    second = TOY_QUESTIONS[1]
    by_question[second["question"]] = [f"```sql\n{second['SQL']}\n```", CORRECT_SENTINEL]
    return by_question


def _evolution_fixtures(upto):
    return {
        iteration: [
            make_evolution_response(f"gen{iteration}"),
            make_evolution_response(f"gen{iteration}"),
        ]
        for iteration in range(2, upto + 1)
    }


def test_end_to_end_determinism(data_root, tmp_path):
    with criterion("end-to-end determinism and oracle perfection", 60.0):
        def scripted_run(output_dir):
            config = RunConfig(
                data_root=data_root,
                output_dir=output_dir,
                iterations=5,
                run_seed=13,
                workers=2,
                deep_focus_k=1,
            )
            return run(
                config,
                gen_backend=ScriptedGenerationBackend(by_question=_scripted_generation_fixture()),
                evo_backend=ScriptedEvolutionBackend(_evolution_fixtures(5)),
            )

        state_a = scripted_run(tmp_path / "run_a")
        state_b = scripted_run(tmp_path / "run_b")
        assert (tmp_path / "run_a" / "run_state.json").read_bytes() == (
            tmp_path / "run_b" / "run_state.json"
        ).read_bytes()
        for iteration in range(1, 6):
            report_a = tmp_path / "run_a" / f"iter_{iteration}" / "error_analysis_report.md"
            report_b = tmp_path / "run_b" / f"iter_{iteration}" / "error_analysis_report.md"
            assert report_a.read_bytes() == report_b.read_bytes()
        assert leaderboard(state_a) == leaderboard(state_b)

        oracle_config = RunConfig(
            data_root=data_root,
            output_dir=tmp_path / "oracle",
            iterations=2,
            run_seed=13,
            gen_backend="oracle",
            workers=2,
            deep_focus_k=0,
        )
        oracle_state = run(
            oracle_config, evo_backend=ScriptedEvolutionBackend(_evolution_fixtures(2))
        )
        for record in oracle_state.iterations:
            for agent, (matches, total) in record.accuracies.items():
                assert Fraction(matches, total) == 1, (record.iteration, agent)


def test_analyzer_budget_on_wide_database(tmp_path):
    with criterion("500-column analysis inside the token budget", 10.0):
        statements = []
        for t in range(25):
            cols = ", ".join(f"c{c} TEXT" for c in range(19))
            statements.append(f"CREATE TABLE wide{t:02d} (id INTEGER PRIMARY KEY, {cols});")
            statements.append(
                f"INSERT INTO wide{t:02d} (id, c0, c1) VALUES (1, 'v1', 'w1'), (2, 'v2', 'w2');"
            )
        db = make_database(tmp_path / "wide.sqlite", "\n".join(statements))

        analysis = analyze(db, budget_tokens=150_000)
        assert analysis.tier.tier == "Ultra"
        assert analysis.tier.total_columns == 500
        assert analysis.token_estimate <= 150_000
        assert len(analysis.sections) == 10
        for index, title in enumerate(
            ("Schema DDL", "Table Overview", "Column Details", "Foreign Key Relationships",
             "Enumerated Values", "Numeric Ranges", "Format Detection", "Semantic Patterns",
             "Cross-Table Validation", "Query Guidance"),
            start=1,
        ):
            assert f"## {index}. {title}" in analysis.text
        # Ultra degradation: enum/semantic/cross-table sections are stubs.
        sections = dict(analysis.sections)
        assert sections["Enumerated Values"] == "omitted at this tier"
        assert sections["Semantic Patterns"] == "omitted at this tier"
        assert sections["Cross-Table Validation"] == "omitted at this tier"
