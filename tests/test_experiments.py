"""End-to-end tests of the experiment harnesses: do the paper's tables
and figures reproduce with the shapes the paper reports?

These run at reduced scale (few seeds, short simulated time) but assert
the same qualitative claims; the goldens pin the full numbers.  Swept
experiments are read from their sweep points' results, assembled as
``ldlp-experiment run`` assembles them.
"""

import pytest

from repro.experiments import (
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    motivation,
    table1,
    table3,
)
from repro.experiments.cli import build_parser, main as cli_main
from repro.experiments.report import pct, render_table

from .sweeps import ablation, assembled, ci_points


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "bb"], [["x", 1], ["yyy", 22]], title="T")
        assert "T" in text
        assert "yyy" in text

    def test_pct(self):
        assert pct(17.2) == "+17%"
        assert pct(-41.0) == "-41%"


class TestTable1:
    def test_exact_reproduction(self):
        result = table1.run(seed=0)
        assert result.matches_paper()

    def test_render_contains_layers(self):
        text = table1.run(seed=0).render()
        assert "Socket low" in text
        assert "30304" in text


class TestTable3:
    def test_within_tolerance(self):
        assert table3.run(seed=0).within_tolerance()

    def test_direction_of_every_cell(self):
        """Signs must match the paper everywhere: smaller lines shrink
        bytes and grow lines; larger lines do the opposite."""
        result = table3.run(seed=0)
        for line_size in (8, 16):
            row = result.measured_row(line_size)
            assert row["code_bytes"] < 0 and row["code_lines"] > 0
            assert row["ro_bytes"] < 0 and row["ro_lines"] > 0
            assert row["mut_bytes"] < 0 and row["mut_lines"] > 0
        row = result.measured_row(64)
        assert row["code_bytes"] > 0 and row["code_lines"] < 0

    def test_na_cells(self):
        row = table3.run(seed=0).measured_row(4)
        assert row["ro_bytes"] is None
        assert row["code_bytes"] is not None


class TestFigure1:
    def test_phase_totals_within_tolerance(self):
        assert figure1.run(seed=0).within_tolerance(rel=0.25)

    def test_code_map_lists_big_functions(self):
        text = figure1.run(seed=0).code_map()
        assert "tcp_input" in text
        assert "soreceive" in text

    def test_phase_table_renders(self):
        assert "pkt intr" in figure1.run(seed=0).phase_table()


SMALL_RATES = (1000, 4000, 7000, 9500)


@pytest.fixture(scope="module")
def figure5_result():
    return assembled(
        figure5.SWEEP, ci_points(figure5, (SMALL_RATES, (0, 1), 0.12))
    )


@pytest.fixture(scope="module")
def figure6_result():
    return assembled(
        figure6.SWEEP,
        ci_points(figure6, ((1000, 4000, 7000, 9000, 10000), (0, 1), 0.12)),
    )


class TestFigure5:
    def test_shape(self, figure5_result):
        assert figure5_result.shape_holds()
        # The same claims at the ci scale's shorter runs.
        assert assembled(figure5.SWEEP, figure5.SWEEP.points_for("ci")).shape_holds()

    def test_conventional_near_thousand(self, figure5_result):
        # Paper: ~1000 misses/message for the conventional stack.
        for result in figure5_result.conventional:
            assert 800 < result.misses.total < 1200

    def test_ldlp_flattens_at_cap(self, figure5_result):
        top = figure5_result.ldlp[-1]
        assert top.mean_batch_size > 8

    def test_render(self, figure5_result):
        assert "LDLP I" in figure5_result.render()


class TestFigure6:
    def test_shape(self, figure6_result):
        assert figure6_result.shape_holds()
        # The same claims at the ci scale's shorter runs.
        assert assembled(figure6.SWEEP, figure6.SWEEP.points_for("ci")).shape_holds()

    def test_conventional_saturates_before_ldlp(self, figure6_result):
        conv = figure6_result.conventional
        ldlp = figure6_result.ldlp
        # At 7000/s conventional is in the tens of ms; LDLP below 5 ms.
        index = figure6_result.rates.index(7000)
        assert conv[index].latency.mean > 10e-3
        assert ldlp[index].latency.mean < 5e-3

    def test_drop_bound_keeps_latency_finite(self, figure6_result):
        # 500-packet buffer: latency beyond ~140 ms implies drops.
        top = figure6_result.conventional[-1]
        assert top.dropped > 0
        assert top.latency.maximum < 0.5


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return assembled(figure7.SWEEP, figure7.SWEEP.points_for("ci"))

    def test_shape(self, result):
        assert result.shape_holds()

    def test_batching_grows_as_clock_falls(self, result):
        batches = [r.mean_batch_size for r in result.ldlp]
        assert batches[0] > batches[-1]

    def test_render(self, result):
        assert "MHz" in result.render()


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return assembled(figure8.SWEEP, figure8.SWEEP.points_for("ci"))

    def test_shape(self, result):
        assert result.shape_holds()

    def test_cold_intercepts_exact(self, result):
        # 426 and 176 cycles, annotated on the paper's figure.
        assert result.bsd_cold[0] == pytest.approx(426.0)
        assert result.simple_cold[0] == pytest.approx(176.0)

    def test_crossover_near_900(self, result):
        assert result.cold_crossover() == pytest.approx(900, abs=100)

    def test_warm_elaborate_wins_large(self, result):
        assert result.bsd_warm[-1] < result.simple_warm[-1]

    def test_cold_simple_wins_small(self, result):
        index = result.sizes.index(300)
        assert result.simple_cold[index] < result.bsd_cold[index]


class TestAblations:
    def test_batch_cap_one_equals_conventional(self):
        sweep = ablation("batch_cap", (1, 8), 9000.0, 0.08)
        conv = sweep.conventional[0]
        capped = sweep.ldlp[0]
        # cap=1 LDLP degenerates to per-message processing: same misses
        # within a small queue-overhead margin.
        assert capped.misses.total == pytest.approx(conv.misses.total, rel=0.05)
        # cap=8 is far better.
        assert sweep.ldlp[1].misses.total < 0.5 * conv.misses.total
        # Why Figure 5 flattens: misses fall with the cap and saturate at
        # the 14-message cap derived from the 8 KB data cache.
        sweep = ablation("batch_cap", (1, 4, 14, 32), 9000.0, 0.1)
        misses = [round(r.misses.total) for r in sweep.ldlp]
        assert misses[0] > misses[1] > misses[2]
        assert misses[3] > misses[2] * 0.8

    def test_penalty_zero_removes_advantage(self):
        sweep = ablation("miss_penalty", (0, 30), 5000, 0.08)
        zero_conv, zero_ldlp = sweep.conventional[0], sweep.ldlp[0]
        assert zero_ldlp.cycles_per_message == pytest.approx(
            zero_conv.cycles_per_message, rel=0.05
        )
        high_conv, high_ldlp = sweep.conventional[1], sweep.ldlp[1]
        assert high_ldlp.cycles_per_message < 0.75 * high_conv.cycles_per_message
        # The advantage scales with the memory/CPU speed gap.
        sweep = ablation("miss_penalty", (0, 10, 20, 60), 5000, 0.1)
        advantages = [
            conv.cycles_per_message / ldlp.cycles_per_message
            for conv, ldlp in zip(sweep.conventional, sweep.ldlp)
        ]
        assert advantages[0] < 1.05  # no memory gap, no benefit
        assert advantages[-1] > advantages[1]  # grows with the gap

    def test_small_code_removes_advantage(self):
        sweep = ablation("code_size", (1024, 12288), 3500, 0.08)
        small_conv, small_ldlp = sweep.conventional[0], sweep.ldlp[0]
        # Whole stack fits the cache: LDLP buys nothing (Figure 4).
        assert small_ldlp.cycles_per_message == pytest.approx(
            small_conv.cycles_per_message, rel=0.1
        )
        big_conv, big_ldlp = sweep.conventional[1], sweep.ldlp[1]
        assert big_ldlp.cycles_per_message < 0.8 * big_conv.cycles_per_message
        # The Figure-4 boundary: LDLP helps only once the stack exceeds
        # the instruction cache, and more as the code grows.
        sweep = ablation("code_size", (1024, 6144, 12288), 3500, 0.1)
        advantages = [
            conv.cycles_per_message / ldlp.cycles_per_message
            for conv, ldlp in zip(sweep.conventional, sweep.ldlp)
        ]
        assert advantages[0] < 1.1  # cache-resident stack: no benefit
        assert advantages[-1] > 1.3


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        assert parser.parse_args(["run"]).command == "run"
        # Experiments are named after ``run``; a bare name is a usage error.
        with pytest.raises(SystemExit):
            parser.parse_args(["table1"])
        with pytest.raises(SystemExit):
            cli_main(["table1"])

    def test_cli_table1(self, capsys):
        assert cli_main(["run", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_cli_figure8(self, capsys):
        assert cli_main(["run", "figure8", "--no-cache"]) == 0
        assert "crossover" in capsys.readouterr().out


class TestMotivation:
    def test_intro_arithmetic(self):
        result = assembled(motivation.SWEEP, motivation.SWEEP.points_for("ci"))
        # Conventional at 10k pairs/s across 20 hops: "a large fraction
        # of a second" (or more); LDLP keeps the whole path fast.
        conv_20 = result.end_to_end(result.conventional_per_hop, 20)
        ldlp_20 = result.end_to_end(result.ldlp_per_hop, 20)
        assert conv_20 > 0.3
        assert ldlp_20 < 0.1
        assert result.goal_met()

    def test_render(self):
        points = ci_points(motivation, (10_000.0, 0.1, 5))
        text = assembled(motivation.SWEEP, points).render()
        assert "per-hop processing" in text
