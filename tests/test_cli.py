"""Config parsing and the experiment runner."""

import numpy as np
import pytest

import dvintercept.cli as cli
from dvintercept.cli import (
    CSV_HEADER,
    ConfigError,
    build_config,
    build_strategy,
    derive_seed,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)
from dvintercept.graph import from_edges


CONFIG = """\
# small sweep on a generated graph
generate = erdos_renyi(40, 0.15)
select = random, top_degree
strategy = honest, separated
k = 0, 2, 4
trials = 2
seed = 11
metric = ordered
"""


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config("generate = erdos_renyi(20, 0.2)\nk = 2\n")
        assert cfg.select == ("random",)
        assert cfg.strategies == ("separated",)
        assert cfg.trials == 5
        assert cfg.master_seed == 0
        assert cfg.metric == "ordered"
        assert cfg.out is None

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# c\n\ngenerate = erdos_renyi(9,0.5)  # inline\nk = 1\n")
        assert cfg.generate == "erdos_renyi(9,0.5)"

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "select = psychic, greedy_min\nstrategy = bribe\nk = -3, 1.5\n"
                "trials = zero\nseed = pi\nmetric = vibes\nbogus = 1\n"
            )
        msg = str(exc.value)
        # greedy_min picks its own set size, so a sweep over k cannot run it;
        # a count must be an integer
        for frag in ("psychic", "greedy_min", "bribe", "-3", "'1.5'", "trials",
                     "seed", "metric", "bogus", "exactly one of"):
            assert frag in msg

    def test_fractional_percentage_allowed(self):
        cfg = parse_config("generate = erdos_renyi(9,0.5)\nk = 2.5%, 3\n")
        assert cfg.sweep == ("2.5%", "3")

    def test_graph_and_generate_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("graph = a.edges\ngenerate = erdos_renyi(9,0.5)\nk = 1\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("k = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("generate = erdos_renyi(9,0.5)\nno equals sign\nk = 1\n")

    def test_round_trip_through_serialize(self):
        cfg = parse_config(CONFIG)
        assert parse_config(serialize_config(cfg)) == cfg


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(11, "random", 0)
        assert a == derive_seed(11, "random", 0)
        assert a != derive_seed(11, "random", 1)
        assert a != derive_seed(12, "random", 0)
        assert 0 <= a < 2 ** 63


class TestBuildStrategy:
    def test_separated_degrades_on_adjacent_set(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        _, label = build_strategy(g, "separated", [0, 1])
        assert label == "separated->adjacent_general"
        _, label = build_strategy(g, "separated", [0, 2])
        assert label == "separated"

    def test_unknown_name(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ConfigError):
            build_strategy(g, "mystery", [0])


class TestRunExperiment:
    def test_csv_shape_and_order(self):
        cfg = parse_config(CONFIG)
        csv_text, summary = run_experiment(cfg)
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        # 2 methods x 2 trials x 3 sizes x 2 strategies
        assert len(lines) - 1 == 24
        keys = []
        for line in lines[1:]:
            f = line.split(",")
            assert len(f) == 11
            # fractions carry exactly six decimals
            assert all(len(x.split(".")[1]) == 6 for x in f[8:10])
            keys.append((f[3], f[4], int(f[5]), int(f[6])))
        assert keys == sorted(keys)

    def test_k_zero_rows_are_zero(self):
        cfg = parse_config(CONFIG)
        csv_text, _ = run_experiment(cfg)
        saw = 0
        for line in csv_text.strip().splitlines()[1:]:
            f = line.split(",")
            if int(f[5]) == 0:
                saw += 1
                assert float(f[8]) == 0.0 and float(f[9]) == 0.0
        assert saw == 8

    def test_deterministic_modulo_runtime(self):
        cfg = parse_config(CONFIG)
        a, sa = run_experiment(cfg)
        b, sb = run_experiment(cfg)
        strip = lambda text: [ln.rsplit(",", 1)[0]
                              for ln in text.strip().splitlines()]
        assert strip(a) == strip(b)
        assert sa == sb  # summary has no timing column

    def test_strategies_share_colluder_set_within_trial(self):
        # with nested sweep prefixes, honest fraction at k is <= at k' > k
        cfg = parse_config(CONFIG)
        csv_text, _ = run_experiment(cfg)
        by_cell = {}
        for line in csv_text.strip().splitlines()[1:]:
            f = line.split(",")
            by_cell[(f[3], f[4], int(f[5]), int(f[6]))] = float(f[8])
        for method in ("random", "top_degree"):
            for label in ("honest", "separated", "separated->adjacent_general"):
                for trial in range(2):
                    vals = [by_cell[(method, lab, k, trial)]
                            for k in (0, 2, 4)
                            for lab in (label,)
                            if (method, lab, k, trial) in by_cell]
                    if vals:
                        assert vals == sorted(vals)

    def test_percentage_sweep(self):
        cfg = parse_config("generate = erdos_renyi(40,0.15)\nk = 10%\n"
                           "trials = 1\nseed = 3\nstrategy = honest\n")
        csv_text, _ = run_experiment(cfg)
        f = csv_text.strip().splitlines()[1].split(",")
        assert int(f[5]) == 4

    def test_sweep_value_exceeding_n(self):
        cfg = parse_config("generate = erdos_renyi(10,0.5)\nk = 99\ntrials = 1\n")
        with pytest.raises(ConfigError, match="exceeds"):
            run_experiment(cfg)

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "tiny.edges"
        path.write_text("a b\nb c\nc d\nd a\n")
        cfg = parse_config(f"graph = {path}\nk = 1\ntrials = 1\nstrategy = honest\n")
        csv_text, _ = run_experiment(cfg)
        f = csv_text.strip().splitlines()[1].split(",")
        assert f[0] == str(path) and f[1] == "4" and f[2] == "4"


class TestMain:
    def test_flags_only(self, capsys):
        rc = main(["--generate", "erdos_renyi(15,0.3)", "--k", "2",
                   "--trials", "1", "--seed", "5", "--strategy", "honest"])
        assert rc == 0
        cap = capsys.readouterr()
        assert cap.out.splitlines()[0] == CSV_HEADER
        assert cap.err.startswith("# summary")

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("generate = erdos_renyi(12,0.4)\nk = 1\n"
                           "trials = 1\nstrategy = honest\n")
        rc = main(["--config", str(cfgfile), "--strategy", "separated",
                   "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        labels = {ln.split(",")[4] for ln in out.strip().splitlines()[1:]}
        assert labels == {"honest"}

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "curve.csv"
        rc = main(["--generate", "erdos_renyi(12,0.4)", "--k", "1",
                   "--trials", "1", "--strategy", "honest",
                   "--out", str(dest)])
        assert rc == 0
        assert dest.read_text().splitlines()[0] == CSV_HEADER
        assert capsys.readouterr().out.startswith("# summary")

    def test_error_exit_code_and_message(self, capsys):
        rc = main(["--k", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file(self, capsys):
        rc = main(["--config", "/nonexistent/exp.cfg"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
