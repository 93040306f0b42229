"""Config parsing and the experiment runner."""

import os
import re

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
)
from dvintercept.graph import from_edges, load_edge_list
from dvintercept.selection import exhaustive_opt

from oracles import coverage_function

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

# the sweep whose CSV, apart from the runtime column, is recorded in GOLDEN
GOLDEN_CONFIG = """\
generate = pref_attach(300, 2)
select = random, top_degree, greedy_max
strategy = honest, independent, separated, adjacent
k = 2, 4, 8, 16
trials = 2
"""
GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_pref_attach_300.csv")


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
                "select = psychic, greedy_min\nstrategy = bribe\n"
                "k = -3, 1.5, inf%, nan%, -inf%\n"
                "trials = zero\nseed = pi\nmetric = vibes\nbogus = 1\n"
            )
        msg = str(exc.value)
        # greedy_min picks its own set size, so a sweep over k cannot run it;
        # a count must be an integer and a percentage finite
        for frag in ("psychic", "greedy_min", "bribe", "-3", "'1.5'",
                     "'inf%' is not finite", "'nan%' is not finite",
                     "'-inf%' is not finite", "trials", "seed", "metric",
                     "bogus", "exactly one of"):
            assert frag in msg

    @pytest.mark.parametrize("text, message", [
        ("select = ,\n", "select: at least one method is required"),
        ("strategy = ,\n", "strategy: at least one name is required"),
        ("strategy = honest,separated, honest\n",
         "strategy: name 'honest' is repeated"),
        ("select = random,top_degree,random,top_degree\n",
         "select: method 'random' is repeated; "
         "select: method 'top_degree' is repeated"),
    ])
    def test_empty_and_repeated_names(self, text, message):
        # an empty list ran no cell and wrote a header-only CSV; a repeated
        # name wrote every row twice and averaged the copies in the summary
        with pytest.raises(ConfigError, match=message):
            parse_config("generate = erdos_renyi(9,0.5)\nk = 1\n" + text)

    def test_repeated_sweep_value(self):
        # each copy of a value wrote its rows again
        with pytest.raises(ConfigError) as exc:
            parse_config("generate = erdos_renyi(9,0.5)\nk = 4, 2%, 4, 2%, 5\n")
        assert str(exc.value) == ("k: sweep value '2%' is repeated; "
                                  "k: sweep value '4' is repeated")

    def test_repeated_key(self):
        # k = 3 silently won over k = 2
        with pytest.raises(ConfigError) as exc:
            parse_config("generate = erdos_renyi(9,0.5)\nk = 2\nk = 3\n"
                         "no equals sign\nseed = 1\nseed = 1\n")
        assert str(exc.value) == (
            "line 3: key 'k' repeats line 2; line 4: expected `key = value`; "
            "line 6: key 'seed' repeats line 5")

    def test_fractional_percentage_allowed(self):
        cfg = parse_config("generate = erdos_renyi(9,0.5)\nk = 2.5%, 3\n")
        assert cfg.sweep == ("2.5%", "3")

    @pytest.mark.parametrize("tok", ["1_0", "\uff130", "1_0%", "0.1_0%", "\uff13%"])
    def test_sweep_values_refuse_underscores_and_other_digits(self, tok):
        # int() read 1_0 as 10 and the full-width \uff130 as 30, float() 1_0%
        # as 10 % and 0.1_0% as 0.1 %
        with pytest.raises(ConfigError) as exc:
            build_config({"generate": "erdos_renyi(9,0.5)", "k": tok})
        assert str(exc.value) == (f"k: malformed sweep value {tok!r} (a count "
                                  "is an integer, a percentage ends in %)")

    @pytest.mark.parametrize("key", ["trials", "seed"])
    @pytest.mark.parametrize("text", ["1_0", "\uff13", "+-1", "", "1.0"])
    def test_trials_and_seed_refuse_what_is_not_digits(self, key, text):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: {text!r} is not an integer")):
            build_config({"generate": "erdos_renyi(9,0.5)", "k": "1", key: text})

    def test_signs_and_blanks_stay_accepted(self):
        cfg = build_config({"generate": "erdos_renyi(9,0.5)", "k": "+3, 2.5%",
                            "trials": " +2 ", "seed": "-7"})
        assert (cfg.trials, cfg.master_seed) == (2, -7)
        assert cli._resolve_sweep(cfg.sweep, 40) == [3, 1]

    @pytest.mark.parametrize("tok", ["1_0", "\uff130", "1_0%"])
    def test_resolve_sweep_reads_digits_only(self, tok):
        # a config built without `build_config` reaches the sweep unchecked
        with pytest.raises(ValueError, match="is not"):
            cli._resolve_sweep((tok,), 40)

    def test_graph_and_generate_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("graph = a.edges\ngenerate = erdos_renyi(9,0.5)\nk = 1\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("k = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("generate = erdos_renyi(9,0.5)\nno equals sign\nk = 1\n")


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

    @pytest.mark.parametrize("k, message", [
        ("10%, 3, 12", "sweep values '10%' and '3' both give k=3 at n=30"),
        ("0%, 0", "sweep values '0%' and '0' both give k=0 at n=30"),
    ])
    def test_sweep_values_giving_one_size(self, k, message):
        # each value giving one k wrote the same rows again per (selection,
        # trial)
        cfg = parse_config(f"generate = erdos_renyi(30,0.1)\nk = {k}\n")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_experiment(cfg)

    def test_sweep_value_exceeding_n(self):
        cfg = parse_config("generate = erdos_renyi(10,0.5)\nk = 99\ntrials = 1\n")
        with pytest.raises(ConfigError, match="exceeds"):
            run_experiment(cfg)

    def test_exhaustive_rows_are_optima_per_size(self, tmp_path):
        # exhaustive optima are not nested: on the path 0-1-...-6 the k = 2
        # optimum is {1, 4}, but the k = 1 optimum is node 3, not node 1
        path = tmp_path / "p7.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(6)))
        cfg = parse_config(f"graph = {path}\nselect = exhaustive\nk = 1, 2, 3\n"
                           "trials = 1\nstrategy = honest\n")
        csv_text, _ = run_experiment(cfg)
        g = load_edge_list(path)
        rows = [ln.split(",") for ln in csv_text.strip().splitlines()[1:]]
        assert [int(f[5]) for f in rows] == [1, 2, 3]
        for f in rows:
            best = exhaustive_opt(g, int(f[5]))[0]
            assert float(f[8]) == pytest.approx(float(coverage_function(g, best)),
                                                abs=5e-7)
        assert rows[0][8] == "0.714286"

    def test_golden_sweep(self):
        # every strategy and kernel behind the CLI at once: n = 300 is two
        # blocks of targets, and every top-degree and greedy set (and the
        # random sets of 16) has adjacent colluders, so separated falls back
        # to the adjacent build; every column but the runtime equals the
        # recorded CSV
        csv_text, _ = run_experiment(parse_config(GOLDEN_CONFIG))
        got = [ln.rsplit(",", 1)[0] for ln in csv_text.splitlines()]
        with open(GOLDEN) as f:
            want = f.read().splitlines()
        assert len(got) == 1 + 96
        assert sum(",separated->adjacent_general," in ln for ln in got) == 18
        assert got == want

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

    @pytest.mark.parametrize("argv, message", [
        (["--generate", "erdos_renyi(10)", "--k", "2"],
         "error: generator spec 'erdos_renyi(10)': "
         "erdos_renyi() missing 1 required positional argument: 'p'\n"),
        (["--generate", "pref_attach(20,2.5)", "--k", "2"],
         "error: generator spec 'pref_attach(20,2.5)': m 2.5 is not an integer\n"),
        (["--generate", "erdos_renyi(10,0.3)", "--k", "inf%,nan%"],
         "error: k: percentage 'inf%' is not finite; "
         "k: percentage 'nan%' is not finite\n"),
        (["--generate", "erdos_renyi(10,0.3)", "--k", " , "],
         "error: k: at least one sweep value is required\n"),
        (["--generate", "erdos_renyi(10,0.3)", "--k", "2", "--trials", "0"],
         "error: trials: must be >= 1\n"),
        (["--generate", "erdos_renyi(10, 0.3)", "--k", "11"],
         "error: sweep value '11' exceeds n=10\n"),
        (["--generate", "erdos_renyi(30, 0.1)", "--k", "4,4,10%,13%"],
         "error: k: sweep value '4' is repeated\n"),
        (["--generate", "erdos_renyi(30, 0.1)", "--k", "4,13%"],
         "error: sweep values '4' and '13%' both give k=4 at n=30\n"),
        (["--generate", "erdos_renyi(30, 0.1)", "--k", "1_0"],
         "error: k: malformed sweep value '1_0' (a count is an integer, "
         "a percentage ends in %)\n"),
        # a flag is refused as its config key is, not by argparse's exit 2
        (["--generate", "erdos_renyi(10,0.3)", "--k", "2", "--metric", "vibes"],
         "error: metric: must be one of ('ordered', 'unordered')\n"),
    ])
    def test_input_error_exit_code_and_message(self, capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", message)

    def test_help_lists_every_setting(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("config", *cli._SETTINGS):
            assert re.search(rf"^\s+--{key} {key.upper()}\b", out, re.M), key

    def test_exhaustive_budget_exit_code_and_message(self, capsys):
        rc = main(["--generate", "pref_attach(60, 2)", "--select", "exhaustive",
                   "--k", "5"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: C(60,5) = 5461512 exceeds budget 1000000\n"

    @pytest.mark.parametrize("config, message", [
        ("generate = erdos_renyi(10,0.3)\nk = 2\nk = 3\n",
         "error: line 3: key 'k' repeats line 2\n"),
        ("generate = erdos_renyi(10,0.3)\nk = 2\nselect = ,\n",
         "error: select: at least one method is required\n"),
        ("generate = erdos_renyi(10,0.3)\nk = 2\nstrategy = ,\n",
         "error: strategy: at least one name is required\n"),
        ("generate = erdos_renyi(10,0.3)\nk = 2\nstrategy = honest,honest\n",
         "error: strategy: name 'honest' is repeated\n"),
    ])
    def test_config_violation_exits_1(self, tmp_path, capsys, config, message):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(config)
        assert main(["--config", str(cfgfile)]) == 1
        assert capsys.readouterr() == ("", message)

    def test_missing_config_file(self, capsys):
        rc = main(["--config", "/nonexistent/exp.cfg"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
