"""CLI surface: run/price/table3/fig1, exit codes, output formats."""

import configparser
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import lcsim
from lcsim import scenario
from lcsim.cli import main, provider_count_for_value
from lcsim.harness import ConfigInvalidError, ProviderSpec, ScenarioConfig
from lcsim.light_client import ClientConfig
from lcsim.pricing import eth_to_wei


@pytest.fixture
def runner():
    return CliRunner()


def configparser_sections(path):
    """The reference reader: each section's values as ConfigParser reads them."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _in_order(sections):
    return [(name, list(values.items())) for name, values in sections.items()]


_KEY = st.text(string.ascii_letters + string.digits + "_.", min_size=1, max_size=8)
_VALUE = st.text(string.ascii_letters + string.digits + " =:;%#.-/", max_size=12)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_FILLER = st.lists(st.sampled_from(["", "  ", "# note", "; a = b", "  # indented"]), max_size=2)


@st.composite
def _ini_texts(draw):
    """Text in the accepted grammar: spacing, comments, any-case keys, `=` `:` `;` in values."""
    lines = draw(_FILLER)
    names = st.text(string.ascii_letters + string.digits + "._-", min_size=1, max_size=10)
    for name in draw(st.lists(names.filter(lambda n: n != "DEFAULT"), unique=True, max_size=4)):
        lines.append(f"[{name}]" + draw(_SPACE))
        lines += draw(_FILLER)
        for key in draw(st.lists(_KEY, unique_by=str.lower, max_size=5)):
            lines.append(f"{key}{draw(_SPACE)}={draw(_SPACE)}{draw(_VALUE)}{draw(_SPACE)}")
            lines += draw(_FILLER)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestScenarioFiles:
    def test_builtin_scenarios_present(self):
        names = scenario.list_builtin_scenarios()
        assert {"honest", "wrong_hash", "exit_scam", "insured", "maintenance"} <= set(names)

    def test_unknown_strategy_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[scenario]\nseed = 1\n"
            "[provider.x]\nstake_eth = 32\nstrategy = creative\n"
            "[client.y]\nchallenge_period = 13\ntarget_value_eth = 1\n"
        )
        with pytest.raises(ConfigInvalidError, match="strategy"):
            scenario.load_scenario(bad)

    def test_missing_sections_rejected(self, tmp_path):
        empty = tmp_path / "empty.ini"
        empty.write_text("[scenario]\nseed = 1\n")
        with pytest.raises(ConfigInvalidError, match="provider"):
            scenario.load_scenario(empty)

    def test_negative_coverage_input_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        text = scenario.builtin_scenario_path("insured").read_text()
        path.write_text(text.replace("delta_comm = 20", "delta_comm = -1"))
        with pytest.raises(ConfigInvalidError, match="client client.main: coverage components"):
            scenario.load_scenario(path)

    def test_bad_coverage_input_named_with_its_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        text = scenario.builtin_scenario_path("insured").read_text()
        path.write_text(text.replace("delta_comm = 20", "delta_comm = soon"))
        with pytest.raises(
            ConfigInvalidError, match="^client client.main: delta_comm must be an integer"
        ):
            scenario.load_scenario(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="not found"):
            scenario.load_scenario(tmp_path / "nope.ini")

    def test_left_out_and_blank_values_take_the_config_defaults(self, tmp_path):
        path = tmp_path / "blank.ini"
        path.write_text(
            "[scenario]\ntotal_ticks =\n"
            "[provider.a]\nstake_eth = 32\nregister_tick = \nwithdraw_tick =\n"
            "[client.b]\nchallenge_period = 13\ntarget_value_eth = 1\nstart_tick =\n"
        )
        assert scenario.load_scenario(path) == ScenarioConfig(
            providers=(ProviderSpec(stake=eth_to_wei(32)),),
            clients=(ClientConfig(challenge_period=13, target_value=eth_to_wei(1)),),
        )

    def test_readme_block_loads_as_printed_and_lists_every_key(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        config = scenario.load_scenario(path)
        assert config.total_ticks == 220
        assert config.clients[0].challenge_period == 13
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        documented = {name.partition(".")[0]: set(parser[name]) for name in parser.sections()}
        assert documented == {kind.rstrip("."): set(keys) for kind, keys in scenario._KEYS.items()}

    @given(_ini_texts())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_reader_matches_configparser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "drawn.ini"
        path.write_text(text, encoding="utf-8")
        assert _in_order(scenario._sections(path)) == _in_order(configparser_sections(path))

    @pytest.mark.parametrize("name", [*scenario.list_builtin_scenarios(), "README"])
    def test_bundled_and_readme_scenarios_load_alike_through_configparser(
        self, tmp_path, monkeypatch, name
    ):
        if name == "README":
            readme = Path(__file__).resolve().parents[1] / "README.md"
            path = tmp_path / "readme.ini"
            path.write_text(readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0])
        else:
            path = scenario.builtin_scenario_path(name)
        config = scenario.load_scenario(path)
        monkeypatch.setattr(scenario, "_sections", configparser_sections)
        assert scenario.load_scenario(path) == config


class TestRun:
    def test_honest_scenario_exits_zero(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", str(scenario.builtin_scenario_path("honest")), "-o", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["violations"] == []
        assert (tmp_path / "events.log").exists()

    def test_exit_scam_scenario_exits_zero_with_one_slash(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", str(scenario.builtin_scenario_path("exit_scam")), "-o", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["slash_count"] == 1

    @pytest.mark.parametrize(
        "name, counts",
        [
            # The economic client checks the alert on its open target check;
            # the insured one has accepted before its alert comes.
            ("wrong_hash", "1 slashes, 1 acceptances, 2 heavy checks"),
            ("insured", "1 slashes, 1 acceptances, 1 heavy checks"),
        ],
    )
    def test_ok_line_counts_heavy_checks(self, runner, tmp_path, name, counts):
        path = scenario.builtin_scenario_path(name)
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("ok: ")
        assert result.output.endswith(f" events, {counts}\n")
        client = json.loads((tmp_path / "metrics.json").read_text())["clients"]["c0"]
        assert sum(client["heavy_checks_by_cause"].values()) == client["heavy_checks"]
        assert client["heavy_checks_by_cause"]["bootstrap"] == 1

    def test_buyer_short_of_premium_plus_gas_reverts_without_traceback(self, runner, tmp_path):
        # 0.0018 ETH pays the premium of the insured scenario but not the gas too.
        path = tmp_path / "poor.ini"
        text = scenario.builtin_scenario_path("insured").read_text()
        path.write_text(text.replace("initial_balance_eth = 1", "initial_balance_eth = 0.0018"))
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert result.exception is None
        assert "Traceback" not in result.output
        log = (tmp_path / "out" / "events.log").read_text()
        assert "tx-BuyInsuranceTx-InsufficientBalance" in log
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        client = metrics["clients"]["c0"]
        assert client["final_balance"] == client["initial_balance"]

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("this is not an ini [\n", 1, id="not-ini"),
            pytest.param("seed = 1\n[scenario]\n", 1, id="key-before-section"),
            pytest.param("[scenario]\nseed 1\n", 2, id="no-equals"),
            # `:` is not a delimiter.
            pytest.param("[scenario]\nseed: 1\n", 2, id="colon"),
            pytest.param("[scenario]\n\n[provider.a\nstake_eth = 32\n", 3, id="unclosed-header"),
            # No continuation lines: this one would join the value of `seed`.
            pytest.param("[scenario]\nseed = 1\n  total_ticks = 5\n", 3, id="indented"),
            pytest.param("[scenario]\nseed = 1\n[pricing]\n[scenario]\n", 4, id="section-twice"),
            pytest.param("[scenario]\nseed = 1\n# seed again\nSeed = 2\n", 4, id="key-twice"),
        ],
    )
    def test_malformed_file_exits_two(self, runner, tmp_path, text, line):
        path = tmp_path / "broken.ini"
        path.write_text(text)
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert f"invalid scenario: malformed scenario file: {path}:{line}: " in result.output

    @pytest.mark.parametrize(
        "make, named",
        [
            (lambda path: path.write_bytes(b"[scenario]\nseed = 1\n\xff\xfe\n"), "not UTF-8"),
            (lambda path: path.mkdir(), "cannot read scenario file {path}: Is a directory"),
        ],
        ids=["not-utf-8", "directory"],
    )
    def test_unreadable_file_exits_two(self, runner, tmp_path, make, named):
        path = tmp_path / "bad.ini"
        make(path)
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert named.format(path=path) in result.output

    def test_percent_sign_exits_two(self, runner, tmp_path):
        # `%` is read literally, so the bad APY reaches pricing and is named.
        path = tmp_path / "percent.ini"
        path.write_text(
            "[scenario]\nseed = 1\n"
            "[pricing]\napy = 6%\n"
            "[provider.a]\nstake_eth = 32\n"
            "[client.b]\nchallenge_period = 13\ntarget_value_eth = 1\n"
        )
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "invalid scenario: pricing:" in result.output

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("client.main", "maintain", "sometimes", "client client.main: maintain must be a"),
            ("client.main", "maintain", "", "client client.main: maintain must be a boolean"),
            ("client.main", "perform_check", "maybe", "client client.main: perform_check must be"),
            ("client.main", "start_tick", "soon", "client client.main: start_tick must be an"),
            ("client.main", "protocol", "", "client client.main: unknown protocol ''"),
            ("provider.a", "strategy", "", "provider provider.a: unknown strategy ''"),
            ("provider.a", "stake_eth", "", "provider provider.a: stake_eth is required"),
            ("provider.a", "stake_eth", "1/0", "provider provider.a: stake_eth: "),
            ("provider.a", "register_tick", "1.5", "provider provider.a: register_tick must be an"),
            ("scenario", "total_ticks", "many", "scenario: total_ticks must be an integer, got"),
            ("scenario", "slots_per_epoch", "0", "slots_per_epoch"),
            ("scenario", "seed", "-3", "seed must be in"),
            ("scenario", "min_stake_eth", "-1", "min_stake must not be negative"),
            ("client.main", "target_value_eth", "0", "client 0: target_value must be positive"),
            ("client.main", "target_value_eth", "-1", "client 0: target_value must be positive"),
            (
                "client.main",
                "challenge_period",
                "-3",
                "client 0: challenge_period must not be negative",
            ),
            (
                "client.main",
                "maintenance_challenge_period",
                "-2",
                "client 0: maintenance_challenge_period must not be negative",
            ),
            (
                "client.main",
                "maintenance_challenge_period",
                "99",
                "client 0: maintenance_challenge_period exceeds max_challenge_period",
            ),
            (
                "client.main",
                "initial_balance_eth",
                "-5",
                "client 0: initial_balance must not be negative",
            ),
            ("provider.a", "stake_eth", "1e400", "provider 0: stake above 2**128 - 1 wei"),
            ("provider.a", "register_tick", "0", "provider 0: register_tick must be at least 1"),
            ("provider.a", "register_tick", "-4", "provider 0: register_tick must be at least 1"),
            ("provider.a", "withdraw_tick", "-1", "provider 0: withdraw_tick must be at least 1"),
            # Two lines: a withdraw two ticks before the provider registers.
            (
                "provider.a",
                "withdraw_tick",
                "3\nregister_tick = 5",
                "provider 0: withdraw_tick must not come before register_tick",
            ),
        ],
    )
    def test_bad_value_exits_two(self, runner, tmp_path, section, key, value, named):
        # The honest scenario with one value of one section replaced or added.
        lines = scenario.builtin_scenario_path("honest").read_text().splitlines()
        at = lines.index(f"[{section}]") + 1
        end = next((i for i in range(at, len(lines)) if lines[i].startswith("[")), len(lines))
        lines[at:end] = [line for line in lines[at:end] if not line.startswith(f"{key} =")]
        lines.insert(at, f"{key} = {value}")
        path = tmp_path / "bad.ini"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"invalid scenario: {named}" in result.output

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("gas_units", "-3", "pricing: gas_units must be non-negative"),
            ("gas_price_gwei", "-1", "pricing: gas price must be non-negative"),
            ("apy", "", "pricing: "),
            ("gas_units", "", "pricing: "),
            ("utilization", "1/0", "pricing: "),
        ],
    )
    def test_bad_pricing_exits_two(self, runner, tmp_path, key, value, named):
        text = scenario.builtin_scenario_path("honest").read_text()
        path = tmp_path / "bad.ini"
        path.write_text(f"{text}\n[pricing]\n{key} = {value}\n")
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"invalid scenario: {named}" in result.output

    @pytest.mark.parametrize(
        "section, key",
        [
            ("scenario", "total_tick"),
            ("pricing", "gas_price"),
            ("provider.a", "stake"),
            ("client.main", "maintian"),
        ],
    )
    def test_unknown_key_exits_two(self, runner, tmp_path, section, key):
        text = scenario.builtin_scenario_path("honest").read_text() + "\n[pricing]\n"
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 50\n"))
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"invalid scenario: [{section}]: unknown key '{key}'" in result.output

    @pytest.mark.parametrize("section", ["clients.main", "provider", "scenario.extra", "DEFAULT"])
    def test_unknown_section_exits_two(self, runner, tmp_path, section):
        text = scenario.builtin_scenario_path("honest").read_text()
        path = tmp_path / "bad.ini"
        path.write_text(f"{text}\n[{section}]\nmaintain = true\n")
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"invalid scenario: unknown section [{section}]" in result.output

    @pytest.mark.parametrize(
        "out, named",
        [
            # -o names an existing file, not a directory.
            ("taken", "cannot write {out}: File exists"),
            # The directory holds a directory where events.log goes.
            ("dir", "cannot write {out}/events.log: Is a directory"),
        ],
    )
    def test_unwritable_out_dir_exits_two_before_the_run(
        self, runner, tmp_path, monkeypatch, out, named
    ):
        (tmp_path / "taken").write_text("")
        (tmp_path / "dir" / "events.log").mkdir(parents=True)
        monkeypatch.setattr("lcsim.cli.run_scenario", lambda config: pytest.fail("ran"))
        path = tmp_path / out
        scenario_path = str(scenario.builtin_scenario_path("honest"))
        result = runner.invoke(main, ["run", scenario_path, "-o", str(path)])
        assert result.exit_code == 2, result.output
        assert named.format(out=path) in result.output

    def test_violation_exits_one_and_names_invariant(self, runner, tmp_path):
        # T_cp = 0 against a lying provider: the eco-safety invariant must
        # trip and be named.
        path = tmp_path / "unsafe.ini"
        path.write_text(
            "[scenario]\nseed = 3\nupdate_epoch_blocks = 32\n"
            "max_challenge_period = 16\ndelta_ticks = 2\ntotal_ticks = 160\n"
            "[provider.adv]\nstake_eth = 64\nstrategy = wrong_hash\n"
            "[provider.ok]\nstake_eth = 32\nstrategy = honest\n"
            "[client.main]\nprotocol = eco\nchallenge_period = 0\n"
            "target_value_eth = 10\n"
        )
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "eco-safety" in result.output


class TestPrice:
    def test_worked_example(self, runner):
        result = runner.invoke(
            main, ["price", "--value", "100", "--duration", "1500"]
        )
        assert result.exit_code == 0
        assert "premium: 0.004566 ETH" in result.output

    def test_ten_eth_total(self, runner):
        result = runner.invoke(
            main,
            [
                "price",
                "--value", "10",
                "--duration", "1500",
                "--eth-usd", "3200",
                "--gas-gwei", "9.377",
                "--gas-units", "200000",
            ],
        )
        assert result.exit_code == 0
        assert "gas: $6.00" in result.output
        total = float(result.output.split("total: $")[1].strip())
        assert abs(total - 7.45) <= 0.02

    def test_zero_value_pays_gas_only(self, runner):
        result = runner.invoke(main, ["price", "--value", "0", "--duration", "1500"])
        assert "premium: 0.000000 ETH" in result.output
        assert "total: $6.00" in result.output

    def test_missing_flags_usage_error(self, runner):
        result = runner.invoke(main, ["price", "--value", "10"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--value", "abc", "Invalid value for '--value': 'abc' is not a number"),
            ("--apy", "-1", "invalid pricing: apy must be non-negative"),
            ("--duration", "-5", "Invalid value for '--duration'"),
            ("--utilization", "0", "invalid pricing: utilization must be in (0, 1]"),
            ("--gas-gwei", "-1", "invalid pricing: gas price must be non-negative"),
        ],
    )
    def test_bad_input_exits_two(self, runner, flag, value, named):
        flags = {"--value": "10", "--duration": "1500", flag: value}
        result = runner.invoke(main, ["price", *(part for item in flags.items() for part in item)])
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert "total:" not in result.output


class TestTable3:
    def test_rows_match_headline_numbers(self, runner, tmp_path):
        # The paper's totals are 7.45, 10.68, 29.38 and 52.76 USD.
        out = tmp_path / "table3.csv"
        result = runner.invoke(main, ["table3", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == (
            "covered_value_eth,provider_count,premium_usd,gas_usd,total_usd,"
            "signature_count,latency_ticks\n"
            "10,1,1.46,6.00,7.46,1,1500\n"
            "32,1,4.68,6.00,10.68,1,1500\n"
            "160,5,23.38,6.00,29.38,5,1500\n"
            "320,10,46.76,6.00,52.76,10,1500\n"
        )

    def test_negative_challenge_period_exits_two(self, runner, tmp_path):
        out = tmp_path / "table3.csv"
        result = runner.invoke(main, ["table3", str(out), "--challenge-period", "-5"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--challenge-period'" in result.output
        assert not out.exists()

    def test_directory_as_out_path_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["table3", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"cannot write {tmp_path}: Is a directory" in result.output
        assert "wrote" not in result.output

    def test_provider_counts(self):
        assert [provider_count_for_value(v) for v in (10, 32, 160, 320)] == [1, 1, 5, 10]


class TestFig1:
    def test_single_point_matches_price(self, runner, tmp_path):
        out = tmp_path / "fig1.csv"
        result = runner.invoke(
            main, ["fig1", str(out), "--durations", "1500", "--values", "10"]
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value_eth,duration_blocks,total_usd"
        value, duration, total = lines[1].split(",")
        assert (value, duration) == ("10", "1500")
        price = runner.invoke(main, ["price", "--value", "10", "--duration", "1500"])
        assert f"total: ${total}" in price.output

    def test_non_numeric_values_exit_two(self, runner, tmp_path):
        out = tmp_path / "fig1.csv"
        result = runner.invoke(main, ["fig1", str(out), "--values", "abc"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--values': 'abc' is not a list of integers" in result.output
        assert not out.exists()

    def test_missing_directory_exits_two(self, runner, tmp_path):
        out = tmp_path / "missing" / "fig1.csv"
        result = runner.invoke(main, ["fig1", str(out)])
        assert result.exit_code == 2, result.output
        assert f"cannot write {out}: No such file or directory" in result.output
        assert "wrote" not in result.output

    def test_grid_size(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        runner.invoke(
            main, ["fig1", str(out), "--durations", "500,1500", "--values", "1,10,100"]
        )
        assert len(out.read_text().strip().splitlines()) == 1 + 2 * 3


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(lcsim.__file__).resolve().parents[1]))
    path = scenario.builtin_scenario_path("honest")
    result = subprocess.run(
        [sys.executable, "-m", "lcsim", "run", str(path), "-o", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok:")
    assert (tmp_path / "metrics.json").exists()
