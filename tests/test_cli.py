import importlib
import json
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import ckkslt
from ckkslt import ckks, cli
from ckkslt import costmodel as cm


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_passes(capsys):
    code, out, err = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "th-bsgs",
        "--n", "16", "--factors", "4,2,2", "--seed", "7")
    assert code == 0
    assert "NOT FOR PRODUCTION" in out
    assert "PASS" in out
    assert "wall time" in err


def test_demo_all_methods_compare(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "all",
        "--n", "16", "--seed", "3", "--compare")
    assert code == 0
    assert out.count("method=") == 4
    pair_lines = [l for l in out.splitlines() if l.startswith("pairwise")]
    assert len(pair_lines) == 6
    # noise floor of the small profile; the full-profile bound lives in
    # the acceptance suite
    assert all(float(l.rsplit("=", 1)[1]) < 1e-3 for l in pair_lines)


def test_demo_identity_tight_error(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--params", "toy", "--method", "dh-bsgs",
        "--n", "16", "--factors", "4,4", "--seed", "1", "--identity",
        "--tolerance", "1e-5")
    assert code == 0


def test_demo_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for f in (f1, f2):
        code, _, _ = run_cli(
            capsys, "demo", "--params", "toy-small", "--method", "bsgs",
            "--n", "16", "--factors", "4,4", "--seed", "9",
            "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_demo_tolerance_breach_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "diagonal",
        "--n", "16", "--seed", "2", "--tolerance", "1e-12")
    assert code == 2
    assert "FAIL" in out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_demo_tolerance_must_be_finite_and_positive(capsys, tolerance):
    # a usage error (exit 1), not a FAIL (exit 2) or a PASS against nothing
    code, out, err = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "diagonal",
        "--n", "16", f"--tolerance={tolerance}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --tolerance")


def test_demo_negative_seed_is_a_usage_error(capsys):
    # numpy's own message ("expected non-negative integer") does not name the flag
    code, out, err = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "diagonal",
        "--n", "16", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --seed")


@pytest.mark.parametrize("extra", [[], ["--method", "bsgs", "--factors", "2,2"]])
def test_demo_negative_n_is_rejected_by_the_plan_checks(capsys, extra):
    # the plans are built before the matrix is drawn, so numpy never sees
    # a negative dimension
    code, out, err = run_cli(capsys, "demo", "--params", "toy-small", "--n", "-4", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "power of two" in err


def test_demo_bad_params_exit_code(capsys):
    code, _, err = run_cli(capsys, "demo", "--params", "set-c")
    assert code == 1
    # set-a is the 54-bit evaluation shape everywhere; the 44-bit demo
    # ring of that size is toy-large
    code, _, err = run_cli(capsys, "demo", "--params", "set-a")
    assert code == 1


@pytest.mark.parametrize("method,factors", [("th-bsgs", "4,4"), ("diagonal", "4,4"),
                                            ("bsgs", "2,2,4")])
def test_demo_single_method_rejects_wrong_arity(capsys, method, factors):
    code, _, err = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", method,
        "--n", "16", "--factors", factors)
    assert code == 1
    assert f"{method} needs" in err


def test_demo_all_methods_take_factors_of_their_arity(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "all",
        "--n", "16", "--factors", "2,8", "--seed", "3")
    assert code == 0
    assert out.count("method=") == 4


def test_analyze_csv_with_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--params", "set-c", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,factors,key_limbs,key_bytes,modmul_total,tag"
    assert any("best-tradeoff" in l for l in lines)
    ratio_line = [l for l in lines if l.startswith("#")][0]
    assert "key_ratio=3.6561" in ratio_line


def test_analyze_json(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--params", "set-a", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["key_ratio"]["th_factors"] == [16, 16, 16] or \
        data["key_ratio"]["th_factors"]
    assert any(p["method"] == "th-bsgs" for p in data["points"])


def test_simulate_json_schema(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--params", "set-a")
    assert code == 0
    data = json.loads(out)
    assert set(data["phases"]) == {"1", "2", "3", "4", "5", "6"}
    assert data["params"]["factors"] == [8, 64, 8]


def test_simulate_explicit_parallelism(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--params", "set-a",
        "--parallelism", "1,1,1,1,1,1,1,1,1,1,1", "--dp", "4")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["parallelism"]["m1"] == 1


@pytest.mark.parametrize("flags, dp", [
    ([], 8),
    (["--dp", "4"], 4),
    (["--parallelism", "1,1,1,1,1,1,1,1,1,1,1"], 8),
    (["--budget-bytes", str(64 * 2**20)], 8),
    (["--budget-bytes", str(64 * 2**20), "--dp", "16"], 16),
    (["--factors", "16,128,8"], 2),
])
def test_simulate_dp_rule(capsys, flags, dp):
    # an explicit --dp always applies; without it set-b's reference config
    # keeps its dp 8, and a config not taken from it gets the default 2
    code, out, _ = run_cli(capsys, "simulate", "--params", "set-b", *flags)
    assert code == 0
    assert json.loads(out)["params"]["parallelism"]["dp"] == dp


@pytest.mark.parametrize("factors", ["8,8,8", "3,5,7", "4,4"])
def test_simulate_rejects_bad_factors(capsys, factors):
    code, out, err = run_cli(capsys, "simulate", "--params", "set-a",
                             "--factors", factors)
    assert code == 1
    assert out == ""
    assert "factors" in err


def test_validate_clean(capsys):
    code, out, _ = run_cli(capsys, "validate", "--params", "set-b")
    assert code == 0
    data = json.loads(out)
    assert data["unexplained"] == 0


def test_validate_bad_parallelism_errors(capsys):
    code, _, err = run_cli(
        capsys, "validate", "--params", "set-a",
        "--parallelism", "99,1,1,1,1,1,1,1,1,1,1")
    assert code == 1
    assert "error" in err


def test_demo_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "th-bsgs",
        "--n", "16", "--factors", "4,2,2", "--seed", "7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert data["methods"][0]["method"] == "th-bsgs"


def test_demo_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "bsgs",
        "--n", "16", "--factors", "4,4", "--seed", "7", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("method,error,decompose")


def test_demo_save_output_roundtrips(capsys, tmp_path):
    from ckkslt import serialize
    path = tmp_path / "result.bin"
    code, _, _ = run_cli(
        capsys, "demo", "--params", "toy-small", "--method", "dh-bsgs",
        "--n", "16", "--factors", "4,4", "--seed", "5",
        "--save-output", str(path))
    assert code == 0
    ct = serialize.load(path.read_bytes())
    assert len(ct.c0.limbs) == 2  # rescaled once from three levels


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[demo]\nparams = toy-small\nmethod = th-bsgs\n"
                   "n = 16\nfactors = 4,2,2\nseed = 7\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "demo")
    assert code == 0
    assert "th-bsgs" in out


@pytest.mark.parametrize("flag", [["--n", "32"], ["--n=32"]])
def test_explicit_flag_beats_config_file(capsys, tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "analyze", "--params",
                           "toy-small", *flag, "--method", "th-bsgs")
    assert code == 0
    assert json.loads(out)["params"]["n"] == 32


def test_missing_config_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "absent.cfg"), "simulate")
    assert code == 1
    assert err.startswith("error: ") and "absent.cfg" in err


def test_budget_search_flag(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--params", "set-a",
        "--budget-bytes", str(43 * 2**20))
    assert code == 0
    data = json.loads(out)
    assert data["params"]["parallelism"]["m1"] >= 1


def test_config_section_scopes_keys_to_its_subcommand(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\nparams = toy-small\n[analyze]\nparams = set-a\nn = 4096\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "demo", "--method", "th-bsgs")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(capsys, "--config", str(cfg), "analyze", "--method", "th-bsgs")
    assert code == 0
    assert json.loads(out)["params"]["n"] == 4096


@pytest.mark.parametrize("text", ["factros = 4,4\n", "[demos]\nn = 16\n",
                                  "[simulate]\nn = 16\n[demo]\nfactros = 4,4\n"])
def test_config_unknown_key_or_section_is_a_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg), "demo", "--params",
                             "toy-small", "--method", "dh-bsgs", "--n", "16")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["ture", "yes", "1"])
def test_config_switch_takes_only_true_or_false(capsys, tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"compare = {value}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "demo", "--params",
                             "toy-small", "--method", "all", "--n", "16")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_config_switch_yields_to_its_negated_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[demo]\nparams = toy-small\nmethod = all\nn = 16\ncompare = true\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "demo")
    assert code == 0
    assert "max_pairwise=" in out
    code, out, _ = run_cli(capsys, "--config", str(cfg), "demo", "--no-compare")
    assert code == 0
    assert "pairwise" not in out


@pytest.mark.parametrize("argv", [
    ["demo", "--factors", "4,a"],
    ["demo", "--format", "xml"],
    ["demo", "--params", "toy-small", "--tolerance", "tight"],
    ["demo", "--params", "toy-small", "--n", "4096"],
    ["simulate", "--params", "set-a", "--seed", "5"],
    ["simulate", "--params", "set-a", "--format", "csv"],
    ["validate", "--params", "set-a", "--format", "json"],
    ["analyze", "--params", "set-a", "--factors", "4,4"],
    ["frobnicate"],
    ["simulate", "--params", "set-b", "--dp", "3"],
    ["validate", "--params", "set-c", "--dp", "3"],
    # n = 1 needs no rotation keys, so the dh/th key ratio has no divisor
    ["analyze", "--params", "toy-small", "--n", "1"],
    ["analyze", "--params", "toy-small", "--n", "1", "--format", "csv"],
    # the budget search would replace the explicit knobs without a word
    ["simulate", "--params", "set-a", "--parallelism", "1,1,1,1,1,1,1,1,1,1,1",
     "--budget-bytes", str(64 * 2**20)],
    ["validate", "--params", "set-a", "--budget-bytes", str(64 * 2**20),
     "--parallelism", "1,1,1,1,1,1,1,1,1,1,1"],
])
def test_usage_errors_exit_1_with_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# HeParams itself rejects a 61-bit word, so that profile is a bare shape
@pytest.mark.parametrize("shape", [SimpleNamespace(ring_dim=2**8, levels=3, alpha=3, word_bits=61),
                                   cm.HeParams(2**8, 1, 1, 30)],
                         ids=["61-bit primes", "one level"])
def test_demo_rejected_shape_exits_1_with_error_line(capsys, monkeypatch, shape):
    monkeypatch.setitem(cli.TOY_PROFILES, "toy-small", shape)
    code, out, err = run_cli(capsys, "demo", "--params", "toy-small", "--n", "16")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_demo_text_format_is_accepted(capsys):
    argv = ["demo", "--params", "toy-small", "--method", "bsgs", "--n", "16",
            "--factors", "4,4", "--seed", "7"]
    code, default_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert out == default_out


@pytest.mark.parametrize("config", [["--config", "demo"], ["--config=demo"]])
def test_config_file_named_like_its_subcommand(capsys, tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo").write_text("params = toy-small\nmethod = bsgs\nn = 16\n")
    code, out, _ = run_cli(capsys, *config, "demo", "--factors", "4,4")
    assert code == 0
    assert "method=bsgs" in out


def test_truncated_flag_is_a_usage_error(capsys, tmp_path):
    # "fac" is a prefix of --factors; it must not be taken as one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[simulate]\nfac = 8,64,8\n")
    for argv in (["--config", str(cfg), "simulate", "--params", "set-a"],
                 ["simulate", "--params", "set-a", "--fac", "8,64,8"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ")


def test_no_source_raises_a_bare_value_error():
    # input checks raise a typed ValueError subclass that names the fault
    offenders = [path.name for path in Path(ckkslt.__file__).parent.glob("*.py")
                 if "raise ValueError(" in path.read_text()]
    assert offenders == []


def test_every_ckkslt_exception_is_a_value_error():
    # main turns a ValueError into one error line and exit 1
    modules = [importlib.import_module(f"ckkslt.{info.name}")
               for info in pkgutil.iter_modules(ckkslt.__path__)]
    defined = {obj for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__}
    assert {ckks.MissingKey, cli.UsageError, cm.BadFactors} <= defined
    assert {cls for cls in defined if not issubclass(cls, ValueError)} == set()
