"""Config handling, staged runs, report emission, and reproducibility."""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opalg import cli, diagonals, embedding, generation, matrices
from opalg.matrices import Matrix
from opalg.chains import Chain, build_chain
from opalg.generation import WeightSeq
from opalg.cli import (
    ConfigError,
    ExperimentConfig,
    build_config,
    emit_report,
    main,
    payload_json,
    run_experiment,
)

import pairwise


def small_cfg(**overrides):
    base = dict(subcommand="chain", m_max=6, n_max=5, f_cap=32, s_max=3, trials=10, r_max=10, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_names_field():
    with pytest.raises(ConfigError, match="m_max"):
        ExperimentConfig(m_max=0).validate()
    with pytest.raises(ConfigError, match="format"):
        ExperimentConfig(format="xml").validate()
    with pytest.raises(ConfigError, match="trace_scheme"):
        ExperimentConfig(trace_scheme="linear").validate()
    with pytest.raises(ConfigError, match="coupling_scheme"):
        ExperimentConfig(coupling_scheme="fancy").validate()


def test_chain_stage_norms_follow_closed_form():
    report = run_experiment(small_cfg(subcommand="chain", m_max=10))
    assert report.overall
    rows = report.series["norm_profile"][1:]
    for index, norm, _lower, predicted, ok in rows:
        assert ok == 1
        if index % 2 == 0:
            k = index // 2
            assert norm == pytest.approx(math.sqrt(1 + k * k), abs=1e-8)
            assert predicted == pytest.approx(norm, abs=1e-8)


def test_generate_stage_passes_and_emits_series():
    report = run_experiment(small_cfg(subcommand="generate"))
    assert report.overall
    rows = report.series["generation_residuals"]
    assert rows[0] == ["m", "r", "residual", "bound", "passed"]
    assert len(rows) == 1 + 6 * 10


weight_schemes = st.one_of(
    st.just("norm-adaptive"),
    st.builds(lambda f, k: f"geometric:{f / 10**k}",
              st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=1000), st.integers(0, 298)),
)
# rational couplings from 2**-62 to 2**500 in size, either sign, sorted by size
coupling_schemes = st.one_of(
    st.just("linear"),
    st.lists(st.builds(lambda e, f, sign: sign * Fraction(2) ** e * f, st.integers(-62, 499),
                       st.fractions(1, 2, max_denominator=9), st.sampled_from([1, -1])), min_size=6, max_size=6)
    .map(lambda values: "list:" + ",".join(map(str, sorted(values, key=abs)))),
)


@given(st.integers(1, 12), st.integers(2, 40), weight_schemes, coupling_schemes)
@example(10, 40, "geometric:1e-100", "linear")  # the weights leave the float range
@example(10, 40, "geometric:1e-20", "linear")
@example(12, 40, "geometric:1e-10", "linear")
@example(2, 19, "geometric:1e-18", f"constant:{2**66}")  # a subnormal bound
@example(3, 3, "geometric:498989/605088", "constant:4")  # residuals not monotone in r
@settings(max_examples=40, deadline=None)
def test_every_valid_generate_config_certifies_at_zero_tolerance(m_max, r_max, weight_scheme, coupling_scheme):
    # valid input never crashes, and at tol 0 every check passes when the
    # mathematics holds; the bound is the only verdict, so the certificate
    # passes exactly when every (m, r) record does
    cfg = ExperimentConfig(subcommand="generate", m_max=m_max, r_max=r_max, weight_scheme=weight_scheme,
                           coupling_scheme=coupling_scheme, tol=0)
    try:
        cfg.validate()
    except ConfigError:
        return
    report = run_experiment(cfg)
    checks = {c.name: c for c in report.stages[0].checks}
    assert all(c.passed for c in checks.values()), [c for c in checks.values() if not c.passed]
    rows = report.series["generation_residuals"][1:]
    assert len(rows) == m_max * r_max
    assert checks["generation-geometric-bound"].passed == all(row[4] for row in rows)


@given(st.integers(1, 40), coupling_schemes)
@example(40, "linear")
@example(10, "list:1/4611686018427387904,1/4611686018427387904,1/3,1/2,1,2")
@example(2, f"list:{Fraction(-7, 9) * 2**400}")  # e_2's norm reads one rounding below its coupling's
@settings(max_examples=30, deadline=None)
def test_every_valid_chain_config_certifies_at_zero_tolerance(m_max, coupling_scheme):
    # valid input never crashes, and at tol 0 every chain check passes: the
    # norm checks allow the rounding budget of the norms they compare
    cfg = ExperimentConfig(subcommand="chain", m_max=m_max, coupling_scheme=coupling_scheme, tol=0)
    try:
        cfg.validate()
    except ConfigError:
        return
    report = run_experiment(cfg)
    checks = report.stages[0].checks
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert len(report.series["norm_profile"]) == 1 + m_max


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.integers(1, 12), coupling_schemes)
@example(2, f"constant:{2**342}")  # the global multiplier estimate leaves the float range
@example(11, f"list:1,1,1,1,{Fraction(7 * 2**257, 5)},{2**258}")  # the estimate rounds one ulp low
@settings(max_examples=30, deadline=None)
def test_every_valid_diagonal_config_certifies_at_zero_tolerance(m_max, coupling_scheme):
    # valid input never crashes or overflows with a warning, and at tol 0
    # every diagonal check passes
    cfg = ExperimentConfig(subcommand="diagonal", m_max=m_max, coupling_scheme=coupling_scheme, tol=0)
    try:
        cfg.validate()
    except ConfigError:
        return
    checks = run_experiment(cfg).stages[0].checks
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.integers(1, 8), st.integers(1, 64), st.integers(1, 3), st.sampled_from(["geometric", "uniform"]),
       st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_every_valid_embed_config_certifies_at_zero_tolerance(n_max, f_cap, trials, trace_scheme, seed):
    # every embed config in these ranges is valid; none warns, and at tol 0
    # every embed check passes
    cfg = ExperimentConfig(subcommand="embed", n_max=n_max, f_cap=f_cap, trials=trials, trace_scheme=trace_scheme,
                           seed=seed, tol=0)
    cfg.validate()
    checks = run_experiment(cfg).stages[0].checks
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_embed_stage_ratio_window():
    report = run_experiment(small_cfg(subcommand="embed", n_max=8, trials=25, seed=7))
    assert report.overall
    rows = report.series["embedding_ratios"][1:]
    for _trial, l1, sup, ratio, trace in rows:
        assert 1.0 / math.pi <= ratio <= 3.0 + 1e-9
        assert sup <= 3 * l1 + 1e-9
        assert trace <= sup + 1e-9


def test_all_subcommand_small_run(tmp_path):
    cfg = small_cfg(subcommand="all", out_dir=str(tmp_path), format="both")
    report = run_experiment(cfg)
    assert report.overall
    assert {s.name for s in report.stages} == {"chain", "generate", "diagonal", "embed"}
    written = emit_report(report, cfg.format, cfg.out_dir)
    names = {p.name for p in written}
    assert names == {"report.json", "norm_profile.csv", "generation_residuals.csv", "embedding_ratios.csv"}
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["report"]["overall"] is True
    assert "stage_seconds" in doc["meta"]


def test_report_payload_reproducible():
    cfg_a = small_cfg(subcommand="embed", trials=8, seed=11)
    cfg_b = small_cfg(subcommand="embed", trials=8, seed=11)
    assert payload_json(run_experiment(cfg_a)) == payload_json(run_experiment(cfg_b))


def test_report_payload_depends_on_seed():
    a = payload_json(run_experiment(small_cfg(subcommand="embed", trials=8, seed=1)))
    b = payload_json(run_experiment(small_cfg(subcommand="embed", trials=8, seed=2)))
    assert a != b


def test_emission_idempotent(tmp_path):
    cfg = small_cfg(subcommand="chain", out_dir=str(tmp_path), format="both")
    report = run_experiment(cfg)
    emit_report(report, cfg.format, cfg.out_dir)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    emit_report(report, cfg.format, cfg.out_dir)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_check_records_carry_anchors():
    report = run_experiment(small_cfg(subcommand="chain"))
    for stage in report.stages:
        for check in stage.checks:
            assert check.anchor
            assert check.expected
            assert check.observed


def _failing_build_chain(spec):
    raise ValueError("chain construction failed")


def test_stage_failure_recorded_not_raised(monkeypatch):
    # a stage that raises leaves a failed check; the run completes
    monkeypatch.setattr("opalg.cli.build_chain", _failing_build_chain)
    report = run_experiment(small_cfg(subcommand="chain", m_max=4))
    assert not report.overall
    checks = report.stages[0].checks
    assert len(checks) == 1 and not checks[0].passed
    assert "chain construction failed" in checks[0].observed


def test_measured_checks_fail_on_bad_input(monkeypatch):
    # chain-idempotency and generator-orthogonality are measured: bad input
    # fails the check itself while every other check of the stage still runs
    def doubled_first(spec):
        chain = build_chain(spec)
        return Chain(spec, (chain.idempotents[0] * 2,) + chain.idempotents[1:], chain.truncation_dim)

    monkeypatch.setattr("opalg.cli.build_chain", doubled_first)
    checks = {c.name: c for c in run_experiment(small_cfg(subcommand="chain", m_max=4)).stages[0].checks}
    assert len(checks) == 4 and not checks["chain-idempotency"].passed
    assert checks["chain-idempotency"].observed == "4 idempotents on dimension 5"
    monkeypatch.undo()

    monkeypatch.setattr("opalg.cli.orthogonal_generators", lambda chain: chain.idempotents)
    checks = {c.name: c for c in run_experiment(small_cfg(subcommand="generate", m_max=4)).stages[0].checks}
    assert len(checks) == 4 and not checks["generator-orthogonality"].passed
    assert checks["generation-geometric-bound"].passed
    monkeypatch.undo()

    # weight-scale-invariance compares the numerators of the weights and of
    # the weights scaled by 3: one scaled weight off breaks only it
    scaled = WeightSeq.scaled

    def last_one_off(weights, factor):
        lams = scaled(weights, factor).lambdas
        return WeightSeq(lams[:-1] + (lams[-1] / 2,))

    monkeypatch.setattr(WeightSeq, "scaled", last_one_off)
    checks = {c.name: c for c in run_experiment(small_cfg(subcommand="generate", m_max=4)).stages[0].checks}
    assert not checks["weight-scale-invariance"].passed
    assert checks["generation-geometric-bound"].passed
    monkeypatch.undo()

    # unitized-diagonal-image checks the images that unitize_diagonal returns:
    # unitizing with the identity in place of pi(D) breaks only it
    unitize = diagonals.unitize_diagonal
    monkeypatch.setattr(diagonals, "unitize_diagonal", lambda delta, u, one: unitize(delta, one, one))
    checks = {c.name: c for c in run_experiment(small_cfg(subcommand="diagonal", m_max=4)).stages[0].checks}
    assert [name for name, c in checks.items() if not c.passed] == ["unitized-diagonal-image"]
    monkeypatch.undo()

    # embedding-multiplicativity multiplies the blocks of the rational trials:
    # one product numerator off in one trial breaks only it
    trial, calls = embedding._rational_trial, []

    def first_off(rng, n):
        a, b, (re, im, den) = trial(rng, n)
        calls.append(den)
        if len(calls) == 1:
            re = re + (np.arange(n) == 0)
        return a, b, (re, im, den)

    monkeypatch.setattr(embedding, "_rational_trial", first_off)
    checks = {c.name: c for c in run_experiment(build_config(["embed", "--trials", "1"])).stages[0].checks}
    assert len(calls) == 10
    assert [name for name, c in checks.items() if not c.passed] == ["embedding-multiplicativity"]


def test_non_orthogonal_generators_fail_generate(tmp_path, capsys, monkeypatch):
    # the stage's own family, or the one certify_generation certifies, being
    # the non-orthogonal chain idempotents makes opalg generate fail
    argv = ["generate", "--m-max", "6", "--r-max", "6", "--out", str(tmp_path)]
    monkeypatch.setattr("opalg.cli.orthogonal_generators", lambda chain: chain.idempotents)
    assert main(argv) == 1
    assert "FAIL generator-orthogonality" in capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setattr(generation, "orthogonal_generators", lambda chain: chain.idempotents)
    assert main(argv) == 1
    assert "FAIL generate-stage-error: CertificationError" in capsys.readouterr().out
    monkeypatch.undo()
    assert main(argv) == 0


def test_all_builds_the_chain_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_chain(spec)

    monkeypatch.setattr("opalg.cli.build_chain", counted)
    assert run_experiment(small_cfg(subcommand="all", m_max=4, trials=2, r_max=4)).overall
    assert len(calls) == 1
    # a build that raises gives each stage that needs the chain its own error
    monkeypatch.setattr("opalg.cli.build_chain", _failing_build_chain)
    report = run_experiment(small_cfg(subcommand="all", m_max=4, trials=2, r_max=4))
    failed = {s.name: [c.name for c in s.checks] for s in report.stages if not s.passed}
    assert failed == {name: [f"{name}-stage-error"] for name in ("chain", "generate", "diagonal")}
    assert [s.passed for s in report.stages if s.name == "embed"] == [True]


def test_all_stacks_the_chain_idempotents_once(monkeypatch):
    # the chain fills e_1..e_m into one stack from its spec, when it is made;
    # every stage reads that stack, so no stack call of a run of all holds them
    cfg = small_cfg(subcommand="all", m_max=6, trials=1, r_max=4)
    idempotents, stack, calls = cli._chain(cfg).idempotents, matrices.stack, []
    m = len(idempotents)

    def counted(mats):
        mats = list(mats)
        calls.append(any(all(map(Matrix.equals, mats[i:i + m], idempotents)) for i in range(len(mats) - m + 1)))
        return stack(mats)

    for module in [module for name, module in sys.modules.items() if name.split(".")[0] == "opalg"]:
        if getattr(module, "stack", None) is stack:
            monkeypatch.setattr(module, "stack", counted)
    assert run_experiment(cfg).overall
    assert calls and sum(calls) == 0


def test_diagonal_stage_views_one_leg_stack(monkeypatch):
    # the stage passes the increments g_n (x) g_n; every D_n that is
    # unitized is a view of the first n terms of one leg stack, with the
    # value of the telescoping diagonal
    seen, unitize = [], diagonals.unitize_diagonal

    def recorded(delta, u, one):
        seen.append(delta)
        return unitize(delta, u, one)

    monkeypatch.setattr(diagonals, "unitize_diagonal", recorded)
    cfg = small_cfg(subcommand="diagonal", m_max=6)
    assert run_experiment(cfg).overall
    chain = cli._chain(cfg)
    assert len(seen) == 6
    for n, delta in enumerate(seen, start=1):
        assert np.shares_memory(delta._left.re, seen[-1]._left.re)
        assert delta.flatten().equals(pairwise.build_delta(chain, n).flatten())


def test_couplings_past_float_range_run_end_to_end(tmp_path, capsys):
    # couplings of 2**300 give tensor legs past 2**256, which are read as
    # floats scaled by a power of 2, and unitized bounds off the reduction
    argv = ["all", "--m-max", "6", "--coupling-scheme", f"constant:{2**300}", "--trials", "1", "--tol", "0"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert "overall: pass" in capsys.readouterr().out


SEED_LABELS = [(0, "diagonal"), (3, "family"), (7, "sweep"), (2**62, "embed")]


def run_python(code):
    """The stdout of ``code`` run by a fresh interpreter that imports this opalg."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_stage_seeds_are_sha256_digests():
    digest = lambda seed, label: hashlib.sha256(f"{seed}:{label}".encode()).digest()
    want = [int.from_bytes(digest(seed, label)[:8], "big") % 2**63 for seed, label in SEED_LABELS]
    assert [cli._stage_seed(seed, label) for seed, label in SEED_LABELS] == want


@pytest.mark.parametrize("argv", [
    ["chain", "--m-max", "4"],
    ["generate", "--m-max", "4", "--r-max", "4"],
    ["diagonal", "--m-max", "4"],
    ["embed", "--n-max", "4", "--f-cap", "16", "--trials", "2"],
    ["all", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_no_subcommand_loads_numpy_random_or_openssl(tmp_path, argv):
    # opalg.draws hashes the stage seeds and makes the draws, so neither
    # numpy.random nor the libcrypto that its import loads is needed
    out = run_python("import sys\nfrom opalg.cli import main\n"
                     f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0\n"
                     "print([m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules])")
    assert out.splitlines()[-1] == "[]"


seed_fields = st.one_of(
    st.fixed_dictionaries({"subcommand": st.just("embed"), "n_max": st.integers(1, 8), "f_cap": st.integers(1, 64),
                           "trials": st.integers(1, 3), "trace_scheme": st.sampled_from(["geometric", "uniform"])}),
    st.fixed_dictionaries({"subcommand": st.just("diagonal"), "m_max": st.integers(1, 12)}),
)


@given(st.integers(0, 2**64 - 1), seed_fields)
@settings(max_examples=20, deadline=None)
def test_every_seed_draws_the_default_rng_streams(seed, fields):
    # the goldens all run seed 0: the embed and diagonal stages' payloads for
    # any seed are those of numpy's default_rng, and every check passes at tol 0
    cfg = ExperimentConfig(seed=seed, tol=0, **fields)
    report = run_experiment(cfg)
    assert report.overall, [c for s in report.stages for c in s.checks if not c.passed]
    with pytest.MonkeyPatch.context() as patch:
        for module in (cli, embedding):
            patch.setattr(module, "Pcg64", np.random.default_rng)
        assert payload_json(report) == payload_json(run_experiment(cfg))


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    argv = ["chain", "--m-max", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert main(["chain", "--m-max", "-2"]) == 2
    # too few or decreasing couplings are config errors, not stage failures
    for m_max, scheme in (("4", "list:9,1"), ("6", "list:1"), ("6", "list:3,2,1")):
        assert main(["chain", "--m-max", m_max, "--coupling-scheme", scheme, "--out", str(tmp_path)]) == 2
    # booleans are not counts, seeds or tolerances, and tol must be finite
    for argv_bad in (["chain", "--tol", "inf"], ["chain", "--tol", "nan"]):
        assert main(argv_bad + ["--out", str(tmp_path)]) == 2
    # unreadable rationals or config files, and couplings above 2**500
    for argv_bad in (
        ["chain", "--coupling-scheme", "constant:abc"],
        ["chain", "--coupling-scheme", "constant:1/0"],
        ["chain", "--coupling-scheme", "list:1,,2"],
        ["generate", "--weight-scheme", "geometric:x"],
        ["generate", "--weight-scheme", "geometric:1/0"],
        ["all", "--m-max", "4", "--coupling-scheme", "constant:1e200", "--trials", "1"],
        ["all", "--m-max", "4", "--coupling-scheme", "constant:1e400", "--trials", "1"],
        ["chain", "--m-max", "4", "--coupling-scheme", f"constant:{2**500 + 1}"],
        ["chain", "--config", str(tmp_path / "missing.json")],
    ):
        assert main(argv_bad + ["--out", str(tmp_path)]) == 2
    assert build_config(["chain", "--m-max", "4", "--coupling-scheme", f"constant:{2**500}"]).m_max == 4
    cfg_file = tmp_path / "cfg.json"
    for bad in ('{"m_max": true}', '{"trials": false}', '{"tol": true}', '{"seed": false}', '{"tol": 1e400}',
                '{"coupling_scheme": 5}', '{"weight_scheme": null}', 'nope{', '[1]'):
        cfg_file.write_text(bad)
        assert main(["chain", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    # with no --out flag, a config file's out_dir must be a string
    cfg_file.write_text('{"out_dir": 5}')
    assert main(["chain", "--config", str(cfg_file)]) == 2
    monkeypatch.setattr("opalg.cli.build_chain", _failing_build_chain)
    assert main(argv) == 1


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    # a flag given on one call does not leak into the next
    assert build_config(["chain", "--m-max", "4", "--seed", "9"]).seed == 9
    assert build_config(["chain", "--m-max", "4"]).seed == ExperimentConfig().seed
    # a flag value that does not parse is the field's config error, as from a config file
    with pytest.raises(ConfigError, match="m_max must be a positive integer, got 'x'"):
        build_config(["chain", "--m-max", "x"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flag, field, value",
    [("--format", "format", "bogus"), ("--trace-scheme", "trace_scheme", "bogus"),
     ("--m-max", "m_max", "x"), ("--tol", "tol", "abc")],
    ids=["--format-format", "--trace-scheme-trace_scheme", "--m-max-m_max", "--tol-tol"],
)
def test_bad_choice_flags_are_config_errors(tmp_path, capsys, flag, field, value):
    # validate checks every flag's value, so a bad choice or a value that does
    # not parse as its field's type exits 2 with the field's message, as a bad
    # config-file value does
    assert main(["chain", flag, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"opalg: {field} must be") and repr(value) in err
    assert not (tmp_path / "report.json").exists()


def test_parser_flags_are_the_config_fields():
    # one flag per config field but subcommand, plus --config
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli.SUBCOMMANDS)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)[1:]}
    for name, sub in subparsers.choices.items():
        assert {a.dest for a in sub._actions} - {"help"} == set(defaults) | {"config_file"}
        # each flag's value, given as a string, arrives with the type of its field's default
        argv = [name] + [x for a in sub._actions if a.dest in defaults for x in (a.option_strings[0], str(defaults[a.dest]))]
        cfg = build_config(argv)
        assert cfg == ExperimentConfig(subcommand=name)
        assert all(type(getattr(cfg, k)) is type(v) for k, v in defaults.items())
    assert build_config(["embed", "--out", "x", "--tol", "0", "--seed", "3"]).out_dir == "x"


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"m_max": 4, "seed": 99, "trials": 5}))
    cfg = build_config(["chain", "--config", str(cfg_file), "--seed", "7"])
    assert cfg.m_max == 4
    assert cfg.trials == 5
    assert cfg.seed == 7
    with pytest.raises(ConfigError, match="unknown config field"):
        cfg_file.write_text(json.dumps({"imaginary": 1}))
        build_config(["chain", "--config", str(cfg_file)])


def test_config_file_and_flags_write_the_same_payload(tmp_path):
    # an int tol from a config file is echoed as the float the flag gives
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"tol": 0, "m_max": 4}))
    from_file = build_config(["chain", "--config", str(cfg_file)])
    from_flags = build_config(["chain", "--tol", "0", "--m-max", "4"])
    assert payload_json(run_experiment(from_file)) == payload_json(run_experiment(from_flags))


def test_trace_scheme_controls_csv_column():
    geo = run_experiment(small_cfg(subcommand="embed", trials=5, trace_scheme="geometric"))
    uni = run_experiment(small_cfg(subcommand="embed", trials=5, trace_scheme="uniform"))
    col_geo = [row[4] for row in geo.series["embedding_ratios"][1:]]
    col_uni = [row[4] for row in uni.series["embedding_ratios"][1:]]
    assert col_geo != col_uni


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("golden_all_small", ["all", "--m-max", "4", "--n-max", "4", "--f-cap", "8", "--s-max", "2",
                              "--trials", "2", "--r-max", "4"]),
        ("golden_generate_m8", ["generate", "--m-max", "8"]),
        ("golden_all_couplings", ["all", "--m-max", "6", "--coupling-scheme", "list:1/3,1/2,5/4", "--n-max", "4",
                                  "--f-cap", "8", "--s-max", "2", "--trials", "2", "--r-max", "4"]),
        # the benchmark's own argv, on the default config
        ("golden_all_default", ["all", "--trials", "1"]),
    ],
)
def test_report_payload_matches_golden(tmp_path, capsys, name, argv):
    # the golden files pin every float digit of the report; a change that
    # moves one updates the file and says so in CHANGES.md
    assert main(argv + ["--format", "json", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    del report["config"]["out_dir"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text()


def test_generation_residuals_csv_matches_golden(tmp_path, capsys):
    # the payload goldens pin only the worst excess of the generation bound;
    # this file pins every residual and bound digit, byte for byte
    argv = ["generate", "--m-max", "8", "--coupling-scheme", "list:1/3,1/2,5/7,9/8", "--weight-scheme", "geometric:1/3"]
    assert main(argv + ["--format", "csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "generation_residuals.csv").read_bytes() == (GOLDEN / "generation_residuals.csv").read_bytes()
