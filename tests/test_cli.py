"""End-to-end tests for the command line: text output, JSON shape, exit codes."""

import contextlib
import importlib.util
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2ipt import bridge, cli, su2, tensors

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return out.rstrip("\n").split("\n")


def test_theta_single_prints_exact_value(capsys):
    code, out, _ = run(capsys, ["theta", "--path", "1/2,0"])
    assert code == 0
    assert lines(out) == ["config: command=theta path=1/2,0 path2=None", "2"]


def test_theta_pair_is_orthogonality_aware(capsys):
    code, out, _ = run(
        capsys, ["theta", "--path", "1/2,1,1/2", "--path2", "1/2,1,1/2"]
    )
    assert code == 0
    assert lines(out)[-1] == "3"
    # different intermediate spins contract to zero
    code, out, _ = run(
        capsys, ["theta", "--path", "1/2,1,1/2", "--path2", "1/2,0,1/2"]
    )
    assert code == 0
    assert lines(out)[-1] == "0"


def test_theta_pair_with_invalid_step_is_usage_error(capsys):
    code, out, err = run(
        capsys, ["theta", "--path", "1/2,1,1/2", "--path2", "1/2,7"]
    )
    assert code == 2
    assert out == ""
    assert "error: step 1 -> 14 is not a spin-1/2 step" in err
    assert "Traceback" not in err
    code, _, err = run(capsys, ["theta", "--path", "1/2,7", "--path2", "1/2,1"])
    assert code == 2
    assert "Traceback" not in err


def test_decimal_spin_token_is_usage_error(capsys):
    code, _, err = run(capsys, ["theta", "--path", "0.5"])
    assert code == 2
    assert "bad spin '0.5' at position 1" in err


def test_empty_spin_list_is_usage_error(capsys):
    code, _, err = run(capsys, ["theta", "--path", ""])
    assert code == 2
    assert "empty spin list (position 1)" in err


def test_bad_token_position_is_reported(capsys):
    code, _, err = run(capsys, ["theta", "--path", "1/2,x,1/2"])
    assert code == 2
    assert "at position 2" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_missing_required_argument_is_usage_error(capsys):
    code, _, err = run(capsys, ["theta"])
    assert code == 2
    assert "--path" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "invariant perfect tensor toolkit" in out


def test_basis_valence4_lists_labels_with_theta(capsys):
    code, out, _ = run(capsys, ["basis", "--valence", "4"])
    assert code == 0
    assert lines(out) == [
        "config: command=basis split=2 valence=4",
        "2 bridge labels for valence 4, split 2",
        "  1/2,1 | 1,1/2   theta = 3",
        "  1/2,0 | 0,1/2   theta = 4",
    ]


def test_basis_valence6_canonical_order_and_thetas(capsys):
    code, out, _ = run(capsys, ["basis", "--valence", "6"])
    assert code == 0
    assert lines(out)[1:] == [
        "5 bridge labels for valence 6, split 3",
        "  1/2,1,3/2 | 3/2,1,1/2   theta = 4",
        "  1/2,1,1/2 | 1/2,1,1/2   theta = 9/2",
        "  1/2,0,1/2 | 1/2,1,1/2   theta = 6",
        "  1/2,1,1/2 | 1/2,0,1/2   theta = 6",
        "  1/2,0,1/2 | 1/2,0,1/2   theta = 8",
    ]


def test_master_valence4_prints_system_and_family(capsys):
    code, out, _ = run(capsys, ["master", "--valence", "4"])
    assert code == 0
    text = lines(out)
    assert "  |c[1/2,1 | 1,1/2]|^2 = lambda" in text
    assert "  4 |c[1/2,0 | 0,1/2]|^2 = lambda" in text
    assert "  c[1/2,1 | 1,1/2] = sqrt(lam) * exp(i phi1)" in text
    assert "  c[1/2,0 | 0,1/2] = sqrt(lam)/2 * exp(i phi0)" in text
    assert text[-1] == "  domain: lam > 0"


def test_master_valence6_prints_cross_equation_and_domain(capsys):
    code, out, _ = run(capsys, ["master", "--valence", "6"])
    assert code == 0
    assert (
        "  3 c[1/2,0,1/2 | 1/2,1,1/2] conj(c[1/2,1,1/2 | 1/2,1,1/2])"
        " + 4 c[1/2,0,1/2 | 1/2,0,1/2] conj(c[1/2,1,1/2 | 1/2,0,1/2]) = 0"
        in lines(out)
    )
    assert lines(out)[-1] == "  domain: 0 <= A <= 2 sqrt(lam) / 3"
    # four equations after the header line
    eqs = [x for x in lines(out) if "lambda" in x or x.endswith("= 0")]
    assert len(eqs) == 4


def test_repart_closed_form_crossing(capsys):
    code, out, _ = run(capsys, ["repart", "--valence", "4", "--word", "P*"])
    assert code == 0
    text = lines(out)
    assert text[1] == "word P* on valence 4 (binor_crossing):"
    assert text[2].split() == ["1/2,1", "|", "1,1/2", "-1/2", "-1"]
    assert text[3].split() == ["1/2,0", "|", "0,1/2", "-3/4", "1/2"]
    assert text[4] == "involution: True"


def test_repart_swap_convention_is_plain(capsys):
    code, out, _ = run(
        capsys,
        ["repart", "--valence", "4", "--word", "P34", "--convention", "swap"],
    )
    assert code == 0
    text = lines(out)
    assert text[1] == "word P34 on valence 4 (plain_swap):"
    assert text[2].split()[-2:] == ["1", "0"]
    assert text[3].split()[-2:] == ["0", "-1"]
    assert text[-1] == "involution: True"


def test_repart_conventions_agree_on_a_non_palindromic_word(capsys):
    rows = {}
    for convention in ("binor", "swap"):
        code, out, _ = run(capsys, ["repart", "--valence", "4", "--word", "P* P12",
                                    "--convention", convention])
        assert code == 0
        rows[convention] = [line.split()[-2:] for line in lines(out)[2:4]]
    assert rows["binor"] == rows["swap"] == [["-1/2", "1"], ["-3/4", "-1/2"]]


def test_repart_rejects_swap_crossing_the_split(capsys):
    code, _, err = run(capsys, ["repart", "--valence", "6", "--word", "P25"])
    assert code == 2
    assert "crosses the split" in err


def test_repart_swap_convention_rejects_bad_token(capsys):
    code, _, err = run(
        capsys,
        ["repart", "--valence", "6", "--word", "P1", "--convention", "swap"],
    )
    assert code == 2
    assert "error: unknown word token 'P1'" in err
    assert "Traceback" not in err


def test_nogo_valence2_is_feasible(capsys):
    code, out, _ = run(capsys, ["nogo", "--valence", "2"])
    assert code == 0
    text = lines(out)
    assert text[1].startswith("step 1 [master]:")
    assert text[3].startswith("step 2 [P*]:")
    assert text[-1].startswith("feasible: the identity is the unique solution up to phase")


def test_nogo_valence4_contradiction(capsys):
    code, out, _ = run(capsys, ["nogo", "--valence", "4"])
    assert code == 1
    assert "step 2 [P*]: dphi = 0 (mod 2pi)" in lines(out)
    assert "step 3 [P34 P* P34]: dphi = pi (mod 2pi)" in lines(out)
    assert any("sqrt(10) lambda" in x for x in lines(out))
    assert lines(out)[-1] == (
        "infeasible: the two repartitions fix the relative phase"
        " to 0 and to pi simultaneously"
    )


def test_nogo_valence6_contradiction(capsys):
    code, out, _ = run(capsys, ["nogo", "--valence", "6"])
    assert code == 1
    text = out
    assert "A = 2 sqrt(lambda)/3, rho = phi" in text
    assert "forcing lambda = 0" in text
    assert "    image_residual_over_lambda = 3" in lines(out)
    assert lines(out)[-1].startswith("infeasible:")


def _write_tensor(path, t):
    with open(path, "w") as fh:
        json.dump(tensors.to_json_dict(t), fh)


def test_certify_perfect_pair_exits_zero(capsys, tmp_path):
    eps = su2.epsilon_matrix(1).astype(complex) / np.sqrt(2)
    f = tmp_path / "eps.json"
    _write_tensor(f, tensors.LabeledTensor((1, 1), eps))
    code, out, _ = run(capsys, ["certify", "--file", str(f)])
    assert code == 0
    text = lines(out)
    assert "  A=(1,)  lambda = 0.5  defect = 0" in text
    assert text[-1] == "verdict: perfect"


def test_certify_imperfect_tensor_exits_one(capsys, tmp_path):
    t = bridge.identity_state(4)
    t = tensors.LabeledTensor(t.legs, t.data / t.norm())
    f = tmp_path / "id4.json"
    _write_tensor(f, t)
    code, out, _ = run(capsys, ["certify", "--file", str(f)])
    assert code == 1
    assert lines(out)[-1] == "verdict: not_perfect"


def test_certify_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, ["certify", "--file", str(tmp_path / "no.json")])
    assert code == 2
    assert "error:" in err


def test_certify_malformed_file_is_usage_error(capsys, tmp_path):
    for i, doc in enumerate(({"data": []}, {"legs": ["1/2"], "data": [[1, 0]]},
                             {"legs": ["1/2"], "data": [[1, 0], "x"]})):
        f = tmp_path / f"bad{i}.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["certify", "--file", str(f)])
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert "verdict" not in out


def test_tolerance_must_be_finite_and_positive(capsys, tmp_path):
    f = tmp_path / "eps.json"
    _write_tensor(f, tensors.LabeledTensor((1, 1), su2.epsilon_matrix(1) / np.sqrt(2)))
    for value in ("-1", "0", "nan", "inf", "-inf", "x"):
        for argv in (["certify", "--file", str(f)], ["search", "--path", "1/2,1/2,1"]):
            code, out, err = run(capsys, argv + [f"--tolerance={value}"])
            assert code == 2
            assert "tolerance must be a finite number > 0" in err
            assert out == ""
    code, _, _ = run(capsys, ["certify", "--file", str(f), "--tolerance", "1e-8"])
    assert code == 0


def test_valence_below_two_is_usage_error(capsys):
    # nogo used to blame "legs ()" and repart --valence 0 raised an IndexError
    for command in ("nogo", "repart", "basis", "master"):
        for value in ("1", "0", "-2"):
            code, out, err = run(capsys, [command, f"--valence={value}"])
            assert code == 2
            assert f"valence must be at least 2, got {value}" in err
            assert "Traceback" not in err
            assert out == ""


def test_search_vertex_exits_zero(capsys):
    code, out, _ = run(
        capsys, ["search", "--path", "1/2,1/2,1", "--restarts", "20", "--seed", "7"]
    )
    assert code == 0
    assert lines(out)[-1] == "a perfect point was found"


def test_search_qubit_valence4_reports_floor(capsys):
    code, out, _ = run(
        capsys,
        ["search", "--path", "1/2,1/2,1/2,1/2", "--restarts", "8", "--seed", "7"],
    )
    assert code == 1
    text = lines(out)
    assert text[1] == "best summed defect over 8 restarts: 0.866025403784"
    assert text[-1] == "no perfect point found"


def test_search_without_restarts_is_usage_error(capsys):
    for argv in (
        ["search", "--path", "1/2,1/2,1/2,1/2", "--restarts", "0"],
        ["search", "--path", "1/2,1/2,1/2,1/2", "--restarts", "-3"],
        ["nogo", "--valence", "8", "--restarts", "0"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "error: need at least one restart" in err
        assert "Traceback" not in err


def test_layout_overweight_odd_leg_fails(capsys):
    code, out, _ = run(capsys, ["layout", "--path", "1/2,1/2,1/2,1/2,2"])
    assert code == 1
    assert lines(out) == [
        "config: command=layout path=1/2,1/2,1/2,1/2,2",
        "  odd_spin_balance: fail",
        "layout verdict: fail",
    ]


def test_layout_qubit_valence6_passes(capsys):
    code, out, _ = run(capsys, ["layout", "--path", "1/2,1/2,1/2,1/2,1/2,1/2"])
    assert code == 0
    text = lines(out)
    assert "  even_equal_spins: pass" in text
    assert "  scott_bound: pass" in text
    assert text[-1] == "layout verdict: pass"


def test_layout_qubit_valence8_fails_the_dimension_bound(capsys):
    code, out, _ = run(capsys, ["layout", "--path", ",".join(["1/2"] * 8)])
    assert code == 1
    text = lines(out)
    assert "  even_equal_spins: pass" in text
    assert "  scott_bound: fail" in text
    assert text[-1] == "layout verdict: fail"


def test_walk_reports_disjoint_phase_windows(capsys):
    code, out, _ = run(capsys, ["walk"])
    assert code == 1
    text = lines(out)
    assert text[1] == "x = arccos(7/9) = 0.679673818908"
    assert "disjoint: True" in text
    assert text[-1] == "infeasible: the two relative-phase windows cannot both hold"


def test_json_document_shape(capsys):
    code, out, _ = run(capsys, ["theta", "--path", "1/2,0", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["config", "meta", "result"]
    assert doc["result"] == {"theta": "2"}
    assert doc["config"] == {"command": "theta", "path": "1/2,0", "path2": None}
    assert doc["meta"]["tool"].startswith("su2ipt ")
    assert "timestamp" in doc["meta"]


def test_json_no_meta_is_byte_identical(capsys):
    argv = ["nogo", "--valence", "4", "--json", "--no-meta"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert sorted(doc) == ["config", "result"]
    assert doc["result"]["feasible"] is False
    assert doc["result"]["exact"] is True


def test_json_verdicts_match_exit_codes(capsys):
    code, out, _ = run(capsys, ["nogo", "--valence", "2", "--json", "--no-meta"])
    assert code == 0
    assert json.loads(out)["result"]["feasible"] is True
    code, out, _ = run(capsys, ["walk", "--json", "--no-meta"])
    assert code == 1
    assert json.loads(out)["result"]["disjoint"] is True


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _benchmark_workloads():
    """perfbench/workloads.py, loaded from its path, so the check below is the
    benchmark's own exit-code and float-tolerance rule."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_outputs_match_the_stored_benchmark_outputs():
    workloads = _benchmark_workloads()
    with open(workloads.EXPECTED_EXACT) as fh:
        entries = json.load(fh)
    assert entries
    for entry in entries:
        argv = entry["argv"]
        code, out, err = _run_quiet(argv + ["--json", "--no-meta"])
        assert out.count("\n") == 1, argv
        try:
            workloads._check_cli(argv, entry["doc"], (code, out))
        except workloads.CheckFailed as exc:
            raise AssertionError(f"{' '.join(argv)}: {exc}; stderr {err!r}") from None


_SPINS = st.sampled_from(
    ["0", "1/2", "1", "3/2", "2", "5/2", "7", "-1/2", "1/3", "x", ""])
_SPIN_LISTS = st.lists(_SPINS, min_size=1, max_size=6).map(",".join)
_TOKENS = st.sampled_from(
    ["P*", "P12", "P23", "P34", "P45", "P56", "P13", "P14", "P46", "P1,2",
     "P4,6", "P11", "P1", "P79", "P0,3", "Q12", "P**", "12"])
_WORDS = st.lists(_TOKENS, max_size=4).map(" ".join)


def _assert_contract(argv):
    code, _, err = _run_quiet(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv


@settings(max_examples=150, deadline=None)
@given(path=_SPIN_LISTS, path2=st.none() | _SPIN_LISTS)
def test_theta_cli_contract(path, path2):
    argv = ["theta", f"--path={path}"]
    _assert_contract(argv + ([f"--path2={path2}"] if path2 is not None else []))


@settings(max_examples=100, deadline=None)
@given(valence=st.sampled_from([4, 6]), word=_WORDS,
       convention=st.sampled_from(["binor", "swap"]))
def test_repart_cli_contract(valence, word, convention):
    _assert_contract(["repart", "--valence", str(valence), f"--word={word}",
                      "--convention", convention])


# every subcommand's options, as its --help must list them
_HELP_OPTIONS = {
    "theta": {"--path", "--path2"},
    "basis": {"--valence", "--split"},
    "master": {"--valence", "--split"},
    "repart": {"--valence", "--word", "--convention"},
    "nogo": {"--valence", "--restarts", "--seed"},
    "certify": {"--file", "--tolerance"},
    "search": {"--path", "--restarts", "--seed", "--tolerance"},
    "layout": {"--path"},
    "walk": set(),
}


@pytest.mark.parametrize("command", sorted(_HELP_OPTIONS))
def test_subcommand_help_lists_exactly_its_options(capsys, command):
    code, out, _ = run(capsys, [command, "--help"])
    assert code == 0
    assert out.startswith(f"usage: su2ipt {command} ")
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out))
    assert listed == _HELP_OPTIONS[command] | {"--help", "--json", "--no-meta"}


# text line that ends every exit-1 run, by the commands that have verdicts
_VERDICT_PREFIXES = {
    "nogo": "infeasible: ",
    "certify": "verdict: not_",
    "search": "no perfect point found",
    "layout": "layout verdict: fail",
    "walk": "infeasible: ",
}
# mostly valid values, so that runs reach their verdicts, plus a few bad ones
_INTS = st.sampled_from(["0", "1", "2", "3", "-1", "x"])
_VALENCES = st.sampled_from(["2", "3", "4", "5", "6", "7", "1", "x"])
_TOLERANCES = st.sampled_from(["1e-10", "1e-3", "0.5", "0", "nan", "x"])
# search gets at most four legs of spin at most 1, so every run stays short
_SEARCH_PATHS = st.lists(st.sampled_from(["0", "1/2", "1", "1/2", "1", "x"]),
                         min_size=1, max_size=4).map(",".join)
_TENSOR_FILES = ("eps.json", "identity4.json", "zero.json", "noise.json",
                 "no_legs.json", "not_json.json", "missing.json")


@pytest.fixture(scope="module")
def tensor_dir(tmp_path_factory):
    """Small certify inputs: perfect, not perfect, zero, not invariant, malformed."""
    d = tmp_path_factory.mktemp("tensors")
    eps = su2.epsilon_matrix(1).astype(complex) / np.sqrt(2)
    _write_tensor(d / "eps.json", tensors.LabeledTensor((1, 1), eps))
    ident = bridge.identity_state(4)
    _write_tensor(d / "identity4.json",
                  tensors.LabeledTensor(ident.legs, ident.data / ident.norm()))
    _write_tensor(d / "zero.json", tensors.LabeledTensor((1, 1), np.zeros((2, 2))))
    noise = np.random.default_rng(5).normal(size=(2, 2, 2))
    _write_tensor(d / "noise.json", tensors.LabeledTensor((1, 1, 1), noise))
    (d / "no_legs.json").write_text(json.dumps({"data": []}))
    (d / "not_json.json").write_text("legs: 1/2")
    return d


def _options(required, **values):
    """argv tail: each option but the required ones may be absent; values by name."""
    parts = []
    for name, v in values.items():
        part = v.map(lambda x, name=name: [f"--{name}={x}"])
        parts.append(part if name in required else st.none() | part)
    return st.tuples(*parts).map(lambda ps: [a for p in ps if p for a in p])


def _argv(tensor_dir):
    files = st.sampled_from(_TENSOR_FILES).map(lambda f: str(tensor_dir / f))
    commands = {
        "theta": _options({"path"}, path=_SPIN_LISTS, path2=_SPIN_LISTS),
        "basis": _options({"valence"}, valence=_VALENCES, split=_INTS),
        "master": _options({"valence"}, valence=_VALENCES, split=_INTS),
        "repart": _options({"valence"}, valence=_VALENCES, word=_WORDS,
                           convention=st.sampled_from(["binor", "swap", "x"])),
        "nogo": _options({"valence"}, valence=_VALENCES, restarts=_INTS, seed=_INTS),
        "certify": _options({"file"}, file=files, tolerance=_TOLERANCES),
        "search": _options({"path"}, path=_SEARCH_PATHS,
                           restarts=st.sampled_from(["1", "2", "0"]),
                           seed=_INTS, tolerance=_TOLERANCES),
        "layout": _options({"path"}, path=_SPIN_LISTS),
        "walk": st.just([]),
    }
    extras = st.sampled_from([[], ["--json"], ["--json", "--no-meta"], ["--no-meta"],
                              ["--help"], ["--bogus"]])
    return st.one_of(*(st.tuples(st.just([name]), tail, extras).map(lambda t: sum(t, []))
                       for name, tail in commands.items()))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_subcommand_keeps_the_cli_contract(tensor_dir, data):
    argv = data.draw(_argv(tensor_dir), label="argv")
    code, out, err = _run_quiet(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
    if code != 1:
        return
    if "--json" in argv:
        doc = json.loads(out)
        assert doc["config"]["command"] == argv[0], argv
    else:
        assert lines(out)[-1].startswith(_VERDICT_PREFIXES[argv[0]]), argv
