import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bwgan import checkpoint, cli, spaces, training, transport
from bwgan.nets import Critic

L2 = spaces.lp_space(2.0)


def write_signal(tmp_path, values, name="signal.txt"):
    path = tmp_path / name
    path.write_text(" ".join(str(v) for v in values) + "\n")
    return str(path)


def write_measure(tmp_path, rows, name):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")
    return str(path)


def read_metrics(path):
    """Rows of a metrics.csv as dicts of floats; an empty field means no value."""
    with open(path, newline="") as fh:
        return [{k: float(v) if v else None for k, v in row.items()}
                for row in csv.DictReader(fh)]


def tiny_config_doc(out_dir, **train_overrides):
    train = {"lambda": 1.0, "gamma": 1.0, "latent_dim": 4,
             "critic_widths": [8, 8], "gen_widths": [8, 8], "n_critic": 1,
             "batch_size": 8, "total_iterations": 5, "lr": 1e-3,
             "w1_every": 3, "seed": 1}
    train.update(train_overrides)
    return {"space": {"family": "lp", "p": 2.0},
            "train": train,
            "output": {"directory": str(out_dir), "log_every": 2}}


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

def test_norm_command_output(tmp_path, capsys):
    path = write_signal(tmp_path, [3.0, -4.0])
    assert cli.main(["norm", path]) == cli.EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == f"norm={5.0:.12g} dual={5.0:.12g}"


def test_norm_command_l1_has_no_dual(tmp_path, capsys):
    path = write_signal(tmp_path, [3.0, -4.0])
    assert cli.main(["norm", path, "--p", "1"]) == cli.EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == f"norm={7.0:.12g} dual=n/a"


def test_norm_command_sobolev_shape(tmp_path, capsys):
    x = np.random.default_rng(0).standard_normal(64)
    path = write_signal(tmp_path, x)
    assert cli.main(["norm", path, "--space", "sobolev", "--s", "1.0",
                     "--shape", "8x8"]) == cli.EXIT_OK
    got = float(capsys.readouterr().out.split()[0].split("=")[1])
    sob = spaces.sobolev_space(1.0, 2.0, (8, 8))
    assert got == pytest.approx(spaces.norm(sob, x), abs=1e-10)


def test_norm_command_bad_shape(tmp_path, capsys):
    path = write_signal(tmp_path, np.zeros(4))
    assert cli.main(["norm", path, "--space", "sobolev",
                     "--shape", "0x4"]) == cli.EXIT_USAGE
    assert "positive integers" in capsys.readouterr().err


def test_norm_command_sobolev_any_axis_length(tmp_path, capsys):
    x = np.random.default_rng(1).standard_normal(60)
    path = write_signal(tmp_path, x)
    assert cli.main(["norm", path, "--space", "sobolev", "--s", "1.0",
                     "--shape", "6x10"]) == cli.EXIT_OK
    got = capsys.readouterr().out.split()[0]
    sob = spaces.sobolev_space(1.0, 2.0, (6, 10))
    assert got == f"norm={spaces.norm_batch(sob, x[None])[0]:.12g}"


@pytest.mark.parametrize("flags,size,reason", [
    (["--s", "1e308"], 64, "overflows"),
    (["--s", "1", "--frequency-scale", "1e200"], 64, "overflows"),
    (["--s", "400", "--shape", "8x8"], 64, "overflows"),
    (["--shape", "64x64"], 4096, "1024"),
    (["--s", "inf"], 64, "s must be finite, got inf"),
    (["--frequency-scale", "0"], 64, "frequency_scale must be positive and finite, got 0.0"),
], ids=["huge-s", "huge-frequency-scale", "s-400", "above-operator-cap", "s-inf",
        "frequency-scale-0"])
def test_norm_command_unusable_sobolev_space_exits_2(tmp_path, capsys, flags, size,
                                                     reason):
    path = write_signal(tmp_path, np.ones(size))
    assert cli.main(["norm", path, "--space", "sobolev"] + flags) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert reason in err


def test_norm_command_missing_file(tmp_path, capsys):
    assert cli.main(["norm", str(tmp_path / "nope.txt")]) == cli.EXIT_USAGE


def test_norm_command_malformed_signal(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 two 3.0\n")
    assert cli.main(["norm", str(path)]) == cli.EXIT_USAGE


def test_norm_command_of_a_huge_signal_is_finite(tmp_path, capsys):
    path = write_signal(tmp_path, [1e200, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["norm", path]) == cli.EXIT_OK
    captured = capsys.readouterr()
    # twelve significant digits, not a 200-digit integer
    assert len(captured.out.strip()) < 50
    norm, dual = (float(f.split("=")[1]) for f in captured.out.split())
    assert norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-11)
    assert dual == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-11)
    assert captured.err == ""


def test_norm_command_nan_signal_exits_2(tmp_path, capsys):
    path = write_signal(tmp_path, ["nan", 1.0, 2.0])
    assert cli.main(["norm", path]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


# ---------------------------------------------------------------------------
# wasserstein
# ---------------------------------------------------------------------------

def test_wasserstein_command(tmp_path, capsys):
    a = write_measure(tmp_path, [[1.0, 0.0, 0.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 3.0, 4.0]], "b.txt")
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "w1=5"


def test_wasserstein_command_p2(tmp_path, capsys):
    a = write_measure(tmp_path, [[0.5, 0.0], [0.5, 1.0]], "a.txt")
    b = write_measure(tmp_path, [[0.5, 2.0], [0.5, 3.0]], "b.txt")
    assert cli.main(["wasserstein", a, b, "--wp", "2"]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "w2=2"


@pytest.mark.parametrize("weights", [
    [0.1, 0.2, 0.7],
    # these sum to 1 - 2^-53; after read_measure divides by the sum, 7 w
    # misses its integer by 4.4e-16, so only the count tolerance sees counts
    ["0.14285714285714285", "0.2857142857142857", "0.2857142857142857",
     "0.2857142857142857"],
], ids=["tenths", "sevenths"])
def test_wasserstein_count_weighted_files_skip_lp(tmp_path, capsys, monkeypatch,
                                                  weights):
    coords = [[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5], [0.3, -0.2]]
    a = write_measure(tmp_path, [[w] + x for w, x in zip(weights, coords)], "a.txt")
    b = write_measure(tmp_path, [[0.5, 2.0, 1.0], [0.5, 0.0, -3.0]], "b.txt")
    mu, nu = cli.read_measure(a), cli.read_measure(b)
    C = transport.cost_matrix(mu, nu, L2)
    lp_value = float(np.sum(transport._lp_plan(C, mu.weights, nu.weights) * C))

    def no_lp(*args, **kwargs):
        raise AssertionError("count-weighted pair reached the LP")

    monkeypatch.setattr(transport, "linprog", no_lp)
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out.startswith("w1=")
    assert float(out[3:]) == pytest.approx(lp_value, abs=1e-9)


def test_wasserstein_rejects_bad_weights(tmp_path, capsys):
    a = write_measure(tmp_path, [[0.7, 0.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 1.0]], "b.txt")
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_USAGE
    assert "sum" in capsys.readouterr().err


def test_wasserstein_rejects_ragged_measure(tmp_path, capsys):
    a = write_measure(tmp_path, [[0.5, 0.0, 1.0], [0.5, 2.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 1.0]], "b.txt")
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_USAGE


def test_wasserstein_rejects_mismatched_sobolev_shape(tmp_path, capsys):
    a = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 2.0, 2.0]], "b.txt")
    assert cli.main(["wasserstein", a, b, "--space", "sobolev",
                     "--shape", "4x4"]) == cli.EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_wasserstein_check_dual(tmp_path, capsys):
    rng = np.random.default_rng(3)
    critic = Critic(2, (8,), "relu", rng=rng)
    ckpt = tmp_path / "critic.ckpt"
    checkpoint.save_tensors(ckpt, critic.mlp.params)
    a = write_measure(tmp_path, [[1.0, 0.0, 0.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 1.0, 1.0]], "b.txt")
    assert cli.main(["wasserstein", a, b, "--check-dual", str(ckpt)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("dual_estimate=")
    assert lines[2].startswith("gap=")
    w1 = float(lines[0].split("=")[1])
    est = float(lines[1].split("=")[1])
    gap = float(lines[2].split("=")[1])
    assert gap == pytest.approx(w1 - est, abs=1e-9)


def save_critic(tmp_path, in_dim):
    critic = Critic(in_dim, (8,), "relu", rng=np.random.default_rng(3))
    ckpt = tmp_path / "critic.ckpt"
    checkpoint.save_tensors(ckpt, critic.mlp.params)
    return str(ckpt)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_wasserstein_negative_weight_exits_2(tmp_path, capsys):
    a = write_measure(tmp_path, [[1.5, 0.0], [-0.5, 1.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 1.0]], "b.txt")
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


@pytest.mark.parametrize("rows", [
    [[0.5, 1.0, float("nan")], [0.5, 0.0, 0.0]],
    [[0.5, float("inf"), 1.0], [0.5, 0.0, 0.0]],
    [[1.0, float("nan"), 0.0]],
    [[float("nan"), 0.0, 0.0], [float("nan"), 1.0, 1.0]],
], ids=["nan-coordinate", "inf-coordinate", "lone-nan-coordinate", "nan-weights"])
def test_wasserstein_non_finite_measure_exits_2(tmp_path, capsys, rows):
    a = write_measure(tmp_path, rows, "a.txt")
    b = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "b.txt")
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {a}:1: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("wp", ["nan", "inf"])
def test_wasserstein_non_finite_exponent_exits_2(tmp_path, capsys, wp):
    a = write_measure(tmp_path, [[0.5, 0.0], [0.5, 1.0]], "a.txt")
    assert cli.main(["wasserstein", a, a, "--wp", wp]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


def test_wasserstein_of_huge_l2_coordinates_is_finite(tmp_path, capsys):
    # the squared coordinate gaps of 2^665 ~ 4e200 overflow in cdist
    k = 665
    rows_a = [[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
    rows_b = [[0.5, 0.0, 0.0], [0.5, 3.0, 4.0]]
    scaled = [[[w, x * 2.0 ** k, y * 2.0 ** k] for w, x, y in rows]
              for rows in (rows_a, rows_b)]
    a = write_measure(tmp_path, scaled[0], "a.txt")
    b = write_measure(tmp_path, scaled[1], "b.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["wasserstein", a, b]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    mu, nu = (transport.DiscreteMeasure(np.array(rows)[:, 1:], np.array(rows)[:, 0])
              for rows in (rows_a, rows_b))
    unscaled, _ = transport.wasserstein_p_exact(mu, nu, L2)
    assert float(captured.out.strip().split("=")[1]) == pytest.approx(
        2.0 ** k * unscaled, rel=1e-12, abs=0.0)


def test_wasserstein_of_tiny_l2_coordinates_scales_exactly(tmp_path, capsys):
    # squared coordinate gaps of 2^-560 underflow to 0 in cdist
    rows_a = [[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
    rows_b = [[0.5, 0.0, 0.0], [0.5, 3.0, 4.0]]
    for k, name in ((0, "plain"), (-560, "tiny")):
        for rows, side in ((rows_a, "a"), (rows_b, "b")):
            write_measure(tmp_path, [[w, x * 2.0 ** k, y * 2.0 ** k] for w, x, y in rows],
                          f"{name}_{side}.txt")
    values = []
    for name in ("plain", "tiny"):
        assert cli.main(["wasserstein", str(tmp_path / f"{name}_a.txt"),
                         str(tmp_path / f"{name}_b.txt")]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        values.append(float(captured.out.strip().split("=")[1]))
    assert values[0] > 0.0
    assert values[1] == pytest.approx(2.0 ** -560 * values[0], rel=1e-12, abs=0.0)


def test_wasserstein_cost_overflow_scales_to_finite(tmp_path, capsys):
    # ||x - y||_3 ~ 1e160 is finite, its square for --wp 2 is not; the
    # solve divides the distances by a power of two before the power
    rows_a = [[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
    rows_b = [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]]
    a = write_measure(tmp_path, [[w, 1e160 * x, 1e160 * y] for w, x, y in rows_a], "a.txt")
    b = write_measure(tmp_path, [[w, 1e160 * x, 1e160 * y] for w, x, y in rows_b], "b.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["wasserstein", a, b, "--p", "3", "--wp", "2"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    mu, nu = (transport.DiscreteMeasure(np.array(rows)[:, 1:], np.array(rows)[:, 0])
              for rows in (rows_a, rows_b))
    unscaled, _ = transport.wasserstein_p_exact(mu, nu, spaces.lp_space(3.0), 2.0)
    assert float(captured.out.strip().split("=")[1]) == pytest.approx(
        1e160 * unscaled, rel=1e-12, abs=0.0)


def test_wasserstein_cost_underflow_keeps_its_value(tmp_path, capsys):
    # the cost (1e-110 / 16)^3 underflows after the distances are scaled
    a = write_measure(tmp_path, [[0.5, 0.0], [0.5, 10.0]], "a.txt")
    b = write_measure(tmp_path, [[0.5, 1e-110], [0.5, 10.0]], "b.txt")
    assert cli.main(["wasserstein", a, b, "--wp", "3"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.strip() == "w3=7.93700525984e-111"


def test_wasserstein_of_huge_general_weights_is_finite(tmp_path, capsys):
    # general (Dirichlet) weights go to the LP, which failed on costs near
    # 1e160 before the distances were scaled
    rng = np.random.default_rng(0)
    rows = [np.column_stack([rng.dirichlet(np.ones(size)),
                             rng.standard_normal((size, 3)) + shift])
            for size, shift in ((5, 0.0), (4, 0.5))]
    values = []
    for scale in (1.0, 1e160):
        paths = [write_measure(tmp_path, r * [1.0, scale, scale, scale], f"{side}.txt")
                 for r, side in zip(rows, "ab")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["wasserstein", *paths, "--p", "3"]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        values.append(float(captured.out.strip().split("=")[1]))
    # both are printed to 12 significant digits
    assert values[0] > 0.0
    assert values[1] == pytest.approx(1e160 * values[0], rel=1e-11, abs=0.0)


def test_wasserstein_infinite_distance_exits_2(tmp_path, capsys):
    # ||(1e308, 0) - (-1e308, 0)|| = 2e308 is not a float
    a = write_measure(tmp_path, [[1.0, 1e308, 0.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, -1e308, 0.0]], "b.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["wasserstein", a, b]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "overflows" in err


@pytest.mark.parametrize("result, message", [
    (dict(success=False, message="Iteration limit reached.", x=None),
     "LP solver failed: Iteration limit reached."),
    (dict(success=True, message="", x=np.zeros(2)),
     "marginal violation 1.000e+00 above tolerance"),
], ids=["lp-reports-failure", "plan-breaks-marginals"])
def test_wasserstein_failed_lp_exits_2(tmp_path, capsys, monkeypatch, result, message):
    # 1/67 is k/N for no N <= MAX_SUPPORT, so this pair goes to the LP
    a = write_measure(tmp_path, [[1 / 67, 0.0], [66 / 67, 1.0]], "a.txt")
    b = write_measure(tmp_path, [[1.0, 0.0]], "b.txt")
    monkeypatch.setattr(transport, "linprog", lambda c, **kwargs: SimpleNamespace(**result))
    assert cli.main(["wasserstein", a, b]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_check_dual_critic_of_other_dimension_exits_2(tmp_path, capsys):
    ckpt = save_critic(tmp_path, in_dim=3)
    mu = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "mu.txt")
    assert cli.main(["wasserstein", mu, mu, "--check-dual", ckpt]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


def test_check_dual_unknown_activation_exits_2(tmp_path, capsys):
    ckpt = save_critic(tmp_path, in_dim=2)
    mu = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "mu.txt")
    with pytest.raises(SystemExit) as exc:
        cli.main(["wasserstein", mu, mu, "--check-dual", ckpt, "--activation", "foo"])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------

def test_heuristics_uniform_cube(tmp_path, capsys):
    assert cli.main(["heuristics", "--dataset", "uniform_cube", "--dim", "12",
                     "--samples", "500"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    lam = float(lines[0].split()[0].split("=")[1])
    gam = float(lines[1].split()[0].split("=")[1])
    assert lam == pytest.approx(gam, rel=1e-12)  # L2 is self-dual
    assert lam == pytest.approx(2.0, rel=0.1)  # ~ sqrt(12 / 3)
    assert lines[2] == "samples=500"


def test_heuristics_sobolev_defaults_to_the_dataset_layout(capsys):
    args = ["heuristics", "--dataset", "rectangles", "--space", "sobolev",
            "--s", "1", "--samples", "64"]
    assert cli.main(args) == cli.EXIT_OK
    default = capsys.readouterr().out
    assert cli.main(args + ["--shape", "16x16"]) == cli.EXIT_OK
    assert default == capsys.readouterr().out


def test_heuristics_rejects_p_one(capsys):
    assert cli.main(["heuristics", "--p", "1"]) == cli.EXIT_USAGE


def test_heuristics_rejects_zero_samples(capsys):
    assert cli.main(["heuristics", "--samples", "0"]) == cli.EXIT_USAGE


def test_heuristics_rejects_negative_seed(capsys):
    assert cli.main(["heuristics", "--seed", "-1"]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


def test_heuristics_rejects_nonpositive_dim(capsys):
    assert cli.main(["heuristics", "--dataset", "uniform_cube",
                     "--dim", "-1"]) == cli.EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 745. GiB")],
                         ids=["bare", "numpy"])
def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, exc):
    # a real huge allocation could get the process killed under overcommit
    def raise_memory_error(*args):
        raise exc
    monkeypatch.setattr(training, "heuristic_stats", raise_memory_error)
    assert cli.main(["heuristics", "--samples", "1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1
    assert str(exc) in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_suite_passes(capsys):
    assert cli.main(["verify", "--suite", "sobolev0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "sobolev0: PASS" in out


def test_verify_runs_every_suite_by_default(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(cli.SUITES)
    assert all(": PASS (" in line for line in lines)


def test_verify_fault_injection_fails(capsys):
    assert cli.main(["verify", "--suite", "holder",
                     "--perturb-dual-norm", "0.02"]) == cli.EXIT_VERIFY_FAIL
    assert "holder: FAIL" in capsys.readouterr().out


def test_verify_fault_injection_over_every_suite_fails_only_holder(capsys):
    assert cli.main(["verify", "--perturb-dual-norm", "0.02"]) == cli.EXIT_VERIFY_FAIL
    failing = [line for line in capsys.readouterr().out.splitlines() if "FAIL (" in line]
    assert [line.split(":")[0] for line in failing] == ["holder"]


@pytest.mark.parametrize("argv", [
    ["--suite", "holder", "--perturb-dual-norm", "inf"],
    ["--suite", "holder", "--perturb-dual-norm", "nan"],
    ["--perturb-dual-norm=-inf"],
    ["--suite", "lemma1", "--perturb-dual-norm", "0.5"],
    ["--suite", "sobolev0", "--perturb-dual-norm", "0.5"],
    ["--suite", "doublebackprop", "--perturb-dual-norm=-0.1"],
])
def test_verify_rejects_unusable_perturbation(capsys, argv):
    assert cli.main(["verify", *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "x"],
    ["norm"],
    [],
    ["verify", "--perturb-dual-norm", "-inf"],
], ids=["bad-int", "missing-input", "no-command", "option-like-value"])
def test_argparse_errors_exit_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bwgan") and ": error: " in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("name, code, out", [
    ("signal.txt", cli.EXIT_OK, "norm=5 dual=5\n"),
    ("missing.txt", cli.EXIT_USAGE, ""),
], ids=["valid-file", "missing-file"])
def test_module_entry_point_returns_mains_exit_code(tmp_path, name, code, out):
    write_signal(tmp_path, [3.0, -4.0])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-m", "bwgan.cli", "norm", str(tmp_path / name)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (code, out)
    assert len(result.stderr.splitlines()) == (0 if code == cli.EXIT_OK else 1)


def test_verify_rejects_negative_seed(capsys):
    assert cli.main(["verify", "--seed", "-1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bwgan verify")


def test_holder_suite_fails_on_infinite_dual_norm():
    verdicts = list(cli.suite_holder(np.random.default_rng(0), perturb=np.inf))
    assert verdicts and not any(verdicts)


def test_verify_validates_config(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"sede": 1}}))
    assert cli.main(["verify", "--suite", "sobolev0",
                     "--config", str(path)]) == cli.EXIT_USAGE
    assert "sede" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_command_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_config_doc(out_dir)))
    assert cli.main(["train", str(config)]) == cli.EXIT_OK

    rows = read_metrics(out_dir / "metrics.csv")
    assert [row["iter"] for row in rows] == [0, 2, 4]  # log_every 2 over 5 iterations
    assert all(row["critic_loss"] is not None for row in rows)
    # w1 monitored on iterations 0 and 3; 3 is filtered out by log_every
    assert rows[0]["exact_w1"] is not None
    assert rows[1]["exact_w1"] is None

    gen = checkpoint.load_tensors(out_dir / "generator.ckpt")
    crit = checkpoint.load_tensors(out_dir / "critic.ckpt")
    assert any(k.startswith("gen.") for k in gen)
    assert any(k.startswith("critic.") for k in crit)

    summary = json.loads((out_dir / "run_summary.json").read_text())
    assert summary["iterations"] == 5
    assert summary["lambda"] == 1.0
    assert summary["dataset"] == "eight_gaussians"


def test_train_matches_library_run(tmp_path):
    out_dir = tmp_path / "run"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_config_doc(out_dir)))
    assert cli.main(["train", str(config)]) == cli.EXIT_OK
    _, _, metrics = training.train(training.TrainConfig(
        space=L2, lam=1.0, gamma=1.0, latent_dim=4, critic_widths=(8, 8),
        gen_widths=(8, 8), n_critic=1, batch_size=8, total_iterations=5,
        lr=1e-3, w1_every=3, seed=1))
    for row in read_metrics(out_dir / "metrics.csv"):
        assert row["critic_loss"] == pytest.approx(
            metrics.critic_loss[int(row["iter"])], rel=1e-10)


def test_train_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    doc = tiny_config_doc(tmp_path / "run")
    doc["train"]["sede"] = 7
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE
    assert "sede" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("activation", "foo"), ("heuristic_samples", 0), ("lr", "fast"),
    ("latent_dim", "x"), ("n_critic", "5"), ("seed", -1), ("seed", 1.5),
    ("critic_widths", 5), ("w1_every", "x"), ("batch_size", 2.5),
    ("total_iterations", True), ("beta1", 2), ("log_every", "x"), ("p", "x"),
    ("signal_shape", 5)])
def test_train_rejects_bad_field_value(tmp_path, capsys, key, value):
    doc = tiny_config_doc(tmp_path / "run", total_iterations=2)
    if key == "log_every":
        doc["output"][key] = value
    elif key in cli.SPACE_KEYS:
        doc["space"] = {"family": "sobolev", key: value}
    else:
        doc["train"][key] = value
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert key in err


@pytest.mark.parametrize("space, message", [
    ({"family": "lp", "p": 1.0}, "p > 1"),
    ({"family": "sobolev", "signal_shape": [16, 16]}, "size")], ids=["l1", "shape"])
def test_train_rejects_invalid_space(tmp_path, capsys, space, message):
    doc = tiny_config_doc(tmp_path / "run", dataset="eight_gaussians",
                          total_iterations=2)
    doc["space"] = space
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("key", ["lambda", "gamma"])
def test_train_rejects_bool_lambda_gamma(tmp_path, capsys, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_config_doc(tmp_path / "run",
                                                 total_iterations=2,
                                                 **{key: True})))
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_train_uncreatable_directory_exits_2_before_training(tmp_path, capsys,
                                                             monkeypatch):
    (tmp_path / "afile").write_text("")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_config_doc(tmp_path / "afile" / "sub")))
    monkeypatch.setattr(training, "train", None)
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


@pytest.mark.parametrize("name", ["metrics.csv", "critic.ckpt"])
def test_train_output_file_that_is_a_directory_exits_2(tmp_path, capsys, name):
    out_dir = tmp_path / "run"
    (out_dir / name).mkdir(parents=True)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_config_doc(out_dir)))
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["wasserstein", "train", "verify"])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe 1 2\n")
    mu = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "mu.txt")
    argv = {"wasserstein": ["wasserstein", str(bad), mu],
            "train": ["train", str(bad)],
            "verify": ["verify", "--suite", "sobolev0", "--config", str(bad)]}[command]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1


def test_train_rejects_malformed_json(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("{not json")
    assert cli.main(["train", str(config)]) == cli.EXIT_USAGE


def test_train_divergence_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "run"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_config_doc(
        out_dir, lr=1e100, total_iterations=30, w1_every=0)))
    with np.errstate(all="ignore"):
        assert cli.main(["train", str(config)]) == cli.EXIT_DIVERGED
    # partial metrics are still flushed
    assert (out_dir / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# Metrics CSV and helpers
# ---------------------------------------------------------------------------

def test_metrics_csv_round_trip(tmp_path):
    metrics = training.TrainMetrics()
    metrics.append(0, 1.5, -0.25, 0.1, 0.9, 1e-7, 2.25, 2e-4, 0.0)
    metrics.append(1, 1.25, -0.5, 0.2, 1.1, 2e-7, None, 1e-4, 0.0)
    path = tmp_path / "metrics.csv"
    cli.write_metrics_csv(path, metrics)
    raw = path.read_text()
    lines = raw.split("\n")
    assert lines[0] == cli.METRICS_HEADER
    assert lines[2].split(",")[6] == ""  # empty exact_w1 slot
    assert "\r" not in raw
    rows = read_metrics(path)
    assert [row["iter"] for row in rows] == [0, 1]
    assert [row["exact_w1"] for row in rows] == [2.25, None]
    assert [row["lr"] for row in rows] == [2e-4, 1e-4]


def test_format_value():
    assert cli.format_value(None) == ""
    assert cli.format_value(0.25) == "0.25"
    assert cli.format_value(1e-7) == "1e-07"


def test_critic_from_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    critic = Critic(3, (8, 8), "tanh", rng=rng)
    path = tmp_path / "critic.ckpt"
    checkpoint.save_tensors(path, critic.mlp.params)
    rebuilt = cli.critic_from_checkpoint(path, "tanh")
    X = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(rebuilt.value_batch(X), critic.value_batch(X))


def test_critic_from_checkpoint_rejects_generator(tmp_path):
    from bwgan.nets import Generator
    gen = Generator(4, 2, (8,), "relu", rng=np.random.default_rng(5))
    path = tmp_path / "gen.ckpt"
    checkpoint.save_tensors(path, gen.mlp.params)
    with pytest.raises(cli.CliError):
        cli.critic_from_checkpoint(path)


def unchained(params):
    params["critic.w1"] = np.ones((5, 1))
    return params


def with_generator_tensor(params):
    params["gen.w0"] = np.ones((4, 8))
    return params


def without_biases(params):
    return {k: v for k, v in params.items() if ".b" not in k}


def with_empty_layer(params):
    return {"critic.w0": np.ones((0, 1)), "critic.b0": np.zeros(1)}


@pytest.mark.parametrize("edit", [unchained, with_generator_tensor, without_biases,
                                  with_empty_layer],
                         ids=["unchained-shapes", "extra-tensor", "no-biases",
                              "empty-layer"])
def test_check_dual_with_mismatched_tensors_exits_2(tmp_path, capsys, edit):
    critic = Critic(2, (8,), "relu", rng=np.random.default_rng(3))
    ckpt = tmp_path / "critic.ckpt"
    checkpoint.save_tensors(ckpt, edit(dict(critic.mlp.params)))
    mu = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "mu.txt")
    assert cli.main(["wasserstein", mu, mu, "--check-dual", str(ckpt)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_check_dual_with_non_finite_tensor_exits_2(tmp_path, capsys):
    critic = Critic(2, (8,), "relu", rng=np.random.default_rng(3))
    params = dict(critic.mlp.params)
    params["critic.w0"] = params["critic.w0"].copy()
    params["critic.w0"][1, 2] = np.nan
    ckpt = tmp_path / "critic.ckpt"
    checkpoint.save_tensors(ckpt, params)
    mu = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "mu.txt")
    assert cli.main(["wasserstein", mu, mu, "--check-dual", str(ckpt)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "critic.w0" in captured.err


# ---------------------------------------------------------------------------
# Corrupt checkpoints
# ---------------------------------------------------------------------------

CORRUPTIONS = {
    "cut-at-10": lambda data: data[:10],
    "cut-at-30": lambda data: data[:30],
    "cut-5-short": lambda data: data[:-5],
    "bad-magic": lambda data: b"XXXX" + data[4:],
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_check_dual_with_corrupt_checkpoint_exits_2(tmp_path, capsys, corrupt):
    critic = Critic(2, (8,), "relu", rng=np.random.default_rng(3))
    ckpt = tmp_path / "critic.ckpt"
    checkpoint.save_tensors(ckpt, critic.mlp.params)
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    mu = write_measure(tmp_path, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], "mu.txt")
    assert cli.main(["wasserstein", mu, mu, "--check-dual", str(ckpt)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_dual_with_missing_checkpoint_exits_2(tmp_path, capsys):
    mu = write_measure(tmp_path, [[1.0, 0.0, 0.0]], "mu.txt")
    missing = str(tmp_path / "missing.ckpt")
    assert cli.main(["wasserstein", mu, mu, "--check-dual", missing]) == cli.EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1


# ---------------------------------------------------------------------------
# Malformed inputs: one error line, exit 2
# ---------------------------------------------------------------------------

def config_file(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return ["train", str(path)]


def measure_file(tmp_path, text):
    path = tmp_path / "mu.txt"
    path.write_text(text)
    return ["wasserstein", str(path), str(path)]


def signal_file(tmp_path, text, *flags):
    path = tmp_path / "signal.txt"
    path.write_text(text)
    return ["norm", str(path), *flags]


# case -> (argv maker, what the error line says)
MALFORMED_INPUTS = {
    "bad-shape": (lambda t: signal_file(t, "1 2 3 4\n", "--space", "sobolev",
                                        "--shape", "2xb"), "bad --shape"),
    "config-root-list": (lambda t: config_file(t, [1, 2]), "config root"),
    "section-not-object": (lambda t: config_file(t, {"train": [1]}),
                           "train section must be an object"),
    "unsupported-family": (lambda t: config_file(t, {"space": {"family": "weighted"}}),
                           "unsupported space family"),
    "directory-not-string": (lambda t: config_file(t, {"output": {"directory": 5}}),
                             "directory must be a string"),
    "empty-signal": (lambda t: signal_file(t, " \n"), "empty signal file"),
    "measure-one-token": (lambda t: measure_file(t, "1.0\n"),
                          ":1: need weight and coordinates"),
    "measure-non-numeric": (lambda t: measure_file(t, "\n1.0 x\n"),
                            ":2: non-numeric entry"),
    "empty-measure": (lambda t: measure_file(t, "\n \n"), "empty measure file"),
}


@pytest.mark.parametrize("make_argv,message", list(MALFORMED_INPUTS.values()),
                         ids=list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, make_argv, message):
    assert cli.main(make_argv(tmp_path)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert message in captured.err
