from __future__ import annotations

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from acrestore.cli import main
from acrestore import acpf, fileio
from acrestore.acpf import MeasurementKind
from acrestore.netmodel import load_bundled_case
import importlib.resources


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    text = (importlib.resources.files("acrestore") / "cases" / "case5.m").read_text()
    path = tmp_path_factory.mktemp("cases") / "case5.m"
    path.write_text(text)
    return str(path)


def run(*argv):
    return main(list(argv))


def test_parse_command(case_path, capsys):
    assert run("parse", "--case", case_path) == 0
    out = capsys.readouterr().out
    assert "5 buses" in out and "6 branches" in out


def test_parse_error_category(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text("mpc.baseMVA = 100.0;\n")
    assert run("parse", "--case", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR case-format:")


def test_missing_case_file_error_category(tmp_path, capsys):
    assert run("parse", "--case", str(tmp_path / "absent.m")) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR io:")


def test_pf_writes_solution(case_path, tmp_path, capsys):
    out = tmp_path / "pf.json"
    assert run("pf", "--case", case_path, "--out", str(out)) == 0
    net = load_bundled_case("case5")
    sol = fileio.read_solution(out, net)
    assert sol.formulation == "pf"
    assert np.all(sol.vm > 0.9)


def test_lpac_writes_solution_and_lp(case_path, tmp_path):
    out = tmp_path / "lpac.json"
    lp_text = tmp_path / "model.lp"
    assert run(
        "lpac", "--case", case_path, "--out", str(out), "--export-lp", str(lp_text)
    ) == 0
    assert "Minimize" in lp_text.read_text()
    net = load_bundled_case("case5")
    sol = fileio.read_solution(out, net)
    assert sol.formulation == "lpac"
    assert sol.flows is not None


def test_restore_raw_and_benchmark(case_path, tmp_path, capsys):
    pf_out = tmp_path / "pf.json"
    run("pf", "--case", case_path, "--out", str(pf_out))
    # a consistent solution restores to itself under every method
    for method in ("raw", "benchmark", "wls"):
        out = tmp_path / f"restored-{method}.json"
        assert run(
            "restore", "--case", case_path, "--solution", str(pf_out),
            "--method", method, "--out", str(out),
        ) == 0
    net = load_bundled_case("case5")
    base = fileio.read_solution(pf_out, net)
    for method in ("raw", "benchmark", "wls"):
        again = fileio.read_solution(tmp_path / f"restored-{method}.json", net)
        assert again.vm == pytest.approx(base.vm, abs=1e-6)
        assert again.va == pytest.approx(base.va, abs=1e-6)


def test_restore_wls_loss_zero_on_consistent_input(case_path, tmp_path, capsys):
    pf_out = tmp_path / "pf.json"
    run("pf", "--case", case_path, "--out", str(pf_out))
    capsys.readouterr()
    assert run(
        "restore", "--case", case_path, "--solution", str(pf_out), "--method", "wls"
    ) == 0
    out = capsys.readouterr().out
    # weighted objective of a consistent restoration is numerically zero
    objective = float(out.split("objective")[1].split()[0])
    assert objective < 1e-12


def test_scenarios_train_eval_pipeline(case_path, tmp_path, capsys):
    data = tmp_path / "ds"
    assert run(
        "scenarios", "--case", case_path, "--count", "12", "--seed", "5",
        "--source", "lpac", "--out", str(data),
    ) == 0
    weights = tmp_path / "w.json"
    trace = tmp_path / "trace.tsv"
    assert run(
        "train", "--case", case_path, "--data", str(data), "--iters", "3",
        "--eta", "50", "--out", str(weights), "--trace", str(trace),
    ) == 0
    assert len(fileio.read_trace(trace)) == 3
    train_line = capsys.readouterr().out.splitlines()[-2]
    assert re.fullmatch(r"training loss \S+ -> \S+ \(\d+ Gauss-Newton iterations\)", train_line)
    report_dir = tmp_path / "report"
    assert run(
        "eval", "--case", case_path, "--data", str(data),
        "--weights", str(weights), "--out", str(report_dir),
    ) == 0
    with open(report_dir / "report.json") as fh:
        report = json.load(fh)
    for method in ("raw", "benchmark", "wls-init", "wls-trained"):
        assert method in report["methods"]
        assert report["methods"][method]["loss"] >= 0.0
    ratio_line = capsys.readouterr().out.splitlines()[-2]
    match = re.fullmatch(r"loss ratio  wls-trained/benchmark (\S+)  wls-trained/raw (\S+)",
                         ratio_line)
    assert match, ratio_line
    losses = {method: entry["loss"] for method, entry in report["methods"].items()}
    for ratio, method in zip(match.groups(), ("benchmark", "raw")):
        assert float(ratio) == pytest.approx(losses["wls-trained"] / losses[method], rel=1e-3)
    assert (report_dir / "report.tsv").exists()


def test_eval_deterministic_losses(case_path, tmp_path):
    data = tmp_path / "ds"
    run("scenarios", "--case", case_path, "--count", "8", "--seed", "9",
        "--source", "lpac", "--out", str(data))
    reports = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert run("eval", "--case", case_path, "--data", str(data), "--out", str(out)) == 0
        with open(out / "report.json") as fh:
            reports.append(json.load(fh))
    for method in reports[0]["methods"]:
        assert (
            reports[0]["methods"][method]["loss"]
            == reports[1]["methods"][method]["loss"]
        )


def rewritten_dataset(src, dst, network, keep):
    """A copy of a dataset whose measurement rows are those at `keep`, in that order."""
    records, _, _, manifest = fileio.read_dataset(src, network)
    records = [dataclasses.replace(rec, z=rec.z.subset(keep)) for rec in records]
    fileio.write_dataset(dst, network, records, manifest["train_indices"],
                         manifest["test_indices"], {"source": manifest["source"]})
    return dst


def test_eval_raw_reads_voltages_by_kind(case_path, tmp_path):
    data = tmp_path / "ds"
    assert run("scenarios", "--case", case_path, "--count", "10", "--seed", "4",
               "--source", "synthetic", "--out", str(data)) == 0
    net = load_bundled_case("case5")
    kinds = fileio.read_dataset(data, net)[0][0].z.kinds
    datasets = {
        "canonical": data,
        "permuted": rewritten_dataset(data, tmp_path / "permuted", net,
                                      np.random.default_rng(0).permutation(len(kinds))),
        "no va[2]": rewritten_dataset(data, tmp_path / "no-va", net,
                                      [i for i, k in enumerate(kinds)
                                       if k != MeasurementKind("va", 2)]),
    }
    methods = {}
    for name, path in datasets.items():
        out = tmp_path / f"report-{name}"
        assert run("eval", "--case", case_path, "--data", str(path), "--out", str(out)) == 0
        with open(out / "report.json") as fh:
            methods[name] = json.load(fh)["methods"]
    assert methods["permuted"]["raw"]["loss"] == methods["canonical"]["raw"]["loss"]
    assert "raw" not in methods["no va[2]"] and "benchmark" in methods["no va[2]"]


def test_eval_leaves_out_benchmark_without_its_rows(case_path, tmp_path, capsys):
    data = tmp_path / "ds"
    assert run("scenarios", "--case", case_path, "--count", "10", "--seed", "4",
               "--source", "synthetic", "--out", str(data)) == 0
    net = load_bundled_case("case5")
    kinds = fileio.read_dataset(data, net)[0][0].z.kinds
    no_pinj = rewritten_dataset(data, tmp_path / "no-pinj", net,
                                [i for i, k in enumerate(kinds) if k.kind != "pinj"])
    weights = tmp_path / "w.json"
    assert run("train", "--case", case_path, "--data", str(no_pinj), "--iters", "1",
               "--out", str(weights)) == 0
    capsys.readouterr()
    out = tmp_path / "report"
    assert run("eval", "--case", case_path, "--data", str(no_pinj), "--weights", str(weights),
               "--out", str(out)) == 0
    with open(out / "report.json") as fh:
        assert list(json.load(fh)["methods"]) == ["raw", "wls-init", "wls-trained"]
    ratio_line = capsys.readouterr().out.splitlines()[-2]
    assert re.fullmatch(r"loss ratio  wls-trained/raw \S+", ratio_line), ratio_line
    # restore still refuses the benchmark method on such a layout
    path = tmp_path / "no-pinj.json"
    fileio.write_solution(path, net, fileio.SolutionFile(formulation="flat", vm=np.ones(5),
                                                         va=np.zeros(5)))
    assert run("restore", "--case", case_path, "--solution", str(path),
               "--method", "benchmark") == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR measurement-layout: benchmark restoration needs pinj[bus 1]"), err


def test_eval_curve_output(case_path, tmp_path):
    data = tmp_path / "ds"
    run("scenarios", "--case", case_path, "--count", "10", "--seed", "6",
        "--source", "lpac", "--out", str(data))
    w_a, w_b = tmp_path / "a.json", tmp_path / "b.json"
    run("train", "--case", case_path, "--data", str(data), "--iters", "1",
        "--out", str(w_a))
    run("train", "--case", case_path, "--data", str(data), "--iters", "2",
        "--out", str(w_b))
    report_dir = tmp_path / "rep"
    assert run(
        "eval", "--case", case_path, "--data", str(data), "--out", str(report_dir),
        "--curve", f"4:{w_a}", "--curve", f"8:{w_b}",
    ) == 0
    lines = (report_dir / "curve.tsv").read_text().strip().splitlines()
    assert lines[0] == "train_scenarios\ttest_loss"
    assert len(lines) == 3


def test_train_zero_iters_emits_initial_weights(case_path, tmp_path):
    data = tmp_path / "ds"
    run("scenarios", "--case", case_path, "--count", "6", "--seed", "7",
        "--source", "synthetic", "--out", str(data))
    weights = tmp_path / "w0.json"
    assert run(
        "train", "--case", case_path, "--data", str(data), "--iters", "0",
        "--out", str(weights),
    ) == 0
    net = load_bundled_case("case5")
    kinds, values = fileio.read_weights(weights, net)
    expected = [1e4 if k.kind in ("vm", "va") else 1e3 for k in kinds]
    assert values == pytest.approx(expected)


def test_eval_rejects_non_finite_or_floored_weights(case_path, tmp_path, capsys):
    data = tmp_path / "ds"
    run("scenarios", "--case", case_path, "--count", "6", "--seed", "7",
        "--source", "synthetic", "--out", str(data))
    weights = tmp_path / "w.json"
    run("train", "--case", case_path, "--data", str(data), "--iters", "0",
        "--out", str(weights))
    payload = json.loads(weights.read_text())
    for bad in (float("nan"), float("inf"), 1e-9):
        payload["values"][1] = bad
        weights.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("eval", "--case", case_path, "--data", str(data),
                   "--weights", str(weights), "--out", str(tmp_path / "rep")) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR file-format:") and "weight 1 is" in err, err


def test_restore_batch_directory(case_path, tmp_path):
    sol_dir = tmp_path / "sols"
    sol_dir.mkdir()
    run("pf", "--case", case_path, "--out", str(sol_dir / "a.json"))
    run("lpac", "--case", case_path, "--out", str(sol_dir / "b.json"))
    out_dir = tmp_path / "restored"
    assert run(
        "restore", "--case", case_path, "--solutions", str(sol_dir),
        "--method", "wls", "--out", str(out_dir),
    ) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.json", "b.json"]


def test_restore_requires_exactly_one_source(case_path, capsys):
    assert run("restore", "--case", case_path) == 1
    assert "ERROR file-format" in capsys.readouterr().err


def test_restore_rejects_wrong_network(tmp_path, capsys):
    text14 = (importlib.resources.files("acrestore") / "cases" / "case14.m").read_text()
    case14_path = tmp_path / "case14.m"
    case14_path.write_text(text14)
    text5 = (importlib.resources.files("acrestore") / "cases" / "case5.m").read_text()
    case5_path = tmp_path / "case5.m"
    case5_path.write_text(text5)
    pf_out = tmp_path / "pf5.json"
    run("pf", "--case", str(case5_path), "--out", str(pf_out))
    capsys.readouterr()
    assert run(
        "restore", "--case", str(case14_path), "--solution", str(pf_out)
    ) == 1
    assert "ERROR file-format" in capsys.readouterr().err


def case5_dataset(case_path, path):
    assert run("scenarios", "--case", case_path, "--count", "4", "--seed", "7",
               "--source", "synthetic", "--out", str(path)) == 0
    return path


def slack_angle(x_ac, slack):
    va = list(x_ac["va"])
    va[slack] = 0.1
    return {"vm": x_ac["vm"], "va": va}


@pytest.mark.parametrize("key, edit", [
    ("z", lambda z, slack: z[:-1]),
    ("x_ac", lambda x, slack: {"vm": x["vm"][:-1], "va": x["va"][:-1]}),
    ("x_ac", lambda x, slack: {"vm": x["vm"][:-1], "va": x["va"]}),
    ("x_ac", slack_angle),
], ids=["short-z", "x_ac-four-buses", "x_ac-short-vm", "x_ac-slack-angle"])
def test_malformed_record_is_a_file_format_error(case_path, tmp_path, capsys, key, edit):
    data = case5_dataset(case_path, tmp_path / "ds")
    record = data / "records" / "s00001.json"
    payload = json.loads(record.read_text())
    payload[key] = edit(payload[key], load_bundled_case("case5").slack)
    record.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("train", "--case", case_path, "--data", str(data), "--iters", "1",
               "--out", str(tmp_path / "w.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR file-format:") and "s00001.json" in err, err


def test_eval_malformed_curve_item_is_a_usage_error(case_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("eval", "--case", case_path, "--data", str(tmp_path / "absent"),
            "--out", str(tmp_path / "rep"), "--curve", "x:w.json")
    assert exit_info.value.code == 2
    assert "'x:w.json' is not COUNT:WEIGHTFILE" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_restore_raw_needs_angles(case_path, tmp_path, capsys):
    net = load_bundled_case("case5")
    path = tmp_path / "no-angles.json"
    fileio.write_solution(path, net, fileio.SolutionFile(formulation="flat", vm=np.ones(5)))
    assert run("restore", "--case", case_path, "--solution", str(path),
               "--method", "raw") == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR file-format:") and "no-angles.json" in err, err


def test_restore_rejects_weights_of_another_layout(case_path, tmp_path, capsys):
    pf_out = tmp_path / "pf.json"
    run("pf", "--case", case_path, "--out", str(pf_out))
    net = load_bundled_case("case5")
    kinds = fileio.solution_to_measurements(net, fileio.read_solution(pf_out, net)).kinds
    weights = tmp_path / "w.json"
    fileio.write_weights(weights, net, kinds[::-1], np.ones(len(kinds)))
    capsys.readouterr()
    assert run("restore", "--case", case_path, "--solution", str(pf_out),
               "--weights", str(weights)) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR file-format:") and "weight layout" in err, err


@pytest.mark.parametrize("method", ["raw", "benchmark", "wls"])
def test_restore_single_file_matches_batch(case_path, tmp_path, method):
    sol_dir = tmp_path / "sols"
    sol_dir.mkdir()
    run("lpac", "--case", case_path, "--out", str(sol_dir / "lpac.json"))
    single = tmp_path / "single.json"
    assert run("restore", "--case", case_path, "--solution", str(sol_dir / "lpac.json"),
               "--method", method, "--out", str(single)) == 0
    assert run("restore", "--case", case_path, "--solutions", str(sol_dir),
               "--method", method, "--out", str(tmp_path / "batch")) == 0
    assert single.read_bytes() == (tmp_path / "batch" / "lpac.json").read_bytes()


def test_eval_compiles_the_canonical_layout_once(tmp_path, monkeypatch):
    text = (importlib.resources.files("acrestore") / "cases" / "case14.m").read_text()
    case14_path = tmp_path / "case14.m"
    case14_path.write_text(text)
    data = tmp_path / "ds"
    assert run("scenarios", "--case", str(case14_path), "--count", "20", "--seed", "3",
               "--source", "synthetic", "--out", str(data)) == 0
    calls = []
    compile_ = acpf._compile

    def counting(network, kinds):
        calls.append(len(kinds))
        return compile_(network, kinds)

    monkeypatch.setattr(acpf, "_compile", counting)
    assert run("eval", "--case", str(case14_path), "--data", str(data),
               "--out", str(tmp_path / "rep")) == 0
    assert len(calls) <= 1, calls


def test_bad_number_in_a_solution_file_is_a_file_format_error(case_path, tmp_path, capsys):
    pf_out = tmp_path / "pf.json"
    run("pf", "--case", case_path, "--out", str(pf_out))
    payload = json.loads(pf_out.read_text())
    payload["bus"]["vm"][2] = float("nan")
    pf_out.write_text(json.dumps(payload))
    for method in ("raw", "wls"):
        capsys.readouterr()
        assert run("restore", "--case", case_path, "--solution", str(pf_out),
                   "--method", method) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR file-format: {pf_out}: bus.vm[2] is nan"), err
    payload["bus"]["vm"][2] = "high"
    pf_out.write_text(json.dumps(payload))
    assert run("restore", "--case", case_path, "--solution", str(pf_out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR file-format: {pf_out}: bus.vm: could not convert"), err


def test_non_finite_record_value_is_a_file_format_error(case_path, tmp_path, capsys):
    data = case5_dataset(case_path, tmp_path / "ds")
    record = data / "records" / "s00001.json"
    payload = json.loads(record.read_text())
    payload["x_ac"]["vm"][0] = float("nan")
    record.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("train", "--case", case_path, "--data", str(data), "--iters", "1",
               "--out", str(tmp_path / "w.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR file-format: {record}: x_ac.vm[0] is nan"), err


def test_nan_in_a_case_file_is_a_case_format_error(case_path, tmp_path, capsys):
    lines = open(case_path).read().splitlines()
    row = next(i for i, line in enumerate(lines) if line.strip().startswith("mpc.bus")) + 1
    fields = lines[row].split()
    fields[2] = "nan"  # the first bus's active load
    lines[row] = "\t".join(fields)
    bad = tmp_path / "nan.m"
    bad.write_text("\n".join(lines) + "\n")
    assert run("parse", "--case", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR case-format: line {row + 1}: NaN value in row"), err
