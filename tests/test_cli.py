import argparse
import functools
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from semistable import charfn
from semistable import cli
from semistable import coupling
from semistable import empirics
from semistable import sampling
from semistable import tailmodel
from semistable.cli import DEFAULT_SEED, main, run_selftest


def read(path):
    with open(path) as fh:
        return fh.read()


# -- sample -----------------------------------------------------------------------

def test_sample_deterministic_files(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["sample", "--model", "petersburg", "--n", "10", "--seed", "1"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert read(out1) == read(out2)
    lines = read(out1).splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 11
    meta = json.loads(read(out1 + ".meta.json"))
    assert meta["seed"] == 1
    assert meta["config"]["subcommand"] == "sample"


def test_sample_sidecar_written_once(tmp_path, monkeypatch):
    import builtins
    out = str(tmp_path / "a.csv")
    real_open = builtins.open
    writes = []

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert main(["sample", "--n", "3", "--seed", "1", "--out", out]) == 0
    monkeypatch.undo()
    assert writes.count(out + ".meta.json") == 1
    config = {"format": "csv", "out": out, "seed": 1, "subcommand": "sample",
              "params": {"model": "petersburg", "model_json": None, "alpha": 0.5,
                         "c": 1.0, "x0": None, "n": 3, "stream": 0,
                         "symmetrize": False}}
    meta = {"model": tailmodel.model_to_json(tailmodel.make_petersburg(1.0)),
            "seed": 1, "stream_id": 0, "n": 3, "config": config}
    assert read(out + ".meta.json") == json.dumps(meta, sort_keys=True,
                                                  indent=2) + "\n"


def test_sample_pareto_symmetrized(tmp_path):
    out = str(tmp_path / "p.csv")
    code = main(["sample", "--model", "pareto", "--alpha", "0.5", "--n", "64",
                 "--symmetrize", "--seed", "2", "--out", out])
    assert code == 0
    vals = [float(l.split(",")[1]) for l in read(out).splitlines()[1:]]
    assert any(v < 0 for v in vals) and any(v > 0 for v in vals)


def test_sample_symmetrized_petersburg(capsys):
    # the symmetrized default model used to draw X | X > 2, never |x| = 2
    def values(extra):
        assert main(["sample", "--n", "2000", "--seed", "4"] + extra) == 0
        return np.array(json.loads(capsys.readouterr().out)["values"])

    plain, signed = values([]), values(["--symmetrize"])
    assert np.array_equal(np.abs(signed), plain)  # magnitudes first, then signs
    assert 0.45 < np.mean(np.abs(signed) == 2.0) < 0.55
    assert 0.45 < np.mean(signed < 0.0) < 0.55


def test_sample_model_json(tmp_path):
    from semistable.tailmodel import make_pareto, model_to_json
    doc = tmp_path / "model.json"
    doc.write_text(model_to_json(make_pareto(0.5)))
    out = str(tmp_path / "m.csv")
    assert main(["sample", "--model-json", str(doc), "--n", "8", "--seed", "3",
                 "--out", out]) == 0
    assert len(read(out).splitlines()) == 9


def test_sample_explicit_x0_two_draws_above_it(capsys):
    # --x0 2 drew the game (values 2, 4, ...) while --x0 4 drew X | X > 4
    from semistable.tailmodel import make_petersburg
    assert main(["sample", "--x0", "2", "--n", "200", "--seed", "5"]) == 0
    vals = np.array(json.loads(capsys.readouterr().out)["values"])
    expect = sampling.sample_tail_model(make_petersburg(2.0), 200,
                                        sampling.RngStream(5, 0)).values
    assert np.array_equal(vals, expect)
    assert vals.min() >= 4.0


def sample_values(path):
    return np.array([float(l.split(",")[1]) for l in read(path).splitlines()[1:]])


# SHA-256 of values.tobytes(), recorded while the CLI drew the game through
# its own branch: the tail model at x0 = 1 must draw the same bytes
@pytest.mark.parametrize("flags, digest", [
    ([], "0de3659696bb418ff3c841fbf65b9192bcdf5792e75b2f42368293892cb6a5e0"),
    (["--symmetrize"], "1890098c97cc2a588cba560848687dbd5be5cbf4d6d62da55459a207ba25fa77"),
    (["--x0", "1"], "0de3659696bb418ff3c841fbf65b9192bcdf5792e75b2f42368293892cb6a5e0"),
], ids=["game", "game-symmetrized", "x0-1"])
def test_sample_keeps_its_pinned_digests(flags, digest, tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(["sample", "--n", "1000", "--seed", "7", "--out", out] + flags) == 0
    assert hashlib.sha256(sample_values(out).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("flags", [
    ["--model", "petersburg"], ["--model", "petersburg", "--x0", "4"],
    ["--model", "pareto", "--alpha", "0.7"],
    ["--model", "pareto", "--alpha", "0.7", "--x0", "3", "--symmetrize"],
], ids=["game", "petersburg-x0", "pareto", "pareto-x0"])
def test_sample_sidecar_model_replays(flags, tmp_path):
    # the game's sidecar read "petersburg", which model_from_json refused,
    # so --model-json could not replay it (exit 2)
    out, doc, again = (str(tmp_path / f) for f in ("a.csv", "model.json", "b.csv"))
    run = ["sample", "--n", "200", "--seed", "11", "--stream", "4"]
    assert main(run + flags + ["--out", out]) == 0
    model = json.loads(read(out + ".meta.json"))["model"]
    assert tailmodel.model_to_json(tailmodel.model_from_json(model)) == model
    pathlib.Path(doc).write_text(model)
    replay = [f for f in flags if f == "--symmetrize"]
    assert main(run + replay + ["--model-json", doc, "--out", again]) == 0
    assert sample_values(again).tobytes() == sample_values(out).tobytes()


@pytest.mark.parametrize("text", [
    '{"q": 2, "c": 1, "x0": 1}',
    '[1, 2]',
    '{"alpha": 0.5, "q": 2, "c": 1, "x0": 1, "psi": "grid"}',
    '{"alpha": null, "q": 2, "c": 1, "x0": 1}',
    '{"alpha": 0.5, "q": 2.5, "c": 1, "x0": 1}',
    None,  # no such file
    "petersburg",  # the game's old sidecar label
], ids=["missing-key", "not-an-object", "psi-not-an-object", "null-alpha",
        "fractional-q", "missing-file", "not-json"])
def test_malformed_model_json_exit_code(text, tmp_path, capsys):
    # a KeyError, AttributeError, TypeError or FileNotFoundError traceback
    # (exit 1) before
    doc = tmp_path / "model.json"
    if text is not None:
        doc.write_text(text)
    assert main(["sample", "--model-json", str(doc), "--n", "8"]) == 2
    assert capsys.readouterr().err.startswith("parameter error: ")


def test_sample_size_bound(monkeypatch, capsys):
    # 2^50 draws ended in a MemoryError traceback (exit 1); the bound is
    # checked before any stream opens, so this test allocates nothing
    opened = []

    def spy(self):
        opened.append(self)
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(sampling.RngStream, "generator", spy)
    for argv in (["--n", str(2 ** 26 + 1)], ["--n", str(2 ** 50), "--x0", "4"]):
        assert main(["sample"] + argv) == 4
        assert "draws held in memory, over the budget of 67108864" in capsys.readouterr().err
    assert opened == []


# -- cdf --------------------------------------------------------------------------

def test_cdf_grid_rows_and_monotone(tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["cdf", "--law", "g", "--grid", "-5:15:0.1", "--tol", "1e-8",
                 "--out", out]) == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "x,F,tol"
    rows = [tuple(float(v) for v in l.split(",")) for l in lines[2:]]
    assert len(rows) == 201  # floor((15 - -5)/0.1) + 1
    fs = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    assert lines[-1].endswith(",1e-08")


def test_cdf_gamma_law(tmp_path):
    out = str(tmp_path / "gg.csv")
    assert main(["cdf", "--law", "g-gamma", "--gamma", "1.5", "--grid",
                 "0:4:1", "--out", out]) == 0
    assert len(read(out).splitlines()) == 7


# a cheap run of each subcommand; a row added to cli._COMMANDS without an
# entry here fails the test below with a KeyError
_CHEAP_RUNS = {
    "sample": ["--n", "3", "--model", "pareto", "--alpha", "0.75", "--c", "2"],
    "cdf": ["--law", "stable", "--c", "2", "--grid", "1:2:1"],
    "merging": ["--n", "96", "--reps", "10000"],
    "mlof": ["--k", "6", "--reps", "10000"],
    "feller": ["--n", "64", "--reps", "100"],
    "coupling": ["--n-list", "20,80", "--reps", "100"],
    "lepage": ["--k", "6", "--reps", "300", "--n-terms", "200"],
    "orderstats": ["--p", "3", "--n", "50", "--reps", "300"],
    "negligibility": ["--n", "1000", "--reps", "100"],
    "sweep": ["--k", "8", "--points", "1", "--reps", "1000"],
    "selftest": [],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_config_records_every_flag(command, tmp_path, monkeypatch):
    # each subcommand kept its own list of recorded flags: the cdf list
    # missed --c (two runs wrote different F under one config), and the
    # sample list missed --alpha, --c, --x0 and --model-json
    monkeypatch.setattr(cli, "run_selftest", lambda seed: (0, ["selftest stub"]))
    out = tmp_path / "artifact"
    argv = [command] + _CHEAP_RUNS[command] + ["--format", "json", "--out", str(out)]
    assert main(argv) in (0, 3)
    text = out.read_text()
    if text.startswith("# config: "):
        config = json.loads(text.splitlines()[0][len("# config: "):])
    else:
        config = json.loads(text)["config"]
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices[command]._actions}
    assert set(config["params"]) == flags - {"help", "seed", "out", "format", "threads"}
    parsed = vars(sub.choices[command].parse_args(argv[1:]))
    assert config["params"] == {k: parsed[k] for k in config["params"]}


def test_cdf_bad_grid():
    assert main(["cdf", "--law", "g", "--grid", "5:1:0.1"]) == 2
    assert main(["cdf", "--law", "g", "--grid", "nope"]) == 2


@pytest.mark.parametrize("grid", ("0:inf:1", "-inf:0:1", "0:1:inf", "0:1:nan"))
def test_cdf_non_finite_grid(grid):
    # 0:inf:1 used to escape as an OverflowError traceback
    assert main(["cdf", "--law", "cauchy", "--grid", grid]) == 2


def test_cdf_grid_row_cap(capsys):
    # the row count used to overflow int() into an OverflowError traceback;
    # past 10^6 rows the grid is a work bound like the others (exit 4)
    assert main(["cdf", "--law", "cauchy", "--grid", "0:1e308:1e-308"]) == 4
    assert "would need inf grid rows, over the budget of 1000000" in capsys.readouterr().err


def test_cdf_node_budget_exit_code(capsys):
    # x = 1e300 used to run without end
    assert main(["cdf", "--law", "cauchy", "--grid", "0:1e300:1e300"]) == 4
    assert "quadrature nodes" in capsys.readouterr().err


def test_cdf_work_budget_exit_code(capsys):
    # 30001 points, each group inside the node budget; this used to run for
    # more than a minute
    t0 = time.perf_counter()
    assert main(["cdf", "--law", "cauchy", "--grid", "0:30000:1"]) == 4
    assert time.perf_counter() - t0 < 5.0
    assert "point x node products" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["orderstats", "--p", "3", "--n", "1000000", "--reps", "2147483649"], "one phase"),
    (["coupling", "--n-list", "100,10000000", "--reps", "1000"], "one phase"),
    (["feller", "--n", "4", "--reps", "1000000000000"], "one phase"),
    (["merging", "--n", "1024", "--reps", "400000000"], "one phase"),
    (["sweep", "--k", "8", "--points", "2", "--reps", "450000000"], "the sweep"),
], ids=["orderstats", "coupling", "feller", "merging", "sweep"])
def test_draw_budget_exit_code(argv, what, capsys):
    # reps x draws per replicate was unbounded: orderstats asks for 2 Gamma
    # variates per replicate, so 2^31 + 1 replicates exceed the budget; a
    # St. Petersburg sum draws about log2(n) binomial levels per replicate,
    # and these three ran until killed (the sweep's first batch, at n = 256,
    # fits; its last, at n = 512, does not, and its whole walk is priced
    # first)
    t0 = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - t0 < 1.0
    assert "draws in %s, over the budget of 4294967296" % what in capsys.readouterr().err


def test_orderstats_n_bound_exit_code(capsys):
    # refused before any draw: a Gamma shape of 10^400 overflows float64
    assert main(["orderstats", "--p", "3", "--n", str(10 ** 400)]) == 2
    assert "n must be an integer >= 1 and <= 9007199254740992" in capsys.readouterr().err


def test_coupling_work_budget_exit_code(capsys):
    # n = 10^12 terms per path used to run without end
    t0 = time.perf_counter()
    assert main(["coupling", "--n-list", "100,1000000000000"]) == 4
    assert time.perf_counter() - t0 < 1.0
    assert ("would need 1.000003e+12 terms per path, over the budget of 1000000000"
            in capsys.readouterr().err)


def test_parse_error_exit_code():
    assert main(["cdf", "--law", "not-a-law", "--grid", "0:1:1"]) == 2
    assert main(["no-such-command"]) == 2


def test_numeric_failure_exit_code(monkeypatch):
    def boom(*a, **k):
        raise charfn.InversionError("no decay")
    monkeypatch.setattr("semistable.cli.charfn.cdf_from_cf", boom)
    assert main(["cdf", "--law", "g", "--grid", "0:1:1"]) == 4


def _unreached(*args, **kwargs):
    raise AssertionError("the run started")


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3"],
    ["cdf", "--law", "cauchy", "--grid", "0:1:1"],
    ["selftest"],
    ["feller", "--n", "64", "--reps", "100"],
    ["merging", "--n", "1536", "--reps", "200000", "--seed", "7"],
    ["coupling", "--reps", "100"],
], ids=["sample", "cdf", "selftest", "feller", "merging", "coupling"])
def test_unwritable_out_exit_code(argv, tmp_path, monkeypatch, capsys):
    # refused before the run: no uniform is drawn, no phase of _map_blocks
    # runs and no CDF is inverted (each spy fails the test if reached)
    for module in (sampling, coupling, empirics):
        monkeypatch.setattr(module, "_map_blocks", _unreached)
    monkeypatch.setattr(sampling, "_open01", _unreached)
    monkeypatch.setattr(charfn, "cdf_from_cf", _unreached)
    out = tmp_path / "no-such-dir" / "artifact"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: ") and str(out) in err
    assert not out.parent.exists()
    # with a writable --out the run reaches a spy; the failed run leaves no
    # new file behind, and an existing file as it was
    new, old = tmp_path / "new", tmp_path / "old"
    old.write_text("kept\n")
    for path in (new, old):
        with pytest.raises(AssertionError, match="the run started"):
            main(argv + ["--out", str(path)])
    assert not new.exists() and old.read_text() == "kept\n"


# -- experiments -------------------------------------------------------------------

def test_merging_json_artifact(tmp_path):
    out = str(tmp_path / "m.json")
    code = main(["merging", "--n", "1536", "--reps", "20000", "--seed", "7",
                 "--format", "json", "--out", out])
    assert code == 0
    doc = json.loads(read(out))
    assert doc["experiment"] == "merging"
    assert doc["pass"] is True
    assert doc["statistic"] <= 0.03
    assert doc["config"]["seed"] == 7
    assert doc["params"]["gamma"] == 1.5


def test_jsonl_appends(tmp_path):
    out = str(tmp_path / "runs.jsonl")
    for seed in ("5", "6"):
        assert main(["orderstats", "--p", "3", "--n", "500", "--reps", "5000",
                     "--tolerance", "0.03", "--seed", seed, "--format",
                     "jsonl", "--out", out]) == 0
    lines = read(out).splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["config"]["seed"] == 5


@pytest.mark.parametrize("argv, code", [
    (["feller", "--n", "256", "--reps", "400"], 0),
    (["coupling", "--n-list", "20,80", "--reps", "300"], 3),
    (["lepage", "--k", "6", "--reps", "300", "--n-terms", "200"], 3),
    (["lepage", "--k", "6", "--reps", "300", "--n-terms", "200",
      "--alpha", "1.5", "--symmetric"], 3),
    (["orderstats", "--p", "3", "--n", "50", "--reps", "300"], 3),
    (["negligibility", "--n", "1000", "--reps", "300"], 0),
    (["sweep", "--k", "8", "--points", "1", "--reps", "10000"], 0),
], ids=["feller", "coupling", "lepage", "lepage-symmetric", "orderstats",
        "negligibility", "sweep"])
def test_threads_byte_identical(tmp_path, argv, code, monkeypatch):
    # identical config (same out path), different --threads values and block
    # pools of 1 and 4 workers; at these small sizes some verdicts fail
    # (exit 3), but the artifact must not move
    out = str(tmp_path / "t.json")
    base = argv + ["--seed", "9", "--out", out]
    assert main(base + ["--threads", "1"]) == code
    first = read(out)
    assert main(base + ["--threads", "4"]) == code
    assert read(out) == first
    for cpus in (1, 4):
        monkeypatch.setattr(sampling, "_cpus", lambda: cpus)
        assert main(base) == code
        assert read(out) == first


@pytest.mark.parametrize("argv", [["coupling", "--n-list", ","],
                                  ["negligibility", "--alphas", ","]])
def test_empty_list_exit_code(argv, capsys):
    # an IndexError traceback (coupling) and a pass over no exponents
    # (negligibility) before
    assert main(argv + ["--reps", "100"]) == 2
    assert "must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["merging", "--n", "1536", "--tolerance", "nan", "--reps", "10"],
    ["merging", "--n", "1536", "--tolerance", "inf", "--reps", "10"],
    ["sweep", "--k", "10", "--tol-max=-inf", "--reps", "10"],
    ["cdf", "--law", "g", "--grid", "0:1:1", "--tol", "nan"],
    ["sample", "--model", "pareto", "--alpha", "nan", "--n", "3"],
])
def test_non_finite_real_is_a_parse_error(argv, tmp_path, capsys):
    # --tolerance nan ran the whole experiment, exited 3 and wrote a bare NaN
    # into the JSON artifact
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alphas", ("nan", "-1", "0.5,inf"))
def test_negligibility_bad_alpha_exit_code(alphas, capsys):
    # exited 3 with a NaN or meaningless median before
    assert main(["negligibility", "--alphas", alphas, "--n", "1000",
                 "--reps", "100"]) == 2
    assert "each alpha in alpha_list must lie in (0, inf), got" in capsys.readouterr().err


@pytest.mark.parametrize("n_terms", ("0", "2", "3.5"))
def test_lepage_too_few_terms_exit_code(n_terms, capsys):
    # --n-terms 0 died with an IndexError traceback (exit 1) before; one
    # count rule refuses every n_terms below the 3 ranks compared
    assert main(["lepage", "--n-terms", n_terms, "--k", "6", "--reps", "300"]) == 2
    assert ("n_terms must be an integer >= 3, got %s\n" % n_terms) in capsys.readouterr().err


def test_a_caught_failure_removes_only_a_fresh_out(tmp_path, capsys):
    # lepage at its defaults exits 4 from the draw budget: the --out this
    # call made is removed, a file that was there before is left as it was
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        assert main(["lepage", "--out", str(path)]) == 4
    assert "over the budget" in capsys.readouterr().err
    assert not new.exists() and old.read_text() == "kept\n"


def test_lepage_defaults_exceed_the_draw_budget(capsys):
    # 10^5 reps x 10^6 auto terms ran for many minutes before; now refused
    # before any draw
    t0 = time.perf_counter()
    assert main(["lepage"]) == 4
    assert time.perf_counter() - t0 < 1.0
    assert "draws in one phase, over the budget of 4294967296" in capsys.readouterr().err


def test_coupling_csv(tmp_path):
    out = str(tmp_path / "c.csv")
    code = main(["coupling", "--alpha", "0.5", "--n-list", "50,200", "--reps",
                 "200", "--seed", "3", "--format", "csv", "--out", out])
    assert code in (0, 3)
    lines = read(out).splitlines()
    assert lines[1] == "n,median_gap,q90_gap,ks"
    assert len(lines) == 4


def test_coupling_csv_to_stdout(capsys):
    # printed the JSON report before
    code = main(["coupling", "--n-list", "50,100", "--reps", "200", "--seed", "3",
                 "--format", "csv"])
    assert code in (0, 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# config: ") and json.loads(lines[0][10:])["format"] == "csv"
    assert lines[1] == "n,median_gap,q90_gap,ks"
    assert [int(l.split(",")[0]) for l in lines[2:]] == [50, 100]


def test_cdf_json_formats(tmp_path, capsys):
    # --format json --out wrote CSV before
    out = tmp_path / "f.json"
    argv = ["cdf", "--law", "cauchy", "--grid", "0:2:1", "--seed", "1"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["x"] == [0.0, 1.0, 2.0]
    assert np.allclose(doc["F"], 0.5 + np.arctan(doc["x"]) / np.pi, atol=1e-8, rtol=0.0)
    assert (doc["tol"], doc["config"]["format"]) == (1e-8, "json")
    runs = tmp_path / "f.jsonl"
    for _ in range(2):
        assert main(argv + ["--format", "jsonl", "--out", str(runs)]) == 0
    assert [json.loads(l) for l in runs.read_text().splitlines()] == [
        dict(doc, config=dict(doc["config"], format="jsonl", out=str(runs)))] * 2
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,0.7")


def test_sample_formats(tmp_path, capsys):
    # --format json --out wrote CSV and its sidecar before
    out = tmp_path / "s.out"
    argv = ["sample", "--n", "3", "--seed", "1"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["values"]) == 3 and doc["metadata"]["n"] == 3
    assert not (tmp_path / "s.out.meta.json").exists()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["values"] == doc["values"]
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,value"
    assert [float(l.split(",")[1]) for l in lines[1:]] == doc["values"]
    csv = tmp_path / "s.csv"
    assert main(argv + ["--format", "csv", "--out", str(csv)]) == 0
    assert csv.read_text().splitlines() == lines
    assert (tmp_path / "s.csv.meta.json").exists()


def _strict(text):
    """json.loads that refuses the NaN and Infinity tokens strict JSON lacks."""
    def refuse(token):
        raise ValueError("not strict JSON: %s" % token)

    return json.loads(text, parse_constant=refuse)


def _written_format(path):
    """The format the file at path is in: csv (under a '# config:' line, or
    with a .meta.json sidecar), json (one document) or jsonl (one a line)."""
    text = read(path)
    if text.startswith("# config: "):
        return "csv", _strict(text.splitlines()[0][10:])
    if os.path.exists(path + ".meta.json"):
        return "csv", _strict(read(path + ".meta.json"))["config"]
    lines = text.splitlines()
    if len(lines) > 1 and all(l.startswith("{") and l.endswith("}") for l in lines):
        return "jsonl", _strict(lines[-1])["config"]
    return "json", _strict(text)["config"]


@pytest.mark.parametrize("argv", [
    ["cdf", "--law", "cauchy", "--grid", "0:0.2:0.1"],
    ["cdf", "--law", "cauchy", "--grid", "0:0.2:0.1", "--format", "csv"],
    ["cdf", "--law", "cauchy", "--grid", "0:0.2:0.1", "--format", "json"],
    ["sample", "--n", "3"],
    ["sample", "--n", "3", "--format", "json"],
    ["merging", "--n", "16", "--reps", "10000"],
    ["coupling", "--n-list", "20", "--reps", "50", "--format", "csv"],
    ["orderstats", "--p", "3", "--n", "50", "--reps", "300", "--format", "jsonl"],
    ["selftest"],
    ["selftest", "--format", "json"],
    ["selftest", "--format", "jsonl"],
], ids=["cdf", "cdf-csv", "cdf-json", "sample", "sample-json", "merging", "coupling-csv",
        "orderstats-jsonl", "selftest", "selftest-json", "selftest-jsonl"])
def test_each_artifact_records_the_format_it_wrote(argv, tmp_path, monkeypatch):
    # cdf --out and sample --out wrote CSV but recorded "format": "json";
    # selftest wrote its text report whatever the format, recording "json"
    monkeypatch.setattr(cli, "run_selftest", lambda seed: (3, ["selftest stub"]))
    out = str(tmp_path / "artifact")
    for _ in range(2 if "jsonl" in argv else 1):
        assert main(argv + ["--seed", "1", "--out", out]) in (0, 3)
    written, config = _written_format(out)
    assert config["format"] == written


def test_selftest_json_carries_the_report_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_selftest", lambda seed: (3, ["selftest a", "selftest b"]))
    assert main(["selftest", "--format", "json"]) == 3
    doc = _strict(capsys.readouterr().out)
    assert doc["lines"] == ["selftest a", "selftest b"] and doc["pass"] is False
    # the default is the text report, on stdout and under a config line in --out
    out = tmp_path / "report.txt"
    assert main(["selftest", "--out", str(out)]) == 3
    assert capsys.readouterr().out == "selftest a\nselftest b\n"
    assert out.read_text().splitlines()[1:] == ["selftest a", "selftest b"]


def test_stdout_artifacts_record_json(capsys):
    assert main(["sample", "--n", "3", "--seed", "1"]) == 0
    assert _strict(capsys.readouterr().out)["config"]["format"] == "json"
    assert main(["merging", "--n", "16", "--reps", "10000", "--seed", "1"]) in (0, 3)
    assert _strict(capsys.readouterr().out)["config"]["format"] == "json"


@pytest.mark.parametrize("argv", [
    ["merging", "--n", "16", "--reps", "10000"],
    ["mlof", "--k", "4", "--reps", "10000"],
    ["feller", "--n", "256", "--reps", "400"],
    ["coupling", "--n-list", "20,80", "--reps", "300"],
    ["lepage", "--k", "6", "--reps", "300", "--n-terms", "200"],
    ["orderstats", "--p", "3", "--n", "50", "--reps", "300"],
    ["negligibility", "--n", "1000", "--reps", "300"],
    ["sweep", "--k", "8", "--points", "1", "--reps", "10000"],
], ids=lambda argv: argv[0])
def test_every_experiment_artifact_is_strict_json(argv, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(argv + ["--seed", "3", "--out", out]) in (0, 3)
    doc = _strict(read(out))
    assert doc["config"]["subcommand"] == argv[0] and doc["config"]["format"] == "json"


def test_a_non_finite_report_is_refused_not_written(tmp_path, monkeypatch, capsys):
    # json.dumps wrote a bare NaN token, which strict parsers refuse
    def nan_report(*args, **kwargs):
        return empirics.ExperimentReport("merging", {}, float("nan"), 0.1, 1, 0.03, True)

    monkeypatch.setattr(empirics, "merging_experiment", nan_report)
    out = tmp_path / "m.json"
    assert main(["merging", "--n", "16", "--out", str(out)]) == 2
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lepage", "--alpha", "0.01", "--k", "6", "--reps", "3000", "--n-terms", "100"],
    ["negligibility", "--alphas", "0.01", "--n", "1000", "--reps", "300"],
    # 256 reps: one block, so no pool thread runs on past the error
    ["coupling", "--alpha", "0.01", "--n-list", "10,100", "--reps", "256"],
])
def test_float_overflow_exit_code(argv, capsys):
    # exited 3 with infinite sums or a bare NaN median in the JSON before
    assert main(argv) == 4
    assert "alpha = 0.01" in capsys.readouterr().err


def test_lepage_auto_terms_overflow_exit_code(capsys):
    # the truncation point P is about 1e791 terms: exit 4 with the bare
    # "(34, 'Numerical result out of range')", naming nothing, before
    assert main(["lepage", "--alpha", "0.99", "--reps", "10"]) == 4
    assert ("at alpha = 0.99 the truncation point P overflows float64"
            in capsys.readouterr().err)


def test_orderstats_erlang_stays_in_range(capsys):
    # erlang_cdf(1000, x) was -inf from x = 710, so the KS was inf and the
    # strict JSON writer refused it: exit 2, "Out of range float values are
    # not JSON compliant"; n*y_p at n = 10^6 is far from its Erlang limit at
    # 2000 reps, so the seed's KS fails its 0.012 bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["orderstats", "--p", "1000", "--n", "1000000", "--reps", "2000"]) == 3
    ks = json.loads(capsys.readouterr().out)["statistic"]["ks"]
    assert 0.012 < ks < 0.05


@pytest.mark.parametrize("command", (["merging", "--n", "96"],
                                     ["orderstats", "--p", "3", "--n", "500"]))
def test_csv_is_refused_outside_coupling(command, tmp_path, capsys):
    # only the coupling curve has a csv form; the others wrote json into it
    out = tmp_path / "m.csv"
    assert main(command + ["--reps", "10000", "--format", "csv",
                           "--out", str(out)]) == 2
    assert "coupling" in capsys.readouterr().err
    assert not out.exists()


def test_closed_stdout_exits_quietly(tmp_path, monkeypatch):
    # a reader that stops early (| head) closes the pipe: exit 1, no traceback
    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):  # the recipe points this descriptor at devnull
            return sink.fileno()

    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["sample", "--n", "5", "--seed", "1"]) == 1


def test_negligibility_cli():
    assert main(["negligibility", "--alphas", "0.5,2.5", "--n", "2000",
                 "--reps", "200", "--seed", "4"]) == 0


@pytest.mark.parametrize("seed_flag", [[], ["--seed", "77"], ["--help"]],
                         ids=["env", "env-and-flag", "env-and-help"])
def test_bad_seed_env_exit_code(seed_flag, monkeypatch, capsys):
    # a ValueError traceback from building the parser before, flag or not
    monkeypatch.setenv("SEMISTABLE_SEED", "notanumber")
    assert main(["sample", "--model", "petersburg", "--n", "4"] + seed_flag) == 2
    assert "SEMISTABLE_SEED='notanumber' is not an integer" in capsys.readouterr().err


def test_seed_env_override(tmp_path, monkeypatch):
    out = str(tmp_path / "s.csv")
    monkeypatch.setenv("SEMISTABLE_SEED", "12345")
    assert main(["sample", "--model", "petersburg", "--n", "4", "--out", out]) == 0
    meta = json.loads(read(out + ".meta.json"))
    assert meta["seed"] == 12345
    # explicit flag wins over the environment
    assert main(["sample", "--model", "petersburg", "--n", "4", "--seed", "77",
                 "--out", out]) == 0
    meta = json.loads(read(out + ".meta.json"))
    assert meta["seed"] == 77
    monkeypatch.delenv("SEMISTABLE_SEED")
    assert main(["sample", "--model", "petersburg", "--n", "4", "--out", out]) == 0
    meta = json.loads(read(out + ".meta.json"))
    assert meta["seed"] == DEFAULT_SEED


def test_parser_built_once_and_seed_read_per_call(monkeypatch, capsys):
    # every call rebuilt the parser, reading SEMISTABLE_SEED into each
    # subcommand's --seed default; now the parser is built on first use and
    # main reads the environment once per call
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    seeds, counts = [], []
    for env in ("11", "0x0c", None, "13"):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV, env)
        assert main(["sample", "--n", "2", "--format", "json"]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["config"]["seed"])
        counts.append(len(built))
    assert seeds == [11, 12, DEFAULT_SEED, 13]
    assert counts == [1 + len(cli._COMMANDS)] * 4
    monkeypatch.setenv(cli.SEED_ENV, "bad")
    assert main(["sample", "--n", "2", "--seed", "1"]) == 2
    assert "SEMISTABLE_SEED='bad' is not an integer" in capsys.readouterr().err
    assert len(built) == counts[0]


# -- selftest ---------------------------------------------------------------------

def test_selftest_passes_and_reports():
    code, lines = run_selftest(DEFAULT_SEED)
    assert code == 0
    assert len(lines) >= 8
    assert all(("PASS" in l) or ("FAIL" in l) for l in lines)
    assert all(l.startswith("selftest ") for l in lines)


def test_selftest_injected_corruption_fails(monkeypatch):
    # degrading the series truncation budget must break the identity check
    monkeypatch.setattr(cli.charfn, "g_exponent",
                        functools.partial(charfn.g_exponent, tol=1.0))
    code, lines = run_selftest(DEFAULT_SEED)
    assert code == 3
    assert any("FAIL" in l for l in lines)


# -- fresh processes -------------------------------------------------------------
# what only a new interpreter shows: the modules it loads, its peak RSS, the
# CPUs it may use, and the demos run as scripts

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _fresh(args, cwd=None):
    """Run python with args on the package under src/, no SEMISTABLE_SEED set."""
    env = dict(os.environ)
    env.pop(cli.SEED_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cold_start_loads_no_scipy():
    # the package runs on numpy alone: a fresh process that imports the CLI,
    # runs the selftest and calls levy_cdf (both took erfc from
    # scipy.special, loaded on first use) holds no scipy module, and a fresh
    # run of the refused default lepage command pays for no scipy import and
    # exits through main's handler, with no traceback
    probe = ("import sys, semistable.cli; "
             "code, lines = semistable.cli.run_selftest(1); "
             "f = semistable.charfn.levy_cdf([0.5, 2.0]); "
             "print(code, len(lines), [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    res = _fresh(["-c", probe])
    code, n_lines, loaded = res.stdout.split(" ", 2)
    assert (res.returncode, code, loaded.strip()) == (0, "0", "[]"), res.stderr
    assert int(n_lines) > 1
    res = _fresh(["-m", "semistable.cli", "lepage"])
    assert res.returncode == 4, res.stderr
    assert "draws in one phase, over the budget of 4294967296" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_largest_node_set_in_bounded_rss():
    # Cauchy at |x| = 6.5e4 inverts on 2.7e6 nodes, the largest group the node
    # budget admits; built a slab at a time its weights stay small (the whole
    # set at once reached 225 MiB of RSS), caches and first-call set-up
    # included.  The child reads VmHWM, the peak of its own image: Linux
    # carries the RSS of the process that forked it (pytest's, over 300 MiB
    # in a full run) across exec into ru_maxrss
    probe = ("import numpy as np; from semistable.charfn import cauchy_law, cdf_from_cf; "
             "cdf_from_cf(cauchy_law(), np.array([6.5e4, -6.5e4])); "
             "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
    res = _fresh(["-W", "error::RuntimeWarning", "-c", probe])
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 120 * 1024  # kB


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask")
def test_pooled_level_counts_match_one_cpu(tmp_path):
    # the St. Petersburg level counts pool, one block at a time, on every CPU
    # the process may use; a child pinned to one CPU draws every block in
    # line, and its sweep artifact must equal an unpinned child's byte for
    # byte (both write sweep.json: the artifact records its --out)
    probe = ("import os, sys; from semistable import cli; "
             "sys.argv[1] == 'one' and os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
             "sys.exit(cli.main(['sweep', '--k', '10', '--points', '2', '--reps', '50000', "
             "'--seed', '7', '--out', 'sweep.json']))")
    artifacts = []
    for cpus in ("one", "all"):
        (tmp_path / cpus).mkdir()
        res = _fresh(["-W", "error::RuntimeWarning", "-c", probe, cpus], cwd=tmp_path / cpus)
        assert res.returncode == 0, res.stderr
        artifacts.append((tmp_path / cpus / "sweep.json").read_bytes())
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(demo, tmp_path):
    # a child does not inherit pytest's warning filter, so it gets its own
    res = _fresh(["-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr


# -- documentation ------------------------------------------------------------------

def _readme_commands():
    readme = ROOT / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("semistable ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on an unknown flag or bad value
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
