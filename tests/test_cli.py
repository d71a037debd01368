from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import fields, replace

import pytest

from conftest import (
    make_instance,
    rex_script_entries,
    write_scripts_file,
)
import rexgot.cli as cli
from rexgot.backend import SEGMENT_DIR, Completion
from rexgot.cli import RunConfig, main
from rexgot.dataset import Corpus, save_corpus
from rexgot.evaluation import evaluate
from rexgot.prompts import EXCLUSION_HEADER, VERDICTS_HEADER
from rexgot.reasoner import ReasonerConfig


@pytest.fixture
def bob_movie_setup(tmp_path, bob_movie_instance):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(name="fig1", instances=(bob_movie_instance,)), corpus_path)
    scripts_path = write_scripts_file(
        tmp_path / "scripts.json", rex_script_entries(bob_movie_instance)
    )
    return corpus_path, scripts_path


def run_args(corpus_path, scripts_path, out_dir, *extra):
    return [
        "run",
        "--corpus", str(corpus_path),
        "--strategy", "rex_got",
        "--backend", "scripted",
        "--scripts", str(scripts_path),
        "--out", str(out_dir),
        *extra,
    ]


def test_run_bob_movie_scripted_exit_zero(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    out_dir = tmp_path / "out"
    code = main(run_args(corpus_path, scripts_path, out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["exact_match"] == 1.0
    assert report["macro_f1"] == 1.0
    line = json.loads((out_dir / "predictions.jsonl").read_text().splitlines()[0])
    assert line["chosen"] == [0, 1, 4]
    assert line["chosen_labels"] == ["A", "B", "E"]
    assert "em=1.0000" in capsys.readouterr().out


def test_run_writes_all_output_files(tmp_path, bob_movie_setup):
    corpus_path, scripts_path = bob_movie_setup
    out_dir = tmp_path / "out"
    main(run_args(corpus_path, scripts_path, out_dir))
    assert (out_dir / "predictions.jsonl").is_file()
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "report.txt").is_file()
    assert (out_dir / "by_gold_count.csv").is_file()
    trace = json.loads((out_dir / "traces" / "bob-movie-1.json").read_text())
    assert trace["graph"] is not None
    assert len(trace["graph"]["nodes"]) == 1 + 5 + 3 * 7


def test_replay_with_cold_cache_is_config_error(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    code = main(
        run_args(
            corpus_path, scripts_path, tmp_path / "out",
            "--cache-mode", "replay", "--cache-dir", str(tmp_path / "missing"),
        )
    )
    assert code == 2
    assert "replay mode requires an existing cache" in capsys.readouterr().err


def test_replay_of_a_cache_without_segments_is_config_error(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    cache_dir = tmp_path / "cache"
    old_entry = cache_dir / "ab" / f"ab{'0' * 62}.json"  # the one-file-per-entry layout
    old_entry.parent.mkdir(parents=True)
    old_entry.write_text('{"completions": [], "request": {}}\n')
    code = main(
        run_args(
            corpus_path, scripts_path, tmp_path / "out",
            "--cache-mode", "replay", "--cache-dir", str(cache_dir),
        )
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"holds no {SEGMENT_DIR} segments" in err and "re-recorded" in err
    assert not (tmp_path / "out").exists()


def test_record_run_of_cache_hits_creates_no_segment(tmp_path, bob_movie_setup):
    corpus_path, scripts_path = bob_movie_setup
    cache_dir = tmp_path / "cache"
    for name in ("first", "second"):
        code = main(
            run_args(
                corpus_path, scripts_path, tmp_path / name,
                "--cache-mode", "record", "--cache-dir", str(cache_dir),
            )
        )
        assert code == 0
        assert len(list((cache_dir / SEGMENT_DIR).iterdir())) == 1
    assert (tmp_path / "first" / "predictions.jsonl").read_bytes() == (
        tmp_path / "second" / "predictions.jsonl"
    ).read_bytes()


def test_record_then_replay_byte_identical(tmp_path, bob_movie_setup):
    corpus_path, scripts_path = bob_movie_setup
    cache_dir = tmp_path / "cache"
    out_record = tmp_path / "out-record"
    code = main(
        run_args(
            corpus_path, scripts_path, out_record,
            "--cache-mode", "record", "--cache-dir", str(cache_dir),
        )
    )
    assert code == 0

    outs = []
    for name in ("out-replay-1", "out-replay-2"):
        out_dir = tmp_path / name
        code = main(
            run_args(
                corpus_path, scripts_path, out_dir,
                "--cache-mode", "replay", "--cache-dir", str(cache_dir),
            )
        )
        assert code == 0
        outs.append(out_dir)
    record_bytes = (out_record / "predictions.jsonl").read_bytes()
    for out_dir in outs:
        assert (out_dir / "predictions.jsonl").read_bytes() == record_bytes
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


def _toy_corpus(tmp_path, size=6):
    instances = tuple(
        make_instance(f"toy{k}", m=4, gold=(k % 4,), n_turns=3) for k in range(size)
    )
    path = tmp_path / "toy.jsonl"
    save_corpus(Corpus(name="toy", instances=instances), path)
    return path


def test_replay_determinism_with_workers(tmp_path):
    corpus_path = _toy_corpus(tmp_path)
    scripts_path = write_scripts_file(tmp_path / "scripts.json", [], default=["Answer: A"])
    cache_dir = tmp_path / "cache"
    base = [
        "--strategy", "standard", "--backend", "scripted",
        "--scripts", str(scripts_path), "--cache-dir", str(cache_dir),
    ]
    assert main(["run", "--corpus", str(corpus_path), *base,
                 "--cache-mode", "record", "--out", str(tmp_path / "o0")]) == 0
    outputs = []
    for name in ("o1", "o2"):
        assert main([
            "run", "--corpus", str(corpus_path), *base,
            "--cache-mode", "replay", "--workers", "3", "--out", str(tmp_path / name),
        ]) == 0
        outputs.append(
            (
                (tmp_path / name / "predictions.jsonl").read_bytes(),
                (tmp_path / name / "report.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_partial_failures_recorded_not_fatal(tmp_path, bob_movie_instance, capsys):
    # Two-instance corpus but scripts only cover the first: the second
    # instance fails with a script miss and must surface as a degenerate
    # prediction plus a nonzero exit.
    other = make_instance("uncovered", m=3, gold=(1,))
    corpus_path = tmp_path / "two.jsonl"
    save_corpus(Corpus(name="two", instances=(bob_movie_instance, other)), corpus_path)
    scripts_path = write_scripts_file(
        tmp_path / "scripts.json", rex_script_entries(bob_movie_instance)
    )
    out_dir = tmp_path / "out"
    code = main(run_args(corpus_path, scripts_path, out_dir))
    assert code == 1
    err = capsys.readouterr().err
    assert "1 instance run(s) failed" in err
    assert "rexgot: instance uncovered: no script for prompt digest" in err
    lines = [json.loads(l) for l in (out_dir / "predictions.jsonl").read_text().splitlines()]
    degenerate = next(l for l in lines if l["instance_id"] == "uncovered")
    assert degenerate["fallback_used"] is True
    assert degenerate["chosen"] == [0, 1, 2]


def test_config_file_supplies_defaults_flags_override(tmp_path, bob_movie_setup):
    corpus_path, scripts_path = bob_movie_setup
    config = {
        "corpus": str(corpus_path),
        "strategy": "rex_got",
        "backend": "scripted",
        "scripts": str(scripts_path),
        "out": str(tmp_path / "from-config"),
        "k": 2,
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    out_override = tmp_path / "from-flag"
    assert main(["run", "--config", str(config_path), "--out", str(out_override)]) == 0
    assert out_override.is_dir()
    assert not (tmp_path / "from-config").exists()


def test_unknown_config_key_rejected(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"corpus": str(corpus_path), "strategy": "cot",
                                       "scriptz": str(scripts_path)}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, flags, message",
    [
        pytest.param({}, ["--k", "0"], "k must be >= 1", id="k_below_1"),
        pytest.param({"vote_policy": "bogus"}, [], "'bogus' is not a valid VoteKind", id="vote"),
        pytest.param({"tie_break": "bogus"}, [], "'bogus' is not a valid TieBreak", id="tie"),
        pytest.param(
            {}, ["--max-tokens", "0"], "max_tokens must be >= 1, got 0", id="max_tokens_below_1"
        ),
        pytest.param(
            {}, ["--temp-step1", "-1"], "temperatures must be >= 0, got [-1.0, 0.0, 0.0]",
            id="negative_temperature",
        ),
        pytest.param({"workers": "2"}, [], "workers must be int, got '2'", id="str_for_int"),
        pytest.param({"k": True}, [], "k must be int, got True", id="bool_for_int"),
        pytest.param(
            {"temp_step2": "0.5"}, [], "temp_step2 must be float, got '0.5'", id="str_for_float"
        ),
        pytest.param(
            {"max_prompt_tokens": 1.5}, [], "max_prompt_tokens must be int | None, got 1.5",
            id="float_for_optional_int",
        ),
        pytest.param(
            {}, ["--max-prompt-tokens", "-5"], "max_prompt_tokens must be >= 1, got -5",
            id="max_prompt_tokens_below_1",
        ),
        pytest.param({"format": "bogus"}, [], "unknown corpus format 'bogus'", id="format"),
        pytest.param({"strategy": "bogus"}, [], "unknown strategy 'bogus'", id="strategy"),
        pytest.param({"backend": "bogus"}, [], "unknown backend kind 'bogus'", id="backend"),
        pytest.param({"cache_mode": "bogus"}, [], "unknown cache mode 'bogus'", id="cache_mode"),
        pytest.param({}, ["--workers", "0"], "workers must be >= 1, got 0", id="workers_below_1"),
        pytest.param({}, ["--seed", "-1"], "seed must be >= 0, got -1", id="negative_seed"),
        pytest.param({"scripts": ""}, [], "scripted backend requires --scripts", id="no_scripts"),
        pytest.param(
            {"backend": "http"}, ["--endpoint", "http://127.0.0.1:9/a b"],
            "http backend: URL must not contain spaces or control characters",
            id="endpoint_with_a_space",
        ),
    ],
)
def test_bad_setting_is_config_error(tmp_path, bob_movie_setup, capsys, settings, flags, message):
    corpus_path, scripts_path = bob_movie_setup
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(settings))
    out_dir = tmp_path / "out"
    args = run_args(corpus_path, scripts_path, out_dir, "--config", str(config_path), *flags)
    for flag in (f"--{key}" for key in settings if f"--{key}" in args):
        # The flag would override the config file's value, which argparse's choices stop.
        del args[args.index(flag) : args.index(flag) + 2]
    code = main(args)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_repeat_is_neither_a_config_key_nor_a_flag(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    out_dir = tmp_path / "out"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"repeat": 2}))
    args = run_args(corpus_path, scripts_path, out_dir)
    assert main([*args, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "config error: unknown config key(s): repeat\n"
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--repeat", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --repeat 2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_required_setting_is_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--strategy", "cot", "--out", str(out_dir)]) == 2
    assert "config error: missing required setting(s): corpus" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_defaults_are_the_reasoner_defaults():
    assert RunConfig(corpus="c", strategy="rex_got", endpoint="http://x").validate() == (
        ReasonerConfig()
    )


@pytest.mark.parametrize(
    "content, kind",
    [
        pytest.param('"abc"', "str", id="string"),
        pytest.param('[["corpus", "x"]]', "list", id="pairs"),
    ],
)
def test_config_file_that_is_not_an_object_is_config_error(
    tmp_path, bob_movie_setup, capsys, content, kind
):
    corpus_path, scripts_path = bob_movie_setup
    config_path = tmp_path / "run.json"
    config_path.write_text(content)
    out_dir = tmp_path / "out"
    code = main(run_args(corpus_path, scripts_path, out_dir, "--config", str(config_path)))
    assert code == 2
    assert f"config error: config file must hold a JSON object, got {kind}" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


DEEP_NESTING = "[" * 100_000 + "]" * 100_000


def test_malformed_scripts_file_is_an_error(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    scripts_path.write_text("{not json", "utf-8")
    assert main(run_args(corpus_path, scripts_path, tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_scripts_file_is_an_error(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    scripts_path.write_text(DEEP_NESTING, "utf-8")
    assert main(run_args(corpus_path, scripts_path, tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(
        f"error: scripts file {scripts_path} is not UTF-8 JSON: maximum recursion depth"
    )


def test_scripts_file_that_is_not_utf8_is_an_error(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    scripts_path.write_bytes(b'{"default": ["Answer: \xff"]}')
    out_dir = tmp_path / "out"
    assert main(run_args(corpus_path, scripts_path, out_dir)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: scripts file {scripts_path} is not UTF-8 JSON: 'utf-8' codec can't decode"
    )
    assert not out_dir.exists()


def test_scripts_response_with_a_lone_surrogate_is_an_error(tmp_path, bob_movie_setup, capsys):
    # A lone surrogate cannot be encoded into a prompt once step 2 quotes the step-1 text.
    corpus_path, scripts_path = bob_movie_setup
    scripts_path.write_text(json.dumps({"default": ["Excluded: A \udcff"]}), "utf-8")
    out_dir = tmp_path / "out"
    assert main(run_args(corpus_path, scripts_path, out_dir, "--k", "1")) == 1
    assert capsys.readouterr().err.startswith(f"error: scripts file {scripts_path}: ")
    assert not out_dir.exists()


def test_corpus_that_is_not_utf8_is_an_error(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    corpus_path.write_bytes(corpus_path.read_bytes() + b"\xff\n")
    message = f"error: {corpus_path}, line 2: not UTF-8 (invalid start byte at byte 0)\n"
    assert main(["stats", "--corpus", str(corpus_path)]) == 1
    assert capsys.readouterr().err == message
    out_dir = tmp_path / "out"
    assert main(run_args(corpus_path, scripts_path, out_dir)) == 1
    assert capsys.readouterr().err == message
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda line: line.replace(b'"q1"', b'"../escaped"'),
            "instance id '../escaped' is not a single file name", id="id_escapes_traces",
        ),
        pytest.param(
            lambda line: line.replace(b'"q1"', b'"a/b"'),
            "instance id 'a/b' is not a single file name", id="id_with_a_slash",
        ),
        pytest.param(
            lambda line: line.replace(b'"question": "', b'"question": "q\\udcff? '),
            "instance 'q1': question holds a lone surrogate, which is not UTF-8",
            id="lone_surrogate",
        ),
    ],
)
def test_corpus_line_that_cannot_be_run_is_an_error(tmp_path, capsys, edit, message):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(name="one", instances=(make_instance("q1"),)), corpus_path)
    corpus_path.write_bytes(edit(corpus_path.read_bytes()))
    scripts_path = write_scripts_file(tmp_path / "scripts.json", [], default=["Answer: A"])
    out_dir = tmp_path / "out"
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "standard",
        "--backend", "scripted", "--scripts", str(scripts_path), "--out", str(out_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {corpus_path}, line 1: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl", "scripts.json"]


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"{not json", id="bad_json"),
        pytest.param(b"\xff{", id="not_utf8"),
        pytest.param(DEEP_NESTING.encode(), id="deep_nesting"),
    ],
)
def test_config_file_that_is_not_json_is_config_error(tmp_path, bob_movie_setup, capsys, content):
    corpus_path, scripts_path = bob_movie_setup
    config_path = tmp_path / "run.json"
    config_path.write_bytes(content)
    out_dir = tmp_path / "out"
    code = main(run_args(corpus_path, scripts_path, out_dir, "--config", str(config_path)))
    assert code == 2
    assert f"config error: config file {config_path} is not UTF-8 JSON" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"default": [5]}, id="default_not_strings"),
        pytest.param({"scripts": [{"prompt": "x", "responses": []}]}, id="empty_responses"),
        pytest.param({"scripts": [{"prompt": "x"}]}, id="no_responses"),
        pytest.param(["a"], id="not_an_object"),
        pytest.param({"scripts": [{"prompt": 5, "responses": ["x"]}]}, id="prompt_not_a_string"),
    ],
)
def test_malformed_scripts_shape_is_an_error(tmp_path, bob_movie_setup, capsys, payload):
    corpus_path, scripts_path = bob_movie_setup
    scripts_path.write_text(json.dumps(payload), "utf-8")
    assert main(run_args(corpus_path, scripts_path, tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: scripts file {scripts_path}")


def _record_three_instances(tmp_path):
    """Record q1..q3 under the standard strategy: one cache line per instance."""
    instances = tuple(make_instance(f"q{i}", option_prefix=f"q{i}") for i in (1, 2, 3))
    corpus_path = tmp_path / "three.jsonl"
    save_corpus(Corpus(name="three", instances=instances), corpus_path)
    scripts_path = write_scripts_file(tmp_path / "scripts.json", [], default=["Answer: A"])
    cache_dir = tmp_path / "cache"
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "standard",
        "--backend", "scripted", "--scripts", str(scripts_path),
        "--cache-mode", "record", "--cache-dir", str(cache_dir), "--out", str(tmp_path / "rec"),
    ])
    assert code == 0
    return corpus_path, cache_dir


@pytest.mark.parametrize(
    "edit, cause",
    [
        pytest.param(
            lambda line: line.replace(b'"completions":[', b'"completions":[['),
            "malformed cache entry", id="bad_json_body",
        ),
        pytest.param(
            lambda line: line.replace(b'"finish_reason":"stop"', b'"finish_reason":5'),
            "finish_reason 5 is not a string or null", id="finish_reason_not_a_string",
        ),
        pytest.param(
            lambda line: re.sub(rb'"completions":\[.*?\],"request"', b'"completions":[],"request"',
                                line),
            "asked for 1 samples, got 0", id="no_completions",
        ),
        pytest.param(
            lambda line: line.replace(b'"usage":null', b'"usage":' + b"1" * 5000),
            "malformed cache entry", id="long_integer",
        ),
        pytest.param(
            lambda line: line.replace(b'"usage":null', b'"usage":' + DEEP_NESTING.encode()),
            "malformed cache entry", id="deep_nesting",
        ),
        pytest.param(
            lambda line: line.replace(b'"text":"Answer: A"', b'"text":"Answer: A\xff"'),
            "malformed cache entry", id="non_ascii_byte",
        ),
    ],
)
def test_malformed_cache_body_fails_only_its_instance(tmp_path, capsys, edit, cause):
    corpus_path, cache_dir = _record_three_instances(tmp_path)
    [segment] = (cache_dir / SEGMENT_DIR).iterdir()
    lines = segment.read_bytes().splitlines(True)
    [index] = [i for i, line in enumerate(lines) if b"q2 text 0" in line]
    lines[index] = edit(lines[index])
    assert lines[index].startswith(b'{"digest":"') and lines[index].endswith(b"}\n")
    segment.write_bytes(b"".join(lines))
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "standard",
        "--cache-mode", "replay", "--cache-dir", str(cache_dir), "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    [failure] = [line for line in err if line.startswith("rexgot: instance")]
    assert failure.startswith(f"rexgot: instance q2: {cause}")
    predictions = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    assert [p["fallback_used"] for p in predictions] == [False, True, False]
    names = ["predictions.jsonl", "report.json", "report.txt", "by_gold_count.csv",
             "traces/q1.json", "traces/q2.json", "traces/q3.json"]
    assert all((out / name).is_file() for name in names)


def test_replay_of_a_segment_that_cannot_be_read_is_an_error_and_closes_its_files(
    tmp_path, capsys
):
    corpus_path, cache_dir = _record_three_instances(tmp_path)
    (cache_dir / SEGMENT_DIR / "x.jsonl").mkdir()  # indexed after the recorded segment
    capsys.readouterr()
    lowest_free = os.open(os.devnull, os.O_RDONLY)
    os.close(lowest_free)
    out = tmp_path / "out"
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "standard",
        "--cache-mode", "replay", "--cache-dir", str(cache_dir), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert not out.exists()
    # The recorded segment's descriptor was closed: the lowest free one is free again.
    probe = os.open(os.devnull, os.O_RDONLY)
    os.close(probe)
    assert probe == lowest_free


class HoldingBackend:
    """Answers every rex_got step alike. A call whose prompt holds ``held`` waits
    for ``release``, then raises ``error`` if one is given."""

    def __init__(self, held, error=None):
        self.held = held
        self.error = error
        self.release = threading.Event()

    def complete(self, request):
        if self.held in request.prompt:
            if not self.release.wait(timeout=30):
                raise RuntimeError("never released")
            if self.error is not None:
                raise self.error
        if VERDICTS_HEADER in request.prompt:
            text = "Answer: A"
        elif EXCLUSION_HEADER in request.prompt:
            text = "Verdict: reasonable"
        else:
            text = "Excluded: B"
        return [Completion(text=text)] * request.n_samples


def _held_run_config(tmp_path, monkeypatch, backend):
    """q1..q3, listed out of id order, run by ``backend`` on three workers."""
    instances = tuple(make_instance(f"q{i}", option_prefix=f"q{i}") for i in (3, 1, 2))
    corpus_path = tmp_path / "held.jsonl"
    save_corpus(Corpus(name="held", instances=instances), corpus_path)
    monkeypatch.setattr(cli, "build_backend", lambda config: backend)
    return cli.RunConfig(
        corpus=str(corpus_path), strategy="rex_got", backend="scripted", scripts="unused",
        workers=3, out=str(tmp_path / "out"),
    )


def _written(out_dir):
    """The instance ids of the complete lines in predictions.jsonl, and the trace names."""
    text = (out_dir / "predictions.jsonl").read_text("utf-8")
    ids = [json.loads(line)["instance_id"] for line in text.splitlines(keepends=True)
           if line.endswith("\n")]
    return ids, sorted(path.name for path in (out_dir / "traces").iterdir())


def test_run_writes_each_instance_as_it_finishes(tmp_path, monkeypatch):
    backend = HoldingBackend("q3 text")
    config = _held_run_config(tmp_path, monkeypatch, backend)
    evaluated = []

    def recording_evaluate(predictions, *args, **kwargs):
        evaluated.extend(predictions)
        return evaluate(predictions, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    out_dir = tmp_path / "out"
    codes = []
    run = threading.Thread(target=lambda: codes.append(cli.cmd_run(config)))
    run.start()
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if out_dir.joinpath("traces", "q2.json").exists():
                break
            time.sleep(0.01)
        # q3 is still held, yet q1 and q2 are on disk in id order.
        assert _written(out_dir) == (["q1", "q2"], ["q1.json", "q2.json"])
        assert run.is_alive()
        assert not (out_dir / "report.json").exists()
    finally:
        backend.release.set()
        run.join(timeout=30)
    assert not run.is_alive()
    assert codes == [0]
    assert _written(out_dir) == (["q1", "q2", "q3"], ["q1.json", "q2.json", "q3.json"])
    assert json.loads((out_dir / "traces" / "q3.json").read_text())["graph"] is not None
    # Scoring gets each prediction without its paths and their raw texts.
    assert [p.instance_id for p in evaluated] == ["q1", "q2", "q3"]
    assert all(p.paths == () and p.chosen == {0} for p in evaluated)


def test_run_ended_by_a_non_backend_error_keeps_the_finished_prefix(tmp_path, monkeypatch):
    backend = HoldingBackend("q3 text", error=RuntimeError("not a backend error"))
    backend.release.set()
    config = _held_run_config(tmp_path, monkeypatch, backend)
    with pytest.raises(RuntimeError, match="not a backend error"):
        cli.cmd_run(config)
    out_dir = tmp_path / "out"
    assert _written(out_dir) == (["q1", "q2"], ["q1.json", "q2.json"])
    assert not (out_dir / "report.json").exists()


def test_compare_command_five_reports(tmp_path, capsys):
    report_paths = []
    for k, strategy in enumerate(["standard", "cot", "rex_got", "forward", "backward"]):
        payload = {
            "strategy": strategy,
            "corpus_name": "toy",
            "n_instances": 4,
            "macro_f1": 0.5 + k * 0.05,
            "exact_match": 0.25 + k * 0.05,
            "by_gold_count": {"1": {"n": 4, "macro_f1": 0.5 + k * 0.05, "em": 0.25 + k * 0.05}},
            "config_fingerprint": "x",
        }
        path = tmp_path / f"report-{strategy}.json"
        path.write_text(json.dumps(payload))
        report_paths.append(str(path))
    assert main(["compare", *report_paths]) == 0
    out = capsys.readouterr().out
    body = [l for l in out.splitlines() if l and not l.startswith(("strategy", "-"))]
    assert len(body) == 5
    assert body[0].startswith("backward")
    # A strategy's missing corpus is "-" in the text table and null in --json,
    # which rounds to 2 decimals.
    other = tmp_path / "report-other.json"
    other.write_text(json.dumps({
        "strategy": "cot", "corpus_name": "other", "n_instances": 3,
        "macro_f1": 2 / 3, "exact_match": 1 / 3,
        "by_gold_count": {"1": {"n": 3, "macro_f1": 2 / 3, "em": 1 / 3}},
    }))
    assert main(["compare", report_paths[0], str(other)]) == 0
    assert capsys.readouterr().out == (
        "strategy  other/F1  other/EM  toy/F1  toy/EM\n"
        "--------  --------  --------  ------  ------\n"
        "cot       0.67      0.33      -       -\n"
        "standard  -         -         0.50    0.25\n"
    )
    assert main(["compare", "--json", report_paths[0], str(other)]) == 0
    assert capsys.readouterr().out == """{
  "corpora": [
    "other",
    "toy"
  ],
  "rows": [
    {
      "scores": {
        "other": {
          "em": 0.33,
          "macro_f1": 0.67
        },
        "toy": null
      },
      "strategy": "cot"
    },
    {
      "scores": {
        "other": null,
        "toy": {
          "em": 0.25,
          "macro_f1": 0.5
        }
      },
      "strategy": "standard"
    }
  ]
}
"""


def test_compare_single_report(tmp_path, capsys):
    payload = {
        "strategy": "cot", "corpus_name": "c", "n_instances": 1,
        "macro_f1": 1.0, "exact_match": 1.0,
        "by_gold_count": {"1": {"n": 1, "macro_f1": 1.0, "em": 1.0}},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    assert main(["compare", str(path)]) == 0
    assert "cot" in capsys.readouterr().out


def test_compare_ignores_a_report_key_it_does_not_know(tmp_path, capsys):
    # Older reports hold "repeats", the count of averaged runs; it no longer exists.
    paths = []
    for name, extra in (("now", {}), ("old", {"repeats": 2})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**GOOD_REPORT, **extra}))
        paths.append(path)
    outputs = []
    for path in paths:
        assert main(["compare", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[1].splitlines()[2] == "cot       1.00  1.00"


def test_compare_unreadable_report(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["compare", str(path)]) == 2
    assert "cannot read report" in capsys.readouterr().err


def test_compare_deeply_nested_report(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_NESTING)
    assert main(["compare", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot read report {path}: maximum recursion")


GOOD_REPORT = {
    "strategy": "cot", "corpus_name": "c", "n_instances": 1, "macro_f1": 1.0,
    "exact_match": 1.0, "by_gold_count": {"1": {"n": 1, "macro_f1": 1.0, "em": 1.0}},
    "config_fingerprint": "x",
}


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param({"by_gold_count": None}, id="null_buckets"),
        pytest.param({"by_gold_count": []}, id="list_buckets"),
        pytest.param({"by_gold_count": {"1": [1, 1.0, 1.0]}}, id="list_bucket"),
        pytest.param({"by_gold_count": {"x": GOOD_REPORT["by_gold_count"]["1"]}}, id="bucket_key"),
        pytest.param(
            {"by_gold_count": {"1": {"n": 1, "macro_f1": "1", "em": 1.0}}}, id="string_bucket_f1"
        ),
        pytest.param({"strategy": 3}, id="numeric_strategy"),
        pytest.param({"n_instances": True}, id="bool_count"),
        pytest.param({"exact_match": True}, id="bool_score"),
        pytest.param({"config_fingerprint": None}, id="null_fingerprint"),
        pytest.param({"corpus_name": None}, id="null_corpus"),
        pytest.param({"by_gold_count": {"0": GOOD_REPORT["by_gold_count"]["1"]}},
                     id="gold_count_0"),
        pytest.param({"by_gold_count": {"1": {"n": 1, "macro_f1": math.nan, "em": 1.0}}},
                     id="nan_bucket_f1"),
        pytest.param({"by_gold_count": {"1": {"n": 1, "macro_f1": 1.0, "em": -5.0}}},
                     id="negative_em"),
        pytest.param({"by_gold_count": {"1": {"n": 1, "macro_f1": 1.5, "em": 1.0}}},
                     id="f1_above_1"),
        pytest.param(
            {"by_gold_count": {"1": {"n": 3, "macro_f1": 1.0, "em": 1.0},
                               "2": {"n": -2, "macro_f1": 1.0, "em": 1.0}}},
            id="negative_bucket_offset",
        ),
        pytest.param(
            {"by_gold_count": {"1": {"n": 1, "macro_f1": 1.0, "em": 1.0},
                               "2": {"n": 0, "macro_f1": 1.0, "em": 1.0}}},
            id="empty_bucket",
        ),
        pytest.param({"n_instances": 0, "by_gold_count": {}}, id="no_instances"),
        pytest.param({"n_instances": 2}, id="buckets_short_of_n_instances"),
    ],
)
def test_compare_malformed_report_is_refused(tmp_path, capsys, edit):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({**GOOD_REPORT, **edit}))
    assert main(["compare", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot read report {path}: ")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["0.51_first", "0.55_first"])
def test_compare_refuses_two_reports_of_one_strategy_on_one_corpus(tmp_path, capsys, order):
    paths = []
    for name, f1 in (("a", 0.51), ("b", 0.55)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            **GOOD_REPORT, "strategy": "rex_got", "corpus_name": "dev", "macro_f1": f1,
            "by_gold_count": {"1": {"n": 1, "macro_f1": f1, "em": 1.0}},
        }))
        paths.append(str(path))
    first, second = (paths[i] for i in order)
    assert main(["compare", first, second]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cannot compare: {first} and {second} both score rex_got on corpus dev\n"


def test_stats_command(tmp_path, capsys):
    corpus_path = _toy_corpus(tmp_path)
    assert main(["stats", "--corpus", str(corpus_path)]) == 0
    out = capsys.readouterr().out
    assert "instances: 6" in out
    assert main(["stats", "--corpus", str(corpus_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 6


def test_cache_purge_command(tmp_path, bob_movie_setup, capsys):
    corpus_path, scripts_path = bob_movie_setup
    cache_dir = tmp_path / "cache"
    main(
        run_args(
            corpus_path, scripts_path, tmp_path / "out",
            "--cache-mode", "record", "--cache-dir", str(cache_dir),
        )
    )
    assert any(cache_dir.iterdir())
    assert main(["cache", "purge", "--cache-dir", str(cache_dir)]) == 0
    assert "removed" in capsys.readouterr().out
    assert not any(p for p in cache_dir.rglob("*.json*"))


def test_corpus_without_instances_is_refused_before_any_output(tmp_path, capsys):
    corpus_path = tmp_path / "blank.jsonl"
    corpus_path.write_text("\n  \n\n", "utf-8")
    scripts_path = write_scripts_file(tmp_path / "s.json", [], default=["Answer: A"])
    out_dir = tmp_path / "out"
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "rex_got",
        "--backend", "scripted", "--scripts", str(scripts_path), "--out", str(out_dir),
        "--cache-mode", "record", "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {corpus_path}: corpus holds no instances\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blank.jsonl", "s.json"]


def test_id_too_long_for_a_trace_file_is_refused_before_any_output(tmp_path, capsys):
    corpus_path = tmp_path / "long.jsonl"
    records = [
        {"id": instance_id, "dialogue": [{"speaker": "A", "text": "hello"}],
         "target_index": 0, "question": "Why?", "options": ["one", "two"], "answers": [0]}
        for instance_id in ("a", "b" * 300)
    ]
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    scripts_path = write_scripts_file(tmp_path / "s.json", [], default=["Answer: A"])
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "standard",
        "--backend", "scripted", "--scripts", str(scripts_path), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {corpus_path}, line 2: instance id 'bbbbbbbbbbbbbbbb'... "
        "is longer than 250 UTF-8 bytes\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["long.jsonl", "s.json"]


def test_missing_corpus_file_is_reported_not_raised(tmp_path, capsys):
    scripts_path = write_scripts_file(tmp_path / "s.json", [], default=["Answer: A"])
    code = main([
        "run", "--corpus", str(tmp_path / "missing.jsonl"), "--strategy", "cot",
        "--backend", "scripted", "--scripts", str(scripts_path),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "missing.jsonl" in capsys.readouterr().err


BAD_URL = "http backend: URL must be http(s)://host[:port], got"


@pytest.mark.parametrize(
    "endpoint, api_key, message",
    [
        pytest.param(None, "", "http backend requires --endpoint", id="no_endpoint"),
        pytest.param(
            "http://127.0.0.1:notaport", "", "http backend: Port could not be cast", id="port"
        ),
        pytest.param("localhost:9", "", f"{BAD_URL} 'localhost:9/v1", id="no_scheme"),
        pytest.param("ftp://127.0.0.1:9", "", f"{BAD_URL} 'ftp://", id="ftp"),
        pytest.param("http://:9", "", f"{BAD_URL} 'http://:9/v1", id="no_host"),
        pytest.param(
            "http://127.0.0.1:9", "sk-1\r\nX: 1",
            "http backend: header names and values must not contain CR", id="crlf_in_api_key",
        ),
    ],
)
def test_bad_http_setting_is_config_error(
    tmp_path, monkeypatch, capsys, endpoint, api_key, message
):
    monkeypatch.setenv("REXGOT_API_KEY", api_key)
    corpus_path = _toy_corpus(tmp_path)
    out_dir = tmp_path / "out"
    endpoint_flag = [] if endpoint is None else ["--endpoint", endpoint]
    code = main([
        "run", "--corpus", str(corpus_path), "--strategy", "cot",
        "--backend", "http", *endpoint_flag, "--out", str(out_dir),
    ])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_writes_only_inside_out_and_cache(tmp_path, bob_movie_setup, monkeypatch):
    corpus_path, scripts_path = bob_movie_setup
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out_dir = tmp_path / "only-out"
    cache_dir = tmp_path / "only-cache"
    main(
        run_args(
            corpus_path, scripts_path, out_dir,
            "--cache-mode", "record", "--cache-dir", str(cache_dir),
        )
    )
    assert list(workdir.iterdir()) == []


def test_replay_call_pool_is_as_wide_as_workers(tmp_path, monkeypatch):
    import rexgot.cli as cli

    widths = []

    class RecordingPool(cli.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    corpus_path = _toy_corpus(tmp_path)
    scripts_path = write_scripts_file(tmp_path / "scripts.json", [], default=["Answer: A"])
    base = [
        "run", "--corpus", str(corpus_path), "--strategy", "standard", "--backend", "scripted",
        "--scripts", str(scripts_path), "--cache-dir", str(tmp_path / "cache"),
        "--workers", "2", "--k", "3",
    ]
    assert main([*base, "--cache-mode", "record", "--out", str(tmp_path / "rec")]) == 0
    assert widths == [2, 2 * 3 * 4]
    widths.clear()
    assert main([*base, "--cache-mode", "replay", "--out", str(tmp_path / "rep")]) == 0
    assert widths == [2, 2]


def _output_digests(out_dir):
    names = ["predictions.jsonl", "report.json"] + sorted(
        f"traces/{p.name}" for p in (out_dir / "traces").iterdir()
    )
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names
    }


GOLDEN_BOB_MOVIE = {
    "predictions.jsonl": "47680a65347e67b764b5286a4f5a5aeddc7bffd0d8e6d55ad315fff4f6a4d466",
    "report.json": "c0b33a5d75d356232ef8ae91873075cbec711c754f8da3187f3de7653060788b",
    "traces/bob-movie-1.json": "76199397a9134f9f52ea3f10507c3782f1fcd121771e9186e6c8bc963787d382",
}
GOLDEN_PARTIAL_FAILURE = {
    "predictions.jsonl": "70c37dde1cebfec8e7885504b9a2c685481ada30018e709df342227c497be6ee",
    "report.json": "9a28a2bae98b866435e5a6f405144a9894e92d17142cdf394320fd0ba163bbef",
    "traces/bob-movie-1.json": "76199397a9134f9f52ea3f10507c3782f1fcd121771e9186e6c8bc963787d382",
    "traces/uncovered.json": "d8fa5c1ce24110b869aa9f6257f2248ffe5f58e70cf2fecb9ccca528b287b286",
}


def test_golden_output_bytes(tmp_path, bob_movie_instance):
    # Pins every byte a rex_got run writes: predictions, report and each trace,
    # including its thought graph (or "graph": null for a failed instance).
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(name="fig1", instances=(bob_movie_instance,)), corpus_path)
    scripts_path = write_scripts_file(
        tmp_path / "scripts.json", rex_script_entries(bob_movie_instance)
    )
    assert main(run_args(corpus_path, scripts_path, tmp_path / "one")) == 0
    assert _output_digests(tmp_path / "one") == GOLDEN_BOB_MOVIE


    other = make_instance("uncovered", m=3, gold=(1,))
    partial_path = tmp_path / "two.jsonl"
    save_corpus(Corpus(name="two", instances=(bob_movie_instance, other)), partial_path)
    assert main(run_args(partial_path, scripts_path, tmp_path / "partial")) == 1
    assert json.loads((tmp_path / "partial/traces/uncovered.json").read_text())["graph"] is None
    assert _output_digests(tmp_path / "partial") == GOLDEN_PARTIAL_FAILURE


# A value other than the default for every RunConfig setting.
SETTING_VALUES = {
    "corpus": "c.jsonl", "strategy": "cot", "format": "cicero_release", "backend": "scripted",
    "endpoint": "http://localhost:1", "model": "m", "scripts": "s.json", "k": 5,
    "temp_step1": 0.5, "temp_step2": 0.25, "temp_step3": 0.125, "vote_policy": "path_plurality",
    "tie_break": "prefer_include", "workers": 2, "cache_mode": "record", "cache_dir": "c",
    "out": "o", "seed": 7, "max_tokens": 64, "max_prompt_tokens": 900,
}
# The settings that say where inputs, outputs and the server are, or how a run is spread.
UNFINGERPRINTED = {"corpus", "endpoint", "scripts", "workers", "cache_mode", "cache_dir", "out"}


def _flag(name):
    return "--" + name.replace("_", "-")


def test_every_setting_is_a_flag_and_a_config_key(tmp_path, monkeypatch):
    assert set(SETTING_VALUES) == {field.name for field in fields(RunConfig)}
    configs = []
    monkeypatch.setattr(cli, "cmd_run", configs.append)
    flags = [arg for name, value in SETTING_VALUES.items() for arg in (_flag(name), str(value))]
    main(["run", *flags])
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(SETTING_VALUES))
    main(["run", "--config", str(config_path)])
    assert configs == [RunConfig(**SETTING_VALUES)] * 2


def test_run_help_lists_every_setting(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for field in fields(RunConfig):
        assert re.search(rf"{_flag(field.name)}(?![\w-])", out), field.name


def test_fingerprint_covers_every_setting_but_locations_and_spread():
    base = RunConfig(corpus="c", strategy="rex_got")
    digest = base.fingerprint()
    assert digest == "968297942c17ab85a2365f88707114b3fa0cb1e296cb5d1d0b77164a90feb879"
    for name, value in SETTING_VALUES.items():
        changed = replace(base, **{name: value}).fingerprint()
        assert (changed == digest) == (name in UNFINGERPRINTED), name


def test_tie_break_is_not_fingerprinted_under_path_plurality():
    base = RunConfig(corpus="c", strategy="rex_got", vote_policy="path_plurality")
    assert base.tie_break == "prefer_exclude"
    assert replace(base, tie_break="prefer_include").fingerprint() == base.fingerprint()


@pytest.mark.parametrize("digest", ["ABC", "A" * 64, "g" * 64, "a" * 63, "a" * 65])
def test_scripts_digest_that_cannot_match_is_an_error(tmp_path, bob_movie_setup, capsys, digest):
    corpus_path, _ = bob_movie_setup
    scripts_path = tmp_path / "digest.json"
    scripts_path.write_text(json.dumps(
        {"scripts": [{"digest": digest, "responses": ["x"]}], "default": ["Answer: A"]}
    ))
    out_dir = tmp_path / "out"
    assert main(run_args(corpus_path, scripts_path, out_dir)) == 1
    assert capsys.readouterr().err.startswith(f"error: scripts file {scripts_path}: ")
    assert not (out_dir / "report.json").exists()
