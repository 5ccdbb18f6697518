from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CORPUS, load_library
from sepstrat.cli import main
from sepstrat.engine import replay_document
from sepstrat.frontend import MAX_DEPTH, MAX_NESTING


def corpus(name):
    return str(CORPUS / name)


def run_cli(*argv):
    return main(list(argv))


class TestPurify:
    def test_purifies_and_reports(self, capsys):
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == [
            "purified: forall p q r l1 l2 l3, emp |-- exists l4 l5 l3'1,"
            " l4 == l1 && l5 == app(l2, l3'1) && l3'1 == l3",
            "purified 1/1",
        ]

    def test_stuck_input_exits_1(self, capsys):
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_cycle_guard.sle"),
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert out.splitlines()[0].startswith("stuck: forall p q l1 l2, lseg(p, q, l1)")
        assert out.splitlines()[-1] == "purified 0/1"

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "none.sle"
        empty.write_text("// nothing here\n")
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", str(empty),
        )
        assert rc == 0
        assert capsys.readouterr().out == "purified 0/0\n"

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
            "-o", str(out_file),
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_text().endswith("purified 1/1\n")

    def test_trace_file_replays(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
            "--trace", str(trace),
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["schema_version"] == 1
        assert [s["strategy"] for s in doc["traces"][0]["steps"]] == [
            "sll_align_lseg",
            "sll_absorb_lseg",
            "sll_align_listrep",
        ]
        sig, prog = load_library("sll")
        replay_document(doc, sig, prog)

    def test_reruns_are_bit_identical(self, tmp_path, capsys):
        outs, traces = [], []
        for i in range(2):
            out = tmp_path / f"out{i}.txt"
            tr = tmp_path / f"trace{i}.json"
            rc = run_cli(
                "purify",
                "--sig", corpus("array.sig"),
                "--strategies", corpus("array.stg"),
                "--input", corpus("array_obligations.sle"),
                "-o", str(out),
                "--trace", str(tr),
            )
            assert rc == 0
            outs.append(out.read_bytes())
            traces.append(tr.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] and traces[0] == traces[1]

    def test_max_steps_flag(self, capsys):
        rc = run_cli(
            "frame",
            "--sig", corpus("common.sig"),
            "--strategies", corpus("common.stg"),
            "--input", corpus("common_cells.sle"),
            "--max-steps", "5",
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert out.splitlines()[0].startswith("step_limit: ")
        assert out.splitlines()[-1] == "framed 0/1"

    def test_max_steps_must_be_positive(self, capsys):
        rc = run_cli(
            "frame",
            "--sig", corpus("common.sig"),
            "--strategies", corpus("common.stg"),
            "--input", corpus("common_cells.sle"),
            "--max-steps", "0",
        )
        out, err = capsys.readouterr()
        assert rc == 2
        assert (out, err) == ("", "max_steps must be positive\n")

    def test_missing_input_flag(self, capsys):
        rc = run_cli("purify", "--sig", corpus("sll.sig"), "--strategies", corpus("sll.stg"))
        err = capsys.readouterr().err
        assert rc == 2 and "--input" in err

    def test_unreadable_file(self, capsys):
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("no_such_file.sle"),
        )
        err = capsys.readouterr().err
        assert rc == 2 and "no_such_file.sle" in err

    @pytest.mark.parametrize("flag", ["-o", "--trace"])
    def test_unwritable_output_path(self, flag, tmp_path, capsys):
        target = str(tmp_path / "missing_dir" / "out.txt")
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
            flag, target,
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"{target}: No such file or directory\n"


class TestFrame:
    @pytest.mark.parametrize("op", ["+", "&&"])
    def test_800_term_chain_frames(self, op, tmp_path, capsys):
        long, trace = tmp_path / "long.sle", tmp_path / "trace.json"
        body = "0 < " + " + ".join(["x"] * 800) if op == "+" else "(" + " && ".join(["0 < x"] * 800) + ")"
        long.write_text(f"forall x, {body} && data_at(x, x) |-- emp\n")
        rc = run_cli(
            "frame",
            "--sig", corpus("common.sig"),
            "--strategies", corpus("common.stg"),
            "--input", str(long),
            "--trace", str(trace),
        )
        assert rc == 0
        assert capsys.readouterr().out.endswith("framed 1/1\n")
        if op == "+":
            replay_document(json.loads(trace.read_text()), *load_library("common"))

    @pytest.mark.parametrize("op", ["&&", "||"])
    def test_200_operand_chain_replays(self, op, tmp_path, capsys):
        src, trace = tmp_path / "chain.sle", tmp_path / "trace.json"
        chain = "(" + f" {op} ".join(["0 < x"] * 200) + ")"
        src.write_text(f"forall x, {chain} && data_at(x, x) |-- emp\n")
        rc = run_cli(
            "frame",
            "--sig", corpus("common.sig"),
            "--strategies", corpus("common.stg"),
            "--input", str(src),
            "--trace", str(trace),
        )
        assert rc == 0
        assert capsys.readouterr().out.endswith("framed 1/1\n")
        doc = json.loads(trace.read_text())
        assert doc["traces"][0]["input"] == f"forall x, {chain} && data_at(x, x) |-- emp"
        replay_document(doc, *load_library("common"))

    @pytest.mark.parametrize("zeros", [500, 840])
    def test_deep_antecedent_term_frames_and_replays(self, zeros, tmp_path, capsys):
        src, trace = tmp_path / "deep.sle", tmp_path / "trace.json"
        bound = "n" + " + 0" * zeros
        src.write_text(
            f"forall a l n i, 0 <= i && i < {bound} && store_array(a, 0, n, l)"
            " |-- exists v, data_at(a + 4 * i, v)\n"
        )
        rc = run_cli(
            "frame",
            "--sig", corpus("array.sig"),
            "--strategies", corpus("array.stg"),
            "--input", str(src),
            "--trace", str(trace),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(f"frame: 0 <= i && i < {bound} && ") and out.endswith("framed 1/1\n")
        replay_document(json.loads(trace.read_text()), *load_library("array"))

    def test_frame_inference(self, capsys):
        rc = run_cli(
            "frame",
            "--sig", corpus("array.sig"),
            "--strategies", corpus("array.stg"),
            "--input", corpus("array_frame.sle"),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == [
            "frame: 0 <= i && i < n && neg(i, la, lb) &&"
            " store_array_hole(a, 0, n, i, la) * store_array_hole(b, 0, n, i, lb)",
            "framed 1/1",
        ]

    def test_purified_goal_is_accepted(self, capsys):
        rc = run_cli(
            "frame",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "frame: emp"

    def test_pure_goal_frames_unchanged_in_zero_steps(self, tmp_path, capsys):
        goal = tmp_path / "pure.sle"
        goal.write_text("forall p v, data_at(p, v) |-- 0 <= 1\n")
        trace = tmp_path / "trace.json"
        rc = run_cli(
            "frame",
            "--sig", corpus("common.sig"),
            "--strategies", corpus("common.stg"),
            "--input", str(goal),
            "--trace", str(trace),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "frame: data_at(p, v)"
        doc = json.loads(trace.read_text())
        assert doc["traces"][0]["steps"] == []

    def test_undischarged_consequent_exits_1(self, capsys):
        rc = run_cli(
            "frame",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_cycle_guard.sle"),
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert out.splitlines()[0].startswith("stuck: ")
        assert out.splitlines()[-1] == "framed 0/1"


class TestSoundness:
    def test_blocks_on_stdout(self, capsys):
        rc = run_cli("soundness", "--sig", corpus("sll.sig"), "--strategies", corpus("sll.stg"))
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("soundness ") == 3
        assert "lseg(p, q, l1) |-- emp * (forall l2 l3," in out

    def test_instantiate_only_library(self, tmp_path, capsys):
        lib = tmp_path / "inst.stg"
        lib.write_text(
            "strategy one\n  right: exists x, ?x == ?y\n  action: instantiate(x -> y);\n"
        )
        sig = tmp_path / "empty.sig"
        sig.write_text("// no declarations\n")
        rc = run_cli("soundness", "--sig", str(sig), "--strategies", str(lib))
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "soundness one : instantiate - always sound\n"


class TestValidate:
    def test_reports_counts(self, capsys):
        rc = run_cli(
            "validate",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "ok: 3 declarations, 3 strategies, 1 entailments\n"

    def test_validates_all_shipped_libraries(self, capsys):
        for lib, inputs in [
            ("sll", ["sll_basic.sle", "sll_cycle_guard.sle"]),
            ("array", ["array_basic.sle", "array_frame.sle", "array_obligations.sle"]),
            ("common", ["common_cells.sle"]),
        ]:
            for inp in inputs:
                rc = run_cli(
                    "validate",
                    "--sig", corpus(f"{lib}.sig"),
                    "--strategies", corpus(f"{lib}.stg"),
                    "--input", corpus(inp),
                )
                assert rc == 0, capsys.readouterr()
        capsys.readouterr()

    def test_arity_error_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.sle"
        bad.write_text("forall p q, lseg(p, q) |-- emp\n")
        rc = run_cli(
            "validate",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", str(bad),
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert re.match(rf"{re.escape(str(bad))}:1:\d+: lseg expects 3 argument\(s\), got 2", err)

    def test_scope_error_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.stg"
        bad.write_text("strategy s\n  left: listrep(?p, ?l)\n  action: left_add(listrep(p, zz));\n")
        rc = run_cli("validate", "--sig", corpus("sll.sig"), "--strategies", str(bad))
        err = capsys.readouterr().err
        assert rc == 2
        assert re.match(rf"{re.escape(str(bad))}:\d+:\d+: ", err)
        assert "zz" in err

    def test_fresh_name_that_is_a_symbol(self, tmp_path, capsys):
        bad = tmp_path / "bad.stg"
        bad.write_text("strategy s\n  left: listrep(?p, ?l)\n  action:\n    exist_add(lseg);\n")
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", str(bad),
            "--input", corpus("sll_basic.sle"),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"{bad}:4:15: declared symbol 'lseg' cannot be a binder\n"

    def test_deep_nesting_diagnostic(self, tmp_path, capsys):
        deep = tmp_path / "deep.sle"
        deep.write_text("forall x, " + "(" * 1500 + "0 < x" + ")" * 1500 + " |-- emp\n")
        rc = run_cli("validate", "--sig", corpus("common.sig"), "--input", str(deep))
        err = capsys.readouterr().err
        assert rc == 2
        col = len("forall x, ") + MAX_NESTING + 1
        assert err == f"{deep}:1:{col}: nesting deeper than {MAX_NESTING} levels\n"

    @pytest.mark.parametrize("op", ["+", "&&"])
    def test_long_chain_diagnostic(self, op, tmp_path, capsys):
        long = tmp_path / "long.sle"
        body = "0 < " + " + ".join(["x"] * 2000) if op == "+" else "(" + " && ".join(["0 < x"] * 2000) + ")"
        long.write_text(f"forall x, {body} |-- emp\n")
        rc = run_cli("validate", "--sig", corpus("common.sig"), "--input", str(long))
        err = capsys.readouterr().err
        assert rc == 2
        assert re.fullmatch(rf"{re.escape(str(long))}:1:\d+: operator chain deeper than {MAX_DEPTH} levels\n", err)

    def test_non_utf8_input_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.sle"
        bad.write_bytes(b"forall x,\r\n  0 < x && x == \xff |-- emp\n")
        rc = run_cli("validate", "--sig", corpus("common.sig"), "--input", str(bad))
        assert rc == 2
        assert capsys.readouterr().err == f"{bad}:2:17: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize(
        "flag, suffix, text, col",
        [
            ("--input", ".sle", "forall x, x == \u00b2 |-- emp\n", 16),
            ("--sig", ".sig", "spatial p/\u00b2;\n", 11),
        ],
    )
    def test_unicode_digit_diagnostic(self, flag, suffix, text, col, tmp_path, capsys):
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(text, encoding="utf-8")
        sig = str(bad) if flag == "--sig" else corpus("common.sig")
        rc = run_cli("purify", "--sig", sig, "--input", str(bad) if flag == "--input" else corpus("common_cells.sle"))
        assert rc == 2
        assert capsys.readouterr().err == f"{bad}:1:{col}: unexpected character '\u00b2'\n"

    @pytest.mark.parametrize(
        "flag, suffix, text, where",
        [
            ("--input", ".sle", "forall x, x == {} |-- emp\n", "1:16"),
            ("--strategies", ".stg", "strategy s\n  priority: {}\n  right: ?x == x\n  action: right_erase(x == x);\n",
             "2:13"),
            ("--sig", ".sig", "spatial p/{};\n", "1:11"),
        ],
        ids=["term", "priority", "arity"],
    )
    def test_long_integer_literal_diagnostic(self, flag, suffix, text, where, tmp_path, capsys):
        # Python's `int` refuses strings of more than 4,300 digits.
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(text.format("7" * 5000))
        files = {"--sig": "common.sig", "--strategies": "common.stg", "--input": "common_cells.sle"}
        args = [x for f, name in files.items() for x in (f, str(bad) if f == flag else corpus(name))]
        rc = run_cli("validate", *args)
        assert rc == 2
        assert capsys.readouterr().err == f"{bad}:{where}: integer literal of 5000 digits is too long\n"

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "ok.txt"
        rc = run_cli("validate", "--sig", corpus("sll.sig"), "--strategies", corpus("sll.stg"), "-o", str(out_file))
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_text() == "ok: 3 declarations, 3 strategies, 0 entailments\n"

    def test_without_input(self, capsys):
        rc = run_cli("validate", "--sig", corpus("array.sig"), "--strategies", corpus("array.stg"))
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "ok: 5 declarations, 6 strategies, 0 entailments\n"


class TestStrategyComposition:
    def test_multiple_strategy_files(self, capsys):
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--strategies", corpus("common.sig").replace("common.sig", "common.stg"),
            "--input", corpus("sll_basic.sle"),
        )
        capsys.readouterr()
        assert rc == 0

    def test_name_clash_across_files(self, tmp_path, capsys):
        clone = tmp_path / "clone.stg"
        clone.write_text((CORPUS / "sll.stg").read_text())
        rc = run_cli(
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--strategies", str(clone),
            "--input", corpus("sll_basic.sle"),
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "sll_absorb_lseg" in err and "already defined" in err


# One token of a corpus file: an identifier or number, an operator, or any
# other single character; spaces and comments are skipped.
_TOKEN = re.compile(r"\s+|//[^\n]*|[\w']+|\|--|<->|->|-\*|==|!=|<=|>=|&&|\|\||.")
_REPLACEMENTS = [
    "forall", "exists", "emp", "true", "strategy", "action", "instantiate", "spatial",  # keywords
    "lseg", "data_at", "field_addr", "x",  # symbols
    "(", ")", ",", ";", ":", "*", "?", "|--", "->", "-*", "!",  # punctuation
    "7" * 5000,  # beyond Python's digit limit on `int`
]


def one_token_mutants(n, seed):
    """n (corpus file, text) pairs, each the file with one token deleted,
    doubled or replaced."""
    rng = random.Random(seed)
    texts = {p: p.read_text() for p in sorted(CORPUS.iterdir()) if p.suffix in (".sig", ".stg", ".sle")}
    spans = {
        p: [m.span() for m in _TOKEN.finditer(t) if not m.group().isspace() and not m.group().startswith("//")]
        for p, t in texts.items()
    }
    files = [p for p in texts if spans[p]]  # common.sig declares nothing
    for _ in range(n):
        path = rng.choice(files)
        text = texts[path]
        i, j = rng.choice(spans[path])
        new = rng.choice(["", f"{text[i:j]} {text[i:j]}", rng.choice(_REPLACEMENTS)])
        yield path, text[:i] + new + text[j:]


@functools.cache
def mutant_runs() -> tuple[tuple[str, str, str, int, str], ...]:
    """(file name, text, mode, exit code, stderr) of the 300 seed-20 mutants,
    each run with the rest of its library under `validate` and `frame`.  In
    stderr a mutant file reads `mutant<k>.<suffix>` and a corpus file
    `corpus/<name>`, wherever the runs were made."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for k, (path, text) in enumerate(one_token_mutants(300, seed=20)):
            lib = re.match(r"[a-z]+", path.name).group()
            sle = min(CORPUS.glob(f"{lib}_*.sle"))
            files = {".sig": CORPUS / f"{lib}.sig", ".stg": CORPUS / f"{lib}.stg", ".sle": sle}
            files[path.suffix] = Path(tmp) / f"mutant{k}{path.suffix}"
            files[path.suffix].write_text(text)
            args = ["--sig", str(files[".sig"]), "--strategies", str(files[".stg"]), "--input", str(files[".sle"])]
            for mode in ("validate", "frame"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = run_cli(mode, *args)
                err = err.getvalue().replace(f"{tmp}/", "").replace(f"{CORPUS}/", "corpus/")
                runs.append((path.name, text, mode, rc, err))
    return tuple(runs)


def mutant_diagnostics() -> str:
    """One line per mutant run: its number, file, mode, exit code and stderr."""
    return "".join(
        f"{k // 2} {name} {mode} {rc}: {err or chr(10)}" for k, (name, _, mode, rc, err) in enumerate(mutant_runs())
    )


def test_one_token_mutants_end_in_a_diagnostic():
    """A mutant, run with the rest of its library, ends in a verdict or in
    exactly one path:line:col diagnostic, and never in an exception."""
    for name, text, mode, rc, err in mutant_runs():
        assert rc in (0, 1, 2), (name, text)
        if rc == 2:
            assert re.fullmatch(r"\S+:\d+:\d+: [^\n]*\n", err), (name, text, err)
        else:
            assert err == "", (name, text, err)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "sepstrat",
            "purify",
            "--sig", corpus("sll.sig"),
            "--strategies", corpus("sll.stg"),
            "--input", corpus("sll_basic.sle"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("purified 1/1\n")
