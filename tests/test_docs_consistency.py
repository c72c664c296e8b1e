"""Documentation-consistency gates.

README, EXPERIMENTS.md, DESIGN.md and docs/*.md name modules and their
attributes by dotted path, and every such name resolves; the README
quickstart must actually run; docs/API.md is its generator's output;
every ``python -m repro`` command the docs show or the program prints
parses.  These tests keep prose and code from drifting apart.
"""

import argparse
import importlib
import importlib.util
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _print_campaign_summary, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def _referenced_names(text: str) -> set[str]:
    # `repro.pkg.module[.Attr…]` inside backticks, without call-like
    # suffixes; schema ids such as `repro.bench/1` name no Python object.
    pattern = r"`(repro(?:\.[A-Za-z_][A-Za-z_0-9]*)+)(?![A-Za-z_0-9/])"
    return set(re.findall(pattern, text))


def _resolves(ref: str) -> bool:
    """Import the longest module prefix of *ref*, then get each attribute."""
    parts = ref.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


REFERENCING_DOCS = sorted(
    ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
    + [f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")]
)


class TestDesignReferences:
    @pytest.mark.parametrize("doc", REFERENCING_DOCS)
    def test_referenced_modules_importable(self, doc):
        text = (ROOT / doc).read_text()
        missing = [ref for ref in sorted(_referenced_names(text)) if not _resolves(ref)]
        assert not missing, f"{doc} references unknown names: {missing}"

    def test_design_lists_all_experiments(self):
        text = (ROOT / "DESIGN.md").read_text()
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            assert f"| {eid} |" in text, f"DESIGN.md lacks an index row for {eid}"

    def test_design_paper_identity_check_present(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper-identity check" in text


class TestReadme:
    def test_quickstart_block_runs(self):
        """Extract the first python code block from README and exec it."""
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README has no python quickstart block"
        namespace: dict = {}
        exec(compile(blocks[0], "<readme-quickstart>", "exec"), namespace)

    def test_experiments_md_exists_with_all_ids(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            assert f"## {eid} —" in text or f"## {eid} -" in text, (
                f"EXPERIMENTS.md lacks a section for {eid}; regenerate with "
                "python -m repro.experiments.report"
            )

    def test_named_experiment_ranges_match_the_registry(self):
        """Every "E1–Ek" the docs and docstrings name is the registry's range."""
        import repro
        import repro.cli
        from repro.experiments import EXPERIMENTS

        k = len(EXPERIMENTS)
        assert sorted(EXPERIMENTS) == sorted(f"E{i}" for i in range(1, k + 1))
        texts = {
            "README.md": (ROOT / "README.md").read_text(),
            "DESIGN.md": (ROOT / "DESIGN.md").read_text(),
            "repro.cli": repro.cli.__doc__,
            "repro": repro.__doc__,
        }
        for where, text in texts.items():
            named = set(re.findall(r"E1[–-]E\d+", text))
            assert named == {f"E1–E{k}"}, f"{where} names {sorted(named)}"

    def test_bench_files_exist_per_experiment(self):
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            num = int(eid[1:])
            hits = list((ROOT / "benchmarks").glob(f"bench_e{num:02d}_*.py"))
            assert hits, f"no bench file for {eid}"


class TestApiIndex:
    def test_api_md_matches_its_generator(self):
        path = ROOT / "tools" / "gen_api_docs.py"
        spec = importlib.util.spec_from_file_location("gen_api_docs", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        assert (ROOT / "docs" / "API.md").read_text() == gen.render(), (
            "docs/API.md is stale; regenerate with "
            "PYTHONPATH=src python tools/gen_api_docs.py"
        )


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _hints(text: str) -> list[str]:
    """Every ``python -m repro ...`` command in *text*, up to a line end
    or a closing parenthesis."""
    return re.findall(r"python -m repro [^)\n]*", text)


def _parse(hint: str) -> argparse.Namespace:
    argv = shlex.split(hint)
    try:
        return build_parser().parse_args(argv[argv.index("-m") + 2:])
    except SystemExit:
        raise AssertionError(f"printed hint does not parse: {hint}") from None


class TestCliMentions:
    DOCS = ["README.md", "DESIGN.md"] + sorted(
        f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")
    )

    def test_documented_commands_exist(self):
        commands = _subcommands(build_parser())
        stale = []
        for doc in self.DOCS:
            text = (ROOT / doc).read_text()
            for m in re.finditer(
                r"python\s+-m\s+repro\s+([a-z][\w-]*)(?:\s+([a-z][\w-]*))?",
                text,
            ):
                cmd, sub = m.groups()
                subs = _subcommands(commands[cmd]) if cmd in commands else None
                if subs is None or (subs and sub not in subs):
                    stale.append(f"{doc}: {m.group(0)}")
        assert not stale, f"commands build_parser() rejects: {stale}"

    def test_printed_hints_parse(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.base import ExperimentResult
        from repro.obs.summarize import summarize_run
        from repro.obs.watch import render_frame
        from repro.verify.differential import DiffConfig

        monkeypatch.chdir(tmp_path)
        assert main([
            "campaign", "--n", "4", "--replicas", "2", "--processes", "1",
            "--out", "runs/camp",
        ]) == 0
        hints = _hints(capsys.readouterr().out)
        assert _print_campaign_summary(
            {"run_dir": "runs/camp", "interrupted": 5}
        ) == 3
        hints += _hints(capsys.readouterr().err)
        os.makedirs("runs/cut")
        with open("runs/cut/meta.json", "w") as f:
            json.dump({"status": "interrupted", "last_checkpoint_step": 7}, f)
        hints += _hints(summarize_run("runs/cut"))
        hints += _hints(render_frame("runs/cut"))
        hints += _hints(ExperimentResult(
            "E1", "demo", "smoke", "ok", telemetry={"run_dir": "runs/e1"},
        ).render())
        hints += _hints(DiffConfig(
            spec="scenario_a", n=4, m=4, replicas=2, steps=10, batch=1,
            probe_every=0, save_every=0, seed=0,
        ).cli())
        parsed = [_parse(h) for h in hints]
        assert [
            (a.command, getattr(a, "obs_command", None)) for a in parsed
        ] == [
            ("obs", "watch"), ("resume", None), ("resume", None),
            ("resume", None), ("obs", "summarize"), ("fuzz", None),
        ]
        assert json.loads(parsed[-1].config)["spec"] == "scenario_a"
