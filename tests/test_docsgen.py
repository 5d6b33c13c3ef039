"""Tests of the generated CLI reference and the docs link checker."""

import os

from repro.docsgen import check_links, generate_cli_reference


class TestCliReference:
    def test_deterministic_and_columns_independent(self):
        """Regenerate-and-diff in CI must not flap with terminal width."""
        saved = os.environ.get("COLUMNS")
        try:
            os.environ["COLUMNS"] = "60"
            narrow = generate_cli_reference()
            os.environ["COLUMNS"] = "200"
            wide = generate_cli_reference()
        finally:
            if saved is None:
                os.environ.pop("COLUMNS", None)
            else:
                os.environ["COLUMNS"] = saved
        assert narrow == wide
        assert narrow == generate_cli_reference()

    def test_documents_every_noncollapsed_subcommand(self):
        import argparse

        from repro.cli import EXPERIMENTS, _build_parser

        reference = generate_cli_reference()
        parser = _build_parser()
        action = next(
            a
            for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for name in action.choices:
            if name in EXPERIMENTS:
                assert f"`wlcrc-repro {name}`" in reference  # listed in the group
            else:
                assert f"## `wlcrc-repro {name}`" in reference, name

    def test_collapses_experiment_aliases_into_one_section(self):
        from repro.cli import EXPERIMENTS

        reference = generate_cli_reference()
        assert "## experiment commands" in reference
        # No alias gets its own section; the shared option table appears once.
        for name in EXPERIMENTS:
            assert f"## `wlcrc-repro {name}`" not in reference

    def test_flags_of_new_subcommands_present(self):
        reference = generate_cli_reference()
        for flag in ("--trace-dir", "--check"):
            assert flag in reference

    def test_help_points_only_at_existing_docs(self):
        """Help strings name docs pages as plain text, which the link
        checker never sees; every page they name must exist."""
        import re
        from pathlib import Path

        docs = Path(__file__).resolve().parents[1] / "docs"
        named = set(re.findall(r"docs/([\w.-]+\.md)", generate_cli_reference()))
        assert named  # the help does point into docs/
        assert sorted(name for name in named if not (docs / name).is_file()) == []

    def test_matches_committed_docs_page(self):
        """``docs/cli.md`` is generated; CI fails when it drifts."""
        from pathlib import Path

        committed = Path(__file__).resolve().parents[1] / "docs" / "cli.md"
        assert committed.read_text() == generate_cli_reference()


class TestLinkChecker:
    def _docs(self, tmp_path, text, name="page.md"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_clean_relative_links_and_anchors(self, tmp_path):
        (tmp_path / "other.md").write_text("# Other Page\n\n## A `code` heading\n")
        page = self._docs(
            tmp_path,
            "# Page\n\n[other](other.md) [deep](other.md#a-code-heading)\n"
            "[self](#page) [ext](https://example.com/x)\n",
        )
        assert check_links([page, tmp_path / "other.md"]) == []

    def test_broken_file_and_anchor_reported(self, tmp_path):
        (tmp_path / "other.md").write_text("# Other\n")
        page = self._docs(
            tmp_path,
            "[gone](missing.md) [bad](other.md#nope) [worse](#absent)\n",
        )
        problems = check_links([page])
        assert len(problems) == 3
        assert any("missing.md" in p for p in problems)
        assert any("other.md#nope" in p for p in problems)
        assert any("#absent" in p for p in problems)

    def test_links_inside_code_fences_ignored(self, tmp_path):
        page = self._docs(
            tmp_path, "# P\n\n```md\n[fake](not-a-file.md)\n```\n"
        )
        assert check_links([page]) == []

    def test_repo_docs_are_clean(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        paths = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        assert check_links(paths) == []
