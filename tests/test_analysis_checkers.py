"""Checker-level tests: every rule fires on its bad fixture, not its good twin."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.model import build_module_model, module_name_for_path
from repro.analysis.registry import Project, all_checkers
from repro.analysis.suppressions import collect_suppressions

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run_checkers(filename, fake_path=None):
    source = (FIXTURES / filename).read_text(encoding="utf-8")
    path = fake_path or str(FIXTURES / filename)
    model = build_module_model(path, source)
    project = Project([model])
    findings = []
    for checker in all_checkers():
        findings.extend(checker.check(model, project))
    return findings


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestVersionGuard:
    def test_fires_on_unguarded_memo_reads(self):
        findings = run_checkers("version_guard_bad.py")
        hits = [f for f in findings if f.rule == "version-guard"]
        assert {f.symbol for f in hits} == {
            "StaleBallServer.ball",
            "seeded_fixpoint",
        }
        for finding in hits:
            assert finding.line > 0
            assert finding.hint

    def test_quiet_on_guarded_validated_and_fresh_memos(self):
        findings = run_checkers("version_guard_good.py")
        assert "version-guard" not in rules_of(findings)


class TestPatchListener:
    def test_fires_on_deaf_cache_class(self):
        findings = run_checkers("patch_listener_bad.py")
        hits = [f for f in findings if f.rule == "patch-listener"]
        assert [f.symbol for f in hits] == ["DeafCache"]

    def test_quiet_on_listener_registration(self):
        findings = run_checkers("patch_listener_good.py")
        assert "patch-listener" not in rules_of(findings)

    def test_quiet_on_version_tracking(self):
        # The good version-guard fixture tracks _pinned_version instead of
        # registering a listener; either discipline satisfies the rule.
        findings = run_checkers("version_guard_good.py")
        assert "patch-listener" not in rules_of(findings)


class TestDecodeBoundary:
    FAKE_API_PATH = "src/repro/api/fixture_surface.py"

    def test_fires_on_public_surface_leaking_bits(self):
        findings = run_checkers("decode_boundary_bad.py", self.FAKE_API_PATH)
        hits = [f for f in findings if f.rule == "decode-boundary"]
        assert {f.symbol for f in hits} == {
            "LeakySurface.matched",
            "LeakySurface.ball",
            "LeakySurface.names_and_raw",
        }

    def test_quiet_when_bits_are_decoded(self):
        findings = run_checkers("decode_boundary_good.py", self.FAKE_API_PATH)
        assert "decode-boundary" not in rules_of(findings)

    def test_rule_is_scoped_to_public_modules(self):
        # The same leaky code outside repro.api / repro.cli is internal
        # plumbing and not this rule's business.
        findings = run_checkers("decode_boundary_bad.py")
        assert "decode-boundary" not in rules_of(findings)


class TestModel:
    def test_module_name_for_src_layout(self):
        assert (
            module_name_for_path("src/repro/engine/cache.py")
            == "repro.engine.cache"
        )
        assert module_name_for_path("src/repro/api/__init__.py") == "repro.api"
        assert module_name_for_path("scratch/standalone.py") == "standalone"

    def test_memo_attr_inference(self):
        source = (FIXTURES / "version_guard_bad.py").read_text(encoding="utf-8")
        model = build_module_model("version_guard_bad.py", source)
        cls = model.classes["StaleBallServer"]
        assert cls.memo_attrs() == {"_bits"}
        assert not cls.tracks_version()

    def test_guard_helper_detection(self):
        source = (FIXTURES / "version_guard_good.py").read_text(encoding="utf-8")
        model = build_module_model("version_guard_good.py", source)
        assert "_check_version" in model.local_guard_helpers()


class TestSuppressionParsing:
    def test_only_real_comments_count(self):
        source = (
            '"""Docstring showing # repro: ignore[version-guard] syntax."""\n'
            "x = 1  # repro: ignore[version-guard] -- demo\n"
        )
        suppressions = collect_suppressions(source)
        assert list(suppressions) == [2]
        assert suppressions[2].covers("version-guard")
        assert suppressions[2].justification == "demo"

    def test_multiple_rules_and_all(self):
        source = "x = 1  # repro: ignore[version-guard, patch-listener] -- why\n"
        sup = collect_suppressions(source)[1]
        assert sup.covers("version-guard")
        assert sup.covers("patch-listener")
        assert not sup.covers("decode-boundary")
        assert collect_suppressions("y = 2  # repro: ignore[all] -- why\n")[
            1
        ].covers("decode-boundary")
