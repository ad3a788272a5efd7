"""Self-test: fingerprint-safety linter fires on the seeded fixture
violations (exact file:line) and stays quiet on sanctioned patterns."""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import fingerprint_safety

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


class FingerprintSafetyTest(unittest.TestCase):
    def test_bad_fixture_findings(self):
        violations = fingerprint_safety.check(FIXTURES / "bad")
        found = {(v.path, v.line) for v in violations}
        expected = {
            # Timing-suffixed metric keys.
            ("src/driver/experiments/bad_metrics.cc", 9),
            ("src/driver/experiments/bad_metrics.cc", 10),
            ("src/driver/experiments/bad_metrics.cc", 11),
            # The file the retired perf_suite experiment lived in is
            # not exempt: no file is.
            ("src/driver/experiments/perf_suite.cc", 8),
            # "timing" JSON key emitted outside the renderer (the
            # renderer's own in report.cc is not a finding).
            ("src/driver/experiments/bad_metrics.cc", 13),
        }
        self.assertEqual(found, expected)

    def test_messages_name_the_suffix(self):
        violations = fingerprint_safety.check(FIXTURES / "bad")
        by_line = {
            v.line: v.message
            for v in violations
            if v.path.endswith("bad_metrics.cc")
        }
        self.assertIn('"_s"', by_line[9])
        self.assertIn('"_kb"', by_line[10])
        self.assertIn('"_per_sec"', by_line[11])

    def test_clean_fixture_is_quiet(self):
        self.assertEqual(
            fingerprint_safety.check(FIXTURES / "clean"), []
        )


if __name__ == "__main__":
    unittest.main()
