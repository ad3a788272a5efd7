"""Self-test: lock-discipline linter flags naked mutex lock/unlock
and hot-path std::function, while allowing RAII-guard receivers."""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import lock_discipline

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


class LockDisciplineTest(unittest.TestCase):
    def test_bad_fixture_findings(self):
        violations = lock_discipline.check(FIXTURES / "bad")
        found = {(v.path, v.line) for v in violations}
        expected = {
            ("src/driver/bad_lock.cc", 9),    # g_mutex.lock()
            ("src/driver/bad_lock.cc", 11),   # g_mutex.unlock()
            ("src/sim/event_queue.hh", 6),    # std::function
            ("src/sim/mem_queued.hh", 7),     # std::function
            ("src/core/index_bucket.hh", 11),  # raw new
            ("src/core/index_bucket.hh", 12),  # std::malloc
            ("src/core/index_bucket.hh", 13),  # make_unique
        }
        self.assertEqual(found, expected)

    def test_guard_receivers_are_not_flagged(self):
        violations = lock_discipline.check(FIXTURES / "bad")
        for violation in violations:
            self.assertNotIn("lock.lock", violation.message)
            self.assertNotIn("lock.unlock", violation.message)

    def test_hot_path_message_names_replacement(self):
        violations = lock_discipline.check(FIXTURES / "bad")
        message = next(
            v.message
            for v in violations
            if v.path == "src/sim/event_queue.hh"
        )
        self.assertIn("InplaceFunction", message)

    def test_raw_alloc_message_names_arena(self):
        messages = [
            v.message
            for v in lock_discipline.check(FIXTURES / "bad")
            if v.path == "src/core/index_bucket.hh"
        ]
        self.assertEqual(len(messages), 3)
        for message in messages:
            self.assertIn("ArenaBuffer", message)

    def test_clean_fixture_is_quiet(self):
        self.assertEqual(
            lock_discipline.check(FIXTURES / "clean"), []
        )


if __name__ == "__main__":
    unittest.main()
