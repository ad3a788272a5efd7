"""Tests of pcprof_report's component fold on a checked-in
``addr2line -a -f -i -C`` fixture, so no profiled binary is needed.

    python3 -m unittest discover -s tools/pcprof/tests

The fixture's chains come from a RelWithDebInfo fig7 driver; its
source paths were rewritten under /build/stms.
"""

import collections
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import pcprof_report  # noqa: E402

# pc -> the class its sample is charged to (None: no stms:: class).
EXPECTED = {
    # Innermost frame is the class itself.
    0x86599: "BucketStore",
    # findFirstEqual is a free function: charged to its caller.
    0x80140: "Cache",
    0x91540: "PrefetchBuffer",
    # std:: frames are skipped.
    0x802a1: "MemorySystem",
    # A nested class counts as its outer class.
    0x7fb74: "MemorySystem",
    # ArenaBuffer / ZeroedBuffer accessors pass through to the owner.
    0x917e0: "Cache",
    0x869a0: "BucketStore",
    0x9169d: "Cache",
    # Other stms:: classes are components of their own, also when
    # the chain ends in an unqualified lambda frame.
    0x7dd30: "FlatAddrMap",
    0x7c02d: "InplaceFunction",
    0x4b584: "InplaceFunction",
    # Free functions inlined into a class method.
    0x86972: "IndexTable",
    # Unsymbolized (e.g. a library without debug info).
    0xa1f00: None,
}


class ComponentFoldTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        text = (HERE / "addr2line_chains.txt").read_text()
        cls.chains = pcprof_report.parse_chains(text)

    def test_parses_every_address_with_its_whole_chain(self):
        self.assertEqual(set(self.chains), set(EXPECTED))
        self.assertEqual(len(self.chains[0x80140]), 4)
        self.assertEqual(self.chains[0x80140][0][0],
                         "stms::findFirstEqual(unsigned long const*, "
                         "unsigned long, unsigned long)")
        self.assertEqual(self.chains[0x80140][-1][1],
                         "/build/stms/src/sim/memory_system.cc:151")
        self.assertEqual(self.chains[0xa1f00], [("??", "??:0")])

    def test_charges_each_chain_to_its_first_stms_class(self):
        for pc, expected in EXPECTED.items():
            with self.subTest(pc=hex(pc)):
                self.assertEqual(
                    pcprof_report.component(self.chains[pc]), expected)
        # A class outside stms:: is skipped too.
        self.assertEqual(
            pcprof_report.component(
                [("testing::Test::Run()", "gtest.cc:2682"),
                 ("stms::Cache::fill(unsigned long, bool)",
                  "cache.cc:46")]),
            "Cache")

    def test_scope_splits_only_top_level_qualifiers(self):
        self.assertEqual(
            pcprof_report.scope(
                "stms::InplaceFunction<void (unsigned long), 40ul>::"
                "{lambda(void*, void*)#7}::_FUN(void*, void*)"),
            ["stms", "InplaceFunction", "", "_FUN"])
        self.assertEqual(
            pcprof_report.scope("stms::Cache::operator<(stms::Cache "
                                "const&) const"),
            ["stms", "Cache", "operator"])
        self.assertEqual(
            pcprof_report.scope("stms::driver::(anonymous namespace)::"
                                "Fig7Traffic::plan(stms::Options "
                                "const&) const"),
            ["stms", "driver", "", "Fig7Traffic", "plan"])

    def test_fold_pools_samples_by_component(self):
        # Sample i of the fixture is sampled i + 1 times.
        counts = collections.Counter(
            {("bin/driver", pc): i + 1
             for i, pc in enumerate(sorted(EXPECTED))})
        symbolize = pcprof_report.symbolize
        pcprof_report.symbolize = lambda obj, pcs: self.chains
        try:
            by_file, by_function, by_component = pcprof_report.fold(
                counts, pathlib.Path("/build/stms"))
        finally:
            pcprof_report.symbolize = symbolize

        expected = collections.Counter()
        for (_, pc), hits in counts.items():
            expected[EXPECTED[pc] or "(no class) driver"] += hits
        self.assertEqual(by_component, expected)
        # The other tables still charge the innermost frame.
        self.assertEqual(by_file["src/common/scan.hh"],
                         counts[("bin/driver", 0x80140)] +
                         counts[("bin/driver", 0x91540)])
        self.assertEqual(sum(by_function.values()), sum(counts.values()))


if __name__ == "__main__":
    unittest.main()
