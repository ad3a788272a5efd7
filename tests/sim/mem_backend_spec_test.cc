/**
 * @file
 * Unit tests for --mem-backend spec parsing and canonicalization.
 * canonical() is the "mem-backend" option the driver passes to the
 * experiments, so the invariants here (defaults canonicalize away,
 * spellings collapse, errors are rejected early) keep
 * `--mem-backend fixed` output identical to no flag.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sim/mem_backend.hh"

namespace stms
{
namespace
{

MemBackendSpec
parseOk(const std::string &text)
{
    MemBackendSpec spec;
    std::string error;
    const bool ok = parseMemBackendSpec(text, spec, error);
    EXPECT_TRUE(ok) << text << ": " << error;
    return spec;
}

std::string
parseFail(const std::string &text)
{
    MemBackendSpec spec;
    std::string error;
    EXPECT_FALSE(parseMemBackendSpec(text, spec, error)) << text;
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(MemBackendSpec, DefaultSpecIsCanonicalFixed)
{
    MemBackendSpec spec;
    EXPECT_TRUE(spec.isDefault());
    EXPECT_EQ(spec.canonical(), "fixed");
    EXPECT_EQ(parseOk("fixed").canonical(), "fixed");
}

TEST(MemBackendSpec, KindsParse)
{
    EXPECT_EQ(parseOk("fixed").kind, MemBackendKind::Fixed);
    EXPECT_EQ(parseOk("queued").kind, MemBackendKind::Queued);
    EXPECT_EQ(parseOk("dram").kind, MemBackendKind::Dram);
    EXPECT_FALSE(parseOk("queued").isDefault());
    EXPECT_FALSE(parseOk("dram").isDefault());
}

TEST(MemBackendSpec, ExplicitDefaultsCanonicalizeAway)
{
    // Spelling out a default value must canonicalize identically to
    // omitting it.
    EXPECT_EQ(parseOk("queued,channels=2").canonical(), "queued");
    EXPECT_EQ(parseOk("dram,ranks=1,banks=8,row-bytes=8192").canonical(),
              "dram");
    EXPECT_EQ(parseOk("dram,trcd=60,tcas=60,trp=60,tras=160,policy=open")
                  .canonical(),
              "dram");
    EXPECT_EQ(parseOk("fixed,latency=180,transfer=9").canonical(),
              "fixed");
    EXPECT_TRUE(parseOk("fixed,latency=180").isDefault());
}

TEST(MemBackendSpec, NonDefaultsSurviveInFixedKeyOrder)
{
    EXPECT_EQ(parseOk("queued,channels=4").canonical(),
              "queued,channels=4");
    EXPECT_EQ(parseOk("dram,policy=closed,banks=16").canonical(),
              "dram,banks=16,policy=closed");
    // Key order in the input must not matter.
    EXPECT_EQ(parseOk("dram,banks=16,policy=closed").canonical(),
              parseOk("dram,policy=closed,banks=16").canonical());
    EXPECT_EQ(parseOk("fixed,latency=90").canonical(),
              "fixed,latency=90");
    EXPECT_EQ(parseOk("dram,channels=2,tras=200").canonical(),
              "dram,channels=2,tras=200");
}

TEST(MemBackendSpec, ParsedFieldsReachTheBackendConfig)
{
    const MemBackendSpec spec =
        parseOk("dram,channels=2,banks=16,row-bytes=4096,trcd=45,"
                "policy=closed");
    EXPECT_EQ(spec.kind, MemBackendKind::Dram);
    EXPECT_EQ(spec.channels, 2u);
    EXPECT_EQ(spec.banksPerRank, 16u);
    EXPECT_EQ(spec.rowBytes, 4096u);
    EXPECT_EQ(spec.tRcd, 45u);
    EXPECT_EQ(spec.policy, PagePolicy::Closed);

    EventQueue events;
    auto mem = makeMemBackend(events, spec, MemCtrlConfig{});
    EXPECT_EQ(mem->channels(), 2u);
    // Only the DRAM backend counts row-buffer outcomes.
    mem->request(TrafficClass::DemandRead, Priority::High, 0, 1, nullptr);
    events.run();
    EXPECT_EQ(mem->rowStats().totalAccesses(), 1u);
}

TEST(MemBackendSpec, RejectsBadInput)
{
    parseFail("");
    parseFail("sram");
    parseFail("fixed,channels=2");      // Fixed has one channel.
    parseFail("fixed,trcd=60");         // DRAM-only key.
    parseFail("queued,policy=open");    // DRAM-only key.
    parseFail("dram,latency=100");      // Use trcd/tcas/trp instead.
    parseFail("queued,channels=0");     // Zero is not a count.
    parseFail("queued,channels=two");   // Junk value.
    parseFail("dram,row-bytes=100");    // Not a multiple of 64.
    parseFail("dram,policy=sideways");
    parseFail("dram,frobnicate=1");     // Unknown key.
    parseFail("queued,channels");       // Missing '='.
    parseFail("queued,=2");             // Missing key.
    // strtoull reads "-1" as 2^64 - 1 and the count fields are 32
    // bits wide: unchecked, these schedule events in the past, abort
    // in bad_alloc, or run a different backend than asked for.
    parseFail("fixed,transfer=-1");
    parseFail("fixed,latency=-1");
    parseFail("fixed,latency=+5");
    parseFail("fixed,latency= 5");
    parseFail("fixed,latency=18446744073709551616");  // ERANGE.
    parseFail("queued,channels=-1");
    parseFail("queued,channels=99999999999");
    parseFail("queued,channels=4294967296");  // 0 in 32 bits.
}

TEST(MemBackendSpec, LimitsAreInclusive)
{
    EXPECT_EQ(parseOk("queued,channels=64").channels, 64u);
    parseFail("queued,channels=65");
    EXPECT_EQ(parseOk("fixed,latency=1048576").accessLatency,
              kMaxMemCycles);
    parseFail("fixed,latency=1048577");
    parseFail("dram,trcd=1048577");
    EXPECT_EQ(parseOk("dram,row-bytes=1048576").rowBytes,
              kMaxRowBytes);
    parseFail("dram,row-bytes=1048640");
    EXPECT_EQ(parseOk("dram,channels=8,ranks=4,banks=128").channels,
              8u);  // 4096 banks in all.
    const std::string error =
        parseFail("dram,channels=8,ranks=4,banks=256");
    EXPECT_NE(error.find("channels x ranks x banks"), std::string::npos)
        << error;
    parseFail("dram,banks=4097");
}

TEST(MemBackendSpec, FailedParseLeavesSpecUntouched)
{
    MemBackendSpec spec;
    spec.kind = MemBackendKind::Queued;
    spec.channels = 8;
    std::string error;
    ASSERT_FALSE(parseMemBackendSpec("dram,banks=zero", spec, error));
    EXPECT_EQ(spec.kind, MemBackendKind::Queued);
    EXPECT_EQ(spec.channels, 8u);
}

/** Every field of @p spec, for an exact comparison. */
auto
fields(const MemBackendSpec &spec)
{
    return std::make_tuple(spec.kind, spec.accessLatency,
                           spec.transferCycles, spec.channels, spec.ranks,
                           spec.banksPerRank, spec.rowBytes, spec.tRcd,
                           spec.tCas, spec.tRp, spec.tRas, spec.policy);
}

/** Split @p text at every ',' (empty tokens kept). */
std::vector<std::string>
splitTokens(const std::string &text)
{
    std::vector<std::string> tokens(1);
    for (const char c : text) {
        if (c == ',')
            tokens.emplace_back();
        else
            tokens.back() += c;
    }
    return tokens;
}

std::string
joinTokens(const std::vector<std::string> &tokens)
{
    std::string text;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (i != 0)
            text += ',';
        text += tokens[i];
    }
    return text;
}

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &items)
{
    return items[rng.below(items.size())];
}

/**
 * Seeded mutation of valid specs: flip, drop, duplicate or splice
 * bytes and key=value tokens. Every mutant must either fail with a
 * message and leave the spec as it was, or parse to a spec whose
 * canonical form re-parses to itself and whose backend completes one
 * one-block request exactly once, in functional and in timing mode.
 */
TEST(MemBackendSpec, MutantsFailCleanlyOrRunOneRequest)
{
    const std::vector<std::string> seeds = {
        "fixed",
        "fixed,latency=90,transfer=4",
        "queued",
        "queued,channels=4,latency=5000",
        "dram,policy=closed,banks=16",
        "dram,channels=2,ranks=2,row-bytes=4096,trcd=45,tcas=30,trp=20,"
        "tras=100,transfer=3",
        "dram,channels=8,ranks=4,banks=128",  // 4096 banks: the limit.
    };
    const std::vector<std::string> keys = {
        "latency", "transfer", "channels", "ranks", "banks", "row-bytes",
        "trcd",    "tcas",     "trp",      "tras",  "policy", "", "bogus",
    };
    // Limits and one past them, zero, signs, spaces, other bases,
    // 2^64 - 1 and 2^64, policy words and junk.
    const std::vector<std::string> values = {
        "0",     "1",       "9",       "010",     "64",  "65",
        "128",   "180",     "4096",    "4097",    "1048576",
        "1048577",          "18446744073709551615",
        "18446744073709551616",        "-1",      "+5",  " 5",
        "5 ",    "0x10",    "",        "open",    "closed", "abc",
    };
    // Bytes a flip may write: the grammar's own alphabet, NUL and
    // a high byte.
    const std::string alphabet =
        std::string("fixedqungrambcsoptlw,=-+ 0123456789") + '\0' +
        '\xff';

    // A failed parse must leave every one of these fields alone.
    const MemBackendSpec sentinel =
        parseOk("dram,channels=3,ranks=2,banks=4,row-bytes=2048,trcd=7,"
                "tcas=8,trp=9,tras=10,transfer=5,policy=closed");

    Rng rng(0x5eed);
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    for (int n = 0; n < 4000; ++n) {
        std::string text = pick(rng, seeds);
        const int mutations = 1 + static_cast<int>(rng.below(2));
        for (int m = 0; m < mutations; ++m) {
            const std::string &other = pick(rng, seeds);
            const auto op = rng.below(8);
            if (op < 4) {
                // Byte level; an empty text only grows.
                const std::size_t at = rng.below(text.size() + 1);
                if (op == 0 && at < text.size()) {
                    text[at] = rng.below(2) != 0
                                   ? alphabet[rng.below(alphabet.size())]
                                   : static_cast<char>(
                                         text[at] ^ (1 << rng.below(8)));
                } else if (op == 1 && at < text.size()) {
                    text.erase(at, 1);
                } else if (op == 2 && at < text.size()) {
                    text.insert(at, text.substr(at, 1 + rng.below(4)));
                } else {
                    // Splice: this prefix, the other seed's suffix.
                    text = text.substr(0, at) +
                           other.substr(rng.below(other.size() + 1));
                }
                continue;
            }
            // Token level.
            std::vector<std::string> tokens = splitTokens(text);
            const std::size_t at = rng.below(tokens.size());
            if (op == 4) {
                const auto eq = tokens[at].find('=');
                const std::string key = eq == std::string::npos
                                            ? tokens[at]
                                            : tokens[at].substr(0, eq);
                tokens[at] = rng.below(4) == 0
                                 ? pick(rng, keys) + "=" +
                                       pick(rng, values)
                                 : key + "=" + pick(rng, values);
            } else if (op == 5) {
                tokens.erase(tokens.begin() +
                             static_cast<std::ptrdiff_t>(at));
            } else {
                // Duplicate this token, or splice in one of the other
                // seed's (which may belong to another kind).
                const std::string token =
                    op == 6 ? tokens[at] : pick(rng, splitTokens(other));
                tokens.insert(tokens.begin() +
                                  static_cast<std::ptrdiff_t>(at) + 1,
                              token);
            }
            text = joinTokens(tokens);
        }

        SCOPED_TRACE("mutant '" + text + "'");
        MemBackendSpec spec = sentinel;
        std::string error;
        if (!parseMemBackendSpec(text, spec, error)) {
            ++rejected;
            EXPECT_FALSE(error.empty());
            EXPECT_TRUE(fields(spec) == fields(sentinel));
        } else {
            ++accepted;
            MemBackendSpec again;
            ASSERT_TRUE(parseMemBackendSpec(spec.canonical(), again, error))
                << error;
            EXPECT_EQ(again.canonical(), spec.canonical());
            EXPECT_TRUE(fields(again) == fields(spec)) << spec.canonical();
            for (const bool functional : {true, false}) {
                EventQueue events;
                MemCtrlConfig config;
                config.functional = functional;
                auto mem = makeMemBackend(events, spec, config);
                int fired = 0;
                mem->request(TrafficClass::MetaLookup, Priority::Low,
                             rng.below(1ULL << 30) * kBlockBytes, 1,
                             [&fired](Cycle) { ++fired; });
                events.run();
                EXPECT_EQ(fired, 1) << "functional=" << functional;
            }
        }
        if (HasFailure())
            return;
    }
    // A mutator whose mutants all fail (or all parse) checks one side
    // only; this seed gives 599 parsed and 3,401 rejected.
    EXPECT_GT(accepted, 200u);
    EXPECT_GT(rejected, 200u);
}

} // namespace
} // namespace stms
