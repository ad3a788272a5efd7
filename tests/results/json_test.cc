/** @file Tests of the JSON writing helpers: escapes checked against
 *  literal JSON text, numbers read back through std::strtod. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "results/json.hh"

namespace stms::results
{
namespace
{

TEST(Json, EscapesRoundTripThroughWriter)
{
    const std::string original = "quote\" slash\\ tab\t nl\n ctrl\x01";
    EXPECT_EQ(jsonEscape(original),
              "quote\\\" slash\\\\ tab\\t nl\\n ctrl\\u0001");
    EXPECT_EQ(jsonEscape("cr\r"), "cr\\r");
    EXPECT_EQ(jsonEscape(std::string("unit\x1f")), "unit\\u001f");
    EXPECT_EQ(jsonEscape("plain/text é"), "plain/text é");
}

TEST(Json, NumbersRoundTripThroughWriter)
{
    for (const double value :
         {0.0, 42.0, 0.1, 1.0 / 3.0, 1.9155272670124155, -2.5e-7,
          1e15, 123456789012345.0}) {
        const std::string text = jsonNumber(value);
        char *end = nullptr;
        EXPECT_EQ(std::strtod(text.c_str(), &end), value) << text;
        EXPECT_EQ(*end, '\0') << text;
    }
}

} // namespace
} // namespace stms::results
