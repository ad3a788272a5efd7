#include "results/json.hh"

#include <cmath>
#include <cstdio>

namespace stms::results
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";  // JSON has no inf/nan.
    char buf[64];
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    // %.17g round-trips doubles exactly, which the determinism gates
    // and the golden-report comparison rely on.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace stms::results
