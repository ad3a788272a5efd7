#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace stms
{

Options
Options::fromArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        if (!opts.parseToken(argv[i]))
            stms_fatal("bad option '%s' (expected key=value)", argv[i]);
    }
    return opts;
}

bool
Options::parseToken(const std::string &token)
{
    std::size_t start = 0;
    while (start < token.size() && start < 2 && token[start] == '-')
        ++start;
    const auto eq = token.find('=', start);
    if (eq == std::string::npos || eq == start)
        return false;
    values_[token.substr(start, eq - start)] = token.substr(eq + 1);
    return true;
}

bool
Options::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Options::get(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
Options::getUint(const std::string &key, std::uint64_t fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    return parseSize(it->second);
}

double
Options::getDouble(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const char *text = it->second.c_str();
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        stms_fatal("bad number '%s' for key '%s'", text, key.c_str());
    return value;
}

bool
Options::getBool(const std::string &key, bool fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    stms_fatal("bad boolean value '%s' for key '%s'",
               it->second.c_str(), key.c_str());
}

void
Options::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

std::vector<std::string>
Options::keys() const
{
    std::vector<std::string> result;
    result.reserve(values_.size());
    for (const auto &[key, value] : values_)
        result.push_back(key);
    return result;
}

std::uint64_t
parseSize(const std::string &text)
{
    if (text.empty())
        return 0;
    // Digits, an optional fraction and at most one suffix, so strtod
    // below never sees a sign, space, exponent, hex or inf/nan.
    auto isDigit = [](char c) { return c >= '0' && c <= '9'; };
    std::size_t end = 0;
    while (end < text.size() && isDigit(text[end]))
        ++end;
    bool valid = end > 0;
    if (valid && end < text.size() && text[end] == '.') {
        const std::size_t fraction = ++end;
        while (end < text.size() && isDigit(text[end]))
            ++end;
        valid = end > fraction;
    }
    std::uint64_t scale = 1;
    if (valid && end + 1 == text.size()) {
        switch (std::toupper(static_cast<unsigned char>(text[end]))) {
          case 'K': scale = 1ULL << 10; break;
          case 'M': scale = 1ULL << 20; break;
          case 'G': scale = 1ULL << 30; break;
          case 'T': scale = 1ULL << 40; break;
          default: valid = false;
        }
    } else if (end != text.size()) {
        valid = false;
    }
    if (!valid)
        stms_fatal("bad size '%s': expected decimal digits, an optional "
                   "fraction and one K, M, G or T suffix", text.c_str());
    // Converting a double at or past 2^64 to uint64_t is undefined,
    // so those values stop here.
    const double bytes =
        std::strtod(text.c_str(), nullptr) * static_cast<double>(scale);
    if (!(bytes < 0x1p64))
        stms_fatal("size '%s' is out of range [0, 2^64)", text.c_str());
    return static_cast<std::uint64_t>(bytes);
}

bool
parseDecimal(const std::string &text, std::uint64_t &value)
{
    if (text.empty())
        return false;
    std::uint64_t parsed = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (parsed > (UINT64_MAX - digit) / 10)
            return false;
        parsed = parsed * 10 + digit;
    }
    value = parsed;
    return true;
}

std::string
formatSize(std::uint64_t bytes)
{
    const char *suffixes[] = {"B", "KB", "MB", "GB", "TB"};
    double value = static_cast<double>(bytes);
    std::size_t idx = 0;
    while (value >= 1024.0 && idx + 1 < std::size(suffixes)) {
        value /= 1024.0;
        ++idx;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%s", value, suffixes[idx]);
    return buf;
}

} // namespace stms
