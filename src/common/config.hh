/**
 * @file
 * A small key=value option store used by examples and bench binaries.
 *
 * Most configuration flows through plain structs with defaults copied
 * from Table 1 of the paper; Options exists so command-line users can
 * override individual knobs (`stms_quickstart workload=oltp-db2
 * sampling=0.125`).
 */

#ifndef STMS_COMMON_CONFIG_HH
#define STMS_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stms
{

/** Parsed key=value command-line options with typed accessors. */
class Options
{
  public:
    Options() = default;

    /** Parse argv-style arguments of the form key=value. */
    static Options fromArgs(int argc, char **argv);

    /** Parse a single key=value token (leading "--" or "-" dashes are
     *  accepted and stripped); returns false on bad syntax. */
    bool parseToken(const std::string &token);

    bool has(const std::string &key) const;

    std::string get(const std::string &key,
                    const std::string &fallback) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;
    /** The whole value must be a number: an empty or partly numeric
     *  value is fatal, never a silent 0. */
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    void set(const std::string &key, const std::string &value);

    /** All keys, sorted; handy for help/diagnostic output. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Parse a size string like "64M", "8K", "1.5K", "512" into bytes:
 * decimal digits, optionally '.' and more digits, then at most one
 * K, M, G or T (either case). The empty string is 0. Any other
 * spelling (sign, space, exponent, base prefix, a second suffix
 * letter) is fatal (exit 1), as is a value >= 2^64 after the scale.
 */
std::uint64_t parseSize(const std::string &text);

/**
 * Parse @p text as an unsigned decimal integer: one or more digits
 * and nothing else, so no sign, space, base prefix or suffix. Leading
 * zeros are decimal ("010" is 10). Returns false, leaving @p value
 * untouched, on any other text or a value past 2^64 - 1.
 */
bool parseDecimal(const std::string &text, std::uint64_t &value);

/** Render a byte count as a human-readable string ("64.0MB"). */
std::string formatSize(std::uint64_t bytes);

} // namespace stms

#endif // STMS_COMMON_CONFIG_HH
