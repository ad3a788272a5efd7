#include "results/store.hh"

#include <cstdio>

namespace stms::results
{

bool
atomicWriteFile(const std::string &path, const std::string &payload)
{
    // Same-directory temp so the rename never crosses filesystems.
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file)
        return false;
    const bool wrote =
        std::fwrite(payload.data(), 1, payload.size(), file) ==
        payload.size();
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace stms::results
