#include "common/file_io.hh"

#include <cstdio>

#include "common/logging.hh"

namespace smt {

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("cannot write '%s'", path.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        warn("failed writing '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace smt
