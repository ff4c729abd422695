/**
 * @file
 * The one checked way to write a whole text file at once: telemetry
 * and profiler sidecars, the CLI's --output and the figure binaries'
 * JSON dumps all go through it, so none of them can lose a file to
 * an unchecked write or close. (The journal appends and fsyncs
 * records itself.)
 */

#ifndef DCRA_SMT_COMMON_FILE_IO_HH
#define DCRA_SMT_COMMON_FILE_IO_HH

#include <string>

namespace smt {

/**
 * Replace @p path with @p text. Checks the open, the write and the
 * close (which flushes the buffered tail, so a full disk surfaces
 * there); on any failure calls warn() naming the path and returns
 * false.
 */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace smt

#endif // DCRA_SMT_COMMON_FILE_IO_HH
