/// \file
/// \brief Whole-file writes that readers never see half-done.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace mpx {

/// Replace `path` with the bytes `write` streams out. The bytes go to a
/// sibling temp file, which is flushed and then renamed over `path`, so a
/// reader of `path` sees either the old file or the whole new one — also
/// when the writer is killed mid-write (it leaves only its temp file
/// behind). No fsync: this guards against a dying process, not against
/// power loss. Throws std::runtime_error when the file cannot be written
/// or renamed; on any failure, exceptions from `write` included, the temp
/// file is removed before the exception propagates.
void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write);

}  // namespace mpx
