/// \file
/// \brief Snapshot implementation internals shared between snapshot.cpp
///        and snapshot_blocks.cpp — not part of the public API.
///
/// Everything here lives in `mpx::io::detail`: error raising, section
/// alignment, whole-file views (mmap-backed when the host has POSIX mmap,
/// owned reads otherwise), and the v2 header / block-index / structural
/// validators that both the one open path of the snapshot readers and the
/// lazy block reader need.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/snapshot.hpp"

namespace mpx::io::detail {

/// Throw the canonical snapshot error: "mpx::snapshot: <path>: <what>".
[[noreturn]] void snap_fail(const std::string& path, const std::string& what);

/// Round `offset` up to the next kSnapshotSectionAlign boundary.
[[nodiscard]] std::uint64_t snap_align_up(std::uint64_t offset);

/// A whole snapshot file as contiguous bytes. `keepalive` owns the backing
/// storage (an mmap or an owned buffer); `data` stays valid while any copy
/// of it lives.
struct SnapshotFileView {
  std::shared_ptr<const void> keepalive;  ///< Owns the mapping/buffer.
  const unsigned char* data = nullptr;    ///< First file byte.
  std::uint64_t bytes = 0;                ///< Total file size.
};

/// Map (or read) `path` whole. Throws std::runtime_error on I/O failure or
/// an empty file.
[[nodiscard]] SnapshotFileView snapshot_file_view(const std::string& path);

/// Check magic and return the version field, rejecting versions this
/// library does not implement with a message naming both the file's
/// version and the supported set. `bytes` is the file size (the first 16
/// bytes must exist).
[[nodiscard]] std::uint32_t snapshot_version_of(const unsigned char* data,
                                                std::uint64_t bytes,
                                                const std::string& path);

/// Decode + fully validate a v2 header from the file's first bytes:
/// magic, version, flags, header checksum, reserved bytes, and the
/// complete canonical section geometry against `file_bytes`. Throws on the
/// first violation.
[[nodiscard]] SnapshotHeaderV2 validate_header_v2(const unsigned char* data,
                                                  std::uint64_t file_bytes,
                                                  const std::string& path);

/// Validate a cold snapshot's block index against its header: per-block
/// arc counts must follow the fixed formula (so overlapping or overrunning
/// blocks are structurally impossible), payload lengths must tile the
/// targets section exactly, and first targets must be in range. The caller
/// has already verified the index section checksum. Throws on violation.
void validate_block_index(const SnapshotHeaderV2& h,
                          std::span<const codec::BlockIndexEntry> index,
                          const std::string& path);

/// Payload-level CSR validation shared by every load path: offsets
/// monotone spanning [0, num_arcs], targets in range, weights positive.
/// O(n + m) parallel scans; throws on the first violation.
void validate_structure(std::span<const edge_t> offsets,
                        std::span<const vertex_t> targets,
                        std::span<const double> weights,
                        const std::string& path);

/// The weights half of validate_structure: every weight positive. Throws
/// on a violation.
void validate_weights(std::span<const double> weights, const std::string& path);

}  // namespace mpx::io::detail
